package repro.bench

import repro.SparkSpec
import repro.core._
import repro.ext.Overlap
import repro.woodblock.{Woodblock, WoodblockConfig}

/** The §5.1 Fig. 3 microbenchmark (Greedy 50.5% vs WOODBLOCK 10.4%, 4.8×)
  * and the §6.2 Fig. 4 overlap scenario at bench scale.
  */
class MicroBench extends SparkSpec {

  val q1: QExpr = Fixtures.fig3Q1
  val q2: QExpr = Fixtures.fig3Q2
  val cuts: IndexedSeq[Pred] = Fixtures.fig3Cuts
  lazy val store: ColumnStore = Fixtures.fig3Store(100000, 0)

  test("Fig. 3: greedy ~50.5%, WOODBLOCK ~10.4%, ~4.8x improvement") {
    val b = store.n / 120
    val g = Greedy.build(store, Seq(q1, q2), cuts, b)
    val gFrac = g.scanFraction(store, Seq(q1, q2), IndexedSeq(0, 1))
    val rl = Woodblock.train(store, Seq(q1, q2), cuts,
      WoodblockConfig(b = b, episodes = 30, updateEvery = 5, hidden = 16, seed = 0))
    val rFrac = rl.best.scanFraction(store, Seq(q1, q2), IndexedSeq(0, 1))
    println(f"== Fig. 3 == greedy=${gFrac * 100}%.2f%% (paper 50.5%%)  " +
      f"woodblock=${rFrac * 100}%.2f%% (paper 10.4%%)  improvement=${gFrac / rFrac}%.2fx (paper 4.8x)")
    assert(math.abs(gFrac - 0.505) < 0.02)
    assert(rFrac < 0.15)
    assert(gFrac / rFrac > 3.0)
  }

  test("Fig. 4 overlap: replication removes the 3N extra tuples") {
    val m2 = TableMeta(IndexedSeq(
      ColumnMeta("x", ColKind.Numeric, 0, 100),
      ColumnMeta("y", ColKind.Numeric, 0, 100)))
    val N = 2000
    val rng = new java.util.Random(1)
    def arm(xLo: Int, xHi: Int, yLo: Int, yHi: Int) = Seq.fill(N)(Array(
      (xLo + rng.nextInt(xHi - xLo + 1)).toDouble, (yLo + rng.nextInt(yHi - yLo + 1)).toDouble))
    val store2 = Encoder.fromRows(m2,
      arm(0, 44, 45, 55) ++ arm(56, 100, 45, 55) ++ arm(45, 55, 56, 100) ++ arm(45, 55, 0, 44) ++
        Seq(Array(50.0, 50.0)))
    def rect(xl: Double, xh: Double, yl: Double, yh: Double): QExpr =
      QAnd(Seq(QPred(GePred("x", xl)), QPred(LePred("x", xh)),
               QPred(GePred("y", yl)), QPred(LePred("y", yh))))
    val qs = Seq(rect(0, 50, 45, 55), rect(50, 100, 45, 55), rect(45, 55, 50, 100), rect(45, 55, 0, 50))
    val cs = Workload.candidateCuts(qs.zipWithIndex.map { case (q, i) => Query(s"q$i", q) })

    val strict = Greedy.build(store2, qs, cs, b = N)
    val tight = strict.tightLeafDescs(store2, IndexedSeq(0, 1))
    val strictPer = CostModel.accessedPerQuery(m2, qs,
      strict.tree.leaves.zip(tight).map { case (l, d) => (l.size, d) })
    val layout = Overlap.build(store2, qs, cs, b = N)
    val overlapPer = Overlap.accessedPerQuery(store2, layout, qs)
    println(s"== Fig. 4 == strict per-query accessed: ${strictPer.mkString(",")}  " +
      s"overlap: ${overlapPer.mkString(",")} (ideal: all ${N + 1})")
    assert(strictPer.max >= 2L * N, "naive binary cuts must over-read")
    assert(overlapPer.forall(_ == N + 1L), "overlap should reach the ideal")
  }
}
