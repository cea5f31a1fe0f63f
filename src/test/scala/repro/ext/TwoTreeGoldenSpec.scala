package repro.ext

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.GreedyGoldenSpec.digest

/** Second trees (§6.3) recorded before `TwoTree` moved onto the shared
  * construction kernel, which scores cuts in parallel and inherits legality.
  * The kernel must reproduce them exactly: same cuts, same BIDs, same leaf
  * row sets, same combined per-query access.
  */
class TwoTreeGoldenSpec extends AnyFunSuite {
  import TwoTreeGoldenSpec.Golden

  private val w: IndexedSeq[QExpr] = IndexedSeq(
    QPred(LePred("cpu", 19)),
    QPred(GePred("cpu", 80)),
    QPred(LePred("mem", 7)),
    QPred(GePred("mem", 56)),
    QAnd(Seq(QPred(GePred("mem", 48)), QPred(InPred("prio", Set(2))))),
    QPred(InPred("prio", Set(0))),
    QPred(AdvPred(0)))
  private val queries = w.zipWithIndex.map { case (e, i) => Query(s"q$i", e) }
  private val cuts = Workload.candidateCuts(queries)

  /** `Fixtures.store(3000, seed)`; T1 is Greedy over the first two cuts
    * (cpu only), T2 may use every cut.
    */
  private val goldens = Seq(
    Golden(1L, 60, "59d9a461a73025deb7a08b2a97a4edcf46922d8965668e47a674a80858f165fc", Seq(600, 610, 361, 574, 270, 1001, 2054),
      """root [mem >= 48.0]
         |  T: [prio IN (2)]
         |    T: [AC0]
         |      T: leaf bid=0 size=119
         |      F: [mem >= 56.0]
         |        T: leaf bid=1 size=80
         |        F: leaf bid=2 size=71
         |    F: [AC0]
         |      T: [prio IN (0)]
         |        T: leaf bid=3 size=116
         |        F: leaf bid=4 size=116
         |      F: [mem >= 56.0]
         |        T: [prio IN (0)]
         |          T: leaf bid=5 size=77
         |          F: leaf bid=6 size=66
         |        F: [prio IN (0)]
         |          T: leaf bid=7 size=69
         |          F: leaf bid=8 size=65
         |  F: [mem <= 7.0]
         |    T: [prio IN (0)]
         |      T: leaf bid=9 size=129
         |      F: leaf bid=10 size=232
         |    F: [prio IN (0)]
         |      T: [AC0]
         |        T: leaf bid=11 size=445
         |        F: leaf bid=12 size=165
         |      F: [AC0]
         |        T: leaf bid=13 size=897
         |        F: leaf bid=14 size=353
         |""".stripMargin),
    Golden(1L, 150, "24940613554994d52e9828ffd6ff2cc4cc0041538fdd9912e9249daa1ee718b5", Seq(600, 610, 361, 779, 270, 1480, 2205),
      """root [mem >= 48.0]
         |  T: [prio IN (2)]
         |    T: leaf bid=0 size=270
         |    F: [AC0]
         |      T: leaf bid=1 size=232
         |      F: leaf bid=2 size=277
         |  F: [mem <= 7.0]
         |    T: leaf bid=3 size=361
         |    F: [prio IN (0)]
         |      T: [AC0]
         |        T: leaf bid=4 size=445
         |        F: leaf bid=5 size=165
         |      F: [AC0]
         |        T: leaf bid=6 size=897
         |        F: leaf bid=7 size=353
         |""".stripMargin),
    Golden(7L, 60, "a945a30ba0d902164cda87413a5799fd20d0b8eeb5de98ba7e5252fc1ca1b00e", Seq(615, 576, 329, 455, 272, 1014, 2004),
      """root [mem >= 48.0]
         |  T: [prio IN (2)]
         |    T: [AC0]
         |      T: leaf bid=0 size=110
         |      F: [mem >= 56.0]
         |        T: leaf bid=1 size=84
         |        F: leaf bid=2 size=78
         |    F: [AC0]
         |      T: [mem >= 56.0]
         |        T: leaf bid=3 size=98
         |        F: [prio IN (0)]
         |          T: leaf bid=4 size=67
         |          F: leaf bid=5 size=61
         |      F: [prio IN (0)]
         |        T: [mem >= 56.0]
         |          T: leaf bid=6 size=81
         |          F: leaf bid=7 size=66
         |        F: [mem >= 56.0]
         |          T: leaf bid=8 size=82
         |          F: leaf bid=9 size=86
         |  F: [mem <= 7.0]
         |    T: [prio IN (0)]
         |      T: leaf bid=10 size=111
         |      F: leaf bid=11 size=218
         |    F: [prio IN (0)]
         |      T: [AC0]
         |        T: leaf bid=12 size=428
         |        F: leaf bid=13 size=163
         |      F: [AC0]
         |        T: leaf bid=14 size=911
         |        F: leaf bid=15 size=356
         |""".stripMargin),
    Golden(7L, 150, "d5671adab7a19cf89484b11f9293dec1eb2e058c113c4a8e7ac043de013a5a30", Seq(615, 576, 329, 661, 272, 1461, 2166),
      """root [mem >= 48.0]
         |  T: [prio IN (2)]
         |    T: leaf bid=0 size=272
         |    F: [AC0]
         |      T: leaf bid=1 size=226
         |      F: [mem >= 56.0]
         |        T: leaf bid=2 size=163
         |        F: leaf bid=3 size=152
         |  F: [mem <= 7.0]
         |    T: leaf bid=4 size=329
         |    F: [prio IN (0)]
         |      T: [AC0]
         |        T: leaf bid=5 size=428
         |        F: leaf bid=6 size=163
         |      F: [AC0]
         |        T: leaf bid=7 size=911
         |        F: leaf bid=8 size=356
         |""".stripMargin),
    Golden(70L, 60, "bad000cc9c1e3b9633eaf5d42eb6306c6e74a0321f532e9c52efe30673a502e2", Seq(641, 566, 385, 546, 243, 966, 2022),
      """root [mem >= 48.0]
         |  T: [prio IN (2)]
         |    T: [AC0]
         |      T: leaf bid=0 size=115
         |      F: [mem >= 56.0]
         |        T: leaf bid=1 size=66
         |        F: leaf bid=2 size=62
         |    F: [AC0]
         |      T: [prio IN (0)]
         |        T: leaf bid=3 size=96
         |        F: leaf bid=4 size=111
         |      F: [prio IN (0)]
         |        T: [mem >= 56.0]
         |          T: leaf bid=5 size=71
         |          F: leaf bid=6 size=63
         |        F: [mem >= 56.0]
         |          T: leaf bid=7 size=87
         |          F: leaf bid=8 size=77
         |  F: [mem <= 7.0]
         |    T: [prio IN (0)]
         |      T: leaf bid=9 size=113
         |      F: leaf bid=10 size=272
         |    F: [prio IN (0)]
         |      T: [AC0]
         |        T: leaf bid=11 size=440
         |        F: leaf bid=12 size=183
         |      F: [AC0]
         |        T: leaf bid=13 size=875
         |        F: leaf bid=14 size=369
         |""".stripMargin),
    Golden(70L, 150, "836666f28771ecba41627c88191ff57017c1368053679241be1538a7f28c7261", Seq(641, 566, 385, 748, 243, 1513, 2150),
      """root [mem >= 48.0]
         |  T: [prio IN (2)]
         |    T: leaf bid=0 size=243
         |    F: [AC0]
         |      T: leaf bid=1 size=207
         |      F: leaf bid=2 size=298
         |  F: [mem <= 7.0]
         |    T: leaf bid=3 size=385
         |    F: [prio IN (0)]
         |      T: [AC0]
         |        T: leaf bid=4 size=440
         |        F: leaf bid=5 size=183
         |      F: [AC0]
         |        T: leaf bid=6 size=875
         |        F: leaf bid=7 size=369
         |""".stripMargin))

  private def build(g: Golden): TwoTree.Result = {
    val store = Fixtures.store(3000, g.seed)
    val queried = Workload.queriedCols(store.meta, queries)
    val t1 = Greedy.build(store, w, cuts.take(2), g.b)
    val a1 = CostModel.accessedPerQuery(store.meta, w,
      t1.tree.leaves.zip(t1.tightLeafDescs(store, queried)).map { case (l, d) => (l.size, d) })
    TwoTree.buildSecond(store, w, cuts, g.b, a1)
  }

  for (g <- goldens) {
    test(s"seed ${g.seed}, b=${g.b}: second tree, leaf masks and combined access match the recorded build") {
      val res = build(g)
      assert(res.second.tree.render.trim == g.render.trim)
      assert(digest(res.second.leafMasks) == g.maskDigest)
      assert(res.combinedAccessedPerQuery.toSeq == g.combined)
    }
  }

  test("repeated builds are identical (parallel cut scoring is deterministic)") {
    for (g <- goldens) {
      val first = build(g)
      for (_ <- 1 until 5) {
        val again = build(g)
        assert(again.second.tree.render == first.second.tree.render)
        assert(again.second.leafMasks.map(_.toSeq) == first.second.leafMasks.map(_.toSeq))
        assert(again.combinedAccessedPerQuery.toSeq == first.combinedAccessedPerQuery.toSeq)
      }
    }
  }
}

object TwoTreeGoldenSpec {
  final case class Golden(seed: Long, b: Int, maskDigest: String, combined: Seq[Long], render: String)
}
