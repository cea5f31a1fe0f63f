package repro.core

import java.util.Random
import scala.collection.immutable.BitSet
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

/** `ColumnStore.tighten` and `tightenChildren` against a brute-force
  * recomputation from `Pred.eval` and `TableMeta.evalAdv`, over random stores.
  */
class TightenPropertySpec extends AnyFunSuite {
  import TightenPropertySpec.Case

  /** Numeric columns n0..nK over small (possibly negative) domains, so the
    * advanced cuts see ties; a 130-code categorical crossing two 64-code word
    * boundaries; a second categorical of 1, 3, 64 or 65 codes. Advanced cuts
    * cover `<`, `<=` and `=`.
    */
  private def mkCase(seed: Long): Case = {
    val rng = new Random(seed)
    val nNum = 2 + rng.nextInt(3)
    val nums = (0 until nNum).map { i =>
      val lo = rng.nextInt(7) - 3
      ColumnMeta(s"n$i", ColKind.Numeric, lo, lo + rng.nextInt(12))
    }
    val cats = IndexedSeq(
      ColumnMeta("wide", ColKind.Categorical, 0, 129),
      ColumnMeta("c1", ColKind.Categorical, 0, Seq(1, 3, 64, 65)(rng.nextInt(4)) - 1))
    val adv = IndexedSeq(
      AdvCutDef("n0", "<", "n1"),
      AdvCutDef("n1", "<=", s"n${nNum - 1}"),
      AdvCutDef("n0", "=", "n1"),
      AdvCutDef("wide", "=", "c1"))
    val meta = TableMeta(nums ++ cats, adv)

    val n = Seq(0, 1, 63, 64, 65, 200, 300)(rng.nextInt(7))
    val skewed = rng.nextBoolean() // few distinct codes per categorical column
    val rows = Seq.fill(n)(meta.columns.map { c =>
      val span = c.domainSize
      val k = if (skewed && c.isCategorical) rng.nextInt(math.min(span, 4)) * (span / 4 max 1) else rng.nextInt(span)
      c.lo + k
    }.toArray)
    val store = Encoder.fromRows(meta, rows)

    def randMask(density: Double): Array[Long] = {
      val m = Bits.alloc(n)
      for (r <- 0 until n if rng.nextDouble() < density) Bits.set(m, r)
      m
    }
    val nodeMask = randMask(Seq(0.0, 0.1, 0.5, 1.0)(rng.nextInt(4)))
    val cutMask =
      if (rng.nextBoolean()) randMask(Seq(0.0, 0.3, 0.7, 1.0)(rng.nextInt(4)))
      else store.evalPred(Seq[Pred](
        LePred("n0", nums(0).lo + 2), InPred("wide", Set(0, 64, 129)), AdvPred(rng.nextInt(adv.length)))(rng.nextInt(3)))

    val queried = meta.columns.indices.filter(_ => rng.nextDouble() < 0.6)

    /** Root description with random advanced tri-states and narrowed
      * bounds/masks, so the columns and slots tightening must keep are
      * distinguishable from the root.
      */
    def randBase(): NodeDesc = {
      val root = NodeDesc.root(meta)
      val lo = root.lo.clone(); val hi = root.hi.clone(); val masks = root.masks.clone()
      for (i <- meta.columns.indices) {
        if (masks(i) != null) masks(i) = masks(i).filter(_ => rng.nextBoolean())
        else { lo(i) += rng.nextInt(2); hi(i) -= rng.nextInt(2) }
      }
      new NodeDesc(lo, hi, masks, Array.fill(meta.nAdv)(rng.nextInt(3).toByte))
    }
    Case(store, queried, randBase(), randBase(), nodeMask, cutMask)
  }

  /** Tightening recomputed row by row from the predicate semantics. */
  private def bruteForce(store: ColumnStore, base: NodeDesc, rows: Seq[Int], queried: IndexedSeq[Int]): NodeDesc = {
    val meta = store.meta
    val lo = base.lo.clone(); val hi = base.hi.clone()
    val masks = base.masks.clone(); val adv = base.adv.clone()
    for (i <- queried) {
      val vs = rows.map(store.value(i, _))
      if (meta.columns(i).isCategorical) masks(i) = BitSet(vs.map(_.toInt): _*)
      else {
        lo(i) = vs.foldLeft(Double.PositiveInfinity)(math.min)
        hi(i) = vs.foldLeft(Double.NegativeInfinity)(math.max)
      }
    }
    if (rows.nonEmpty) for (a <- 0 until meta.nAdv) {
      val d = meta.advCuts(a)
      val viaEval = rows.count(r => AdvPred(a).eval(meta, store.rowFn(r)))
      val viaMeta = rows.count(r => meta.evalAdv(a, store.value(meta.idx(d.left), r), store.value(meta.idx(d.right), r)))
      require(viaEval == viaMeta)
      adv(a) =
        if (viaEval == rows.length) AdvState.AllTrue
        else if (viaEval == 0) AdvState.AllFalse
        else AdvState.Mixed
    }
    new NodeDesc(lo, hi, masks, adv)
  }

  private def diff(what: String, got: NodeDesc, want: NodeDesc): Seq[String] = {
    val out = Seq.newBuilder[String]
    for (i <- got.lo.indices) {
      if (got.lo(i) != want.lo(i) || got.hi(i) != want.hi(i))
        out += s"$what col $i bounds [${got.lo(i)},${got.hi(i)}] != [${want.lo(i)},${want.hi(i)}]"
      if (got.masks(i) != want.masks(i)) out += s"$what col $i mask ${got.masks(i)} != ${want.masks(i)}"
    }
    if (!got.adv.sameElements(want.adv))
      out += s"$what adv ${got.adv.mkString(",")} != ${want.adv.mkString(",")}"
    out.result()
  }

  private def check(prop: Prop): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(400).withInitialSeed(Seed(20200614L))
    val res = Test.check(params, prop)
    assert(res.passed, Pretty.pretty(res))
  }

  private val cases: Gen[Case] = Gen.long.map(mkCase)

  test("tighten equals brute-force recomputation") {
    check(Prop.forAllNoShrink(cases) { c =>
      val rows = Bits.toIndices(c.nodeMask).toSeq
      val problems = diff("tight", c.store.tighten(c.baseLeft, c.nodeMask, c.queried),
        bruteForce(c.store, c.baseLeft, rows, c.queried))
      Prop(problems.isEmpty) :| problems.mkString("; ")
    })
  }

  test("tightenChildren equals brute-force recomputation of both children") {
    var emptyChildren = 0 // an empty child must keep its base tri-states
    check(Prop.forAllNoShrink(cases) { c =>
      val rows = Bits.toIndices(c.nodeMask).toSeq
      val (lRows, rRows) = rows.partition(Bits.get(c.cutMask, _))
      val (ld, rd, lc, rc) = c.store.tightenChildren(c.baseLeft, c.baseRight, c.nodeMask, c.cutMask, c.queried)
      if (lRows.isEmpty || rRows.isEmpty) emptyChildren += 1
      val problems =
        diff("left", ld, bruteForce(c.store, c.baseLeft, lRows, c.queried)) ++
          diff("right", rd, bruteForce(c.store, c.baseRight, rRows, c.queried)) ++
          (if (lc != lRows.length || rc != rRows.length) Seq(s"counts ($lc,$rc) != (${lRows.length},${rRows.length})")
           else Nil)
      Prop(problems.isEmpty) :| problems.mkString("; ")
    })
    assert(emptyChildren > 0)
  }
}

object TightenPropertySpec {
  /** A random store plus one tightening problem over it. */
  final case class Case(
      store: ColumnStore,
      queried: IndexedSeq[Int],
      baseLeft: NodeDesc,
      baseRight: NodeDesc,
      nodeMask: Array[Long],
      cutMask: Array[Long]) {
    override def toString: String =
      s"Case(n=${store.n}, cols=${store.meta.columns.map(c => s"${c.name}[${c.lo},${c.hi}]").mkString(",")}, " +
        s"queried=$queried, node=${Bits.count(nodeMask)}, left=${Bits.countAnd(nodeMask, cutMask)})"
  }
}
