package repro.woodblock

import java.util.Random
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** `Woodblock.legalCuts` from a parent's legal list equals a scan of every
  * cut, down random root-to-leaf paths over random stores, cut sets and `b`.
  */
class LegalityPropertySpec extends AnyFunSuite {

  private def randomCut(rng: Random): Pred = rng.nextInt(4) match {
    case 0 => LePred("cpu", rng.nextInt(100))
    case 1 => GePred("mem", rng.nextInt(64))
    case 2 => InPred("prio", (0 until 3).filter(_ => rng.nextBoolean()).toSet + rng.nextInt(3))
    case _ => AdvPred(0)
  }

  test("a child's legal cuts from its parent's list equal a full scan") {
    var inheritedFewer = 0 // paths where inheritance skipped some cuts
    val prop = Prop.forAllNoShrink(Gen.long) { seed =>
      val rng = new Random(seed)
      val store = Fixtures.store(Seq(0, 1, 63, 64, 65, 300, 1000)(rng.nextInt(7)), seed)
      val cuts = IndexedSeq.fill(1 + rng.nextInt(40))(randomCut(rng))
      val cutMasks = cuts.map(store.evalPred).toArray
      val all = Array.range(0, cuts.length)
      val b = 1 + rng.nextInt(store.n / 2 + 1)
      var mask = Bits.full(store.n)
      var legal = Woodblock.legalCuts(mask, store.n, all, cutMasks, b)
      val problems = Seq.newBuilder[String]
      var depth = 0
      while (depth < 6 && legal.nonEmpty) {
        // Split by one of the node's legal cuts, as an episode does.
        val cut = cutMasks(legal(rng.nextInt(legal.length)))
        mask = if (rng.nextBoolean()) Bits.and(mask, cut) else Bits.andNot(mask, cut)
        val size = Bits.count(mask)
        val inherited = Woodblock.legalCuts(mask, size, legal, cutMasks, b)
        val scanned = Woodblock.legalCuts(mask, size, all, cutMasks, b)
        if (!inherited.sameElements(scanned))
          problems += s"depth $depth, size $size: ${inherited.mkString(",")} != ${scanned.mkString(",")}"
        if (legal.length < all.length) inheritedFewer += 1
        legal = inherited
        depth += 1
      }
      val p = problems.result()
      Prop(p.isEmpty) :| s"n=${store.n} cuts=${cuts.length} b=$b: ${p.mkString("; ")}"
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(400).withInitialSeed(Seed(5201L)), prop)
    assert(res.passed, Pretty.pretty(res))
    assert(inheritedFewer > 0)
  }
}
