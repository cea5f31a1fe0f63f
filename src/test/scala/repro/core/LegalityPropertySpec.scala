package repro.core

import java.util.Random
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.ext.{Overlap, TwoTree}
import repro.woodblock.{Woodblock, WoodblockConfig}

/** `BuildKernel.legal` from a parent's legal list equals a scan of every
  * cut, and that scan follows the rule (both children ≥ m rows, one ≥ b;
  * m = b strictly, m = 1 relaxed), down random root-to-leaf paths over
  * random stores, cut sets, `b` and modes.
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
      val cutMasks = cuts.map(store.evalPred)
      val all = Array.range(0, cuts.length)
      val b = 1 + rng.nextInt(store.n / 2 + 1)
      val relaxed = rng.nextBoolean()
      val m = if (relaxed) 1 else b
      val k = new BuildKernel(store, cuts.map(QPred(_)), cuts, b, relaxed)
      def byRule(node: BuildNode): Array[Int] = all.filter { ci =>
        val ln = Bits.countAnd(node.mask, cutMasks(ci))
        val rn = node.size - ln
        ln >= m && rn >= m && (ln >= b || rn >= b)
      }
      var node = k.root()
      var legal = k.legal(node)
      val problems = Seq.newBuilder[String]
      if (!legal.sameElements(byRule(node))) problems += s"root: ${legal.mkString(",")} breaks the rule"
      var depth = 0
      while (depth < 6 && legal.nonEmpty) {
        // Split by one of the node's legal cuts, as a constructor does.
        k.split(node, legal(rng.nextInt(legal.length)), legal)
        node = if (rng.nextBoolean()) node.left else node.right
        val inherited = k.legal(node)
        val scanned = k.legal(new BuildNode(node.mask, node.size, node.desc, all))
        if (!inherited.sameElements(scanned))
          problems += s"depth $depth, size ${node.size}: ${inherited.mkString(",")} != ${scanned.mkString(",")}"
        if (!scanned.sameElements(byRule(node)))
          problems += s"depth $depth, size ${node.size}: ${scanned.mkString(",")} breaks the rule"
        if (legal.length < all.length) inheritedFewer += 1
        legal = inherited
        depth += 1
      }
      val p = problems.result()
      Prop(p.isEmpty) :| s"n=${store.n} cuts=${cuts.length} b=$b relaxed=$relaxed: ${p.mkString("; ")}"
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(400).withInitialSeed(Seed(5201L)), prop)
    assert(res.passed, Pretty.pretty(res))
    assert(inheritedFewer > 0)
  }

  test("b = 0 is rejected by every constructor") {
    val store = Fixtures.store(100)
    val w = IndexedSeq[QExpr](QPred(LePred("cpu", 49)))
    val cuts = IndexedSeq[Pred](LePred("cpu", 49))
    assertThrows[IllegalArgumentException](Greedy.build(store, w, cuts, b = 0))
    assertThrows[IllegalArgumentException](Greedy.build(store, w, cuts, b = 0, relaxed = true))
    assertThrows[IllegalArgumentException](Woodblock.train(store, w, cuts, WoodblockConfig(b = 0, episodes = 1)))
    assertThrows[IllegalArgumentException](TwoTree.buildSecond(store, w, cuts, b = 0, Array(store.n.toLong)))
    assertThrows[IllegalArgumentException](Overlap.build(store, w, cuts, b = 0))
  }
}
