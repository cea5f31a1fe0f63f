package repro.woodblock

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

class WoodblockSpec extends AnyFunSuite {

  test("Featurizer dimension and encoding") {
    val meta = Fixtures.meta
    val fz = new Featurizer(meta, IndexedSeq(0, 1, 2))
    // cpu, mem numeric -> 4; prio mask -> 3; 1 adv cut -> 3.
    assert(fz.dim == 4 + 3 + 3)
    val x = fz.featurize(NodeDesc.root(meta))
    assert(x(0) == 0.0 && x(1) == 1.0) // cpu normalized [0,1]
    assert(x.slice(4, 7).forall(_ == 1.0)) // full prio mask
    assert(x(7) == 1.0 && x(8) == 0.0 && x(9) == 0.0) // adv Mixed one-hot
  }

  test("Featurizer bucketizes large categorical domains") {
    val meta = TableMeta(IndexedSeq(ColumnMeta("big", ColKind.Categorical, 0, 999)))
    val fz = new Featurizer(meta, IndexedSeq(0))
    assert(fz.dim == 64)
    val root = NodeDesc.root(meta)
    assert(fz.featurize(root).forall(_ == 1.0))
    val restricted = root.restrict(meta, InPred("big", Set(0)), left = true)
    val x = fz.featurize(restricted)
    assert(x(0) == 1.0 && x.drop(1).forall(_ == 0.0))
  }

  test("episodes produce valid partitions with leaves >= b") {
    val store = Fixtures.store(2000, seed = 20)
    val w = Seq[QExpr](QPred(LePred("cpu", 19)), QPred(GePred("cpu", 80)), QPred(InPred("prio", Set(0))))
    val cuts = Workload.candidateCuts(w.zipWithIndex.map { case (e, i) => Query(s"q$i", e) })
    val res = Woodblock.train(store, w, cuts, WoodblockConfig(b = 200, episodes = 6, updateEvery = 3, hidden = 16, seed = 1))
    val masks = res.best.leafMasks
    assert(masks.map(Bits.count).sum == store.n)
    for (i <- masks.indices; j <- masks.indices if i < j)
      assert(Bits.countAnd(masks(i), masks(j)) == 0)
    for (l <- res.best.tree.leaves) assert(l.size >= 200)
    assert(res.curve.length == 6)
    assert(res.bestScanFraction <= res.curve.head.scanFraction + 1e-12)
    // Episodes 2 and 5 end with a PPO update and carry its losses.
    for (p <- res.curve) {
      if ((p.episode + 1) % 3 == 0) {
        val s = p.ppo.getOrElse(fail(s"episode ${p.episode} has no PPO stats"))
        for (x <- Seq(s.policyLoss, s.valueLoss, s.entropy)) assert(!x.isNaN && !x.isInfinite, s"$s")
        assert(s.valueLoss >= 0 && s.entropy >= 0, s"$s")
      } else assert(p.ppo.isEmpty)
    }
  }

  test("Fig. 3 microbenchmark: WOODBLOCK beats Greedy by exploiting disjunction") {
    val store = Fixtures.fig3Store(20000, seed = 30)
    val w = Seq(Fixtures.fig3Q1, Fixtures.fig3Q2)
    // b=150: the disk<10 side holds ~200 rows (1% of 20K), so the paper's
    // 4-block layout is actually legal to construct.
    val greedy = Greedy.build(store, w, Fixtures.fig3Cuts, b = 150)
    val gFrac = greedy.scanFraction(store, w, IndexedSeq(0, 1))
    val rl = Woodblock.train(store, w, Fixtures.fig3Cuts,
      WoodblockConfig(b = 150, episodes = 30, updateEvery = 5, hidden = 16, seed = 2))
    val rFrac = rl.best.scanFraction(store, w, IndexedSeq(0, 1))
    assert(gFrac > 0.49, s"greedy $gFrac") // ~50.5% per the paper
    assert(rFrac < 0.2, s"rl $rFrac")      // ~10.4% per the paper
    assert(gFrac / rFrac > 2.5, s"improvement ${gFrac / rFrac} (paper: 4.8x)")
  }

  test("best tree is deployed even if later episodes regress") {
    val store = Fixtures.store(1000, seed = 40)
    val w = Seq[QExpr](QPred(LePred("cpu", 9)))
    val cuts = IndexedSeq[Pred](LePred("cpu", 9), LePred("mem", 31))
    val res = Woodblock.train(store, w, cuts, WoodblockConfig(b = 100, episodes = 10, updateEvery = 5, hidden = 8, seed = 3))
    val fracs = res.curve.map(_.scanFraction)
    assert(res.bestScanFraction == fracs.min)
  }

  test("no legal cuts => single-leaf tree, no crash") {
    val store = Fixtures.store(150, seed = 50)
    val w = Seq[QExpr](QPred(LePred("cpu", 50)))
    val cuts = IndexedSeq[Pred](LePred("cpu", 50))
    val res = Woodblock.train(store, w, cuts, WoodblockConfig(b = 100, episodes = 3, hidden = 8, seed = 4))
    assert(res.best.tree.numLeaves == 1)
  }

  test("timeLimitMs stops training early") {
    val store = Fixtures.store(2000, seed = 60)
    val w = Seq[QExpr](QPred(LePred("cpu", 19)))
    val cuts = IndexedSeq[Pred](LePred("cpu", 19), LePred("mem", 31), InPred("prio", Set(0)))
    val res = Woodblock.train(store, w, cuts,
      WoodblockConfig(b = 100, episodes = 100000, updateEvery = 10, hidden = 8, seed = 5, timeLimitMs = 300))
    assert(res.curve.length < 100000)
  }

  test("update episodes are time-stamped after their PPO update") {
    val store = Fixtures.store(2000, seed = 60)
    val w = Seq[QExpr](QPred(LePred("cpu", 19)))
    val cuts = IndexedSeq[Pred](LePred("cpu", 19), LePred("mem", 31), InPred("prio", Set(0)))
    // Every episode ends with an update of 3000 epochs, which takes far
    // longer than the 100 ms budget; the episode's rollout takes far less.
    val cfg = WoodblockConfig(b = 100, episodes = 5, updateEvery = 1, hidden = 64, seed = 6,
      timeLimitMs = 100, ppo = PpoConfig(epochs = 3000))
    val t0 = System.nanoTime()
    val res = Woodblock.train(store, w, cuts, cfg)
    val wallMs = (System.nanoTime() - t0) / 1000000
    assert(res.curve.length == 1, "the first update exhausts the budget")
    val p = res.curve.head
    assert(p.ppo.isDefined)
    assert(p.elapsedMs > cfg.timeLimitMs && p.elapsedMs * 2 >= wallMs, s"elapsedMs=${p.elapsedMs} wall=$wallMs")
  }
}
