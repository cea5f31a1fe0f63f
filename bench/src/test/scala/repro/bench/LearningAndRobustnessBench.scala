package repro.bench

import repro.SparkSpec
import repro.core._
import repro.harness.Table2
import repro.layout.Evaluator
import repro.workload.TpchWorkload

/** Fig. 8 (learning curve) and the §7.4.1 robustness experiment (10× test
  * queries with unseen literals perform like the training queries).
  */
class LearningAndRobustnessBench extends SparkSpec {

  test("Fig. 8: WOODBLOCK improves over episodes; random init already beats Random") {
    val run = BenchData.tpchRun
    val rl = run.schemes.find(_.scheme == "RL").get
    val curve = rl.curve
    assert(curve.nonEmpty)
    val first = curve.head.scanFraction
    val best = curve.last.bestSoFar
    println(f"== Fig. 8 == episodes=${curve.length} first-episode scan=${first * 100}%.1f%% " +
      f"best=${best * 100}%.1f%% (paper: init ~39%% << Random 56%%, improves over ~10 min)")
    val trainS = curve.last.elapsedMs / 1000.0
    println(f"  ${curve.length / math.max(trainS, 1e-3)}%.1f episodes/s over $trainS%.1f s")
    println(curve.grouped(math.max(1, curve.length / 10)).map(_.head)
      .map(p => f"  ep${p.episode}%4d t=${p.elapsedMs / 1000}%4ds scan=${p.scanFraction * 100}%6.2f%% best=${p.bestSoFar * 100}%6.2f%%")
      .mkString("\n"))
    val updates = curve.filter(_.ppo.isDefined)
    println(s"  PPO, ${updates.length} updates:")
    println(updates.grouped(math.max(1, updates.length / 10)).map(_.head)
      .map { p =>
        val s = p.ppo.get
        f"  ep${p.episode}%4d policy_loss=${s.policyLoss}%+.4f value_loss=${s.valueLoss}%.4f entropy=${s.entropy}%.3f"
      }.mkString("\n"))
    // Improvement over the run.
    assert(best <= first, "best-so-far must not regress")
    // Random init (workload-aligned cuts) beats the Random partitioner.
    val randomFrac = run.schemes.find(_.scheme == "Baseline").get.accessPercent / 100
    assert(first < randomFrac, s"first=$first random=$randomFrac")
  }

  test("Fig. 9: interpret the learned tree — cut variety per column") {
    val tree = BenchData.tpchRun.schemes.find(_.scheme == "RL").get.tree.get
    def cuts(n: QdNode): Seq[Pred] = n match {
      case QdInternal(_, c, l, r) => c +: (cuts(l) ++ cuts(r))
      case _ => Nil
    }
    val byCol = cuts(tree.root).groupBy {
      case LePred(c, _) => c
      case GePred(c, _) => c
      case InPred(c, _) => c
      case a: AdvPred   => s"AC${a.idx}"
    }.view.mapValues(_.size).toSeq.sortBy(-_._2)
    println("== Fig. 9 == cuts per column in the best RL tree:")
    byCol.foreach { case (c, n) => println(f"  $c%-16s $n%4d") }
    // The paper observes high cut variety (8 columns cut >= 20 times at
    // their scale); at ours, require several distinct columns to be cut.
    assert(byCol.size >= 4, s"only ${byCol.size} columns cut: $byCol")
  }

  test("robustness: unseen literals (10x reseeded queries) perform comparably") {
    // Different seeds change how many query instances intersect the month
    // slice at all, which shifts the absolute access % for EVERY layout.
    // The robustness claim is about the qd-tree's advantage persisting, so
    // we normalize by the baseline layout evaluated on the same query set.
    val ctx = BenchData.tpchCtx
    val rl = BenchData.tpchRun.schemes.find(_.scheme == "RL").get
    val base = BenchData.tpchRun.schemes.find(_.scheme == "Baseline").get
    val testQueries = TpchWorkload.queries(ctx.meta, seedsPerTemplate = 10, seed = 987654,
      litDomains = repro.workload.TpchDenorm.fullDateDomain)
    val w = testQueries.map(_.expr)
    val rlTest = Evaluator.evaluate(rl.layout, ctx.meta, w, ctx.queried).accessPercent
    val baseTest = Evaluator.evaluate(base.layout, ctx.meta, w, ctx.queried).accessPercent
    val ratioTrain = rl.accessPercent / base.accessPercent
    val ratioTest = rlTest / baseTest
    println(f"== Robustness == train: RL=${rl.accessPercent}%.2f%% base=${base.accessPercent}%.2f%% " +
      f"(ratio ${ratioTrain}%.2f) | test: RL=$rlTest%.2f%% base=$baseTest%.2f%% (ratio ${ratioTest}%.2f) " +
      f"(paper: 7752 ms train vs 7776 ms test)")
    assert(ratioTest < ratioTrain * 1.75, s"testRatio=$ratioTest trainRatio=$ratioTrain")
    assert(rlTest < baseTest, "qd-tree must keep beating the baseline on unseen literals")
  }
}
