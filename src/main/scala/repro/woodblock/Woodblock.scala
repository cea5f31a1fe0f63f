package repro.woodblock

import java.util.Random
import repro.core._

/** Featurization of a qd-tree node state (§5.2.3): the concatenation of the
  * node's range hypercube (normalized per queried numeric column) and its
  * categorical masks, plus a 3-way one-hot per advanced-cut tri-state.
  * Categorical domains larger than 64 are bucketized to 64 mask bits (the
  * description itself stays exact; this only bounds the net's input).
  */
final class Featurizer(meta: TableMeta, queriedCols: IndexedSeq[Int], maxMaskBits: Int = 64) {
  private val numCols = queriedCols.filter(i => !meta.columns(i).isCategorical)
  private val catCols = queriedCols.filter(i => meta.columns(i).isCategorical)
  private val catBits = catCols.map(i => math.min(meta.columns(i).domainSize, maxMaskBits))
  val dim: Int = numCols.length * 2 + catBits.sum + meta.nAdv * 3

  def featurize(d: NodeDesc): Array[Double] = {
    val out = new Array[Double](dim)
    var k = 0
    for (i <- numCols) {
      val cm = meta.columns(i)
      val span = math.max(cm.hi - cm.lo, 1.0)
      out(k) = (d.lo(i) - cm.lo) / span; k += 1
      out(k) = (d.hi(i) - cm.lo) / span; k += 1
    }
    for ((i, bits) <- catCols.zip(catBits)) {
      val dom = meta.columns(i).domainSize
      val mask = d.masks(i)
      if (dom <= bits) {
        var v = 0
        while (v < dom) { if (mask(v)) out(k + v) = 1.0; v += 1 }
      } else {
        // Bucketized: bit j set iff any present code maps to bucket j.
        mask.foreach(v => out(k + (v.toLong * bits / dom).toInt) = 1.0)
      }
      k += bits
    }
    var a = 0
    while (a < meta.nAdv) {
      out(k + d.adv(a)) = 1.0
      k += 3; a += 1
    }
    out
  }
}

/** Configuration for WOODBLOCK training (§5.2). `b` is the minimum block
  * size in *store rows*, at least 1 — when the store is an s-fraction sample
  * of the table, pass ceil(s·b_table) (§5.2.1).
  */
final case class WoodblockConfig(
    b: Int,
    episodes: Int = 200,
    updateEvery: Int = 8,
    hidden: Int = 128,
    seed: Long = 0,
    timeLimitMs: Long = Long.MaxValue,
    ppo: PpoConfig = PpoConfig())

/** Mean PPO policy loss, value loss and entropy of an update's last epoch. */
final case class PpoStats(policyLoss: Double, valueLoss: Double, entropy: Double)

/** One point of the learning curve: episode index, this episode's scan
  * fraction, the best scan fraction so far, the training time at the end of
  * the episode (its PPO update included), and — on episodes that end with a
  * PPO update — that update's losses and entropy.
  */
final case class EpisodePoint(
    episode: Int,
    scanFraction: Double,
    bestSoFar: Double,
    elapsedMs: Long,
    ppo: Option[PpoStats] = None)

final case class WoodblockResult(best: BuildResult, bestScanFraction: Double, curve: IndexedSeq[EpisodePoint])

/** WOODBLOCK (§5): a deep-RL agent that learns to construct qd-trees.
  *
  * Each episode constructs one tree: nodes come off an exploration queue,
  * the policy net emits a distribution over candidate cuts (illegal cuts —
  * those leaving a child under b sample rows — are masked), an action is
  * sampled, children are enqueued; a node with no legal cuts becomes a leaf
  * (§5.2.1). After the episode, every (node, cut) receives the normalized
  * reward R = S(n)/(|W|·|n.records|) (§5.2.2) and PPO updates the policy.
  * The best tree across all episodes is deployed (§5).
  */
object Woodblock {

  def train(store: ColumnStore, w: Seq[QExpr], cuts: IndexedSeq[Pred], cfg: WoodblockConfig): WoodblockResult = {
    val kernel = new BuildKernel(store, w, cuts, cfg.b)
    val fz = new Featurizer(store.meta, kernel.queried)
    val net = new PolicyValueNet(fz.dim, cfg.hidden, cuts.length, cfg.seed)
    val ppo = new Ppo(net, cfg.ppo, cfg.seed + 1)
    val rng = new Random(cfg.seed + 2)
    val wq = w.toIndexedSeq

    var best: BuildResult = null
    var bestScan = Double.PositiveInfinity
    val curve = scala.collection.mutable.ArrayBuffer[EpisodePoint]()
    val buffer = scala.collection.mutable.ArrayBuffer[Experience]()
    val t0 = System.nanoTime()

    var ep = 0
    var stop = false
    while (ep < cfg.episodes && !stop) {
      val (result, exps, scan) = episode(kernel, wq, fz, net, rng)
      buffer ++= exps
      if (scan < bestScan) { bestScan = scan; best = result }
      val stats =
        if ((ep + 1) % cfg.updateEvery != 0) None
        else {
          val (p, v, h) = ppo.update(buffer.toIndexedSeq)
          buffer.clear()
          Some(PpoStats(p, v, h))
        }
      val elapsed = (System.nanoTime() - t0) / 1000000
      curve += EpisodePoint(ep, scan, bestScan, elapsed, stats)
      if (elapsed > cfg.timeLimitMs) stop = true
      ep += 1
    }
    WoodblockResult(best, bestScan, curve.toIndexedSeq)
  }

  /** Construct one tree by sampling the current policy; returns the tree,
    * the per-node experiences, and the episode's scan fraction.
    */
  private def episode(
      k: BuildKernel,
      w: IndexedSeq[QExpr],
      fz: Featurizer,
      net: PolicyValueNet,
      rng: Random): (BuildResult, IndexedSeq[Experience], Double) = {
    val root = k.root()
    val expOf = scala.collection.mutable.HashMap[BuildNode, Experience]()
    val queue = scala.collection.mutable.Queue(root)
    while (queue.nonEmpty) {
      val node = queue.dequeue()
      val legal = k.legal(node)
      if (legal.nonEmpty) {
        val c = net.forward(fz.featurize(node.desc), legal)
        val lp = Nn.maskedLogSoftmax(c.logits, legal)
        val a = Nn.sample(Nn.probsFromLogProbs(lp, legal), legal, rng)
        k.split(node, a, legal)
        expOf(node) = Experience(c, a, lp(a), reward = 0.0)
        queue.enqueue(node.left, node.right)
      }
    }

    // S(n) bottom-up (§5.2.2), and for every cut node, in pre-order, the
    // reward R((n,p)) = S(n) / (|W|·|n.records|).
    val exps = scala.collection.mutable.ArrayBuffer[Experience]()
    def skipped(n: BuildNode): Long =
      if (n.cut < 0) CostModel.skippedQueries(k.meta, w, k.tighten(n)).toLong * n.size
      else {
        val i = exps.length
        exps += null
        val s = skipped(n.left) + skipped(n.right)
        exps(i) = expOf(n).copy(reward = s.toDouble / (w.length.toDouble * n.size))
        s
      }
    val rootSkipped = skipped(root)

    val scan = 1.0 - rootSkipped.toDouble / (root.size.toDouble * w.length)
    (k.finish(root), exps.toIndexedSeq, scan)
  }
}
