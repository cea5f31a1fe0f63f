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
  * size in *store rows* — when the store is an s-fraction sample of the
  * table, pass ceil(s·b_table) (§5.2.1).
  */
final case class WoodblockConfig(
    b: Int,
    episodes: Int = 200,
    updateEvery: Int = 8,
    hidden: Int = 128,
    seed: Long = 0,
    maxLeaves: Int = 1 << 14,
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
    val meta = store.meta
    val queried = Workload.queriedCols(meta, w.zipWithIndex.map { case (e, i) => Query(s"q$i", e) })
    val cutMasks = cuts.map(store.evalPred).toArray
    val fz = new Featurizer(meta, queried)
    val net = new PolicyValueNet(fz.dim, cfg.hidden, cuts.length, cfg.seed)
    val ppo = new Ppo(net, cfg.ppo, cfg.seed + 1)
    val rng = new Random(cfg.seed + 2)

    var best: BuildResult = null
    var bestScan = Double.PositiveInfinity
    val curve = scala.collection.mutable.ArrayBuffer[EpisodePoint]()
    val buffer = scala.collection.mutable.ArrayBuffer[Experience]()
    val t0 = System.nanoTime()

    var ep = 0
    var stop = false
    while (ep < cfg.episodes && !stop) {
      val (result, exps, scan) = episode(store, w, cuts, cutMasks, queried, fz, net, rng, cfg)
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

  /** The cuts among `candidates` (ascending cut indices) that are legal at
    * a node with row set `mask` of `size` rows: both children keep at least
    * `b` rows (§5.2.1). A child's rows on either side of a cut are a subset
    * of its parent's, so a cut illegal at a node is illegal at its children,
    * and the parent's legal cuts are the only candidates a child needs.
    */
  def legalCuts(mask: Array[Long], size: Int, candidates: Array[Int], cutMasks: Array[Array[Long]], b: Int): Array[Int] = {
    val out = new Array[Int](candidates.length)
    var n = 0
    var k = 0
    while (k < candidates.length) {
      val ci = candidates(k)
      val ln = Bits.countAnd(mask, cutMasks(ci))
      if (ln >= b && size - ln >= b) { out(n) = ci; n += 1 }
      k += 1
    }
    java.util.Arrays.copyOf(out, n)
  }

  /** Construct one tree by sampling the current policy; returns the tree,
    * the per-node experiences, and the episode's scan fraction.
    */
  private def episode(
      store: ColumnStore,
      w: Seq[QExpr],
      cuts: IndexedSeq[Pred],
      cutMasks: Array[Array[Long]],
      queried: IndexedSeq[Int],
      fz: Featurizer,
      net: PolicyValueNet,
      rng: Random,
      cfg: WoodblockConfig): (BuildResult, IndexedSeq[Experience], Double) = {
    val meta = store.meta

    // Mutable tree under construction. `candidates` holds the cuts that may
    // be legal here: every cut at the root, the parent's legal cuts below it.
    final class Mut(val mask: Array[Long], val size: Int, val desc: NodeDesc, val candidates: Array[Int]) {
      var cut: Pred = _
      var left: Mut = _
      var right: Mut = _
      var exp: Experience = _
      var skipped: Long = 0 // S(n), filled bottom-up after the episode
    }

    val root = new Mut(Bits.full(store.n), store.n, NodeDesc.root(meta), Array.range(0, cuts.length))
    val queue = scala.collection.mutable.Queue(root)
    var leafCount = 1

    while (queue.nonEmpty) {
      val node = queue.dequeue()
      val legal =
        if (node.size >= 2 * cfg.b && leafCount + 1 <= cfg.maxLeaves)
          legalCuts(node.mask, node.size, node.candidates, cutMasks, cfg.b)
        else Array.emptyIntArray
      if (legal.nonEmpty) {
        val c = net.forward(fz.featurize(node.desc), legal)
        val lp = Nn.maskedLogSoftmax(c.logits, legal)
        val a = Nn.sample(Nn.probsFromLogProbs(lp, legal), legal, rng)
        val cut = cuts(a)
        val lm = Bits.and(node.mask, cutMasks(a))
        val rm = Bits.andNot(node.mask, cutMasks(a))
        node.cut = cut
        node.left = new Mut(lm, Bits.count(lm), node.desc.restrict(meta, cut, left = true), legal)
        node.right = new Mut(rm, node.size - Bits.count(lm), node.desc.restrict(meta, cut, left = false), legal)
        node.exp = Experience(c, a, lp(a), reward = 0.0)
        leafCount += 1
        queue.enqueue(node.left)
        queue.enqueue(node.right)
      }
    }

    // Assign BIDs (DFS), collect leaf masks, compute S(n) bottom-up (§5.2.2).
    var bid = 0
    val leafMasks = scala.collection.mutable.ArrayBuffer[Array[Long]]()
    def finish(n: Mut): QdNode =
      if (n.cut == null) {
        val tight = store.tighten(n.desc, n.mask, queried)
        n.skipped = CostModel.skippedQueries(meta, w, tight).toLong * n.size
        val l = QdLeaf(n.desc, bid, n.size.toLong)
        bid += 1
        leafMasks += n.mask
        l
      } else {
        val l = finish(n.left)
        val r = finish(n.right)
        n.skipped = n.left.skipped + n.right.skipped
        QdInternal(n.desc, n.cut, l, r)
      }
    val qroot = finish(root)

    // Rewards: R((n,p)) = S(n) / (|W|·|n.records|), for every cut node.
    val exps = scala.collection.mutable.ArrayBuffer[Experience]()
    def rewards(n: Mut): Unit = if (n.cut != null) {
      exps += n.exp.copy(reward = n.skipped.toDouble / (w.length.toDouble * n.size))
      rewards(n.left); rewards(n.right)
    }
    rewards(root)

    val scan = 1.0 - root.skipped.toDouble / (store.n.toDouble * w.length)
    (BuildResult(new QdTree(meta, qroot), leafMasks.toIndexedSeq), exps.toIndexedSeq, scan)
  }
}
