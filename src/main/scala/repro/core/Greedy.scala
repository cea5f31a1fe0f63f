package repro.core

/** Result of constructing a qd-tree over a ColumnStore: the tree plus, per
  * leaf BID, the bitmask of store rows routed to that leaf.
  */
final case class BuildResult(tree: QdTree, leafMasks: IndexedSeq[Array[Long]]) {

  /** Tightened (min-max over actual routed rows) leaf descriptions. */
  def tightLeafDescs(store: ColumnStore, queriedCols: IndexedSeq[Int]): IndexedSeq[NodeDesc] =
    tree.leaves.zip(leafMasks).map { case (l, m) => store.tighten(l.desc, m, queriedCols) }

  /** Scan (access) fraction of the workload over the induced partitioning,
    * judged with tightened per-block statistics — the paper's logical metric.
    */
  def scanFraction(store: ColumnStore, w: Seq[QExpr], queriedCols: IndexedSeq[Int]): Double = {
    val blocks = tree.leaves.zip(tightLeafDescs(store, queriedCols)).map { case (l, d) => (l.size, d) }
    CostModel.accessFraction(store.meta, w, blocks)
  }
}

/** Greedy top-down qd-tree construction (Algorithm 1, §4).
  *
  * Starting from a root holding all tuples, repeatedly split any leaf with
  * ≥ 2b tuples using the candidate cut that maximizes C(T ⊕ (p, n)) — the
  * number of tuples skipped over the workload — subject to both children
  * having ≥ b tuples; stop when no cut strictly improves C.
  */
object Greedy {

  /** @param store        construction tuples (full small-scale data or sample)
    * @param w            workload query expressions
    * @param cuts         candidate cut set (§3.4)
    * @param b            minimum tuples per block
    * @param relaxed      §6.2 overlap mode: allow ONE child below b (still >0)
    * @param maxLeaves    safety cap on leaf count
    */
  def build(
      store: ColumnStore,
      w: Seq[QExpr],
      cuts: IndexedSeq[Pred],
      b: Int,
      relaxed: Boolean = false,
      maxLeaves: Int = 1 << 20): BuildResult = {
    val meta = store.meta
    val queried = Workload.queriedCols(meta, w.zipWithIndex.map { case (e, i) => Query(s"q$i", e) })
    val cutMasks: IndexedSeq[Array[Long]] = cuts.map(store.evalPred)
    val wq = w.toIndexedSeq

    var bidCounter = 0
    val masksOut = scala.collection.mutable.ArrayBuffer[Array[Long]]()

    def mkLeaf(desc: NodeDesc, mask: Array[Long], size: Int): QdLeaf = {
      val l = QdLeaf(desc, bidCounter, size.toLong)
      bidCounter += 1
      masksOut += mask
      l
    }

    def grow(mask: Array[Long], size: Int, desc: NodeDesc): QdNode = {
      val minSize = if (relaxed) 1 else b
      if (size < b + minSize || bidCounter + 2 > maxLeaves) return mkLeaf(desc, mask, size)

      // Current node's skipping capacity with a tightened description.
      val selfTight = store.tighten(desc, mask, queried)
      val selfSkip = CostModel.skippedQueries(meta, wq, selfTight).toLong * size

      // Score every legal cut in parallel; illegal cuts score Long.MinValue.
      val scores = new Array[Long](cuts.length)
      java.util.stream.IntStream.range(0, cuts.length).parallel().forEach { ci =>
        val ln = Bits.countAnd(mask, cutMasks(ci))
        val rn = size - ln
        val legal =
          if (relaxed) ln >= 1 && rn >= 1 && (ln >= b || rn >= b)
          else ln >= b && rn >= b
        scores(ci) =
          if (!legal) Long.MinValue
          else {
            val cut = cuts(ci)
            val (ld, rd, lc, rc) = store.tightenChildren(
              desc.restrict(meta, cut, left = true), desc.restrict(meta, cut, left = false),
              mask, cutMasks(ci), queried)
            CostModel.skippedQueries(meta, wq, ld).toLong * lc +
              CostModel.skippedQueries(meta, wq, rd).toLong * rc
          }
      }

      // Highest score wins; ties go to the lowest cut index.
      var bestScore = selfSkip
      var bestCut = -1
      var ci = 0
      while (ci < cuts.length) {
        if (scores(ci) > bestScore) { bestScore = scores(ci); bestCut = ci }
        ci += 1
      }

      if (bestCut < 0) mkLeaf(desc, mask, size)
      else {
        val cut = cuts(bestCut)
        val lm = Bits.and(mask, cutMasks(bestCut))
        val lc = Bits.count(lm)
        val left = grow(lm, lc, desc.restrict(meta, cut, left = true))
        val right = grow(Bits.andNot(mask, cutMasks(bestCut)), size - lc, desc.restrict(meta, cut, left = false))
        QdInternal(desc, cut, left, right)
      }
    }

    val rootDesc = NodeDesc.root(meta)
    val root = grow(Bits.full(store.n), store.n, rootDesc)
    BuildResult(new QdTree(meta, root), masksOut.toIndexedSeq)
  }
}
