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

/** A qd-tree node under construction: its rows (`mask`, `size`), its
  * cut-derived description (§3.2), and the cuts that may be legal here —
  * every cut at the root, the parent's legal cuts below it. `split` sets
  * the chosen cut index and the children; a node without a cut is a leaf.
  */
final class BuildNode(val mask: Array[Long], val size: Int, val desc: NodeDesc, val candidates: Array[Int]) {
  var cut: Int = -1
  var left: BuildNode = _
  var right: BuildNode = _
}

/** The construction kernel every qd-tree constructor runs on: Greedy (§4),
  * WOODBLOCK (§5.2.1) and the second tree (§6.3). It decides what a legal
  * split is, splits nodes and assigns the finished tree its BIDs; a
  * constructor supplies only the policy that picks a legal cut.
  *
  * A cut is legal at a node when both children keep at least `m` rows and
  * one keeps at least `b`: `m = b` strictly, `m = 1` in the relaxed mode of
  * §6.2. Every bound is a lower bound on a count that can only shrink from
  * parent to child, so a cut illegal at a node is illegal below it, and a
  * child need only test its parent's legal cuts.
  *
  * @param w workload query expressions; their columns are the ones tightened
  */
final class BuildKernel(store: ColumnStore, w: Seq[QExpr], cuts: IndexedSeq[Pred], b: Int, relaxed: Boolean = false) {
  require(b >= 1, s"minimum block size b must be at least 1, got $b")

  val meta: TableMeta = store.meta
  val queried: IndexedSeq[Int] = Workload.queriedCols(meta, w.zipWithIndex.map { case (e, i) => Query(s"q$i", e) })
  private val cutMasks: Array[Array[Long]] = cuts.map(store.evalPred).toArray
  private val minChild = if (relaxed) 1 else b

  def root(): BuildNode = new BuildNode(Bits.full(store.n), store.n, NodeDesc.root(meta), Array.range(0, cuts.length))

  /** The node's legal cuts among its candidates, in ascending index order. */
  def legal(node: BuildNode): Array[Int] = {
    if (node.size < b + minChild) return Array.emptyIntArray
    val cs = node.candidates
    val out = new Array[Int](cs.length)
    var n = 0
    var k = 0
    while (k < cs.length) {
      val ln = Bits.countAnd(node.mask, cutMasks(cs(k)))
      val rn = node.size - ln
      if (ln >= minChild && rn >= minChild && (ln >= b || rn >= b)) { out(n) = cs(k); n += 1 }
      k += 1
    }
    java.util.Arrays.copyOf(out, n)
  }

  /** The legal cut with the highest score above `floor`, or -1 if none.
    * Scores in parallel, so `score` must be thread-safe; ties go to the
    * lowest cut index.
    */
  def best(legal: Array[Int], floor: Long)(score: Int => Long): Int = {
    val scores = new Array[Long](legal.length)
    java.util.stream.IntStream.range(0, legal.length).parallel().forEach(k => scores(k) = score(legal(k)))
    var bestScore = floor
    var bestCut = -1
    var k = 0
    while (k < legal.length) {
      if (scores(k) > bestScore) { bestScore = scores(k); bestCut = legal(k) }
      k += 1
    }
    bestCut
  }

  /** The node's description tightened to its rows. */
  def tighten(node: BuildNode): NodeDesc = store.tighten(node.desc, node.mask, queried)

  /** Both children of cutting `node` by `cut`, without splitting it: their
    * tightened descriptions and row counts (left, right, leftCount,
    * rightCount). Thread-safe.
    */
  def children(node: BuildNode, cut: Int): (NodeDesc, NodeDesc, Int, Int) =
    store.tightenChildren(
      node.desc.restrict(meta, cuts(cut), left = true), node.desc.restrict(meta, cuts(cut), left = false),
      node.mask, cutMasks(cut), queried)

  /** Split `node` by `cut`; both children take `legal`, the node's legal
    * cuts, as their candidates.
    */
  def split(node: BuildNode, cut: Int, legal: Array[Int]): Unit = {
    val lm = Bits.and(node.mask, cutMasks(cut))
    val ln = Bits.count(lm)
    node.cut = cut
    node.left = new BuildNode(lm, ln, node.desc.restrict(meta, cuts(cut), left = true), legal)
    node.right = new BuildNode(Bits.andNot(node.mask, cutMasks(cut)), node.size - ln,
      node.desc.restrict(meta, cuts(cut), left = false), legal)
  }

  /** The finished tree: BIDs in DFS order, with each leaf's row mask. */
  def finish(root: BuildNode): BuildResult = {
    val masks = scala.collection.mutable.ArrayBuffer[Array[Long]]()
    def walk(n: BuildNode): QdNode =
      if (n.cut < 0) { masks += n.mask; QdLeaf(n.desc, masks.length - 1, n.size.toLong) }
      else QdInternal(n.desc, cuts(n.cut), walk(n.left), walk(n.right))
    BuildResult(new QdTree(meta, walk(root)), masks.toIndexedSeq)
  }
}
