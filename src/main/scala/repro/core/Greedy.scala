package repro.core

/** Greedy top-down qd-tree construction (Algorithm 1, §4).
  *
  * Starting from a root holding all tuples, repeatedly split any leaf using
  * the legal cut (see `BuildKernel`) that maximizes C(T ⊕ (p, n)) — the
  * number of tuples skipped over the workload; stop when no cut strictly
  * improves C.
  */
object Greedy {

  /** @param store        construction tuples (full small-scale data or sample)
    * @param w            workload query expressions
    * @param cuts         candidate cut set (§3.4)
    * @param b            minimum tuples per block, at least 1
    * @param relaxed      §6.2 overlap mode: allow ONE child below b (still >0)
    */
  def build(store: ColumnStore, w: Seq[QExpr], cuts: IndexedSeq[Pred], b: Int, relaxed: Boolean = false): BuildResult = {
    val k = new BuildKernel(store, w, cuts, b, relaxed)
    val wq = w.toIndexedSeq
    def skipped(d: NodeDesc, size: Int): Long = CostModel.skippedQueries(store.meta, wq, d).toLong * size

    def grow(node: BuildNode): Unit = {
      val legal = k.legal(node)
      if (legal.nonEmpty) {
        // The node's own skipping capacity, with a tightened description, is
        // the score a split must beat.
        val cut = k.best(legal, floor = skipped(k.tighten(node), node.size)) { ci =>
          val (ld, rd, lc, rc) = k.children(node, ci)
          skipped(ld, lc) + skipped(rd, rc)
        }
        if (cut >= 0) {
          k.split(node, cut, legal)
          grow(node.left)
          grow(node.right)
        }
      }
    }

    val root = k.root()
    grow(root)
    k.finish(root)
  }
}
