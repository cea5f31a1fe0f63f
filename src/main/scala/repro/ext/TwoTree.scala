package repro.ext

import repro.core._

/** Data replication via a second tree (§6.3): given a first tree T1
  * optimized for the full workload, build a second full-copy tree T2 whose
  * construction criterion accounts for T1 — for each query the better of
  * the two trees is used, so C = Σ_q max(C_q(T1), C_q(T2)). The greedy
  * criterion below maximizes exactly that combined objective, which
  * naturally focuses T2 on the queries T1 serves poorly.
  */
object TwoTree {

  final case class Result(second: BuildResult, combinedAccessedPerQuery: Array[Long])

  /** @param accessedUnderT1 per-query tuples accessed under T1 (A_q). */
  def buildSecond(
      store: ColumnStore,
      w: IndexedSeq[QExpr],
      cuts: IndexedSeq[Pred],
      b: Int,
      accessedUnderT1: Array[Long]): Result = {
    require(accessedUnderT1.length == w.length)
    val k = new BuildKernel(store, w, cuts, b)
    val meta = store.meta
    val a = accessedUnderT1

    // Per-query accessed tuples B_q under the current (partial) T2
    // partitioning. A leaf's tightened description decides which queries
    // hit it.
    val bq = new Array[Long](w.length)
    def hits(tight: NodeDesc): Array[Boolean] = w.map(q => tight.intersects(meta, q)).toArray
    val root = k.root()
    val rootHits = hits(k.tighten(root))
    for (i <- w.indices) if (rootHits(i)) bq(i) += root.size

    val queue = scala.collection.mutable.Queue((root, rootHits))
    while (queue.nonEmpty) {
      val (node, nodeHits) = queue.dequeue()
      val legal = k.legal(node)
      // Gain = Σ_q [ min(A_q,B_q) − min(A_q,B'_q) ]  (accessed drops).
      val cut = k.best(legal, floor = 0L) { ci =>
        val (ld, rd, ln, rn) = k.children(node, ci)
        var gain = 0L
        var qi = 0
        while (qi < w.length) {
          if (nodeHits(qi)) {
            var nb = bq(qi) - node.size
            if (ld.intersects(meta, w(qi))) nb += ln
            if (rd.intersects(meta, w(qi))) nb += rn
            gain += math.min(a(qi), bq(qi)) - math.min(a(qi), nb)
          }
          qi += 1
        }
        gain
      }
      if (cut >= 0) {
        k.split(node, cut, legal)
        val (ld, rd, _, _) = k.children(node, cut)
        val (lh, rh) = (hits(ld), hits(rd))
        var qi = 0
        while (qi < w.length) {
          if (nodeHits(qi)) {
            bq(qi) -= node.size
            if (lh(qi)) bq(qi) += node.left.size
            if (rh(qi)) bq(qi) += node.right.size
          }
          qi += 1
        }
        queue.enqueue((node.left, lh), (node.right, rh))
      }
    }

    val combinedAccessed = w.indices.map(i => math.min(a(i), bq(i))).toArray
    Result(k.finish(root), combinedAccessed)
  }
}
