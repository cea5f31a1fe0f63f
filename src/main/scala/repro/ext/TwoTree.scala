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
    val meta = store.meta
    val queried = Workload.queriedCols(meta, w.zipWithIndex.map { case (e, i) => Query(s"q$i", e) })
    val cutMasks = cuts.map(store.evalPred)

    // Mutable leaf bookkeeping: per-query accessed tuples B_q under the
    // current (partial) T2 partitioning. `tight` is the leaf's tightened
    // description, which decides which queries hit it.
    final class Leaf(val mask: Array[Long], val size: Int, val desc: NodeDesc, tight: NodeDesc) {
      val hits: Array[Boolean] = w.map(q => tight.intersects(meta, q)).toArray
      var cut: Pred = _
      var left: Leaf = _
      var right: Leaf = _
    }

    val bq = new Array[Long](w.length)
    val rootDesc = NodeDesc.root(meta)
    val rootMask = Bits.full(store.n)
    val root = new Leaf(rootMask, store.n, rootDesc, store.tighten(rootDesc, rootMask, queried))
    for (i <- w.indices) if (root.hits(i)) bq(i) += root.size

    def combined(a: Long, bb: Long): Long = math.min(a, bb) // accessed: min of the two trees

    val queue = scala.collection.mutable.Queue(root)
    while (queue.nonEmpty) {
      val leaf = queue.dequeue()
      if (leaf.size >= 2 * b) {
        var bestGain = 0L
        var best = -1
        var bestTight: (NodeDesc, NodeDesc) = null
        var ci = 0
        while (ci < cuts.length) {
          val ln = Bits.countAnd(leaf.mask, cutMasks(ci))
          val rn = leaf.size - ln
          if (ln >= b && rn >= b) {
            val (ld, rd, _, _) = store.tightenChildren(
              leaf.desc.restrict(meta, cuts(ci), left = true), leaf.desc.restrict(meta, cuts(ci), left = false),
              leaf.mask, cutMasks(ci), queried)
            // Gain = Σ_q [ min(A_q,B_q) − min(A_q,B'_q) ]  (accessed drops).
            var gain = 0L
            var qi = 0
            while (qi < w.length) {
              if (leaf.hits(qi)) {
                var nb = bq(qi) - leaf.size
                if (ld.intersects(meta, w(qi))) nb += ln
                if (rd.intersects(meta, w(qi))) nb += rn
                gain += combined(accessedUnderT1(qi), bq(qi)) - combined(accessedUnderT1(qi), nb)
              }
              qi += 1
            }
            if (gain > bestGain) { bestGain = gain; best = ci; bestTight = (ld, rd) }
          }
          ci += 1
        }
        if (best >= 0) {
          val cut = cuts(best)
          val lm = Bits.and(leaf.mask, cutMasks(best))
          val ln = Bits.count(lm)
          val l = new Leaf(lm, ln, leaf.desc.restrict(meta, cut, left = true), bestTight._1)
          val r = new Leaf(Bits.andNot(leaf.mask, cutMasks(best)), leaf.size - ln,
            leaf.desc.restrict(meta, cut, left = false), bestTight._2)
          leaf.cut = cut; leaf.left = l; leaf.right = r
          var qi = 0
          while (qi < w.length) {
            if (leaf.hits(qi)) {
              bq(qi) -= leaf.size
              if (l.hits(qi)) bq(qi) += l.size
              if (r.hits(qi)) bq(qi) += r.size
            }
            qi += 1
          }
          queue.enqueue(l); queue.enqueue(r)
        }
      }
    }

    // Materialize the tree.
    var bid = 0
    val masksOut = scala.collection.mutable.ArrayBuffer[Array[Long]]()
    def finish(n: Leaf): QdNode =
      if (n.cut == null) {
        val l = QdLeaf(n.desc, bid, n.size.toLong); bid += 1; masksOut += n.mask; l
      } else QdInternal(n.desc, n.cut, finish(n.left), finish(n.right))
    val qroot = finish(root)

    val combinedAccessed = w.indices.map(i => math.min(accessedUnderT1(i), bq(i))).toArray
    Result(BuildResult(new QdTree(meta, qroot), masksOut.toIndexedSeq), combinedAccessed)
  }
}
