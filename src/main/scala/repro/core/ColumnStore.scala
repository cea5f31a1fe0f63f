package repro.core

import scala.collection.immutable.BitSet

/** Column-major, driver-side store of encoded rows.
  *
  * Qd-tree construction (both Greedy §4 and WOODBLOCK §5.2.1) runs over an
  * in-memory set of encoded tuples — the full small-scale dataset or a
  * sample. Column-major doubles + bitmask row sets keep candidate-cut
  * evaluation and min-max tightening cache-friendly.
  */
final class ColumnStore(val meta: TableMeta, val cols: Array[Array[Double]]) {
  require(cols.length == meta.nCols, s"${cols.length} columns vs meta ${meta.nCols}")
  val n: Int = if (cols.isEmpty) 0 else cols(0).length

  @inline def value(c: Int, r: Int): Double = cols(c)(r)

  /** Row-accessor closure for Pred/QExpr eval. */
  @inline def rowFn(r: Int): Int => Double = c => cols(c)(r)

  /** Bitmask (over all n rows) of rows satisfying predicate p. */
  def evalPred(p: Pred): Array[Long] = {
    val b = Bits.alloc(n)
    p match {
      case LePred(cn, v) =>
        val a = cols(meta.idx(cn)); var r = 0
        while (r < n) { if (a(r) <= v) Bits.set(b, r); r += 1 }
      case GePred(cn, v) =>
        val a = cols(meta.idx(cn)); var r = 0
        while (r < n) { if (a(r) >= v) Bits.set(b, r); r += 1 }
      case InPred(cn, codes) =>
        val a = cols(meta.idx(cn))
        val cs = BitSet.fromSpecific(codes); var r = 0
        while (r < n) { if (cs.contains(a(r).toInt)) Bits.set(b, r); r += 1 }
      case AdvPred(i, positive) =>
        val d = meta.advCuts(i)
        val la = cols(meta.idx(d.left)); val ra = cols(meta.idx(d.right))
        var r = 0
        while (r < n) {
          val sat = d.cmp match {
            case "<"  => la(r) < ra(r)
            case "<=" => la(r) <= ra(r)
            case "="  => la(r) == ra(r)
          }
          if (sat == positive) Bits.set(b, r); r += 1
        }
    }
    b
  }

  /** Bitmask of rows satisfying query expression q (row-level truth). */
  def evalQuery(q: QExpr): Array[Long] = q match {
    case QPred(p)  => evalPred(p)
    case QAnd(cs)  => cs.map(evalQuery).reduce(Bits.and)
    case QOr(cs)   =>
      val r = Bits.alloc(n)
      for (c <- cs) { val m = evalQuery(c); var i = 0; while (i < r.length) { r(i) |= m(i); i += 1 } }
      r
  }

  /** Exact selectivity of q over the store. */
  def selectivity(q: QExpr): Double = if (n == 0) 0.0 else Bits.count(evalQuery(q)).toDouble / n

  /** Per advanced cut, the bitmask of rows satisfying it. Evaluated once,
    * so tightening derives every tri-state by popcount (§6.1).
    */
  lazy val advMasks: Array[Array[Long]] = Array.tabulate(meta.nAdv)(a => evalPred(AdvPred(a)))

  /** Min-max/dictionary tighten `base` over the rows in `rowsMask`, for the
    * given queried columns only (others keep base's bounds — queries never
    * touch them). Advanced-cut tri-states are recomputed exactly.
    */
  def tighten(base: NodeDesc, rowsMask: Array[Long], queriedCols: IndexedSeq[Int]): NodeDesc = {
    val acc = new StatsAcc(this, queriedCols)
    acc.add(rowsMask, rowsMask, complement = false)
    acc.toDesc(base)
  }

  /** Tightening of both children of a cut: rows of `nodeMask` go to the left
    * child when set in `cutMask`. Returns (leftDesc, rightDesc, leftCount,
    * rightCount). Thread-safe, so cuts can be scored in parallel.
    */
  def tightenChildren(
      baseLeft: NodeDesc,
      baseRight: NodeDesc,
      nodeMask: Array[Long],
      cutMask: Array[Long],
      queriedCols: IndexedSeq[Int]): (NodeDesc, NodeDesc, Int, Int) = {
    val l = new StatsAcc(this, queriedCols)
    val rr = new StatsAcc(this, queriedCols)
    l.add(nodeMask, cutMask, complement = false)
    rr.add(nodeMask, cutMask, complement = true)
    (l.toDesc(baseLeft), rr.toDesc(baseRight), l.count, rr.count)
  }
}

/** Accumulates per-column min/max, categorical code sets and advanced-cut
  * truth counts over a set of rows — a block's min-max index / SMA (§8).
  * Works on the queried columns' primitive arrays: numeric bounds in
  * doubles, categorical codes as word-array bitmasks, advanced cuts as
  * popcounts against `ColumnStore.advMasks`.
  */
final class StatsAcc(store: ColumnStore, queriedCols: IndexedSeq[Int]) {
  private val meta = store.meta
  private val qc = queriedCols.toArray
  private val qlo = Array.fill(qc.length)(Double.PositiveInfinity)
  private val qhi = Array.fill(qc.length)(Double.NegativeInfinity)
  private val qcodes: Array[Array[Long]] =
    qc.map(i => if (meta.columns(i).isCategorical) Bits.alloc(meta.columns(i).domainSize) else null)
  private val advTrue = new Array[Int](meta.nAdv)
  var count: Int = 0

  /** Add the rows set in `node & sel`, or in `node & ~sel` when
    * `complement`. Walks set bits word by word, one column at a time.
    */
  def add(node: Array[Long], sel: Array[Long], complement: Boolean): Unit = {
    val flip = if (complement) -1L else 0L
    var k = 0
    while (k < qc.length) {
      val a = store.cols(qc(k))
      val codes = qcodes(k)
      var w = 0
      if (codes != null) {
        while (w < node.length) {
          var bits = node(w) & (sel(w) ^ flip)
          val base = w << 6
          while (bits != 0) {
            val v = a(base + java.lang.Long.numberOfTrailingZeros(bits)).toInt
            codes(v >>> 6) |= 1L << (v & 63)
            bits &= bits - 1
          }
          w += 1
        }
      } else {
        var lo = qlo(k); var hi = qhi(k)
        while (w < node.length) {
          var bits = node(w) & (sel(w) ^ flip)
          val base = w << 6
          while (bits != 0) {
            val v = a(base + java.lang.Long.numberOfTrailingZeros(bits))
            if (v < lo) lo = v
            if (v > hi) hi = v
            bits &= bits - 1
          }
          w += 1
        }
        qlo(k) = lo; qhi(k) = hi
      }
      k += 1
    }
    val adv = store.advMasks
    var j = 0
    while (j < adv.length) { advTrue(j) += countSel(node, sel, flip, adv(j)); j += 1 }
    count += countSel(node, sel, flip, null)
  }

  /** popcount(node & (sel ^ flip) & extra); a null `extra` counts all. */
  private def countSel(node: Array[Long], sel: Array[Long], flip: Long, extra: Array[Long]): Int = {
    var c = 0
    var w = 0
    while (w < node.length) {
      val bits = node(w) & (sel(w) ^ flip)
      c += java.lang.Long.bitCount(if (extra == null) bits else bits & extra(w))
      w += 1
    }
    c
  }

  /** Tightened description: observed stats override base on queried columns. */
  def toDesc(base: NodeDesc): NodeDesc = {
    val lo = base.lo.clone(); val hi = base.hi.clone()
    val masks = base.masks.clone(); val adv = base.adv.clone()
    var k = 0
    while (k < qc.length) {
      val i = qc(k)
      val codes = qcodes(k)
      if (codes != null) {
        var len = codes.length
        while (len > 0 && codes(len - 1) == 0L) len -= 1
        masks(i) = BitSet.fromBitMaskNoCopy(java.util.Arrays.copyOf(codes, len))
      } else { lo(i) = qlo(k); hi(i) = qhi(k) }
      k += 1
    }
    var a = 0
    while (a < adv.length) {
      adv(a) =
        if (count == 0) base.adv(a)
        else if (advTrue(a) == count) AdvState.AllTrue
        else if (advTrue(a) == 0) AdvState.AllFalse
        else AdvState.Mixed
      a += 1
    }
    new NodeDesc(lo, hi, masks, adv)
  }
}
