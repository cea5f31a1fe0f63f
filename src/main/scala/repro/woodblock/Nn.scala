package repro.woodblock

import java.util.Random

/** A parameter tensor with gradient and Adam moment buffers. */
final class Param(val rows: Int, val cols: Int, rng: Random, scale: Double) {
  val v: Array[Double] = Array.fill(rows * cols)((rng.nextDouble() * 2 - 1) * scale)
  val g: Array[Double] = new Array[Double](rows * cols)
  val m: Array[Double] = new Array[Double](rows * cols)
  val u: Array[Double] = new Array[Double](rows * cols)
  def zeroGrad(): Unit = java.util.Arrays.fill(g, 0.0)
}

/** Adam optimizer over a set of Params. */
final class Adam(params: Seq[Param], lr: Double, b1: Double = 0.9, b2: Double = 0.999, eps: Double = 1e-8) {
  private var t = 0
  def step(): Unit = {
    t += 1
    val c1 = 1 - math.pow(b1, t)
    val c2 = 1 - math.pow(b2, t)
    for (p <- params) {
      var i = 0
      while (i < p.v.length) {
        p.m(i) = b1 * p.m(i) + (1 - b1) * p.g(i)
        p.u(i) = b2 * p.u(i) + (1 - b2) * p.g(i) * p.g(i)
        p.v(i) -= lr * (p.m(i) / c1) / (math.sqrt(p.u(i) / c2) + eps)
        i += 1
      }
    }
  }
}

/** Forward-pass cache for one state (needed by backprop). `logits` holds a
  * value only at the `legal` action indices (ascending); the other entries are
  * 0 and never read. `version` is the net's parameter version at the pass.
  */
final case class FwdCache(x: Array[Double], z1: Array[Double], a1: Array[Double],
                          z2: Array[Double], a2: Array[Double],
                          legal: Array[Int], logits: Array[Double], value: Double,
                          version: Long)

/** The WOODBLOCK network (§5.2.3): two shared fully-connected ReLU layers,
  * a |A|-dim linear policy head and a scalar value head. Implemented with
  * explicit per-sample forward/backward (no autodiff dependency).
  */
final class PolicyValueNet(val inputDim: Int, val hidden: Int, val nActions: Int, seed: Long = 0) {
  private val rng = new Random(seed)
  private def glorot(fanIn: Int, fanOut: Int) = math.sqrt(6.0 / (fanIn + fanOut))

  val w1 = new Param(hidden, inputDim, rng, glorot(inputDim, hidden))
  val b1 = new Param(hidden, 1, rng, 0.0)
  val w2 = new Param(hidden, hidden, rng, glorot(hidden, hidden))
  val b2 = new Param(hidden, 1, rng, 0.0)
  val wp = new Param(nActions, hidden, rng, glorot(hidden, nActions) * 0.1)
  val bp = new Param(nActions, 1, rng, 0.0)
  val wv = new Param(1, hidden, rng, glorot(hidden, 1) * 0.1)
  val bv = new Param(1, 1, rng, 0.0)

  def params: Seq[Param] = Seq(w1, b1, w2, b2, wp, bp, wv, bv)
  def zeroGrads(): Unit = params.foreach(_.zeroGrad())

  /** Every action index, ascending: the legality of a forward pass without a mask. */
  val allActions: Array[Int] = Array.range(0, nActions)

  private var _version = 0L
  /** Parameter version: a `FwdCache` with this version is the forward pass
    * the current parameters give.
    */
  def version: Long = _version
  /** Records that the parameters changed (after an optimizer step). */
  def paramsUpdated(): Unit = _version += 1

  private def row(w: Param, b: Param, x: Array[Double], r: Int): Double = {
    var s = b.v(r)
    val off = r * w.cols
    var c = 0
    while (c < w.cols) { s += w.v(off + c) * x(c); c += 1 }
    s
  }

  private def affine(w: Param, b: Param, x: Array[Double]): Array[Double] = {
    val out = new Array[Double](w.rows)
    var r = 0
    while (r < w.rows) { out(r) = row(w, b, x, r); r += 1 }
    out
  }

  /** Forward pass for state `x`. The policy head computes a logit only for
    * the `legal` actions (ascending indices).
    */
  def forward(x: Array[Double], legal: Array[Int] = allActions): FwdCache = {
    require(x.length == inputDim, s"input dim ${x.length} != $inputDim")
    val z1 = affine(w1, b1, x)
    val a1 = z1.map(v => if (v > 0) v else 0.0)
    val z2 = affine(w2, b2, a1)
    val a2 = z2.map(v => if (v > 0) v else 0.0)
    val logits = new Array[Double](nActions)
    var k = 0
    while (k < legal.length) { val a = legal(k); logits(a) = row(wp, bp, a2, a); k += 1 }
    val value = row(wv, bv, a2, 0)
    FwdCache(x, z1, a1, z2, a2, legal, logits, value, _version)
  }

  /** Accumulate gradients for one sample given upstream dLoss/dLogits and
    * dLoss/dValue. Caller averages by zeroing grads and scaling dLogits.
    * Only the entries of `dLogits` at `c.legal` are read.
    */
  def backward(c: FwdCache, dLogits: Array[Double], dValue: Double): Unit = {
    val dA2 = new Array[Double](hidden)
    // Policy head.
    var k = 0
    while (k < c.legal.length) {
      val a = c.legal(k)
      val d = dLogits(a)
      if (d != 0.0) {
        val off = a * hidden
        var h = 0
        while (h < hidden) {
          wp.g(off + h) += d * c.a2(h)
          dA2(h) += d * wp.v(off + h)
          h += 1
        }
        bp.g(a) += d
      }
      k += 1
    }
    // Value head.
    var h = 0
    while (h < hidden) {
      wv.g(h) += dValue * c.a2(h)
      dA2(h) += dValue * wv.v(h)
      h += 1
    }
    bv.g(0) += dValue
    // Layer 2.
    val dA1 = new Array[Double](hidden)
    var r = 0
    while (r < hidden) {
      val dz = if (c.z2(r) > 0) dA2(r) else 0.0
      if (dz != 0.0) {
        val off = r * hidden
        var cc = 0
        while (cc < hidden) {
          w2.g(off + cc) += dz * c.a1(cc)
          dA1(cc) += dz * w2.v(off + cc)
          cc += 1
        }
        b2.g(r) += dz
      }
      r += 1
    }
    // Layer 1.
    r = 0
    while (r < hidden) {
      val dz = if (c.z1(r) > 0) dA1(r) else 0.0
      if (dz != 0.0) {
        val off = r * inputDim
        var cc = 0
        while (cc < inputDim) {
          w1.g(off + cc) += dz * c.x(cc)
          cc += 1
        }
        b1.g(r) += dz
      }
      r += 1
    }
  }
}

object Nn {
  /** Masked log-softmax over the `legal` indices (ascending). Returns
    * log-probs; illegal entries are Double.NegativeInfinity, and their
    * logits are never read.
    */
  def maskedLogSoftmax(logits: Array[Double], legal: Array[Int]): Array[Double] = {
    var mx = Double.NegativeInfinity
    var k = 0
    while (k < legal.length) { val v = logits(legal(k)); if (v > mx) mx = v; k += 1 }
    var sum = 0.0
    k = 0
    while (k < legal.length) { sum += math.exp(logits(legal(k)) - mx); k += 1 }
    val lse = mx + math.log(sum)
    val out = new Array[Double](logits.length)
    java.util.Arrays.fill(out, Double.NegativeInfinity)
    k = 0
    while (k < legal.length) { val a = legal(k); out(a) = logits(a) - lse; k += 1 }
    out
  }

  /** Probabilities of the `legal` actions from their log-probs; 0 elsewhere. */
  def probsFromLogProbs(lp: Array[Double], legal: Array[Int]): Array[Double] = {
    val out = new Array[Double](lp.length)
    var k = 0
    while (k < legal.length) { val a = legal(k); out(a) = math.exp(lp(a)); k += 1 }
    out
  }

  /** Sample an action index among the `legal` ones (ascending) from masked
    * probabilities.
    */
  def sample(probs: Array[Double], legal: Array[Int], rng: Random): Int = {
    val u = rng.nextDouble()
    var acc = 0.0
    var k = 0
    while (k < legal.length) {
      acc += probs(legal(k))
      if (u < acc) return legal(k)
      k += 1
    }
    // Numerical fallback: last legal action with a nonzero probability.
    var j = legal.length - 1
    while (j > 0 && probs(legal(j)) == 0.0) j -= 1
    legal(j)
  }
}
