package repro.woodblock

import org.scalatest.funsuite.AnyFunSuite

class NnSpec extends AnyFunSuite {

  test("forward output shapes") {
    val net = new PolicyValueNet(inputDim = 7, hidden = 16, nActions = 5, seed = 1)
    val c = net.forward(Array.fill(7)(0.5))
    assert(c.logits.length == 5)
    assert(!c.value.isNaN)
  }

  test("a masked forward pass gives the unmasked logits at the legal actions, bit for bit") {
    val net = new PolicyValueNet(inputDim = 6, hidden = 16, nActions = 40, seed = 2)
    val x = Array(0.2, -0.4, 0.9, 0.0, 1.3, -0.1)
    val full = net.forward(x)
    val legal = Array(0, 3, 4, 17, 39)
    val masked = net.forward(x, legal)
    for (a <- legal) assert(masked.logits(a) == full.logits(a))
    assert(masked.value == full.value && masked.a2.sameElements(full.a2))
  }

  test("masked log-softmax normalizes over legal actions only") {
    val logits = Array(1.0, 2.0, 3.0, 4.0)
    val legal = Array(0, 2)
    val lp = Nn.maskedLogSoftmax(logits, legal)
    assert(lp(1) == Double.NegativeInfinity && lp(3) == Double.NegativeInfinity)
    val p = Nn.probsFromLogProbs(lp, legal)
    assert(math.abs(p.sum - 1.0) < 1e-12)
    assert(p(2) > p(0))
    assert(math.abs(p(0) - math.exp(1.0) / (math.exp(1.0) + math.exp(3.0))) < 1e-12)
  }

  test("sample respects zero-probability actions") {
    val rng = new java.util.Random(3)
    val p = Array(0.0, 0.7, 0.3, 0.0)
    val counts = new Array[Int](4)
    for (_ <- 0 until 2000) counts(Nn.sample(p, Array(0, 1, 2, 3), rng)) += 1
    assert(counts(0) == 0 && counts(3) == 0)
    assert(counts(1) > counts(2))
  }

  // Finite-difference gradient check: L = Σ wi·logit_i + wv·value.
  test("backward gradients match finite differences") {
    val net = new PolicyValueNet(inputDim = 4, hidden = 8, nActions = 3, seed = 42)
    val x = Array(0.3, -0.7, 1.1, 0.05)
    val wL = Array(0.7, -1.3, 0.4)
    val wV = 0.9

    def loss(): Double = {
      val c = net.forward(x)
      c.logits.zip(wL).map { case (l, w) => l * w }.sum + wV * c.value
    }

    net.zeroGrads()
    val c = net.forward(x)
    net.backward(c, wL, wV)

    val eps = 1e-6
    var checked = 0
    for (p <- net.params) {
      // Spot-check a handful of entries per tensor.
      val idxs = Seq(0, p.v.length / 2, p.v.length - 1).distinct
      for (i <- idxs) {
        val orig = p.v(i)
        p.v(i) = orig + eps
        val up = loss()
        p.v(i) = orig - eps
        val dn = loss()
        p.v(i) = orig
        val fd = (up - dn) / (2 * eps)
        assert(math.abs(fd - p.g(i)) < 1e-4 * math.max(1.0, math.abs(fd)),
          s"param grad mismatch: fd=$fd got=${p.g(i)}")
        checked += 1
      }
    }
    assert(checked > 10)
  }

  test("relu zeroes gradients for inactive units") {
    val net = new PolicyValueNet(inputDim = 2, hidden = 4, nActions = 2, seed = 5)
    val c = net.forward(Array(1.0, -1.0))
    net.zeroGrads()
    net.backward(c, Array(1.0, 0.0), 0.0)
    // For any unit with z1 <= 0, the corresponding w1 row grad must be zero.
    for (h <- 0 until 4 if c.z1(h) <= 0) {
      assert(net.w1.g(h * 2) == 0.0 && net.w1.g(h * 2 + 1) == 0.0)
    }
  }

  test("adam reduces a simple quadratic") {
    val rng = new java.util.Random(0)
    val p = new Param(1, 4, rng, 1.0)
    val opt = new Adam(Seq(p), lr = 0.05)
    def f(): Double = p.v.map(v => (v - 2.0) * (v - 2.0)).sum
    val before = f()
    for (_ <- 0 until 500) {
      p.zeroGrad()
      for (i <- p.v.indices) p.g(i) = 2 * (p.v(i) - 2.0)
      opt.step()
    }
    assert(f() < before * 1e-4)
    assert(p.v.forall(v => math.abs(v - 2.0) < 0.05))
  }
}
