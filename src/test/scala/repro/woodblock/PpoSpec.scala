package repro.woodblock

import org.scalatest.funsuite.AnyFunSuite

class PpoSpec extends AnyFunSuite {

  /** Two-armed bandit: a single state, arm 0 pays 1.0, arm 1 pays 0.0.
    * PPO must concentrate probability on arm 0.
    */
  test("PPO converges on a two-armed bandit") {
    val net = new PolicyValueNet(inputDim = 1, hidden = 8, nActions = 2, seed = 7)
    val ppo = new Ppo(net, PpoConfig(lr = 0.01, entropyCoef = 0.001, minibatch = 64), seed = 8)
    val rng = new java.util.Random(9)
    val x = Array(1.0)
    val legal = Array(0, 1)

    for (_ <- 0 until 30) {
      val batch = (0 until 64).map { _ =>
        val c = net.forward(x, legal)
        val lp = Nn.maskedLogSoftmax(c.logits, legal)
        val a = Nn.sample(Nn.probsFromLogProbs(lp, legal), legal, rng)
        Experience(c, a, lp(a), reward = if (a == 0) 1.0 else 0.0)
      }
      ppo.update(batch)
    }
    val p = Nn.probsFromLogProbs(Nn.maskedLogSoftmax(net.forward(x).logits, legal), legal)
    assert(p(0) > 0.9, s"p(arm0)=${p(0)}")
  }

  test("PPO respects action masking during updates") {
    val net = new PolicyValueNet(inputDim = 1, hidden = 8, nActions = 3, seed = 17)
    val ppo = new Ppo(net, PpoConfig(lr = 0.01), seed = 18)
    val rng = new java.util.Random(19)
    val x = Array(1.0)
    val legal = Array(0, 2) // action 1 never legal
    for (_ <- 0 until 10) {
      val batch = (0 until 32).map { _ =>
        val c = net.forward(x, legal)
        val lp = Nn.maskedLogSoftmax(c.logits, legal)
        val a = Nn.sample(Nn.probsFromLogProbs(lp, legal), legal, rng)
        Experience(c, a, lp(a), reward = if (a == 2) 1.0 else 0.0)
      }
      val sampled = batch.map(_.action).toSet
      assert(!sampled.contains(1))
      ppo.update(batch)
    }
    val p = Nn.probsFromLogProbs(Nn.maskedLogSoftmax(net.forward(x).logits, legal), legal)
    assert(p(1) == 0.0)
    assert(p(2) > 0.8, s"p=${p.mkString(",")}")
  }

  test("value head learns the expected reward") {
    val net = new PolicyValueNet(inputDim = 1, hidden = 8, nActions = 2, seed = 27)
    val ppo = new Ppo(net, PpoConfig(lr = 0.01, valueCoef = 1.0), seed = 28)
    val rng = new java.util.Random(29)
    val x = Array(1.0)
    val legal = Array(0, 1)
    for (_ <- 0 until 40) {
      val batch = (0 until 64).map { _ =>
        val c = net.forward(x, legal)
        val lp = Nn.maskedLogSoftmax(c.logits, legal)
        val a = Nn.sample(Nn.probsFromLogProbs(lp, legal), legal, rng)
        Experience(c, a, lp(a), reward = 0.7)
      }
      ppo.update(batch)
    }
    assert(math.abs(net.forward(x).value - 0.7) < 0.1)
  }

  test("an update that reuses the rollout forward passes equals one that recomputes them") {
    def trained(reuse: Boolean): Seq[Array[Double]] = {
      val net = new PolicyValueNet(inputDim = 3, hidden = 8, nActions = 6, seed = 37)
      val ppo = new Ppo(net, PpoConfig(lr = 0.01, minibatch = 16), seed = 38)
      val rng = new java.util.Random(39)
      for (_ <- 0 until 5) {
        val batch = (0 until 40).map { i =>
          val x = Array(rng.nextDouble(), rng.nextDouble(), i % 2.0)
          val legal = (0 until 6).filter(_ => rng.nextBoolean()).toArray match {
            case Array() => Array(5)
            case l => l
          }
          val c = net.forward(x, legal)
          val lp = Nn.maskedLogSoftmax(c.logits, legal)
          val a = Nn.sample(Nn.probsFromLogProbs(lp, legal), legal, rng)
          // The reference hides the rollout pass behind a stale version and NaN
          // activations, so it matches only if every pass is recomputed.
          def nan(v: Array[Double]) = v.map(_ => Double.NaN)
          val fwd = if (reuse) c else c.copy(z1 = nan(c.z1), a1 = nan(c.a1), z2 = nan(c.z2), a2 = nan(c.a2),
            logits = nan(c.logits), version = -1)
          Experience(fwd, a, lp(a), reward = x(0) * (a + 1))
        }
        ppo.update(batch)
      }
      net.params.map(_.v.clone())
    }
    val (a, b) = (trained(reuse = true), trained(reuse = false))
    assert(b.forall(_.forall(v => !v.isNaN)))
    assert(a.zip(b).forall { case (x, y) => x.sameElements(y) })
  }

  test("update on empty batch is a no-op") {
    val net = new PolicyValueNet(1, 4, 2, seed = 1)
    val ppo = new Ppo(net, PpoConfig())
    val (p, v, h) = ppo.update(IndexedSeq.empty)
    assert(p == 0.0 && v == 0.0 && h == 0.0)
  }
}
