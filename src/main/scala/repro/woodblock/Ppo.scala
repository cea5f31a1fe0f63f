package repro.woodblock

import java.util.Random

/** One collected (state, action, reward) experience of the tree-MDP (§5.2):
  * the behavior policy's forward pass on the node's state features (which
  * carries the legal actions and the value estimate), the sampled cut, its
  * log-prob, and the normalized per-node reward R((n,p)) — which in this MDP
  * *is* the return for the node (NeuroCuts-style independent subproblems,
  * §5.2.4).
  */
final case class Experience(
    fwd: FwdCache,
    action: Int,
    logpOld: Double,
    reward: Double) {
  def features: Array[Double] = fwd.x
  def legal: Array[Int] = fwd.legal
  def valueOld: Double = fwd.value
}

/** PPO hyper-parameters (clipped surrogate; §5.2 uses PPO as a black-box
  * update rule).
  */
final case class PpoConfig(
    lr: Double = 3e-4,
    clip: Double = 0.2,
    valueCoef: Double = 0.5,
    entropyCoef: Double = 0.01,
    epochs: Int = 4,
    minibatch: Int = 256,
    maxGradNorm: Double = 5.0)

/** Proximal Policy Optimization update over a batch of tree-MDP experiences. */
final class Ppo(net: PolicyValueNet, cfg: PpoConfig, seed: Long = 0) {
  private val rng = new Random(seed)
  private val adam = new Adam(net.params, cfg.lr)

  /** Run the PPO update; returns (meanPolicyLoss, meanValueLoss, meanEntropy)
    * of the last epoch for diagnostics.
    */
  def update(batch: IndexedSeq[Experience]): (Double, Double, Double) = {
    if (batch.isEmpty) return (0.0, 0.0, 0.0)
    // Advantage = reward − V_old(s); normalized across the batch.
    val advRaw = batch.map(e => e.reward - e.valueOld)
    val mean = advRaw.sum / advRaw.length
    val std = math.sqrt(advRaw.map(a => (a - mean) * (a - mean)).sum / advRaw.length) + 1e-8
    val adv = advRaw.map(a => (a - mean) / std)

    var lastP = 0.0; var lastV = 0.0; var lastH = 0.0
    val idx = batch.indices.toArray
    for (_ <- 0 until cfg.epochs) {
      // Fisher-Yates shuffle for minibatching.
      var i = idx.length - 1
      while (i > 0) { val j = rng.nextInt(i + 1); val t = idx(i); idx(i) = idx(j); idx(j) = t; i -= 1 }
      lastP = 0.0; lastV = 0.0; lastH = 0.0
      var off = 0
      while (off < idx.length) {
        val end = math.min(off + cfg.minibatch, idx.length)
        val mbSize = end - off
        net.zeroGrads()
        var k = off
        while (k < end) {
          val e = batch(idx(k))
          val a = adv(idx(k))
          // Until the first Adam step the rollout's forward pass is current.
          val c = if (e.fwd.version == net.version) e.fwd else net.forward(e.features, e.legal)
          val legal = e.legal
          val lp = Nn.maskedLogSoftmax(c.logits, legal)
          val p = Nn.probsFromLogProbs(lp, legal)
          val logpNew = lp(e.action)
          val ratio = math.exp(logpNew - e.logpOld)
          val surr1 = ratio * a
          val surr2 = math.max(math.min(ratio, 1 + cfg.clip), 1 - cfg.clip) * a
          // Gradient of -min(surr1, surr2) wrt logpNew: active only when the
          // unclipped branch is the min (clipped branch has zero gradient).
          val dLogp = if (surr1 <= surr2) -ratio * a else 0.0
          // Entropy bonus: H = -Σ p log p over legal actions.
          var ent = 0.0
          var q = 0
          while (q < legal.length) { val j = legal(q); if (p(j) > 1e-12) ent -= p(j) * lp(j); q += 1 }
          val dLogits = new Array[Double](p.length)
          q = 0
          while (q < legal.length) {
            val j = legal(q)
            // d logp_a / d z_j = δ_aj − p_j ; d(−H)/d z_j = p_j (log p_j + H)
            val dFromPolicy = dLogp * ((if (j == e.action) 1.0 else 0.0) - p(j))
            val dFromEntropy =
              if (p(j) > 1e-12) cfg.entropyCoef * p(j) * (lp(j) + ent) else 0.0
            dLogits(j) = (dFromPolicy + dFromEntropy) / mbSize
            q += 1
          }
          val vErr = c.value - e.reward
          val dValue = cfg.valueCoef * 2.0 * vErr / mbSize
          net.backward(c, dLogits, dValue)
          lastP += -math.min(surr1, surr2) / idx.length
          lastV += vErr * vErr / idx.length
          lastH += ent / idx.length
          k += 1
        }
        clipGrads()
        adam.step()
        net.paramsUpdated()
        off = end
      }
    }
    (lastP, lastV, lastH)
  }

  private def clipGrads(): Unit = {
    var norm2 = 0.0
    for (p <- net.params) { var i = 0; while (i < p.g.length) { norm2 += p.g(i) * p.g(i); i += 1 } }
    val norm = math.sqrt(norm2)
    if (norm > cfg.maxGradNorm) {
      val s = cfg.maxGradNorm / norm
      for (p <- net.params) { var i = 0; while (i < p.g.length) { p.g(i) *= s; i += 1 } }
    }
  }
}
