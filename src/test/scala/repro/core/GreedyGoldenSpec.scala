package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Greedy trees recorded before the split-search kernel was rewritten
  * (word-array stats, popcount tri-states, parallel cut scoring). The kernel
  * must reproduce them exactly: same cuts, same BIDs, same leaf row sets.
  */
class GreedyGoldenSpec extends AnyFunSuite {
  import GreedyGoldenSpec.{Golden, digest}

  private def workload: Seq[QExpr] = Seq(
    QPred(LePred("cpu", 19)),
    QPred(GePred("cpu", 80)),
    QAnd(Seq(QPred(GePred("mem", 48)), QPred(InPred("prio", Set(2))))),
    QPred(InPred("prio", Set(0))),
    QPred(AdvPred(0)),
    QOr(Seq(QPred(LePred("mem", 5)), QPred(AdvPred(0, positive = false)))))

  private def cuts: IndexedSeq[Pred] =
    Workload.candidateCuts(workload.zipWithIndex.map { case (e, i) => Query(s"q$i", e) })

  /** `Fixtures.store(3000, seed)`, b = 100. */
  private val goldens = Seq(
    Golden(1L, relaxed = false, "df72a2d9f9b6baed9822e07a6c0939275daa1ebb3e2a907d6311687b5b292fe7",
      """root [cpu <= 19.0]
         |  T: [mem >= 48.0]
         |    T: leaf bid=0 size=136
         |    F: [prio IN (0)]
         |      T: leaf bid=1 size=149
         |      F: leaf bid=2 size=315
         |  F: [prio IN (2)]
         |    T: [cpu >= 80.0]
         |      T: leaf bid=3 size=195
         |      F: [mem >= 48.0]
         |        T: leaf bid=4 size=172
         |        F: leaf bid=5 size=412
         |    F: [cpu >= 80.0]
         |      T: [prio IN (0)]
         |        T: leaf bid=6 size=210
         |        F: leaf bid=7 size=205
         |      F: [prio IN (0)]
         |        T: [AC0]
         |          T: leaf bid=8 size=437
         |          F: leaf bid=9 size=150
         |        F: [AC0]
         |          T: leaf bid=10 size=473
         |          F: leaf bid=11 size=146
         |""".stripMargin),
    Golden(1L, relaxed = true, "834b9c33d306d4f0ceabf3a6c11a7dcc5d85d7eb6b7df3de1e11b042a18fdc83",
      """root [cpu <= 19.0]
         |  T: [mem >= 48.0]
         |    T: leaf bid=0 size=136
         |    F: [AC0]
         |      T: leaf bid=1 size=98
         |      F: [prio IN (0)]
         |        T: leaf bid=2 size=114
         |        F: leaf bid=3 size=252
         |  F: [prio IN (2)]
         |    T: [cpu >= 80.0]
         |      T: [mem >= 48.0]
         |        T: leaf bid=4 size=60
         |        F: [mem <= 5.0]
         |          T: leaf bid=5 size=16
         |          F: leaf bid=6 size=119
         |      F: [mem >= 48.0]
         |        T: [AC0]
         |          T: leaf bid=7 size=59
         |          F: leaf bid=8 size=113
         |        F: [AC0]
         |          T: [mem <= 5.0]
         |            T: leaf bid=9 size=56
         |            F: leaf bid=10 size=299
         |          F: leaf bid=11 size=57
         |    F: [cpu >= 80.0]
         |      T: [mem <= 5.0]
         |        T: leaf bid=12 size=27
         |        F: [prio IN (0)]
         |          T: leaf bid=13 size=193
         |          F: leaf bid=14 size=195
         |      F: [prio IN (0)]
         |        T: [AC0]
         |          T: [mem <= 5.0]
         |            T: leaf bid=15 size=63
         |            F: leaf bid=16 size=374
         |          F: leaf bid=17 size=150
         |        F: [AC0]
         |          T: [mem <= 5.0]
         |            T: leaf bid=18 size=48
         |            F: leaf bid=19 size=425
         |          F: leaf bid=20 size=146
         |""".stripMargin),
    Golden(7L, relaxed = false, "2800c9ca23f7a43922c7442da7e7e500a3b19b9ee0fd6e5d1a827178aa5694ad",
      """root [cpu <= 19.0]
         |  T: [mem >= 48.0]
         |    T: leaf bid=0 size=179
         |    F: [prio IN (0)]
         |      T: leaf bid=1 size=135
         |      F: leaf bid=2 size=301
         |  F: [prio IN (2)]
         |    T: [cpu >= 80.0]
         |      T: leaf bid=3 size=210
         |      F: [mem >= 48.0]
         |        T: leaf bid=4 size=162
         |        F: leaf bid=5 size=434
         |    F: [cpu >= 80.0]
         |      T: [prio IN (0)]
         |        T: leaf bid=6 size=181
         |        F: leaf bid=7 size=185
         |      F: [prio IN (0)]
         |        T: [AC0]
         |          T: leaf bid=8 size=453
         |          F: leaf bid=9 size=136
         |        F: [AC0]
         |          T: leaf bid=10 size=453
         |          F: leaf bid=11 size=171
         |""".stripMargin),
    Golden(7L, relaxed = true, "cf846ef8598c783909d7bc10ade87fad6da37fe3eab6dd2d7faaacd3b65ae017",
      """root [cpu <= 19.0]
         |  T: [mem >= 48.0]
         |    T: [prio IN (2)]
         |      T: leaf bid=0 size=57
         |      F: leaf bid=1 size=122
         |    F: [AC0]
         |      T: leaf bid=2 size=80
         |      F: [prio IN (0)]
         |        T: leaf bid=3 size=114
         |        F: leaf bid=4 size=242
         |  F: [prio IN (2)]
         |    T: [cpu >= 80.0]
         |      T: [mem >= 48.0]
         |        T: leaf bid=5 size=53
         |        F: [mem <= 5.0]
         |          T: leaf bid=6 size=12
         |          F: leaf bid=7 size=145
         |      F: [mem >= 48.0]
         |        T: [AC0]
         |          T: leaf bid=8 size=57
         |          F: leaf bid=9 size=105
         |        F: [AC0]
         |          T: [mem <= 5.0]
         |            T: leaf bid=10 size=62
         |            F: leaf bid=11 size=309
         |          F: leaf bid=12 size=63
         |    F: [cpu >= 80.0]
         |      T: [mem <= 5.0]
         |        T: leaf bid=13 size=27
         |        F: [prio IN (0)]
         |          T: leaf bid=14 size=168
         |          F: leaf bid=15 size=171
         |      F: [prio IN (0)]
         |        T: [AC0]
         |          T: [mem <= 5.0]
         |            T: leaf bid=16 size=57
         |            F: leaf bid=17 size=396
         |          F: leaf bid=18 size=136
         |        F: [AC0]
         |          T: [mem <= 5.0]
         |            T: leaf bid=19 size=51
         |            F: leaf bid=20 size=402
         |          F: leaf bid=21 size=171
         |""".stripMargin))

  private def build(g: Golden): BuildResult =
    Greedy.build(Fixtures.store(3000, g.seed), workload, cuts, b = 100, relaxed = g.relaxed)

  for (g <- goldens) {
    test(s"seed ${g.seed}, relaxed=${g.relaxed}: tree and leaf masks match the recorded build") {
      val res = build(g)
      assert(res.tree.render.trim == g.render.trim)
      assert(digest(res.leafMasks) == g.maskDigest)
    }
  }

  test("repeated builds are identical (parallel cut scoring is deterministic)") {
    for (g <- goldens) {
      val first = build(g)
      for (_ <- 1 until 5) {
        val again = build(g)
        assert(again.tree.render == first.tree.render)
        assert(again.leafMasks.map(_.toSeq) == first.leafMasks.map(_.toSeq))
      }
    }
  }
}

object GreedyGoldenSpec {
  final case class Golden(seed: Long, relaxed: Boolean, maskDigest: String, render: String)

  /** SHA-256 over the leaf masks' words, in BID order. */
  def digest(masks: IndexedSeq[Array[Long]]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8)
    for (m <- masks; w <- m) { buf.clear(); buf.putLong(w); md.update(buf.array()) }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }
}
