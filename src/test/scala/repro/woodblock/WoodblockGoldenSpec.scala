package repro.woodblock

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.GreedyGoldenSpec.digest

/** WOODBLOCK trainings recorded before the network and the legality checks
  * were restricted to legal cuts. Training must reproduce them bit for bit:
  * every episode's scan fraction, every PPO update's losses, and the best
  * tree with its leaf row sets.
  */
class WoodblockGoldenSpec extends AnyFunSuite {
  import WoodblockGoldenSpec._

  for (g <- goldens) {
    test(s"${g.name}: curve, PPO stats and best tree match the recorded training") {
      val res = train(g.name)
      assert(res.curve.map(p => java.lang.Double.doubleToRawLongBits(p.scanFraction)) == g.scanBits)
      val ppo = res.curve.flatMap(_.ppo).flatMap(s => Seq(s.policyLoss, s.valueLoss, s.entropy))
      assert(ppo.map(java.lang.Double.doubleToRawLongBits) == g.ppoBits)
      assert(res.best.tree.render.trim == g.render.trim)
      assert(digest(res.best.leafMasks) == g.maskDigest)
    }
  }
}

object WoodblockGoldenSpec {
  /** Raw bits of each episode's scan fraction; raw bits of (policy loss,
    * value loss, entropy) of each update, in episode order.
    */
  final case class Golden(name: String, scanBits: Seq[Long], ppoBits: Seq[Long], maskDigest: String, render: String)

  private def cutsOf(w: Seq[QExpr]): IndexedSeq[Pred] =
    Workload.candidateCuts(w.zipWithIndex.map { case (e, i) => Query(s"q$i", e) })

  /** `Fixtures.store(2000, 20)`: every candidate cut is legal at the root.
    * Minibatches of 32, so each update has several Adam steps per epoch.
    */
  private def allLegal(): WoodblockResult = {
    val w = Seq[QExpr](
      QPred(LePred("cpu", 19)),
      QPred(GePred("cpu", 80)),
      QAnd(Seq(QPred(GePred("mem", 48)), QPred(InPred("prio", Set(2))))),
      QPred(InPred("prio", Set(0))),
      QPred(AdvPred(0)),
      QOr(Seq(QPred(LePred("mem", 5)), QPred(AdvPred(0, positive = false)))))
    Woodblock.train(Fixtures.store(2000, 20), w, cutsOf(w),
      WoodblockConfig(b = 100, episodes = 12, updateEvery = 4, hidden = 32, seed = 1,
        ppo = PpoConfig(minibatch = 32)))
  }

  private val zipfCodes = 300

  /** A Zipf(1.1) categorical over 300 codes and a 15-value day column;
    * one IN cut per code, so most cuts leave a child under b rows.
    */
  private val zipfMeta: TableMeta = TableMeta(IndexedSeq(
    ColumnMeta("app", ColKind.Categorical, 0, zipfCodes - 1),
    ColumnMeta("day", ColKind.Numeric, 0, 14)))

  private def zipfInCuts(): WoodblockResult = {
    val rng = new Random(77)
    val cdf = (1 to zipfCodes).map(k => 1.0 / math.pow(k, 1.1)).scanLeft(0.0)(_ + _).tail
    def code(): Int = {
      val u = rng.nextDouble() * cdf.last
      math.min(cdf.indexWhere(_ > u), zipfCodes - 1)
    }
    val store = Encoder.fromRows(zipfMeta, Seq.fill(3000)(Array(code().toDouble, rng.nextInt(15).toDouble)))
    val w = Seq.fill(24) {
      val d = rng.nextInt(15)
      QAnd(Seq(QPred(InPred("app", Set.fill(1 + rng.nextInt(3))(code()))),
        QPred(GePred("day", d)), QPred(LePred("day", d + rng.nextInt(4)))))
    }
    val cuts = (0 until zipfCodes).map(c => InPred("app", Set(c)): Pred) ++ cutsOf(w).filterNot(_.isInstanceOf[InPred])
    Woodblock.train(store, w, cuts, WoodblockConfig(b = 60, episodes = 12, updateEvery = 4, hidden = 32, seed = 3))
  }

  def train(name: String): WoodblockResult = name match {
    case "all-legal" => allLegal()
    case "zipf-in-cuts" => zipfInCuts()
  }

  val goldens: Seq[Golden] = Seq(
    Golden("all-legal",
      Seq(4602030300826305560L, 4602885234155568060L, 4602380080397364670L, 4603080390139420781L, 4602461145190657338L, 4601119072501700930L, 4603158452532961870L, 4602341049200594124L, 4602731361168299568L, 4601602458861705364L, 4602638286776000578L, 4602762886365691162L),
      Seq(-4659571016399697888L, 4599342988778719722L, 4606527321329560760L, -4664546842061033329L, 4599510990803500201L, 4606719628340337189L, -4661769796634873952L, 4599237644490176814L, 4606224348342526540L),
      "6ebf45b48917e94855062e2e65a385d6d85598210d68d73eaf489bece5f11dce",
      """root [cpu <= 19.0]
         |  T: [mem >= 48.0]
         |    T: leaf bid=0 size=114
         |    F: leaf bid=1 size=262
         |  F: [mem <= 5.0]
         |    T: leaf bid=2 size=142
         |    F: [prio IN (2)]
         |      T: [cpu >= 80.0]
         |        T: leaf bid=3 size=147
         |        F: [AC0]
         |          T: leaf bid=4 size=250
         |          F: leaf bid=5 size=106
         |      F: [prio IN (0)]
         |        T: [AC0]
         |          T: [cpu >= 80.0]
         |            T: leaf bid=6 size=121
         |            F: leaf bid=7 size=272
         |          F: leaf bid=8 size=115
         |        F: [AC0]
         |          T: [cpu >= 80.0]
         |            T: leaf bid=9 size=128
         |            F: leaf bid=10 size=231
         |          F: leaf bid=11 size=112
         |""".stripMargin),
    Golden("zipf-in-cuts",
      Seq(4592352565627044960L, 4590550124976179568L, 4591573943291468464L, 4591425824903723832L, 4592713854397151792L, 4592503686414541168L, 4591605968888818656L, 4591476865699500696L, 4592233470436898944L, 4592216456838306656L, 4592053326451804120L, 4592641796803113864L),
      Seq(-4654714906258044072L, 4606408278858225139L, 4609894582753862902L, -4656575327699943440L, 4605780276372135296L, 4609991379459929856L, -4661213503668622014L, 4605185835421786805L, 4610371300427400474L),
      "63d2adaae6ab0a9ace0093a4a7cc9027467f16635d4a866b3ae9576e2e7c6a49",
      """root [day <= 4.0]
         |  T: [day >= 1.0]
         |    T: [app IN (0)]
         |      T: [day <= 2.0]
         |        T: leaf bid=0 size=75
         |        F: leaf bid=1 size=92
         |      F: [day <= 2.0]
         |        T: [day >= 2.0]
         |          T: leaf bid=2 size=168
         |          F: leaf bid=3 size=168
         |        F: [day <= 3.0]
         |          T: leaf bid=4 size=147
         |          F: leaf bid=5 size=160
         |    F: leaf bid=6 size=185
         |  F: [app IN (1)]
         |    T: [day >= 9.0]
         |      T: leaf bid=7 size=115
         |      F: leaf bid=8 size=75
         |    F: [day >= 6.0]
         |      T: [app IN (3)]
         |        T: leaf bid=9 size=92
         |        F: [day <= 9.0]
         |          T: [app IN (0)]
         |            T: [day >= 8.0]
         |              T: leaf bid=10 size=92
         |              F: leaf bid=11 size=84
         |            F: [day >= 8.0]
         |              T: [day >= 9.0]
         |                T: leaf bid=12 size=124
         |                F: leaf bid=13 size=140
         |              F: [day <= 6.0]
         |                T: leaf bid=14 size=123
         |                F: leaf bid=15 size=147
         |          F: [app IN (2)]
         |            T: leaf bid=16 size=68
         |            F: [day <= 11.0]
         |              T: [day >= 11.0]
         |                T: leaf bid=17 size=171
         |                F: leaf bid=18 size=137
         |              F: [day >= 14.0]
         |                T: leaf bid=19 size=147
         |                F: [app IN (0)]
         |                  T: leaf bid=20 size=88
         |                  F: [day >= 13.0]
         |                    T: leaf bid=21 size=110
         |                    F: leaf bid=22 size=122
         |      F: leaf bid=23 size=170
         |""".stripMargin))
}
