package perfbench

import java.nio.file.Files
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.layout.Evaluator
import repro.sparkext.Router
import repro.workload.ErrorLog

class CheckSpec extends AnyFunSuite {

  private lazy val spark = SparkSession.builder()
    .master("local[2]")
    .appName("perfbench-check")
    .config("spark.ui.enabled", value = false)
    .getOrCreate()

  test("a routed query that misses one block holding matches fails the check") {
    val meta = ErrorLog.intMeta
    val df = ErrorLog.intTable(spark, 20000, seed = 5).cache()
    val queries = ErrorLog.intQueries(50, seed = 9)
    val store = Encoder.collect(df, meta)
    val tree = Greedy.build(store, queries.map(_.expr), Workload.candidateCuts(queries), b = 500).tree
    assert(tree.numLeaves > 2)
    val path = Files.createTempDirectory("perfbench-check").toString
    Router.writePartitioned(df, tree, path)
    val layout = spark.read.parquet(path)

    val q: QExpr = QPred(InPred("severity", Set(0)))
    val exact = Evaluator.matchingRows(df, meta, Seq(q)).head
    val bids = tree.blockIds(q)
    def routed(ids: Seq[Int]) = Check.countOf(Check.routedQuery(layout, meta, q, ids).collect()(0))
    assert(Check.queryError("severity=0", routed(bids), exact).isEmpty)

    val holding = layout.filter(q.toColumn(meta)).select("bid").distinct().collect().map(_.getInt(0))
    assert(holding.length > 1)
    val dropped = bids.filterNot(_ == holding.head)
    assert(Check.queryError("severity=0", routed(dropped), exact).nonEmpty)
  }

  test("layoutErrors flags lost rows and block ids outside the tree") {
    assert(Check.layoutErrors(Map(0 -> 5L, 1 -> 5L), sourceRows = 10, leaves = 2).isEmpty)
    assert(Check.layoutErrors(Map(0 -> 5L, 1 -> 4L), sourceRows = 10, leaves = 2).nonEmpty)
    assert(Check.layoutErrors(Map(0 -> 5L, 2 -> 5L), sourceRows = 10, leaves = 2).nonEmpty)
  }
}
