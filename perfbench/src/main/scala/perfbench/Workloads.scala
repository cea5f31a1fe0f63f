package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.workload.{ErrorLog, TpchDenorm, TpchWorkload}

/** How a workload turns its construction store into a tree. */
sealed trait Constructor
case object GreedyBuild extends Constructor
/** WOODBLOCK with a fixed episode count, a fixed policy seed and no
  * wall-clock budget, so that every run at one workload seed trains the
  * same tree.
  */
final case class WoodblockBuild(episodes: Int, policySeed: Long) extends Constructor

/** One benchmark workload: the generated table and queries, and the fixed
  * parameters of its pipeline.
  *
  * @param generate     (session, rows, workload seed) to the encoded table,
  *                     its metadata and the workload's queries.
  * @param threads      Spark runs as local[threads]. It is fixed per workload
  *                     because `rand(seed)` is seeded per partition and
  *                     `spark.range` has one partition per thread, so the
  *                     generated table depends on it.
  * @param storeRows    rows sampled from the table into the driver-side
  *                     `ColumnStore` the constructor works on.
  * @param bTable       minimum block size in table rows; scaled to the store
  *                     with `Table2.scaledB`.
  * @param executed     queries executed in Spark, evenly spaced over the
  *                     workload; at least 60, so that the timed pass has ten
  *                     samples above its p80. All queries are routed for
  *                     `access_pct`.
  */
final case class Workload(
    name: String,
    threads: Int,
    rows: Long,
    storeRows: Int,
    bTable: Int,
    executed: Int,
    constructor: Constructor,
    generate: (SparkSession, Long, Long) => (DataFrame, TableMeta, IndexedSeq[Query])) {
  require(executed >= 60, s"$name: executed=$executed, needs at least 60")
}

object Workloads {

  // The workload seed drives the table's generator and the construction
  // sample. Data seeds stay clear of the fixed rand(100..103) that
  // TpchDenorm.monthBuild uses for its dates.
  def dataSeed(seed: Long): Long = 1000L + 100L * seed
  def sampleSeed(seed: Long): Long = 13L + seed

  // Each workload's query set is part of its definition and does not vary
  // with the seed. Seeded TPC-H literals over the full date domain decide,
  // per seed, how many queries miss the one-month table entirely; that moved
  // access_pct between 19% and 36% and query_p50_ms by 2x across seeds.
  val QuerySeed = 1234L

  /** Table 2's TPC-H configuration at a smaller scale: construction
    * dominates, and the 150 queries share 15 templates.
    */
  val tpchGreedy: Workload = Workload(
    name = "tpch-greedy", threads = 2, rows = 30000, storeRows = 10000, bTable = 1024,
    executed = 60, constructor = GreedyBuild,
    generate = (spark, rows, seed) => {
      val (df, meta) = TpchDenorm.monthEncoded(spark, rows, dataSeed(seed))
      val qs = TpchWorkload.queries(meta, seedsPerTemplate = 10, seed = QuerySeed,
        litDomains = TpchDenorm.fullDateDomain)
      (df, meta, qs)
    })

  /** ErrLog-Int: a large table, a store under 1% of it and many small
    * blocks, so routing rows into Parquet and per-query overhead dominate.
    */
  val errlogIngest: Workload = Workload(
    name = "errlog-ingest", threads = 4, rows = 400000, storeRows = 4000, bTable = 2048,
    executed = 60, constructor = GreedyBuild,
    generate = (spark, rows, seed) =>
      (ErrorLog.intTable(spark, rows, dataSeed(seed)), ErrorLog.intMeta,
        ErrorLog.intQueries(1000, QuerySeed)))

  /** ErrLog-Ext: WOODBLOCK over a Zipf-skewed 3600-value app_id. Rollouts
    * and PPO updates dominate; Greedy is absent and Spark layers are light.
    */
  val extWoodblock: Workload = Workload(
    name = "ext-woodblock", threads = 2, rows = 40000, storeRows = 4000, bTable = 2048,
    executed = 60, constructor = WoodblockBuild(episodes = 40, policySeed = 2),
    generate = (spark, rows, seed) =>
      (ErrorLog.extTable(spark, rows, dataSeed(seed)), ErrorLog.extMeta,
        ErrorLog.extQueries(1000, QuerySeed)))

  val all: Seq[Workload] = Seq(tpchGreedy, errlogIngest, extWoodblock)

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
