package perfbench

import java.io.File
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.FileSourceScanExec
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import repro.core._
import repro.harness.Table2
import repro.layout.{BlockStats, Evaluator}
import repro.sparkext.Router
import repro.woodblock.{Woodblock, WoodblockConfig, WoodblockResult}

/** Runs one workload through the whole layout pipeline and writes one JSON
  * result file: generate and encode the table, build a tree, write and
  * freeze the layout, then run routed queries in a closed loop (one client,
  * one query at a time) after an untimed warm-up pass.
  *
  * Usage: Main --workload NAME --seed N --seconds S --trace 0|1
  *             --work DIR --out FILE [--commit SHA]
  *
  * End-to-end times are taken with `System.nanoTime` around the pipeline's
  * phases in both modes. With `--trace 1`, spans are also recorded around
  * every call into a layer, and the probes that repeat work (cut masks,
  * write-less routing) run; those probes sit outside every end-to-end timer.
  */
object Main {

  /** Repetitions of set-up, build and ingest per run; the end-to-end times
    * are their medians.
    */
  val Reps = 3
  /** Queries run before timing starts. */
  val WarmupQueries = 5

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        work: Path, out: Path, commit: String)

  def main(args: Array[String]): Unit = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = kv.getOrElse(k, { System.err.println(s"missing --$k"); sys.exit(2) })
    val opts = Opts(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1",
      Paths.get(need("work")), Paths.get(need("out")), kv.getOrElse("commit", "unknown"))
    val wl = Workloads.byName(opts.workload).getOrElse {
      System.err.println(s"unknown workload ${opts.workload}; known: ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val result = new Run(wl, opts).execute()
    Files.createDirectories(opts.out.getParent)
    Files.writeString(opts.out, Json.render(result))
  }
}

/** Scan counters of one executed query, read from `FileSourceScanExec`. */
final case class ScanCounts(files: Long, bytes: Long, rows: Long)

object ScanCounts extends AdaptiveSparkPlanHelper {
  def of(df: DataFrame): ScanCounts = {
    val scans = collect(df.queryExecution.executedPlan) { case s: FileSourceScanExec => s }
    def total(m: String) = scans.map(s => s.metrics.get(m).map(_.value).getOrElse(0L)).sum
    ScanCounts(total("numFiles"), total("filesSize"), total("numOutputRows"))
  }
}

/** One build: `Encoder.collect` then the workload's constructor. */
final case class Built(store: ColumnStore, tree: QdTree, wood: Option[WoodblockResult],
                       totalS: Double, collectS: Double, constructS: Double)

/** One ingest: the written layout's files and its frozen tree. */
final case class Ingested(path: String, stats: Map[Int, (Long, NodeDesc)], frozen: QdTree,
                          files: Int, bytes: Long, totalS: Double, writeS: Double, statsS: Double)

/** One executed query: routing and Spark times, blocks selected, scan counters. */
final case class Executed(blockIdsNs: Long, sparkNs: Long, bids: Int, scan: ScanCounts)

final class Run(wl: Workload, opts: Main.Opts) {
  private val runId = s"${wl.name}-s${opts.seed}-t${if (opts.trace) 1 else 0}-${System.currentTimeMillis()}"
  private val tracer = new Tracer(opts.trace)
  private val errors = mutable.ArrayBuffer[String]()
  private val e2e = mutable.LinkedHashMap[String, (Double, String)]()
  private val layer = mutable.LinkedHashMap[String, (Double, String)]()
  private val exact = mutable.LinkedHashMap[String, Any]()
  private var attempted = 0L
  private var failed = 0L

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def session(): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[${wl.threads}]")
      .appName("perfbench")
      .config("spark.default.parallelism", wl.threads.toLong)
      // Two shuffle partitions per thread instead of Spark's cluster-sized
      // 200: each shuffle (Encoder dictionaries, BlockStats) then costs
      // tasks in proportion to the local cores.
      .config("spark.sql.shuffle.partitions", 2L * wl.threads)
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", opts.work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", opts.work.resolve("warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    tracer.attach(s.sparkContext)
    s
  }

  /** Runs set-up, build and ingest `Main.Reps` times, one after another
    * within a repetition, so that each one's median is taken over the whole
    * run rather than one stretch of it; then the queries, in the last
    * repetition's session.
    */
  def execute(): Map[String, Any] = {
    val t = mutable.Map[String, mutable.ArrayBuffer[Double]]()
    def record(k: String, v: Double): Unit = t.getOrElseUpdate(k, mutable.ArrayBuffer()) += v
    def median(k: String): Double = Stats.median(t(k))

    var spark: SparkSession = null
    var df: DataFrame = null
    var meta: TableMeta = null
    var queries: IndexedSeq[Query] = null
    var built: Built = null
    var ingested: Ingested = null
    val trees = mutable.ArrayBuffer[String]()

    for (rep <- 0 until Main.Reps) {
      if (spark != null) { df.unpersist(blocking = true); spark.stop() }

      // ---- set-up: SparkSession start + generate, encode, cache and count ----
      val tSetup = System.nanoTime()
      spark = tracer.span("spark.session")(session())
      record("session", secondsSince(tSetup))
      val tGen = System.nanoTime()
      val n = tracer.span("workload.generate_encode") {
        val (d, m, qs) = wl.generate(spark, wl.rows, opts.seed)
        df = d.cache(); meta = m; queries = qs
        df.count()
      }
      record("generate", secondsSince(tGen))
      record("setup", secondsSince(tSetup))
      if (n != wl.rows) errors += s"generated $n rows, expected ${wl.rows}"
      val w = queries.map(_.expr)
      val cuts = Workload.candidateCuts(queries)

      // ---- build: Encoder.collect + the constructor ----
      built = build(df, meta, w, cuts)
      trees += built.tree.render
      record("build", built.totalS); record("collect", built.collectS); record("construct", built.constructS)

      // ---- ingest: route + write bid-partitioned Parquet, then freeze ----
      if (ingested != null) Layout.delete(new File(ingested.path))
      val previous = Option(ingested)
      ingested = ingest(spark, df, meta, built.tree, Workload.queriedCols(meta, queries), rep)
      record("ingest", ingested.totalS); record("write", ingested.writeS); record("stats", ingested.statsS)
      errors ++= Check.layoutErrors(ingested.stats.map { case (k, (sz, _)) => k -> sz }, wl.rows,
        built.tree.numLeaves)
      for (p <- previous if (p.files, p.bytes) != (ingested.files, ingested.bytes))
        errors += "one tree wrote layouts of different sizes"
    }
    if (trees.distinct.size > 1) errors += "one input built different trees"
    val frozen = ingested.frozen

    // ---- queries, in the last repetition's session ----
    val w = queries.map(_.expr)
    // Evenly spaced over the workload, so that every template is executed.
    val executed = (0 until wl.executed).map(k => k * queries.length / wl.executed)
    val tExact = System.nanoTime()
    val exactCounts = tracer.span("check.exact_counts")(Evaluator.matchingRows(df, meta, executed.map(w)))
    layer("check.exact_counts_s") = (secondsSince(tExact), "s")
    val expected = executed.zip(exactCounts).toMap
    val latencyMs = mutable.ArrayBuffer[Double]()
    val blockIdsUs = mutable.ArrayBuffer[Double]()
    val sparkMs = mutable.ArrayBuffer[Double]()
    val firstPass = mutable.ArrayBuffer[Executed]()
    var timedNs = 0L
    val tOpen = System.nanoTime()
    val layoutDf = tracer.span("query.open")(spark.read.parquet(ingested.path))
    layer("query.open_s") = (secondsSince(tOpen), "s")

    def runQuery(qi: Int): Option[Executed] = {
      attempted += 1
      try {
        val t0 = System.nanoTime()
        val bids = tracer.span("qdtree.blockids")(frozen.blockIds(queries(qi).expr))
        val t1 = System.nanoTime()
        val q = Check.routedQuery(layoutDf, meta, queries(qi).expr, bids)
        val row = tracer.span("query.spark")(q.collect()(0))
        val t2 = System.nanoTime()
        Check.queryError(queries(qi).name, Check.countOf(row), expected(qi)) match {
          case Some(e) => failed += 1; if (errors.size < 20) errors += e; None
          case None    => Some(Executed(t1 - t0, t2 - t1, bids.size, ScanCounts.of(q)))
        }
      } catch {
        case NonFatal(e) =>
          failed += 1
          if (errors.size < 20) errors += s"${queries(qi).name} threw $e"
          None
      }
    }

    def timedQueries(qis: Seq[Int], firstPassToo: Boolean): Unit = {
      val t0 = System.nanoTime()
      tracer.span("query.timed") {
        qis.foreach { qi =>
          runQuery(qi).foreach { r =>
            latencyMs += (r.blockIdsNs + r.sparkNs) / 1e6
            blockIdsUs += r.blockIdsNs / 1e3
            sparkMs += r.sparkNs / 1e6
            if (firstPassToo) firstPass += r
          }
        }
      }
      timedNs += System.nanoTime() - t0
    }

    val tWarm = System.nanoTime()
    tracer.span("query.warmup")(executed.take(Main.WarmupQueries).foreach(runQuery))
    layer("query.warmup_s") = (secondsSince(tWarm), "s")
    // Whole passes over the executed queries until --seconds have been
    // timed, so the query mix does not depend on how many fit in the time.
    timedQueries(executed, firstPassToo = true)
    while (timedNs / 1e9 < opts.seconds) timedQueries(executed, firstPassToo = false)

    val tree = built.tree
    val store = built.store
    val stats = ingested.stats
    val cuts = Workload.candidateCuts(queries)

    e2e("setup_s") = (median("setup"), "s")
    e2e("build_s") = (median("build"), "s")
    e2e("ingest_rows_per_s") = (wl.rows / median("ingest"), "rows/s")
    e2e("query_p50_ms") = (Stats.percentile(latencyMs, 50), "ms")
    e2e("query_p80_ms") = (Stats.percentile(latencyMs, 80), "ms")
    e2e("queries_per_s") = (latencyMs.length / (timedNs / 1e9), "1/s")
    val bytes = ingested.bytes
    e2e("access_pct") = (Evaluator.evaluateStats(stats, meta, w).accessPercent, "%")
    e2e("stored_bytes_per_row") = (bytes.toDouble / wl.rows, "B")

    layer("spark.session_s") = (median("session"), "s")
    layer("workload.generate_encode_s") = (median("generate"), "s")
    layer("encoder.collect_s") = (median("collect"), "s")
    layer("encoder.collect_rows") = (store.n.toDouble, "count")
    // A layer the workload does not run reports 0.
    val greedy = wl.constructor == GreedyBuild
    val constructS = median("construct")
    layer("greedy.build_s") = (if (greedy) constructS else 0.0, "s")
    layer("greedy.leaves") = (if (greedy) tree.numLeaves.toDouble else 0.0, "count")
    layer("greedy.depth") = (if (greedy) tree.depth.toDouble else 0.0, "count")
    def woodOr(f: WoodblockResult => Double): Double = built.wood.map(f).getOrElse(0.0)
    layer("woodblock.train_s") = (woodOr(_ => constructS), "s")
    layer("woodblock.episodes") = (woodOr(_.curve.length.toDouble), "count")
    layer("woodblock.episodes_per_s") = (woodOr(_.curve.length / constructS), "1/s")
    layer("woodblock.first_scan_pct") = (woodOr(_.curve.head.scanFraction * 100), "%")
    layer("woodblock.best_scan_pct") = (woodOr(_.bestScanFraction * 100), "%")
    layer("woodblock.leaves") = (woodOr(_.best.tree.numLeaves.toDouble), "count")
    layer("columnstore.cuts") = (cuts.length.toDouble, "count")

    // Probe (traced run only): candidate-cut mask evaluation, which both
    // constructors repeat inside the build span.
    layer("columnstore.cut_masks_s") = (if (!opts.trace) 0.0 else {
      val t0 = System.nanoTime()
      tracer.span("columnstore.cut_masks")(cuts.map(store.evalPred))
      secondsSince(t0)
    }, "s")

    layer("router.write_s") = (median("write"), "s")
    layer("router.files_written") = (ingested.files.toDouble, "count")
    layer("router.bytes_written") = (bytes.toDouble, "B")
    layer("router.partitions") = (Layout.partitions(new File(ingested.path)).toDouble, "count")
    layer("blockstats.compute_s") = (median("stats"), "s")
    layer("blockstats.blocks") = (stats.size.toDouble, "count")

    // Probe (traced run only): data routing alone, aggregated without a
    // write. Its per-block counts must match the written layout's.
    val routeS = if (!opts.trace) 0.0 else {
      val t0 = System.nanoTime()
      val counts = tracer.span("qdtree.route") {
        df.withColumn("bid", tree.routeColumn).groupBy("bid").count().collect()
          .map(r => r.getInt(0) -> r.getLong(1)).toMap
      }
      if (counts != stats.map { case (k, (sz, _)) => k -> sz })
        errors += "write-less routing counts differ from the written layout's block counts"
      secondsSince(t0)
    }
    layer("qdtree.route_s") = (routeS, "s")
    layer("qdtree.route_rows_per_s") = (if (routeS > 0) wl.rows / routeS else 0.0, "rows/s")

    // Counters over one pass of the executed queries repeat exactly for a seed.
    val filesRead = firstPass.map(_.scan.files).sum
    layer("query.files_read") = (filesRead.toDouble, "count")
    layer("query.bytes_read") = (firstPass.map(_.scan.bytes).sum.toDouble, "B")
    layer("query.rows_scanned_pct") =
      (100.0 * firstPass.map(_.scan.rows).sum / (wl.rows.toDouble * executed.length), "%")
    layer("qdtree.blocks_selected_pct") =
      (100.0 * firstPass.map(_.bids).sum / (frozen.numLeaves.toDouble * executed.length), "%")
    layer("qdtree.blockids_us_p50") = (Stats.percentile(blockIdsUs, 50), "us")
    layer("qdtree.blockids_us_p80") = (Stats.percentile(blockIdsUs, 80), "us")
    layer("query.spark_ms_p50") = (Stats.percentile(sparkMs, 50), "ms")
    layer("query.spark_ms_p80") = (Stats.percentile(sparkMs, 80), "ms")

    exact("access_pct") = e2e("access_pct")._1
    exact("stored_bytes_per_row") = e2e("stored_bytes_per_row")._1
    if (greedy) exact("greedy.leaves") = tree.numLeaves
    built.wood.foreach(r => exact("woodblock.best_scan_pct") = r.bestScanFraction * 100)
    exact("router.files_written") = ingested.files
    exact("query.files_read") = filesRead
    exact("query.rows_scanned") = firstPass.map(_.scan.rows).sum
    exact("store_rows") = store.n
    exact("cuts") = cuts.length
    exact("leaves") = tree.numLeaves

    // ---- whole-run counters ----
    tracer.drain()
    val top = tracer.spans.map(_.id) :+ -1
    layer("spark.tasks") = (top.map(tracer.listener.tasksOf).sum.toDouble, "count")
    layer("spark.task_s") = (top.map(tracer.listener.taskSecondsOf).sum, "s")
    layer("jvm.gc_s") = (Jvm.gcSeconds, "s")
    layer("jvm.heap_peak_mb") = (Jvm.heapPeakMb, "MB")
    // The traced run's own end-to-end figures; their difference from the
    // untraced run at the same seed is the tracing overhead.
    layer("trace.build_s") = (e2e("build_s")._1, "s")
    layer("trace.ingest_rows_per_s") = (e2e("ingest_rows_per_s")._1, "rows/s")
    layer("trace.query_p50_ms") = (e2e("query_p50_ms")._1, "ms")

    val facts = Map(
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "spark_master" -> spark.sparkContext.master,
      "spark_version" -> spark.version,
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "java_version" -> System.getProperty("java.version"),
      "scala_version" -> scala.util.Properties.versionNumberString,
      "git_commit" -> opts.commit,
      "workload" -> wl.name,
      "seed" -> opts.seed)
    spark.stop()
    Layout.delete(new File(ingested.path))

    Map(
      "run_id" -> runId,
      "facts" -> facts,
      "correct" -> (errors.isEmpty && failed == 0),
      "errors" -> errors.toSeq,
      "attempted" -> attempted,
      "failed" -> failed,
      "query_fail_pct" -> (if (attempted == 0) 0.0 else 100.0 * failed / attempted),
      "samples" -> Map("repetitions" -> Main.Reps, "timed_queries" -> latencyMs.length,
        "warmup_queries" -> Main.WarmupQueries, "executed_queries" -> executed.length, "routed_queries" -> queries.length),
      "end_to_end" -> metricsJson(e2e),
      "per_layer" -> metricsJson(layer),
      "exact" -> exact.toMap,
      "timed_query_ms" -> latencyMs.toSeq,
      "span_summary" -> (if (!opts.trace) Nil else spanSummary),
      // [id, parent, name, start ms, end ms], relative to the first span.
      "spans" -> tracer.spans.toSeq.map { s =>
        val t0 = tracer.spans.head.startNs
        Seq(s.id, s.parent, s.name, (s.startNs - t0) / 1e6, (s.endNs - t0) / 1e6)
      })
  }

  private def build(df: DataFrame, meta: TableMeta, w: Seq[QExpr], cuts: IndexedSeq[Pred]): Built = {
    val t0 = System.nanoTime()
    val store = tracer.span("encoder.collect") {
      Encoder.collect(df, meta, fraction = math.min(1.0, wl.storeRows.toDouble / wl.rows),
        seed = Workloads.sampleSeed(opts.seed), maxRows = wl.storeRows)
    }
    val collectS = secondsSince(t0)
    val b = Table2.scaledB(wl.bTable, store.n, wl.rows)
    val t1 = System.nanoTime()
    val (tree, wood) = wl.constructor match {
      case GreedyBuild =>
        (tracer.span("greedy.build")(Greedy.build(store, w, cuts, b)).tree, None)
      case WoodblockBuild(episodes, policySeed) =>
        val r = tracer.span("woodblock.train") {
          Woodblock.train(store, w, cuts, WoodblockConfig(b = b, episodes = episodes, seed = policySeed))
        }
        (r.best.tree, Some(r))
    }
    Built(store, tree, wood, secondsSince(t0), collectS, secondsSince(t1))
  }

  private def ingest(spark: SparkSession, df: DataFrame, meta: TableMeta, tree: QdTree,
                     queried: IndexedSeq[Int], rep: Int): Ingested = {
    val path = opts.work.resolve(s"layout-$rep").toString
    val t0 = System.nanoTime()
    tracer.span("router.write")(Router.writePartitioned(df, tree, path))
    val writeS = secondsSince(t0)
    val t1 = System.nanoTime()
    val stats = tracer.span("blockstats.compute") {
      BlockStats.compute(spark.read.parquet(path), meta, queried)
    }
    val statsS = secondsSince(t1)
    val frozen = tree.withTightenedLeaves(stats.map { case (k, (_, d)) => k -> d },
      stats.map { case (k, (sz, _)) => k -> sz })
    val totalS = secondsSince(t0)
    val files = Layout.parquetFiles(new File(path))
    Ingested(path, stats, frozen, files.length, files.map(_.length).sum, totalS, writeS, statsS)
  }

  private def metricsJson(m: mutable.LinkedHashMap[String, (Double, String)]): Seq[(String, Any)] =
    m.toSeq.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) }

  /** Per span name: calls, total and self seconds, Spark tasks and task time. */
  private def spanSummary: Seq[(String, Any)] =
    tracer.spans.groupBy(_.name).toSeq.sortBy(_._2.head.startNs).map { case (name, ss) =>
      name -> Map(
        "calls" -> ss.length,
        "total_s" -> ss.map(_.seconds).sum,
        "self_s" -> ss.map(tracer.selfSeconds).sum,
        "spark_tasks" -> ss.map(s => tracer.listener.tasksOf(s.id)).sum,
        "spark_task_s" -> ss.map(s => tracer.listener.taskSecondsOf(s.id)).sum,
        "parent" -> ss.head.parent.toString)
    }
}

/** The written layout on disk. */
object Layout {
  def parquetFiles(dir: File): Seq[File] =
    Files.walk(dir.toPath).iterator().asScala
      .map(_.toFile).filter(f => f.isFile && f.getName.endsWith(".parquet")).toSeq

  def partitions(dir: File): Int =
    Option(dir.listFiles()).map(_.count(f => f.isDirectory && f.getName.startsWith("bid="))).getOrElse(0)

  def delete(dir: File): Unit =
    if (dir.exists()) Files.walk(dir.toPath).sorted(java.util.Comparator.reverseOrder()).forEach(p => Files.delete(p))
}

object Stats {
  def median(xs: collection.Seq[Double]): Double = percentile(xs, 50)

  /** Linear interpolation between closest ranks. */
  def percentile(xs: collection.Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val pos = p / 100 * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
}

/** Minimal JSON rendering for the result file. */
object Json {
  def render(v: Any): String = v match {
    case null                      => "null"
    case s: String                 => quote(s)
    case b: Boolean                => b.toString
    case d: Double                 => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int                    => n.toString
    case n: Long                   => n.toString
    case m: Map[_, _]              => m.toSeq.map { case (k, x) => quote(k.toString) + ":" + render(x) }.mkString("{", ",", "}")
    case kv: Seq[_] if kv.forall(_.isInstanceOf[(_, _)]) && kv.nonEmpty =>
      kv.map { case (k, x) => quote(k.toString) + ":" + render(x) }.mkString("{", ",", "}")
    case xs: Seq[_]                => xs.map(render).mkString("[", ",", "]")
    case other                     => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"').toString
  }
}
