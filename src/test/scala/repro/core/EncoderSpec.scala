package repro.core

import java.sql.Date
import org.apache.spark.JobExecutionStatus
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{SparkSpec, TestData}
import repro.workload.TpchDenorm

class EncoderSpec extends SparkSpec {

  lazy val (df, meta) = TestData.tpch

  test("all encoded columns are integral doubles") {
    val row = df.limit(200).collect()
    for (r <- row; c <- meta.columns) {
      val v = r.getAs[Double](c.name)
      assert(v == math.floor(v), s"${c.name}=$v not integral")
    }
  }

  test("categorical dictionaries cover observed codes") {
    for (c <- meta.columns if c.isCategorical && c.dict.isDefined) {
      val distinct = df.select(col(c.name)).distinct().collect().map(_.getDouble(0).toInt)
      assert(distinct.forall(code => code >= 0 && code < c.dict.get.size), c.name)
    }
  }

  test("IntCatCol keeps raw values as codes with fixed domain") {
    val cn = meta("c_nationkey")
    assert(cn.isCategorical && cn.domainSize == 25)
    val mx = df.agg(max(col("c_nationkey"))).collect()(0).getDouble(0)
    assert(mx <= 24.0)
  }

  test("numeric domain bounds cover the data exactly") {
    for (c <- meta.columns if !c.isCategorical) {
      val r = df.agg(min(col(c.name)).as("lo"), max(col(c.name)).as("hi")).collect()(0)
      assert(r.getDouble(0) >= c.lo && r.getDouble(1) <= c.hi, c.name)
      assert(r.getDouble(0) == c.lo && r.getDouble(1) == c.hi,
        s"${c.name}: meta [${c.lo},${c.hi}] vs data [${r.getDouble(0)},${r.getDouble(1)}]")
    }
  }

  test("scaled NumCol: l_discount is raw x100") {
    val hi = meta("l_discount").hi
    assert(hi <= 10.0 && hi >= 5.0) // raw domain [0, 0.10]
  }

  test("DateCol: shipdate encodes to epoch days in the 1992-1999 window") {
    val c = meta("l_shipdate")
    assert(c.lo >= 8035 && c.hi <= 10600) // 1992-01-01=8035, 1999-01-01=10592
  }

  test("collect builds a consistent ColumnStore") {
    val store = TestData.tpchStore
    assert(store.n == df.count())
    assert(store.meta == meta)
    // Spot-check one column's min against Spark.
    val idx = meta.idx("l_quantity")
    val sparkMin = df.agg(min(col("l_quantity"))).collect()(0).getDouble(0)
    val storeMin = (0 until store.n).map(store.value(idx, _)).min
    assert(storeMin == sparkMin)
  }

  test("decode maps codes back to dictionary strings") {
    val dict = meta("l_returnflag").dict.get
    assert(dict.sorted == dict) // dictionary is sorted
    assert(Encoder.decode(meta, "l_returnflag", dict.indexOf("R").toDouble) == "R")
  }

  test("fromRows round-trips") {
    val m = Fixtures.meta
    val rows = Seq(Array(1.0, 2.0, 0.0), Array(3.0, 4.0, 2.0))
    val s = Encoder.fromRows(m, rows)
    assert(s.n == 2 && s.value(0, 1) == 3.0 && s.value(2, 0) == 0.0)
  }

  /** Small raw frame: `code` sorts differently as strings and as numbers. */
  private def smallRaw: DataFrame = {
    import spark.implicits._
    Seq(("10", 0.29, Date.valueOf("1995-03-01"), 3),
        ("9", 0.07, Date.valueOf("1992-01-01"), 0),
        ("A", 1.255, Date.valueOf("1998-12-31"), 24),
        ("9", 0.0, Date.valueOf("1995-03-02"), 3))
      .toDF("code", "price", "day", "nation")
  }
  private val smallSpecs = Seq(CatCol("code"), NumCol("price", 100), DateCol("day"), IntCatCol("nation", 25))

  /** Reference encoding: one `distinct` job per dictionary, then min/max over
    * the encoded frame.
    */
  private def referenceEncode(df: DataFrame, specs: Seq[ColSpec]): (DataFrame, TableMeta) = {
    val dicts = specs.collect { case CatCol(n) =>
      n -> df.select(col(n).cast("string")).distinct().collect().map(_.getString(0)).sorted.toIndexedSeq
    }.toMap
    val encoded = df.select(specs.map {
      case NumCol(n, s) => (if (s == 1.0) col(n).cast(DoubleType) else round(col(n) * s).cast(DoubleType)).as(n)
      case DateCol(n) => datediff(col(n), lit("1970-01-01").cast("date")).cast(DoubleType).as(n)
      case CatCol(n) =>
        val codeOf = dicts(n).zipWithIndex.toMap
        udf((s: String) => codeOf(s).toDouble).apply(col(n).cast("string")).as(n)
      case IntCatCol(n, _) => col(n).cast(DoubleType).as(n)
    }: _*)
    val metas = specs.map {
      case CatCol(n) => ColumnMeta(n, ColKind.Categorical, 0, dicts(n).size - 1, Some(dicts(n)))
      case IntCatCol(n, d) => ColumnMeta(n, ColKind.Categorical, 0, d - 1)
      case s =>
        val r = encoded.agg(min(col(s.name)), max(col(s.name))).head()
        ColumnMeta(s.name, ColKind.Numeric, r.getDouble(0), r.getDouble(1))
    }
    (encoded, TableMeta(metas.toIndexedSeq))
  }

  test("one aggregation gives the same dictionaries, bounds and rows as per-column distinct") {
    val (enc, m) = Encoder.encode(smallRaw, smallSpecs)
    val (refEnc, refMeta) = referenceEncode(smallRaw, smallSpecs)
    assert(m == refMeta)
    assert(m("code").dict.contains(IndexedSeq("10", "9", "A")))
    assert(m("price").lo == 0.0 && m("price").hi == 125.0) // 1.255 * 100 = 125.4999...
    assert(enc.collect().toSeq == refEnc.collect().toSeq)
    assert(enc.collect().map(_.getDouble(0)).toSeq == Seq(0.0, 1.0, 2.0, 1.0))
  }

  test("a null categorical value fails the encode, naming the column") {
    import spark.implicits._
    val raw = Seq(("a", 1), (null, 2), ("b", 3)).toDF("kind", "x")
    val e = intercept[IllegalArgumentException](Encoder.encode(raw, Seq(CatCol("kind"), NumCol("x"))))
    assert(e.getMessage.contains("column kind has 1 null"), e.getMessage)
  }

  test("encode runs one Spark job over the raw TPC-H frame") {
    val raw = TpchDenorm.build(spark, sf = 0.005, seed = 0)
    val sc = spark.sparkContext
    // Adaptive execution submits every shuffle stage of a query as a job of
    // its own; without it, one pass over the frame is exactly one job.
    val aqe = "spark.sql.adaptive.enabled"
    val aqeWas = spark.conf.get(aqe)
    spark.conf.set(aqe, false)
    sc.setJobGroup("encode", "Encoder.encode on the raw TPC-H frame")
    try Encoder.encode(raw, TpchDenorm.specs, TpchDenorm.advCuts)
    finally { sc.clearJobGroup(); spark.conf.set(aqe, aqeWas) }
    // The status store is fed asynchronously: wait until every job it has
    // seen in the group has ended, then count them.
    def jobs = sc.statusTracker.getJobIdsForGroup("encode")
    eventually(timeout(10.seconds)) {
      assert(jobs.nonEmpty && jobs.forall(id => sc.statusTracker.getJobInfo(id).exists(
        _.status == JobExecutionStatus.SUCCEEDED)))
    }
    assert(jobs.length == 1, s"jobs ${jobs.mkString(",")}")
  }
}
