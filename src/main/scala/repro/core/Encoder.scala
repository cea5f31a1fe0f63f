package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType

/** How to encode one raw column into the integral-Double domain. */
sealed trait ColSpec { def name: String }
/** Numeric column; `scale` quantizes decimals (e.g. discount × 100). */
final case class NumCol(name: String, scale: Double = 1.0) extends ColSpec
/** String categorical: dictionary-encoded to codes [0, |dict|). */
final case class CatCol(name: String) extends ColSpec
/** Date column: encoded as days since 1970-01-01. */
final case class DateCol(name: String) extends ColSpec
/** Integer-valued categorical with a fixed domain [0, domain); the code IS
  * the raw value — required when two columns (e.g. c_nationkey and
  * s_nationkey) must share one dictionary for advanced equality cuts.
  */
final case class IntCatCol(name: String, domain: Int) extends ColSpec

/** Dictionary/integer encoding of a raw DataFrame (§3: all attribute values
  * live in [0, |Dom_i|) and literals are dictionary-encoded as integers).
  * The encoded DataFrame has one Double column per spec; `TableMeta` records
  * domains and dictionaries so queries/cuts can be lowered back to Catalyst.
  */
object Encoder {

  def encode(df: DataFrame, specs: Seq[ColSpec], advCuts: Seq[AdvCutDef] = Nil): (DataFrame, TableMeta) = {
    // Encoded expression of each ordered column: the encoded frame selects it
    // and the aggregation takes its bounds, so both see the same doubles.
    val ordered: Map[String, Column] = specs.collect {
      case NumCol(n, s) => n -> (if (s == 1.0) col(n).cast(DoubleType) else round(col(n) * s).cast(DoubleType))
      case DateCol(n)   => n -> datediff(col(n), lit("1970-01-01").cast("date")).cast(DoubleType)
    }.toMap

    // One aggregation over the raw frame (a single pass) yields every
    // dictionary, every categorical null count and every numeric/date bound.
    val aggs = specs.flatMap {
      case CatCol(n) =>
        Seq(collect_set(col(n).cast("string")).as(s"dict_$n"), count(when(col(n).isNull, 1)).as(s"nulls_$n"))
      case s @ (_: NumCol | _: DateCol) =>
        Seq(min(ordered(s.name)).as(s"lo_${s.name}"), max(ordered(s.name)).as(s"hi_${s.name}"))
      case _: IntCatCol => Nil
    }
    val stats = if (aggs.isEmpty) Row.empty else df.agg(aggs.head, aggs.tail: _*).head()

    val dicts: Map[String, IndexedSeq[String]] = specs.collect { case CatCol(n) =>
      val nulls = stats.getAs[Long](s"nulls_$n")
      require(nulls == 0, s"categorical column $n has $nulls null values; CatCol requires non-null values")
      n -> stats.getSeq[String](stats.fieldIndex(s"dict_$n")).sorted.toIndexedSeq
    }.toMap
    def bounds(n: String): (Double, Double) = (stats.getAs[Double](s"lo_$n"), stats.getAs[Double](s"hi_$n"))

    val encodedCols = specs.map {
      case CatCol(n) =>
        val codeOf = dicts(n).zipWithIndex.toMap
        val enc = udf((s: String) => codeOf(s).toDouble)
        enc(col(n).cast("string")).as(n)
      case IntCatCol(n, _) => col(n).cast(DoubleType).as(n)
      case s @ (_: NumCol | _: DateCol) => ordered(s.name).as(s.name)
    }
    val encoded = df.select(encodedCols: _*)

    val metas = specs.map {
      case NumCol(n, _)    => val (lo, hi) = bounds(n); ColumnMeta(n, ColKind.Numeric, lo, hi)
      case DateCol(n)      => val (lo, hi) = bounds(n); ColumnMeta(n, ColKind.Numeric, lo, hi)
      case CatCol(n)       => ColumnMeta(n, ColKind.Categorical, 0, dicts(n).size - 1, Some(dicts(n)))
      case IntCatCol(n, d) => ColumnMeta(n, ColKind.Categorical, 0, d - 1)
    }.toIndexedSeq

    (encoded, TableMeta(metas, advCuts.toIndexedSeq))
  }

  /** Collect an encoded DataFrame (optionally sampled) into a driver-side
    * column store for tree construction. `maxRows` caps driver memory.
    */
  def collect(df: DataFrame, meta: TableMeta, fraction: Double = 1.0, seed: Long = 7,
              maxRows: Int = 2_000_000): ColumnStore = {
    val s = if (fraction < 1.0) df.sample(withReplacement = false, fraction, seed) else df
    val limited = s.limit(maxRows)
    val ordinals = meta.columns.map(c => limited.schema.fieldIndex(c.name)).toArray
    val rows = limited.collect()
    val n = rows.length
    val cols = Array.ofDim[Double](meta.nCols, n)
    var r = 0
    while (r < n) {
      val row = rows(r)
      var c = 0
      while (c < meta.nCols) {
        cols(c)(r) = row.getDouble(ordinals(c))
        c += 1
      }
      r += 1
    }
    new ColumnStore(meta, cols)
  }

  /** Build a store directly from in-memory rows (tests, microbenchmarks). */
  def fromRows(meta: TableMeta, rows: Seq[Array[Double]]): ColumnStore = {
    val n = rows.length
    val cols = Array.ofDim[Double](meta.nCols, n)
    var r = 0
    while (r < n) { var c = 0; while (c < meta.nCols) { cols(c)(r) = rows(r)(c); c += 1 }; r += 1 }
    new ColumnStore(meta, cols)
  }

  /** Decode helper for debugging/reporting. */
  def decode(meta: TableMeta, colName: String, code: Double): String =
    meta(colName).dict.map(_(code.toInt)).getOrElse(code.toString)
}
