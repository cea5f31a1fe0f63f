package perfbench

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, count, lit, sum}
import repro.core.{QExpr, TableMeta}

/** The routed query the benchmark times, and the checks on its outputs. */
object Check {

  /** A query as users run it against a written layout: keep only the blocks
    * `bids` names, then aggregate the matching rows (the `PhysicalExec`
    * aggregation). Column 0 of the result is the matching-row count.
    */
  def routedQuery(layout: DataFrame, meta: TableMeta, q: QExpr, bids: Seq[Int]): DataFrame =
    layout.filter(col("bid").isInCollection(bids)).filter(q.toColumn(meta))
      .agg(count(lit(1)).as("cnt"), sum(col(meta.columns.head.name)).as("s"))

  def countOf(row: Row): Long = row.getLong(0)

  /** A routed query must see exactly the rows the unrouted table holds for
    * it: fewer means a skipped block held matches (completeness is broken).
    */
  def queryError(name: String, routed: Long, exact: Long): Option[String] =
    if (routed == exact) None else Some(s"$name: routed count $routed != exact count $exact")

  /** Errors in a written layout, from its per-block row counts: rows lost or
    * duplicated, or a block id outside [0, leaves).
    */
  def layoutErrors(blockRows: Map[Int, Long], sourceRows: Long, leaves: Int): Seq[String] = {
    val total = blockRows.values.sum
    val rows = if (total == sourceRows) Nil else Seq(s"layout holds $total rows, source has $sourceRows")
    val bad = blockRows.keys.filter(b => b < 0 || b >= leaves).toSeq.sorted
    rows ++ bad.map(b => s"block id $b outside [0, $leaves)")
  }
}
