package repro.sampling

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Measure-similarity metrics (§4.1.1–4.2) and the greedy k-center grouping
  * heuristic the paper uses to decide which measures may share one
  * compressed GSW sample.
  *
  * All data-dependent statistics are computed with Spark aggregations (one
  * or two passes); the k-center clustering itself runs on the driver over
  * the tiny measure-by-measure distance matrix.
  */
object Grouping {

  /** (θ̲, θ̄)-consistency of a weight expression with a measure
    * (Definition 2): `θ̲ = min_i m_i/w_i`, `θ̄ = max_i m_i/w_i`.
    */
  def consistency(df: DataFrame, measure: String, weight: Column): (Double, Double) = {
    val r = df.select(
      min(col(measure).cast("double") / weight.cast("double")) as "lo",
      max(col(measure).cast("double") / weight.cast("double")) as "hi").head
    (r.getDouble(0), r.getDouble(1))
  }

  /** Consistency scale θ = θ̄/θ̲ ≥ 1; θ = 1 iff w ∝ m. */
  def consistencyScale(df: DataFrame, measure: String, weight: Column): Double = {
    val (lo, hi) = consistency(df, measure, weight)
    hi / lo
  }

  /** Trend deviation ρ_{p,q} between two measures (eq. 8):
    * `max_i(m_p/m_q) / min_i(m_p/m_q)`, the consistency scale of `w = m_q`
    * with `m_p`. ρ = 1 iff the measures are proportional row-by-row.
    */
  def trendDeviation(df: DataFrame, p: String, q: String): Double =
    consistencyScale(df, p, col(q))

  /** Range deviation δ of a measure group (eq. 10): the largest per-row
    * ratio between the group's max and min measure.
    */
  def rangeDeviation(df: DataFrame, ms: Seq[String]): Double = {
    require(ms.size >= 2, "rangeDeviation needs at least two measures")
    val cols = ms.map(m => col(m).cast("double"))
    df.select(max(greatest(cols: _*) / least(cols: _*)) as "d").head.getDouble(0)
  }

  /** Pairwise L1 distances between normalized measure vectors
    * (Proposition 7's metric): `‖m'_p − m'_q‖₁` with
    * `m'_i = m_i / Σ_j m_j`, from [[normalizedL1]].
    */
  def pairwiseL1(df: DataFrame, ms: Seq[String]): Map[(String, String), Double] = {
    val pairs = for {
      i <- ms.indices
      j <- i + 1 until ms.size
    } yield (i, j)
    if (pairs.isEmpty) return Map.empty
    normalizedL1(df, ms.map(col), pairs).zip(pairs).flatMap { case (d, (i, j)) =>
      Seq((ms(i), ms(j)) -> d, (ms(j), ms(i)) -> d)
    }.toMap
  }

  /** L1 distance between one measure and an arbitrary weight expression
    * (both normalized to sum 1), from [[normalizedL1]] — used to reproduce
    * Figure 6(b).
    */
  def l1ToWeight(df: DataFrame, measure: String, weight: Column): Double =
    normalizedL1(df, Seq(col(measure), weight), Seq((0, 1))).head

  /** Proposition 7's metric `‖v_i/Σv_i − v_j/Σv_j‖₁` for each pair `(i, j)`
    * of `vectors`: one aggregation for the normalizers `Σv`, one for all
    * the distances.
    */
  private def normalizedL1(df: DataFrame, vectors: Seq[Column],
                           pairs: Seq[(Int, Int)]): Seq[Double] = {
    val xs = vectors.map(_.cast("double"))
    val totals = df.select(xs.map(x => sum(x)): _*).head
    val normalized = xs.indices.map(i => xs(i) / totals.getDouble(i))
    val row = df.select(pairs.map { case (i, j) => sum(abs(normalized(i) - normalized(j))) }: _*)
      .head
    pairs.indices.map(row.getDouble)
  }

  /** Greedy 2-approximation for k-center [28] over the measures, using a
    * precomputed distance map: pick the first measure as a center, then
    * repeatedly promote the measure farthest from its nearest center;
    * finally assign each non-center to its nearest center.
    *
    * @return groups of measures, one per center, in center-pick order
    */
  def greedyKCenter(ms: Seq[String], dist: Map[(String, String), Double],
                    g: Int): Seq[Seq[String]] = {
    require(g >= 1 && g <= ms.size, s"greedyKCenter: g=$g out of [1, ${ms.size}]")
    def d(a: String, b: String): Double = if (a == b) 0.0 else dist((a, b))
    var centers = Vector(ms.head)
    while (centers.size < g) {
      val next = ms.filterNot(centers.contains)
        .maxBy(m => centers.map(c => d(m, c)).min)
      centers :+= next
    }
    val assignment = ms.groupBy(m => if (centers.contains(m)) m else centers.minBy(d(m, _)))
    centers.map(c => assignment(c))
  }
}
