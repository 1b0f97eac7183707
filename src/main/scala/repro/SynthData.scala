package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic data for the FlashP reproduction: the ad-traffic relation
  * every test, bench and job runs on. Deterministic in its arguments, so the
  * DuckDB oracle sees identical input.
  */
object SynthData {

  /** Synthetic ad-traffic time-series relation for the FlashP reproduction.
    *
    * Mirrors the paper's UserProfile ⋈ AdTraffic dataset: 11 dimensions
    * (see [[repro.data.AdSchema]]), 4 positive-integer measures
    * (favorite, impression, click, cart) and a day-index column `t`.
    * SF=1 corresponds to the paper's ~15 M rows/day; tests use SF≈1e-4,
    * benches SF≈1e-3..4e-3.
    *
    * Engineered properties the evaluation depends on:
    *  - measures are heavy-tailed (log-normal row factors), so uniform
    *    sampling has a large range-dependent error while weighted samplers
    *    do not;
    *  - measure intensity depends on dimensions (young/mobile/sports users
    *    see more impressions), and dimensions are cross-correlated
    *    (occupation/device/tags depend on age), so PIM's independence
    *    assumption is violated;
    *  - each day's totals follow trend × weekly-seasonality × daily noise,
    *    so ARIMA/LSTM have something to fit;
    *  - impression/click share one trend and favorite/cart another, so
    *    within-group compressed GSW has small trend deviation ρ while the
    *    cross-group deviation is large.
    *
    * Deterministic in (sf, days, seed).
    */
  def adTraffic(spark: SparkSession, sf: Double = 0.001, days: Int = 200,
                seed: Long = 7): DataFrame = {
    import spark.implicits._
    val rowsPerDay = math.max(100L, (15_000_000L * sf).toLong)
    val base = spark.range(rowsPerDay * days)
      .select(($"id" / rowsPerDay).cast(IntegerType) as "t", $"id")

    // Dimensions. `young` is the latent driver of the cross-dimension
    // correlations; it is dropped from the final projection.
    val withDims = base
      .withColumn("age", (lit(18) + rand(seed) * 60).cast(IntegerType))
      .withColumn("young", ($"age" < 35).cast(IntegerType))
      .withColumn("gender",
        when(rand(seed + 1) < 0.52, lit("F")).otherwise(lit("M")))
      .withColumn("occupation",
        when(rand(seed + 2) < 0.7,
             ((rand(seed + 3) * 5).cast(IntegerType) + $"young" * 5))
          .otherwise((rand(seed + 4) * 10).cast(IntegerType)))
      .withColumn("city", // zipf-ish over 50 cities; young skew to top cities
        least(lit(49),
          pow(lit(50.0), rand(seed + 5) * (lit(1.0) - $"young" * 0.35))
            .cast(IntegerType) - 1))
      .withColumn("device",
        when(rand(seed + 6) < lit(0.35) + $"young" * 0.4, lit("mobile"))
          .when(rand(seed + 7) < 0.5, lit("pc"))
          .otherwise(lit("tablet")))
      .withColumn("tag_sports",
        (rand(seed + 8) < lit(0.15) + $"young" * 0.25).cast(IntegerType))
      .withColumn("tag_cartoon",
        (rand(seed + 9) < lit(0.10) + $"young" * 0.30).cast(IntegerType))
      .withColumn("tag_fashion",
        (rand(seed + 10) < when($"gender" === "F", 0.45).otherwise(0.15)).cast(IntegerType))
      .withColumn("tag_tech",
        (rand(seed + 11) < when($"gender" === "M", 0.40).otherwise(0.18)).cast(IntegerType))
      .withColumn("tag_travel",
        (rand(seed + 12) < lit(0.12) + ($"young" * -0.1 + 0.25)).cast(IntegerType))
      .withColumn("tag_food",
        (rand(seed + 13) < when($"gender" === "F", 0.45).otherwise(0.25)).cast(IntegerType))

    // Per-day factors: linear trend × weekly seasonality × deterministic
    // day-level noise (hash of t, constant within a day). Favorite/cart get
    // an offset seasonality phase so their trend deviates from impression's.
    val twoPi = 2 * math.Pi
    val dayNoise  = pmod(sin($"t" * 12.9898) * 43758.5453, lit(1.0))
    val dayNoise2 = pmod(sin(($"t" + 71) * 78.233) * 24634.6345, lit(1.0))
    val baseImp = (lit(1.0) + $"t" * 0.0015) *
      (lit(1.0) + sin($"t" * (twoPi / 7)) * 0.25) * (lit(0.85) + dayNoise * 0.3)
    val baseFav = (lit(1.0) + $"t" * 0.0008) *
      (lit(1.0) + sin($"t" * (twoPi / 7) + 2.0) * 0.35) * (lit(0.85) + dayNoise2 * 0.3)

    // Row-level intensity: dimension-driven multiplier × heavy-tailed
    // log-normal factor. Measures are floored at 1 so weighted samplers
    // (which need positive weights) and geometric means are well-defined.
    // The multipliers deliberately touch MANY dimensions: joint measure
    // concentration across correlated dimensions is what breaks PIM's
    // partwise-independence assumption, as on the paper's real data.
    val mult = lit(1.0) + $"young" * 1.2 + $"tag_sports" * 0.8 +
      when($"device" === "mobile", 0.6).otherwise(0.0) +
      when($"city" < 10, 0.5).otherwise(0.0) +
      when($"occupation" >= 5, 0.4).otherwise(0.0) +
      $"tag_travel" * 0.3 + $"tag_tech" * 0.3
    val multFav = lit(1.0) + $"tag_fashion" * 1.2 + $"young" * 0.5 +
      $"tag_cartoon" * 0.5 + when($"city" < 10, 0.4).otherwise(0.0) +
      $"tag_food" * 0.3

    withDims
      .withColumn("impression",
        greatest(lit(1L),
          round(baseImp * mult * exp(randn(seed + 20) * 1.3) * 8).cast(LongType)))
      .withColumn("click",
        greatest(lit(1L),
          round($"impression" * (rand(seed + 21) * 0.10 + 0.05)).cast(LongType)))
      .withColumn("favorite",
        greatest(lit(1L),
          round(baseFav * multFav * exp(randn(seed + 22) * 0.9) * 3).cast(LongType)))
      .withColumn("cart",
        greatest(lit(1L),
          round($"favorite" * (rand(seed + 23) * 0.4 + 0.3)).cast(LongType)))
      .select(
        ($"t" +: repro.data.AdSchema.Dimensions.map(col) ++:
          repro.data.AdSchema.Measures.map(col)): _*)
  }
}
