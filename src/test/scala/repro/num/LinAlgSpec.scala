package repro.num

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport

/** Tests for [[LinAlg]]: least squares through its normal equations, the
  * moments, and the normal quantile.
  */
class LinAlgSpec extends AnyFunSuite with PropSupport {

  private def approx(a: Double, b: Double, tol: Double = 1e-9): Boolean =
    math.abs(a - b) <= tol * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  /** Least squares of the rows `x` through [[LinAlg.NormalEquations]]. */
  private def lstsq(x: Array[Array[Double]], y: Array[Double], ridge: Double = 0.0): Array[Double] = {
    val eq = new LinAlg.NormalEquations(if (x.isEmpty) 1 else x(0).length)
    x.indices.foreach(r => eq.add(x(r), y(r)))
    eq.solve(ridge)
  }

  test("solve: 2x2 known solution") {
    // 2x + y = 5 ; x - y = 1  ->  x = 2, y = 1
    val x = lstsq(Array(Array(2.0, 1.0), Array(1.0, -1.0)), Array(5.0, 1.0))
    assert(approx(x(0), 2.0) && approx(x(1), 1.0))
  }

  test("solve: pivots when XᵀX's largest entry in a column is off the diagonal") {
    // XᵀX = [[1, 2], [2, 5]], so column 0 swaps rows; x = 1, y = 2.
    val x = lstsq(Array(Array(1.0, 2.0), Array(0.0, 1.0)), Array(5.0, 2.0))
    assert(approx(x(0), 1.0) && approx(x(1), 2.0))
  }

  test("solve: singular matrix throws") {
    val e = intercept[IllegalArgumentException] {
      lstsq(Array(Array(1.0, 2.0), Array(2.0, 4.0)), Array(1.0, 2.0))
    }
    assert(e.getMessage.contains("singular"), e.getMessage)
  }

  test("solve: random well-conditioned systems verify A x = b") {
    val rng = new scala.util.Random(1)
    for (_ <- 1 to 20) {
      val n = 1 + rng.nextInt(6)
      val a = Array.tabulate(n, n)((i, j) =>
        if (i == j) 3.0 + rng.nextDouble() else rng.nextDouble() * 0.5)
      val b = Array.fill(n)(rng.nextDouble() * 10 - 5)
      val x = lstsq(a, b)
      for (i <- 0 until n) {
        val got = (0 until n).map(j => a(i)(j) * x(j)).sum
        assert(approx(got, b(i), 1e-8), s"row $i: $got vs ${b(i)}")
      }
    }
  }

  test("lstsq: exact fit when system is square and consistent") {
    val x = Array(Array(1.0, 1.0), Array(1.0, 2.0))
    val beta = lstsq(x, Array(3.0, 5.0), ridge = 1e-9)
    assert(approx(beta(0), 1.0, 1e-6) && approx(beta(1), 2.0, 1e-6))
  }

  test("lstsq: recovers slope/intercept of a noiseless line (overdetermined)") {
    val xs = (0 until 50).map(i => Array(1.0, i.toDouble)).toArray
    val ys = (0 until 50).map(i => 4.0 + 0.5 * i).toArray
    val beta = lstsq(xs, ys, ridge = 1e-9)
    assert(approx(beta(0), 4.0, 1e-6) && approx(beta(1), 0.5, 1e-6))
  }

  test("lstsq: least-squares property — residual orthogonal to columns") {
    val rng = new scala.util.Random(2)
    val xs = Array.fill(40)(Array(1.0, rng.nextDouble(), rng.nextDouble()))
    val ys = Array.fill(40)(rng.nextDouble())
    val beta = lstsq(xs, ys, ridge = 1e-9)
    for (j <- 0 until 3) {
      val dot = xs.indices.map { i =>
        val resid = ys(i) - xs(i).zip(beta).map { case (a, b) => a * b }.sum
        xs(i)(j) * resid
      }.sum
      assert(math.abs(dot) < 1e-6, s"column $j not orthogonal to residual: $dot")
    }
  }

  test("lstsq: empty input throws") {
    intercept[IllegalArgumentException] { lstsq(Array.empty, Array.empty) }
  }

  test("mean and variance on known values") {
    assert(LinAlg.mean(Array(1.0, 2.0, 3.0, 4.0)) == 2.5)
    assert(approx(LinAlg.variance(Array(2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0)), 32.0 / 7))
  }

  test("variance of constant series is 0; singleton is 0") {
    assert(LinAlg.variance(Array(5.0, 5.0, 5.0)) == 0.0)
    assert(LinAlg.variance(Array(5.0)) == 0.0)
  }

  test("normalQuantile at standard points") {
    assert(approx(LinAlg.normalQuantile(0.5), 0.0, 1e-8))
    assert(math.abs(LinAlg.normalQuantile(0.95) - 1.6448536) < 1e-5)
    assert(math.abs(LinAlg.normalQuantile(0.975) - 1.9599640) < 1e-5)
    assert(math.abs(LinAlg.normalQuantile(0.99) - 2.3263479) < 1e-5)
  }

  test("normalQuantile symmetry (property)") {
    checkProp(Prop.forAll(Gen.choose(0.001, 0.499)) { p =>
      math.abs(LinAlg.normalQuantile(p) + LinAlg.normalQuantile(1 - p)) < 1e-7
    })
  }

  test("normalQuantile tails and domain errors") {
    assert(LinAlg.normalQuantile(1e-6) < -4.5)
    intercept[IllegalArgumentException] { LinAlg.normalQuantile(0.0) }
    intercept[IllegalArgumentException] { LinAlg.normalQuantile(1.0) }
  }
}
