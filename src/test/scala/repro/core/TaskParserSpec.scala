package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Tests for the FORECAST task language parser (paper language (1)). */
class TaskParserSpec extends AnyFunSuite {

  test("parses the paper's running example") {
    val t = TaskParser.parse(
      "FORECAST SUM(Impression) FROM T WHERE Age <= 30 AND Gender = 'F' USING (20200101, 20200331)")
    assert(t.measure == "impression")
    assert(t.table == "T")
    assert(t.ts == 20200101 && t.te == 20200331)
    assert(t.constraint.preds == Seq(
      Pred("age", "<=", "30", isString = false),
      Pred("gender", "=", "F", isString = true)))
    assert(t.model == "arima" && t.forePeriod == 7)
  }

  test("parses OPTION clause with model and fore_period") {
    val t = TaskParser.parse(
      "FORECAST SUM(click) FROM ad WHERE device = 'mobile' USING (0, 149) " +
        "OPTION (MODEL = 'lstm', FORE_PERIOD = 14)")
    assert(t.model == "lstm" && t.forePeriod == 14)
  }

  test("a malformed OPTION entry is rejected, naming it and the supported keys") {
    for ((opts, entry) <- Seq(
           "MODEL = 'arima', FOREPERIOD = 3" -> "FOREPERIOD = 3", // unknown key
           "FORE_PERIOD = 3, fore_period = 5" -> "fore_period = 5", // repeated key
           "MODEL = 'arima', FORE_PERIOD = x" -> "FORE_PERIOD = x", // not an integer
           "FORE_PERIOD = 2.5" -> "FORE_PERIOD = 2.5",
           "MODEL = 'arima', FORE_PERIOD" -> "FORE_PERIOD", // no value
           "MODEL = 'arima'," -> "")) { // empty entry
      val msg = intercept[IllegalArgumentException] {
        TaskParser.parse(s"FORECAST SUM(click) FROM ad USING (0, 149) OPTION ($opts)")
      }.getMessage
      assert(msg.contains(s"OPTION entry '$entry'") && msg.contains("model, fore_period"), msg)
    }
  }

  test("OPTION entries split on commas outside quotes") {
    val t = TaskParser.parse(
      "FORECAST SUM(click) FROM ad USING (0, 149) OPTION (MODEL = 'a,b', FORE_PERIOD = 3)")
    assert(t.model == "a,b" && t.forePeriod == 3)
  }

  test("WHERE clause is optional") {
    val t = TaskParser.parse("FORECAST SUM(cart) FROM ad USING (0, 99)")
    assert(t.constraint.preds.isEmpty)
    assert(t.constraint.sql == "TRUE")
  }

  test("keywords are case-insensitive") {
    val t = TaskParser.parse("forecast sum(favorite) from ad where age > 40 using (3, 10)")
    assert(t.measure == "favorite" && t.ts == 3 && t.te == 10)
  }

  test("all six comparison operators parse") {
    for (op <- Seq("=", "<>", "<", "<=", ">", ">=")) {
      val t = TaskParser.parse(s"FORECAST SUM(m) FROM T WHERE age $op 30 USING (0, 1)")
      assert(t.constraint.preds.head.op == op)
    }
  }

  test("numeric vs string literal detection") {
    val t = TaskParser.parse(
      "FORECAST SUM(m) FROM T WHERE age <= 30 AND gender = 'F' AND device = mobile USING (0, 1)")
    val byDim = t.constraint.preds.map(p => p.dim -> p.isString).toMap
    assert(!byDim("age") && byDim("gender") && byDim("device"))
  }

  test("SQL rendering round-trips through the parser") {
    val t = TaskParser.parse(
      "FORECAST SUM(click) FROM ad WHERE age >= 25 AND tag_tech = 1 USING (10, 40) " +
        "OPTION (MODEL = 'arima', FORE_PERIOD = 7)")
    assert(TaskParser.parse(t.sql) == t)
    // Quoted literals: an AND inside one, and an escaped quote.
    val and = TaskParser.parse("FORECAST SUM(click) FROM ad WHERE device = 'a AND b' USING (0, 9)")
    assert(and.constraint.preds == Seq(Pred("device", "=", "a AND b", isString = true)))
    assert(TaskParser.parse(and.sql) == and)
    val quote = t.copy(constraint = Constraint(Seq(
      Pred("city", "=", "O'Fallon", isString = true), Pred("gender", "=", "F", isString = true))))
    assert(TaskParser.parse(quote.sql) == quote)
  }

  test("constraint SQL escapes single quotes") {
    val p = Pred("city", "=", "O'Fallon", isString = true)
    assert(p.sql == "city = 'O''Fallon'")
  }

  test("malformed statements throw with a hint") {
    val bad = Seq(
      "SELECT SUM(m) FROM T",
      "FORECAST SUM(m) FROM T USING (5)",
      "FORECAST AVGISH(m) FROM T USING (0, 1)",
    )
    for (s <- bad) {
      val e = intercept[IllegalArgumentException] { TaskParser.parse(s) }
      assert(e.getMessage.contains("FORECAST"))
    }
  }

  test("malformed predicate throws") {
    intercept[IllegalArgumentException] {
      TaskParser.parse("FORECAST SUM(m) FROM T WHERE age BETWEEN 1 AND 2 USING (0, 1)")
    }
  }

  test("unsupported operator in Pred rejected") {
    intercept[IllegalArgumentException] { Pred("age", "~", "30", isString = false) }
  }

  test("task invariants: ts <= te and positive horizon") {
    intercept[IllegalArgumentException] {
      ForecastTask("m", "T", Constraint(Nil), ts = 5, te = 3)
    }
    intercept[IllegalArgumentException] {
      ForecastTask("m", "T", Constraint(Nil), 0, 1, forePeriod = 0)
    }
  }

  test("trainingDays arithmetic") {
    assert(ForecastTask("m", "T", Constraint(Nil), 10, 19).trainingDays == 10)
  }
}
