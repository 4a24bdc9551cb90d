#include <gtest/gtest.h>

#include "src/sql/engine.h"
#include "src/sql/lexer.h"
#include "src/sql/parser.h"

namespace dipbench {
namespace sql {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("SELECT a2, 'it''s', 3.5 FROM t WHERE x >= 7");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 10u);
  EXPECT_TRUE((*tokens)[0].IsWord("SELECT"));
  EXPECT_EQ((*tokens)[1].raw, "a2");
  EXPECT_TRUE((*tokens)[2].IsSymbol(","));
  EXPECT_EQ((*tokens)[3].text, "it's");
  EXPECT_EQ((*tokens)[3].type, TokenType::kString);
  EXPECT_EQ((*tokens)[5].text, "3.5");
  EXPECT_TRUE((*tokens)[10].IsSymbol(">="));
  EXPECT_TRUE(tokens->back().Is(TokenType::kEnd));
}

TEST(LexerTest, CommentsAndCaseFolding) {
  auto tokens = Tokenize("select x -- comment\nfrom T");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsWord("SELECT"));
  EXPECT_TRUE((*tokens)[2].IsWord("FROM"));
  EXPECT_EQ((*tokens)[3].raw, "T");
}

TEST(LexerTest, Errors) {
  EXPECT_TRUE(Tokenize("select 'open").status().IsParseError());
  EXPECT_TRUE(Tokenize("select #").status().IsParseError());
}

TEST(ParserTest, SelectShape) {
  auto stmt = ParseSql(
      "SELECT custkey, SUM(price) AS total FROM orders "
      "JOIN customer ON custkey = custkey "
      "WHERE price > 10 GROUP BY custkey ORDER BY total DESC LIMIT 5;");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ(stmt->kind, Statement::Kind::kSelect);
  const SelectStmt& sel = stmt->select;
  ASSERT_EQ(sel.items.size(), 2u);
  EXPECT_FALSE(sel.items[0].is_aggregate);
  EXPECT_TRUE(sel.items[1].is_aggregate);
  EXPECT_EQ(sel.items[1].alias, "total");
  EXPECT_EQ(sel.from_table, "orders");
  ASSERT_EQ(sel.joins.size(), 1u);
  EXPECT_EQ(sel.joins[0].table, "customer");
  EXPECT_NE(sel.where, nullptr);
  ASSERT_EQ(sel.group_by.size(), 1u);
  ASSERT_EQ(sel.order_by.size(), 1u);
  EXPECT_FALSE(sel.order_by[0].ascending);
  EXPECT_EQ(*sel.limit, 5u);
}

TEST(ParserTest, QualifiedNamesFlatten) {
  auto stmt = ParseSql("SELECT o.custkey FROM orders o2");
  // "orders o2" is not supported (no aliases); the parser stops at o2.
  EXPECT_FALSE(stmt.ok());
  stmt = ParseSql("SELECT o.custkey FROM orders WHERE o.price > 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->select.items[0].alias, "custkey");
}

TEST(ParserTest, ParseErrors) {
  EXPECT_FALSE(ParseSql("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM").ok());
  EXPECT_FALSE(ParseSql("BOGUS").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t extra").ok());
  EXPECT_FALSE(ParseSql("INSERT INTO t VALUES (1,").ok());
  EXPECT_FALSE(ParseSql("SELECT SUM(*) FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t LIMIT x").ok());
}

TEST(ParserTest, RejectedLiteralsNameTheirOffset) {
  // Value::Parse rejects the literal; the error names the literal token's
  // own offset, like every other syntax error.
  const std::pair<const char*, const char*> kCases[] = {
      {"SELECT 9223372036854775808 AS a FROM t",
       "integer overflows INT64: 9223372036854775808 near offset 7 "
       "('9223372036854775808')"},
      {"SELECT a FROM t LIMIT 99999999999999999999",
       "integer overflows INT64: 99999999999999999999 near offset 22 "
       "('99999999999999999999')"},
      {"SELECT DATE 'abc' AS d FROM t", "not an integer: abc near offset 12"},
  };
  for (const auto& [sql, want] : kCases) {
    Status st = ParseSql(sql).status();
    EXPECT_TRUE(st.IsParseError()) << sql << ": " << st;
    EXPECT_NE(st.message().find(want), std::string::npos) << sql << ": " << st;
  }
}

/// The literal 1 inside `levels` levels of one nesting form: parentheses,
/// NOT, unary minus, or a left-deep chain of binary operators.
std::string Nested(const std::string& form, size_t levels) {
  if (form == "paren") {
    return std::string(levels, '(') + "1" + std::string(levels, ')');
  }
  std::string expr;
  for (size_t i = 0; i < levels; ++i) {
    expr += form == "not" ? "NOT " : form == "minus" ? "- " : "1 + ";
  }
  return expr + "1";
}

Result<Statement> ParseSelectOf(const std::string& expr) {
  return ParseSql("SELECT " + expr + " FROM t");
}

TEST(ParserTest, ExpressionNestingIsBoundedAt128Levels) {
  // Offset of the token that opens the 129th level, after "SELECT ".
  const std::pair<const char*, size_t> kForms[] = {{"paren", 7 + 128},
                                                   {"not", 7 + 128 * 4},
                                                   {"minus", 7 + 128 * 2},
                                                   {"chain", 7 + 128 * 4 + 2}};
  for (const auto& [form, offset] : kForms) {
    SCOPED_TRACE(form);
    auto deepest = ParseSelectOf(Nested(form, 128));
    ASSERT_TRUE(deepest.ok()) << deepest.status();
    ASSERT_EQ(deepest->select.items.size(), 1u);
    for (size_t levels : {size_t{129}, size_t{100000}}) {
      Status st = ParseSelectOf(Nested(form, levels)).status();
      EXPECT_TRUE(st.IsParseError()) << levels << ": " << st;
      EXPECT_NE(st.message().find(
                    "expression nested deeper than 128 levels at offset " +
                    std::to_string(offset)),
                std::string::npos)
          << levels << ": " << st;
    }
  }
  // Levels add up across forms: 64 parentheses around a 64-operator chain
  // are 128 levels, around a 65-operator chain 129.
  auto wrap = [](size_t parens, const std::string& expr) {
    return std::string(parens, '(') + expr + std::string(parens, ')');
  };
  EXPECT_TRUE(ParseSelectOf(wrap(64, Nested("chain", 64))).ok());
  EXPECT_TRUE(ParseSelectOf(wrap(64, Nested("chain", 65)))
                  .status()
                  .IsParseError());
  // A level closes with its parenthesis: an operator after it starts over.
  EXPECT_TRUE(ParseSelectOf(wrap(1, Nested("chain", 127)) + " + 1").ok());
  EXPECT_TRUE(ParseSelectOf(wrap(2, Nested("chain", 127)))
                  .status()
                  .IsParseError());
}

class SqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<SqlEngine>(&db_);
    ASSERT_OK(
        "CREATE TABLE customer (custkey INT NOT NULL, name STRING, "
        "nation STRING, PRIMARY KEY (custkey))");
    ASSERT_OK(
        "CREATE TABLE orders (orderkey INT PRIMARY KEY, custkey INT, "
        "price DOUBLE, orderdate DATE)");
    ASSERT_OK(
        "INSERT INTO customer VALUES (1, 'alice', 'DE'), (2, 'bob', 'FR'), "
        "(3, 'carol', 'DE')");
    ASSERT_OK(
        "INSERT INTO orders VALUES "
        "(10, 1, 5.0, DATE 20080115), (11, 1, 15.0, DATE 20080220), "
        "(12, 2, 25.0, DATE 20080321), (13, 3, 35.0, DATE 20080421), "
        "(14, 3, 45.0, DATE 20080521)");
  }

  void ASSERT_OK(const std::string& sql) {
    auto result = engine_->Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
  }

  RowSet Q(const std::string& sql) {
    auto rows = engine_->Query(sql);
    EXPECT_TRUE(rows.ok()) << sql << " -> " << rows.status();
    return rows.ok() ? *rows : RowSet{};
  }

  Database db_{"testdb"};
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(SqlEngineTest, CreateTableShape) {
  Table* t = *db_.GetTable("customer");
  EXPECT_EQ(t->schema().num_columns(), 3u);
  EXPECT_FALSE(t->schema().column(0).nullable);
  ASSERT_EQ(t->schema().primary_key().size(), 1u);
  // Duplicate create fails.
  EXPECT_FALSE(engine_->Execute("CREATE TABLE customer (x INT)").ok());
  // Unknown PK column fails.
  EXPECT_FALSE(
      engine_->Execute("CREATE TABLE z (a INT, PRIMARY KEY (b))").ok());
}

TEST_F(SqlEngineTest, SelectStar) {
  RowSet rows = Q("SELECT * FROM orders");
  EXPECT_EQ(rows.rows.size(), 5u);
  EXPECT_EQ(rows.schema.num_columns(), 4u);
}

TEST_F(SqlEngineTest, WhereAndProjection) {
  RowSet rows = Q("SELECT orderkey, price * 2 AS dbl FROM orders "
                  "WHERE price > 20 AND custkey != 2");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.schema.column(1).name, "dbl");
  EXPECT_DOUBLE_EQ(rows.rows[0][1].AsDouble(), 70.0);
}

TEST_F(SqlEngineTest, OrderByAndLimit) {
  RowSet rows = Q("SELECT orderkey FROM orders ORDER BY price DESC LIMIT 2");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0][0].AsInt(), 14);
  EXPECT_EQ(rows.rows[1][0].AsInt(), 13);
}

TEST_F(SqlEngineTest, JoinProducesCombinedRows) {
  RowSet rows = Q("SELECT name, price FROM orders "
                  "JOIN customer ON custkey = custkey WHERE nation = 'DE'");
  EXPECT_EQ(rows.rows.size(), 4u);  // alice x2 + carol x2
}

TEST_F(SqlEngineTest, GroupByAggregates) {
  RowSet rows = Q("SELECT custkey, COUNT(*) AS n, SUM(price) AS total, "
                  "AVG(price) AS avg_p, MIN(price) AS lo, MAX(price) AS hi "
                  "FROM orders GROUP BY custkey ORDER BY custkey");
  ASSERT_EQ(rows.rows.size(), 3u);
  EXPECT_EQ(rows.rows[0][1].AsInt(), 2);
  EXPECT_DOUBLE_EQ(rows.rows[0][2].AsDouble(), 20.0);
  EXPECT_DOUBLE_EQ(rows.rows[2][5].AsDouble(), 45.0);
}

TEST_F(SqlEngineTest, GlobalAggregate) {
  RowSet rows = Q("SELECT COUNT(*) AS n, SUM(price) AS total FROM orders");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].AsInt(), 5);
  EXPECT_DOUBLE_EQ(rows.rows[0][1].AsDouble(), 125.0);
}

TEST_F(SqlEngineTest, ScalarFunctionsAndDate) {
  RowSet rows = Q("SELECT year(orderdate) AS y, month(orderdate) AS m "
                  "FROM orders WHERE orderkey = 12");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].AsInt(), 2008);
  EXPECT_EQ(rows.rows[0][1].AsInt(), 3);
}

TEST_F(SqlEngineTest, InListAndIsNull) {
  ASSERT_OK("INSERT INTO orders VALUES (15, NULL, 1.0, DATE 20080601)");
  RowSet rows = Q("SELECT orderkey FROM orders WHERE custkey IS NULL");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].AsInt(), 15);
  rows = Q("SELECT orderkey FROM orders WHERE custkey IN (1, 3) "
           "ORDER BY orderkey");
  EXPECT_EQ(rows.rows.size(), 4u);
  rows = Q("SELECT orderkey FROM orders WHERE custkey IS NOT NULL");
  EXPECT_EQ(rows.rows.size(), 5u);
}

TEST_F(SqlEngineTest, InsertWithColumnList) {
  auto result = engine_->Execute(
      "INSERT INTO customer (custkey, name) VALUES (4, 'dave')");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->affected, 1u);
  RowSet rows = Q("SELECT nation FROM customer WHERE custkey = 4");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_TRUE(rows.rows[0][0].is_null());
}

TEST_F(SqlEngineTest, InsertCastsToColumnTypes) {
  // Integer literal into DOUBLE column; string date accepted via DATE.
  ASSERT_OK("INSERT INTO orders VALUES (20, 1, 7, DATE '20080701')");
  RowSet rows = Q("SELECT price FROM orders WHERE orderkey = 20");
  EXPECT_EQ(rows.rows[0][0].type(), DataType::kDouble);
}

TEST_F(SqlEngineTest, InsertErrors) {
  // Duplicate key.
  EXPECT_FALSE(
      engine_->Execute("INSERT INTO orders VALUES (10, 1, 1.0, DATE 20080101)")
          .ok());
  // Arity mismatch.
  EXPECT_FALSE(engine_->Execute("INSERT INTO orders VALUES (1, 2)").ok());
  // NOT NULL violation.
  EXPECT_FALSE(engine_
                   ->Execute("INSERT INTO customer VALUES (NULL, 'x', 'y')")
                   .ok());
  // Unknown table / column.
  EXPECT_FALSE(engine_->Execute("INSERT INTO nope VALUES (1)").ok());
  EXPECT_FALSE(
      engine_->Execute("INSERT INTO customer (bogus) VALUES (1)").ok());
}

TEST_F(SqlEngineTest, UpdateWithWhere) {
  auto result = engine_->Execute(
      "UPDATE orders SET price = price + 100 WHERE custkey = 1");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->affected, 2u);
  RowSet rows = Q("SELECT SUM(price) AS s FROM orders WHERE custkey = 1");
  EXPECT_DOUBLE_EQ(rows.rows[0][0].AsDouble(), 220.0);
}

TEST_F(SqlEngineTest, UpdateAllRows) {
  auto result = engine_->Execute("UPDATE customer SET nation = 'XX'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->affected, 3u);
  EXPECT_EQ(Q("SELECT * FROM customer WHERE nation = 'XX'").rows.size(), 3u);
}

TEST_F(SqlEngineTest, DeleteWithWhere) {
  auto result = engine_->Execute("DELETE FROM orders WHERE price < 20");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->affected, 2u);
  EXPECT_EQ(Q("SELECT * FROM orders").rows.size(), 3u);
  result = engine_->Execute("DELETE FROM orders");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->affected, 3u);
}

TEST_F(SqlEngineTest, HavingFiltersGroups) {
  RowSet rows = Q("SELECT custkey, SUM(price) AS total FROM orders "
                  "GROUP BY custkey HAVING total > 20 ORDER BY custkey");
  ASSERT_EQ(rows.rows.size(), 2u);  // custkey 2 (25) and 3 (80)
  EXPECT_EQ(rows.rows[0][0].AsInt(), 2);
  EXPECT_EQ(rows.rows[1][0].AsInt(), 3);
}

TEST_F(SqlEngineTest, InsertFromSelect) {
  ASSERT_OK("CREATE TABLE big_orders (orderkey INT PRIMARY KEY, "
            "price DOUBLE)");
  auto result = engine_->Execute(
      "INSERT INTO big_orders SELECT orderkey, price FROM orders "
      "WHERE price > 20");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->affected, 3u);
  EXPECT_EQ(Q("SELECT * FROM big_orders").rows.size(), 3u);
  // Arity mismatch errors.
  EXPECT_FALSE(
      engine_->Execute("INSERT INTO big_orders SELECT orderkey FROM orders")
          .ok());
}

TEST_F(SqlEngineTest, SelectDistinct) {
  RowSet rows = Q("SELECT DISTINCT nation FROM customer ORDER BY nation");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0][0].AsString(), "DE");
  EXPECT_EQ(rows.rows[1][0].AsString(), "FR");
  rows = Q("SELECT DISTINCT custkey FROM orders");
  EXPECT_EQ(rows.rows.size(), 3u);
}

TEST_F(SqlEngineTest, QueryOnNonSelectErrors) {
  EXPECT_FALSE(engine_->Query("DELETE FROM orders").ok());
}

TEST_F(SqlEngineTest, UnknownColumnSurfacesAtExecution) {
  auto rows = engine_->Query("SELECT bogus FROM orders");
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsNotFound());
}

TEST_F(SqlEngineTest, ExecContextCountsWork) {
  (void)engine_->Query("SELECT * FROM orders");
  EXPECT_GE(engine_->last_exec().rows_processed, 5u);
}

TEST_F(SqlEngineTest, StringEscapes) {
  ASSERT_OK("INSERT INTO customer VALUES (9, 'o''brien', 'IE')");
  RowSet rows = Q("SELECT name FROM customer WHERE custkey = 9");
  EXPECT_EQ(rows.rows[0][0].AsString(), "o'brien");
}

TEST_F(SqlEngineTest, NegativeNumbersAndArithmetic) {
  RowSet rows = Q("SELECT -1 AS a, 2 + 3 * 4 AS b, (2 + 3) * 4 AS c, "
                  "10 % 3 AS d FROM customer LIMIT 1");
  EXPECT_EQ(rows.rows[0][0].AsInt(), -1);
  EXPECT_EQ(rows.rows[0][1].AsInt(), 14);
  EXPECT_EQ(rows.rows[0][2].AsInt(), 20);
  EXPECT_EQ(rows.rows[0][3].AsInt(), 1);
}

TEST_F(SqlEngineTest, Int64OverflowFailsTheQuery) {
  ASSERT_OK("CREATE TABLE t (x INT)");
  ASSERT_OK("INSERT INTO t VALUES (1)");
  for (const char* sql :
       {"SELECT 9223372036854775807 + 1 AS a FROM t",
        "SELECT (0 - 9223372036854775807 - 1) / -1 AS a FROM t",
        "SELECT (0 - 9223372036854775807 - 1) % -1 AS a FROM t",
        "SELECT 0 - 9223372036854775807 - 2 AS a FROM t",
        "SELECT 4294967296 * 4294967296 AS a FROM t",
        "SELECT abs(0 - 9223372036854775807 - 1) AS a FROM t"}) {
    auto rows = engine_->Query(sql);
    ASSERT_FALSE(rows.ok()) << sql;
    EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_NE(rows.status().message().find("INT64 overflow"),
              std::string::npos)
        << rows.status();
  }
  RowSet rows = Q("SELECT 9223372036854775806 + 1 AS a, "
                  "(0 - 9223372036854775807) / -1 AS b, "
                  "(0 - 9223372036854775807 - 1) % 10 AS c FROM t");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].AsInt(), 9223372036854775807);
  EXPECT_EQ(rows.rows[0][1].AsInt(), 9223372036854775807);
  EXPECT_EQ(rows.rows[0][2].AsInt(), -8);
  // A literal past INT64 is a parse error, not a clamped value.
  EXPECT_TRUE(engine_->Query("SELECT 9223372036854775808 AS a FROM t")
                  .status()
                  .IsParseError());
}

}  // namespace
}  // namespace sql
}  // namespace dipbench
