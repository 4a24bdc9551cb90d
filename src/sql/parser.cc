#include "src/sql/parser.h"

#include "src/common/string_util.h"

namespace dipbench {
namespace sql {
namespace {

/// Deepest expression nesting the parser accepts — the JSON reader's and
/// xml::ParseXml's bound too. Parsing, Expr::ToString and Eval all recurse
/// once per level, so the bound keeps hostile input off the stack.
constexpr int kMaxExprDepth = 128;

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> Parse() {
    Statement stmt;
    const Token& first = Peek();
    if (first.IsWord("SELECT")) {
      stmt.kind = Statement::Kind::kSelect;
      DIP_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
    } else if (first.IsWord("INSERT")) {
      stmt.kind = Statement::Kind::kInsert;
      DIP_ASSIGN_OR_RETURN(stmt.insert, ParseInsert());
    } else if (first.IsWord("UPDATE")) {
      stmt.kind = Statement::Kind::kUpdate;
      DIP_ASSIGN_OR_RETURN(stmt.update, ParseUpdate());
    } else if (first.IsWord("DELETE")) {
      stmt.kind = Statement::Kind::kDelete;
      DIP_ASSIGN_OR_RETURN(stmt.del, ParseDelete());
    } else if (first.IsWord("CREATE")) {
      stmt.kind = Statement::Kind::kCreateTable;
      DIP_ASSIGN_OR_RETURN(stmt.create, ParseCreate());
    } else {
      return Err("expected SELECT, INSERT, UPDATE, DELETE or CREATE");
    }
    if (Peek().IsSymbol(";")) Advance();
    if (!Peek().Is(TokenType::kEnd)) return Err("trailing input");
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t idx = pos_ + ahead;
    return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Accept(const char* word) {
    if (Peek().IsWord(word)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptSymbol(const char* sym) {
    if (Peek().IsSymbol(sym)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Expect(const char* word) {
    if (!Accept(word)) return Err(std::string("expected ") + word);
    return Status::OK();
  }
  Status ExpectSymbol(const char* sym) {
    if (!AcceptSymbol(sym)) {
      return Err(std::string("expected '") + sym + "'");
    }
    return Status::OK();
  }
  Status Err(const std::string& what) const { return ErrAt(what, Peek()); }
  Status ErrAt(const std::string& what, const Token& tok) const {
    return Status::ParseError(what + " near offset " +
                              std::to_string(tok.offset) +
                              (tok.raw.empty() ? "" : " ('" + tok.raw + "')"));
  }

  /// The literal token `tok` as a `type` value; a literal Value::Parse
  /// rejects fails at the token's own offset, like any syntax error.
  Result<Value> ParseLiteral(const Token& tok, DataType type) const {
    Result<Value> v = Value::Parse(tok.text, type);
    if (!v.ok()) return ErrAt(v.status().message(), tok);
    return v;
  }

  /// Opens one expression level at the token just consumed (a
  /// parenthesis, NOT, unary minus or binary operator); fails past
  /// kMaxExprDepth. Each caller restores depth_ once its level closes.
  Status Descend() {
    if (++depth_ <= kMaxExprDepth) return Status::OK();
    return Status::ParseError(StrFormat(
        "expression nested deeper than %d levels at offset %zu",
        kMaxExprDepth, tokens_[pos_ - 1].offset));
  }

  Result<std::string> ParseIdentifier() {
    if (!Peek().Is(TokenType::kIdentifier)) return Err("expected identifier");
    std::string name = Advance().raw;
    // Qualified name: keep the column part only (flat namespaces).
    if (Peek().IsSymbol(".") && Peek(1).Is(TokenType::kIdentifier)) {
      Advance();
      name = Advance().raw;
    }
    return name;
  }

  // --- expressions ---

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  // Every binary operator of a left-deep chain nests the chain's result
  // one level deeper, so a chain keeps its levels open until it ends.

  Result<ExprPtr> ParseOr() {
    const int depth = depth_;
    DIP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (Accept("OR")) {
      DIP_RETURN_NOT_OK(Descend());
      DIP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Or(lhs, rhs);
    }
    depth_ = depth;
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    const int depth = depth_;
    DIP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (Accept("AND")) {
      DIP_RETURN_NOT_OK(Descend());
      DIP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = And(lhs, rhs);
    }
    depth_ = depth;
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (Accept("NOT")) {
      DIP_RETURN_NOT_OK(Descend());
      DIP_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      --depth_;
      return Not(operand);
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    DIP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    if (Accept("IS")) {
      bool negated = Accept("NOT");
      DIP_RETURN_NOT_OK(Expect("NULL"));
      ExprPtr test = IsNull(lhs);
      return negated ? Not(test) : test;
    }
    if (Accept("IN")) {
      DIP_RETURN_NOT_OK(ExpectSymbol("("));
      DIP_RETURN_NOT_OK(Descend());
      std::vector<Value> values;
      do {
        DIP_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr());
        Schema empty;
        Row none;
        DIP_ASSIGN_OR_RETURN(Value v, item->Eval(none, empty));
        values.push_back(std::move(v));
      } while (AcceptSymbol(","));
      DIP_RETURN_NOT_OK(ExpectSymbol(")"));
      --depth_;
      return InList(lhs, std::move(values));
    }
    struct OpMap {
      const char* sym;
      CompareOp op;
    };
    static const OpMap kOps[] = {{"=", CompareOp::kEq}, {"!=", CompareOp::kNe},
                                 {"<=", CompareOp::kLe}, {">=", CompareOp::kGe},
                                 {"<", CompareOp::kLt},  {">", CompareOp::kGt}};
    for (const auto& [sym, op] : kOps) {
      if (Peek().IsSymbol(sym)) {
        Advance();
        DIP_RETURN_NOT_OK(Descend());
        DIP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        --depth_;
        return Cmp(op, lhs, rhs);
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    const int depth = depth_;
    DIP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    for (;;) {
      ArithmeticOp op;
      if (AcceptSymbol("+")) {
        op = ArithmeticOp::kAdd;
      } else if (AcceptSymbol("-")) {
        op = ArithmeticOp::kSub;
      } else {
        depth_ = depth;
        return lhs;
      }
      DIP_RETURN_NOT_OK(Descend());
      DIP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = Arith(op, lhs, rhs);
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    const int depth = depth_;
    DIP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    for (;;) {
      ArithmeticOp op;
      if (AcceptSymbol("*")) {
        op = ArithmeticOp::kMul;
      } else if (AcceptSymbol("/")) {
        op = ArithmeticOp::kDiv;
      } else if (AcceptSymbol("%")) {
        op = ArithmeticOp::kMod;
      } else {
        depth_ = depth;
        return lhs;
      }
      DIP_RETURN_NOT_OK(Descend());
      DIP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = Arith(op, lhs, rhs);
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (AcceptSymbol("-")) {
      DIP_RETURN_NOT_OK(Descend());
      DIP_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      --depth_;
      return Sub(Lit(int64_t{0}), operand);
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    if (tok.Is(TokenType::kNumber)) {
      Advance();
      const DataType type = tok.text.find('.') != std::string::npos
                                ? DataType::kDouble
                                : DataType::kInt64;
      DIP_ASSIGN_OR_RETURN(Value v, ParseLiteral(tok, type));
      return Lit(std::move(v));
    }
    if (tok.Is(TokenType::kString)) {
      Advance();
      return Lit(Value::String(tok.text));
    }
    if (tok.IsWord("NULL")) {
      Advance();
      return Lit(Value::Null());
    }
    if (tok.IsWord("TRUE")) {
      Advance();
      return Lit(Value::Bool(true));
    }
    if (tok.IsWord("FALSE")) {
      Advance();
      return Lit(Value::Bool(false));
    }
    if (tok.IsWord("DATE")) {
      // DATE '20080412' or DATE 20080412.
      Advance();
      const Token& lit = Peek();
      if (lit.Is(TokenType::kString) || lit.Is(TokenType::kNumber)) {
        Advance();
        DIP_ASSIGN_OR_RETURN(Value v, ParseLiteral(lit, DataType::kDate));
        return Lit(std::move(v));
      }
      return Err("expected date literal");
    }
    if (tok.Is(TokenType::kIdentifier)) {
      // Function call?
      if (Peek(1).IsSymbol("(")) {
        std::string fn = StrLower(Advance().raw);
        Advance();  // '('
        DIP_RETURN_NOT_OK(Descend());
        std::vector<ExprPtr> args;
        if (!Peek().IsSymbol(")")) {
          do {
            DIP_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
            args.push_back(std::move(arg));
          } while (AcceptSymbol(","));
        }
        DIP_RETURN_NOT_OK(ExpectSymbol(")"));
        --depth_;
        return Func(fn, std::move(args));
      }
      DIP_ASSIGN_OR_RETURN(std::string name, ParseIdentifier());
      return Col(std::move(name));
    }
    if (tok.IsSymbol("(")) {
      Advance();
      DIP_RETURN_NOT_OK(Descend());
      DIP_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      DIP_RETURN_NOT_OK(ExpectSymbol(")"));
      --depth_;
      return inner;
    }
    return Err("expected expression");
  }

  // --- statements ---

  Result<std::optional<AggFunc>> AggregateKeyword() {
    const Token& tok = Peek();
    if (!tok.Is(TokenType::kIdentifier) || !Peek(1).IsSymbol("(")) {
      return std::optional<AggFunc>();
    }
    if (tok.text == "COUNT") return std::optional<AggFunc>(AggFunc::kCount);
    if (tok.text == "SUM") return std::optional<AggFunc>(AggFunc::kSum);
    if (tok.text == "AVG") return std::optional<AggFunc>(AggFunc::kAvg);
    if (tok.text == "MIN") return std::optional<AggFunc>(AggFunc::kMin);
    if (tok.text == "MAX") return std::optional<AggFunc>(AggFunc::kMax);
    return std::optional<AggFunc>();
  }

  Result<SelectStmt> ParseSelect() {
    SelectStmt stmt;
    DIP_RETURN_NOT_OK(Expect("SELECT"));
    stmt.distinct = Accept("DISTINCT");
    if (AcceptSymbol("*")) {
      SelectItem star;
      star.star = true;
      stmt.items.push_back(std::move(star));
    } else {
      do {
        SelectItem item;
        DIP_ASSIGN_OR_RETURN(auto agg, AggregateKeyword());
        if (agg.has_value()) {
          item.is_aggregate = true;
          item.agg_func = *agg;
          std::string fn = StrLower(Advance().raw);
          Advance();  // '('
          if (AcceptSymbol("*")) {
            if (item.agg_func != AggFunc::kCount) {
              return Err("only COUNT supports *");
            }
          } else {
            DIP_ASSIGN_OR_RETURN(item.agg_input, ParseIdentifier());
          }
          DIP_RETURN_NOT_OK(ExpectSymbol(")"));
          item.alias = fn + (item.agg_input.empty() ? "" : "_" +
                                                              item.agg_input);
        } else {
          DIP_ASSIGN_OR_RETURN(item.expr, ParseExpr());
          item.alias = item.expr->ToString();
        }
        if (Accept("AS")) {
          DIP_ASSIGN_OR_RETURN(item.alias, ParseIdentifier());
        }
        stmt.items.push_back(std::move(item));
      } while (AcceptSymbol(","));
    }
    DIP_RETURN_NOT_OK(Expect("FROM"));
    DIP_ASSIGN_OR_RETURN(stmt.from_table, ParseIdentifier());
    while (Accept("JOIN")) {
      JoinClause join;
      DIP_ASSIGN_OR_RETURN(join.table, ParseIdentifier());
      DIP_RETURN_NOT_OK(Expect("ON"));
      do {
        DIP_ASSIGN_OR_RETURN(std::string left, ParseIdentifier());
        DIP_RETURN_NOT_OK(ExpectSymbol("="));
        DIP_ASSIGN_OR_RETURN(std::string right, ParseIdentifier());
        join.left_keys.push_back(std::move(left));
        join.right_keys.push_back(std::move(right));
      } while (Accept("AND"));
      stmt.joins.push_back(std::move(join));
    }
    if (Accept("WHERE")) {
      DIP_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (Accept("GROUP")) {
      DIP_RETURN_NOT_OK(Expect("BY"));
      do {
        DIP_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
        stmt.group_by.push_back(std::move(col));
      } while (AcceptSymbol(","));
      if (Accept("HAVING")) {
        DIP_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
      }
    }
    if (Accept("ORDER")) {
      DIP_RETURN_NOT_OK(Expect("BY"));
      do {
        SortKey key;
        DIP_ASSIGN_OR_RETURN(key.column, ParseIdentifier());
        if (Accept("DESC")) {
          key.ascending = false;
        } else {
          Accept("ASC");
        }
        stmt.order_by.push_back(std::move(key));
      } while (AcceptSymbol(","));
    }
    if (Accept("LIMIT")) {
      if (!Peek().Is(TokenType::kNumber)) return Err("expected LIMIT count");
      DIP_ASSIGN_OR_RETURN(Value n, ParseLiteral(Advance(), DataType::kInt64));
      if (n.AsInt() < 0) return Err("negative LIMIT");
      stmt.limit = static_cast<size_t>(n.AsInt());
    }
    return stmt;
  }

  Result<InsertStmt> ParseInsert() {
    InsertStmt stmt;
    DIP_RETURN_NOT_OK(Expect("INSERT"));
    DIP_RETURN_NOT_OK(Expect("INTO"));
    DIP_ASSIGN_OR_RETURN(stmt.table, ParseIdentifier());
    if (AcceptSymbol("(")) {
      do {
        DIP_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
        stmt.columns.push_back(std::move(col));
      } while (AcceptSymbol(","));
      DIP_RETURN_NOT_OK(ExpectSymbol(")"));
    }
    if (Peek().IsWord("SELECT")) {
      DIP_ASSIGN_OR_RETURN(SelectStmt select, ParseSelect());
      stmt.select = std::make_shared<SelectStmt>(std::move(select));
      return stmt;
    }
    DIP_RETURN_NOT_OK(Expect("VALUES"));
    do {
      DIP_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<ExprPtr> row;
      do {
        DIP_ASSIGN_OR_RETURN(ExprPtr v, ParseExpr());
        row.push_back(std::move(v));
      } while (AcceptSymbol(","));
      DIP_RETURN_NOT_OK(ExpectSymbol(")"));
      stmt.rows.push_back(std::move(row));
    } while (AcceptSymbol(","));
    return stmt;
  }

  Result<UpdateStmt> ParseUpdate() {
    UpdateStmt stmt;
    DIP_RETURN_NOT_OK(Expect("UPDATE"));
    DIP_ASSIGN_OR_RETURN(stmt.table, ParseIdentifier());
    DIP_RETURN_NOT_OK(Expect("SET"));
    do {
      DIP_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
      DIP_RETURN_NOT_OK(ExpectSymbol("="));
      DIP_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
      stmt.assignments.emplace_back(std::move(col), std::move(value));
    } while (AcceptSymbol(","));
    if (Accept("WHERE")) {
      DIP_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    return stmt;
  }

  Result<DeleteStmt> ParseDelete() {
    DeleteStmt stmt;
    DIP_RETURN_NOT_OK(Expect("DELETE"));
    DIP_RETURN_NOT_OK(Expect("FROM"));
    DIP_ASSIGN_OR_RETURN(stmt.table, ParseIdentifier());
    if (Accept("WHERE")) {
      DIP_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    return stmt;
  }

  Result<DataType> ParseColumnType() {
    if (!Peek().Is(TokenType::kIdentifier)) return Err("expected column type");
    std::string type = Advance().text;
    // VARCHAR(n) and similar length suffixes are accepted and ignored.
    if (AcceptSymbol("(")) {
      while (!Peek().IsSymbol(")") && !Peek().Is(TokenType::kEnd)) Advance();
      DIP_RETURN_NOT_OK(ExpectSymbol(")"));
    }
    if (type == "INT" || type == "INTEGER" || type == "BIGINT") {
      return DataType::kInt64;
    }
    if (type == "DOUBLE" || type == "FLOAT" || type == "REAL" ||
        type == "DECIMAL" || type == "NUMERIC") {
      return DataType::kDouble;
    }
    if (type == "STRING" || type == "TEXT" || type == "VARCHAR" ||
        type == "CHAR" || type == "CLOB") {
      return DataType::kString;
    }
    if (type == "BOOL" || type == "BOOLEAN") return DataType::kBool;
    if (type == "DATE") return DataType::kDate;
    return Err("unknown column type " + type);
  }

  Result<CreateTableStmt> ParseCreate() {
    CreateTableStmt stmt;
    DIP_RETURN_NOT_OK(Expect("CREATE"));
    DIP_RETURN_NOT_OK(Expect("TABLE"));
    DIP_ASSIGN_OR_RETURN(stmt.table, ParseIdentifier());
    DIP_RETURN_NOT_OK(ExpectSymbol("("));
    do {
      if (Peek().IsWord("PRIMARY")) {
        Advance();
        DIP_RETURN_NOT_OK(Expect("KEY"));
        DIP_RETURN_NOT_OK(ExpectSymbol("("));
        do {
          DIP_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
          stmt.primary_key.push_back(std::move(col));
        } while (AcceptSymbol(","));
        DIP_RETURN_NOT_OK(ExpectSymbol(")"));
        continue;
      }
      ColumnDef def;
      DIP_ASSIGN_OR_RETURN(def.name, ParseIdentifier());
      DIP_ASSIGN_OR_RETURN(def.type, ParseColumnType());
      if (Accept("NOT")) {
        DIP_RETURN_NOT_OK(Expect("NULL"));
        def.not_null = true;
      }
      if (Accept("PRIMARY")) {
        DIP_RETURN_NOT_OK(Expect("KEY"));
        def.not_null = true;
        stmt.primary_key.push_back(def.name);
      }
      stmt.columns.push_back(std::move(def));
    } while (AcceptSymbol(","));
    DIP_RETURN_NOT_OK(ExpectSymbol(")"));
    return stmt;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< expression levels open at pos_
};

}  // namespace

Result<Statement> ParseSql(const std::string& input) {
  DIP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace sql
}  // namespace dipbench
