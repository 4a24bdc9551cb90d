#include "src/ra/expr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "src/common/string_util.h"

namespace dipbench {

Result<CellRef> TupleRefs::Resolve(const std::string& name,
                                   const Schema& schema) const {
  DIP_ASSIGN_OR_RETURN(size_t idx, schema.RequireIndexOf(name));
  if (!layout_->cells.empty() && idx >= layout_->cells.size()) {
    return Status::Internal("row narrower than schema");
  }
  const CellRef c = layout_->Cell(idx);
  if (size_ > 0 && c.offset >= layout_->row_widths[c.input]) {
    return Status::Internal("row narrower than schema");
  }
  return c;
}

Status TupleRefs::AppendTo(RowSlab* out) const {
  if (size_ == 0) return Status::OK();
  const TupleLayout& layout = *layout_;
  for (CellRef c : layout.cells) {
    if (c.offset >= layout.row_widths[c.input]) {
      return Status::Internal("row narrower than schema");
    }
  }
  DIP_RETURN_NOT_OK(out->AdoptWidth(layout.columns()));
  for (size_t i = 0; i < size_; ++i) {
    const Value* const* t = tuple(i);
    MutableRowView row = out->AppendRow();
    if (layout.cells.empty()) {
      std::copy(t[0], t[0] + row.size(), row.begin());
      continue;
    }
    for (size_t c = 0; c < row.size(); ++c) {
      row[c] = t[layout.cells[c].input][layout.cells[c].offset];
    }
  }
  return Status::OK();
}

Status Expr::EvalBatch(const TupleRefs& rows, const Schema& schema,
                       std::vector<Value>* out) const {
  RowSlab logical;
  DIP_RETURN_NOT_OK(rows.AppendTo(&logical));
  out->clear();
  out->reserve(rows.size());
  for (RowView row : logical) {
    DIP_ASSIGN_OR_RETURN(Value v, Eval(row, schema));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

namespace {

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)) {}
  ExprKind kind() const override { return ExprKind::kLiteral; }
  const Value& value() const { return value_; }
  Result<Value> Eval(RowView, const Schema&) const override {
    return value_;
  }
  Status EvalBatch(const TupleRefs& rows, const Schema&,
                   std::vector<Value>* out) const override {
    out->assign(rows.size(), value_);
    return Status::OK();
  }
  std::string ToString() const override {
    return value_.type() == DataType::kString ? "'" + value_.ToString() + "'"
                                              : value_.ToString();
  }

 private:
  Value value_;
};

class ColumnRefExpr : public Expr {
 public:
  explicit ColumnRefExpr(std::string name) : name_(std::move(name)) {}
  ExprKind kind() const override { return ExprKind::kColumnRef; }
  const std::string& name() const { return name_; }
  Result<Value> Eval(RowView row, const Schema& schema) const override {
    DIP_ASSIGN_OR_RETURN(size_t idx, schema.RequireIndexOf(name_));
    if (idx >= row.size()) return Status::Internal("row narrower than schema");
    return row[idx];
  }
  Status EvalBatch(const TupleRefs& rows, const Schema& schema,
                   std::vector<Value>* out) const override {
    // The payoff of batching: one name resolution for the whole chunk.
    DIP_ASSIGN_OR_RETURN(CellRef cell, rows.Resolve(name_, schema));
    out->clear();
    out->reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) out->push_back(rows.at(i, cell));
    return Status::OK();
  }
  std::string ToString() const override { return name_; }

 private:
  std::string name_;
};

/// One input of a vectorized evaluation, bound once per batch. Bare column
/// references are read in place through the tuple's cell map (no per-row
/// Value copies), literals are evaluated once, and everything else falls
/// back to a per-row buffer.
class Operand {
 public:
  Status Bind(const Expr& e, const TupleRefs& rows, const Schema& schema) {
    column_ = false;
    constant_ = nullptr;
    switch (e.kind()) {
      case ExprKind::kColumnRef: {
        DIP_ASSIGN_OR_RETURN(
            cell_,
            rows.Resolve(static_cast<const ColumnRefExpr&>(e).name(), schema));
        column_ = true;
        return Status::OK();
      }
      case ExprKind::kLiteral:
        constant_ = &static_cast<const LiteralExpr&>(e).value();
        return Status::OK();
      default:
        return e.EvalBatch(rows, schema, &buf_);
    }
  }

  const Value& at(const TupleRefs& rows, size_t i) const {
    if (column_) return rows.at(i, cell_);
    if (constant_ != nullptr) return *constant_;
    return buf_[i];
  }

 private:
  bool column_ = false;
  CellRef cell_;
  const Value* constant_ = nullptr;
  std::vector<Value> buf_;
};

class CompareExpr : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  ExprKind kind() const override { return ExprKind::kCompare; }
  Result<Value> Eval(RowView row, const Schema& schema) const override {
    DIP_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, schema));
    DIP_ASSIGN_OR_RETURN(Value b, rhs_->Eval(row, schema));
    return Apply(a, b);
  }
  Status EvalBatch(const TupleRefs& rows, const Schema& schema,
                   std::vector<Value>* out) const override {
    Operand lhs, rhs;
    DIP_RETURN_NOT_OK(lhs.Bind(*lhs_, rows, schema));
    DIP_RETURN_NOT_OK(rhs.Bind(*rhs_, rows, schema));
    out->clear();
    out->reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      DIP_ASSIGN_OR_RETURN(Value v, Apply(lhs.at(rows, i), rhs.at(rows, i)));
      out->push_back(std::move(v));
    }
    return Status::OK();
  }
  std::string ToString() const override {
    static const char* kNames[] = {"=", "!=", "<", "<=", ">", ">="};
    return "(" + lhs_->ToString() + " " + kNames[static_cast<int>(op_)] + " " +
           rhs_->ToString() + ")";
  }

 private:
  Result<Value> Apply(const Value& a, const Value& b) const {
    // SQL-ish: comparisons against NULL are false (except handled by IsNull).
    if (a.is_null() || b.is_null()) return Value::Bool(false);
    int c = a.Compare(b);
    switch (op_) {
      case CompareOp::kEq:
        return Value::Bool(c == 0);
      case CompareOp::kNe:
        return Value::Bool(c != 0);
      case CompareOp::kLt:
        return Value::Bool(c < 0);
      case CompareOp::kLe:
        return Value::Bool(c <= 0);
      case CompareOp::kGt:
        return Value::Bool(c > 0);
      case CompareOp::kGe:
        return Value::Bool(c >= 0);
    }
    return Status::Internal("bad compare op");
  }

  CompareOp op_;
  ExprPtr lhs_, rhs_;
};

class LogicalExpr : public Expr {
 public:
  LogicalExpr(LogicalOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  ExprKind kind() const override { return ExprKind::kLogical; }
  Result<Value> Eval(RowView row, const Schema& schema) const override {
    DIP_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, schema));
    bool av = !a.is_null() && a.type() == DataType::kBool && a.AsBool();
    if (op_ == LogicalOp::kNot) return Value::Bool(!av);
    if (op_ == LogicalOp::kAnd && !av) return Value::Bool(false);
    if (op_ == LogicalOp::kOr && av) return Value::Bool(true);
    DIP_ASSIGN_OR_RETURN(Value b, rhs_->Eval(row, schema));
    bool bv = !b.is_null() && b.type() == DataType::kBool && b.AsBool();
    return Value::Bool(bv);
  }
  Status EvalBatch(const TupleRefs& rows, const Schema& schema,
                   std::vector<Value>* out) const override {
    Operand lhs;
    DIP_RETURN_NOT_OK(lhs.Bind(*lhs_, rows, schema));
    out->clear();
    out->reserve(rows.size());
    // Tuples whose result the left side does not decide, gathered so the
    // right side runs as one batch over exactly them.
    std::vector<size_t> open;
    std::vector<const Value*> open_ptrs;
    const size_t width = rows.layout().width();
    for (size_t i = 0; i < rows.size(); ++i) {
      const Value& a = lhs.at(rows, i);
      bool av = !a.is_null() && a.type() == DataType::kBool && a.AsBool();
      if (op_ == LogicalOp::kNot) {
        out->push_back(Value::Bool(!av));
        continue;
      }
      if (op_ == LogicalOp::kAnd && !av) {
        out->push_back(Value::Bool(false));
        continue;
      }
      if (op_ == LogicalOp::kOr && av) {
        out->push_back(Value::Bool(true));
        continue;
      }
      out->push_back(Value::Bool(false));  // decided by the right side below
      open.push_back(i);
      open_ptrs.insert(open_ptrs.end(), rows.tuple(i), rows.tuple(i) + width);
    }
    if (open.empty()) return Status::OK();
    // Short-circuit semantics preserved: the right side is evaluated only
    // for the rows the scalar path would evaluate it for (a batched rhs over
    // every row could surface eval errors on rows the scalar path never
    // touches).
    std::vector<Value> rhs;
    DIP_RETURN_NOT_OK(rhs_->EvalBatch(
        TupleRefs(open_ptrs.data(), open.size(), rows.layout()), schema, &rhs));
    for (size_t j = 0; j < open.size(); ++j) {
      const Value& b = rhs[j];
      (*out)[open[j]] = Value::Bool(!b.is_null() &&
                                    b.type() == DataType::kBool && b.AsBool());
    }
    return Status::OK();
  }
  std::string ToString() const override {
    if (op_ == LogicalOp::kNot) return "NOT " + lhs_->ToString();
    return "(" + lhs_->ToString() +
           (op_ == LogicalOp::kAnd ? " AND " : " OR ") + rhs_->ToString() +
           ")";
  }

 private:
  LogicalOp op_;
  ExprPtr lhs_, rhs_;
};

class ArithmeticExpr : public Expr {
 public:
  ArithmeticExpr(ArithmeticOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  ExprKind kind() const override { return ExprKind::kArithmetic; }
  Result<Value> Eval(RowView row, const Schema& schema) const override {
    DIP_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, schema));
    DIP_ASSIGN_OR_RETURN(Value b, rhs_->Eval(row, schema));
    return Apply(a, b);
  }
  Status EvalBatch(const TupleRefs& rows, const Schema& schema,
                   std::vector<Value>* out) const override {
    Operand lhs, rhs;
    DIP_RETURN_NOT_OK(lhs.Bind(*lhs_, rows, schema));
    DIP_RETURN_NOT_OK(rhs.Bind(*rhs_, rows, schema));
    out->clear();
    out->reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      DIP_ASSIGN_OR_RETURN(Value v, Apply(lhs.at(rows, i), rhs.at(rows, i)));
      out->push_back(std::move(v));
    }
    return Status::OK();
  }
  std::string ToString() const override {
    static const char* kNames[] = {"+", "-", "*", "/", "%"};
    return "(" + lhs_->ToString() + " " + kNames[static_cast<int>(op_)] + " " +
           rhs_->ToString() + ")";
  }

 private:
  Result<Value> Apply(const Value& a, const Value& b) const {
    if (a.is_null() || b.is_null()) return Value::Null();
    // String + string concatenates.
    if (op_ == ArithmeticOp::kAdd && a.type() == DataType::kString &&
        b.type() == DataType::kString) {
      std::string s(a.AsString());
      s += b.AsString();
      return Value::String(s);
    }
    // Integer arithmetic stays integral and fails on overflow.
    if (a.type() == DataType::kInt64 && b.type() == DataType::kInt64) {
      int64_t x = a.AsInt(), y = b.AsInt(), r = 0;
      // INT64_MIN / -1 overflows; it and INT64_MIN % -1 trap (SIGFPE).
      const bool traps = x == std::numeric_limits<int64_t>::min() && y == -1;
      bool overflow = false;
      switch (op_) {
        case ArithmeticOp::kAdd:
          overflow = __builtin_add_overflow(x, y, &r);
          break;
        case ArithmeticOp::kSub:
          overflow = __builtin_sub_overflow(x, y, &r);
          break;
        case ArithmeticOp::kMul:
          overflow = __builtin_mul_overflow(x, y, &r);
          break;
        case ArithmeticOp::kDiv:
          if (y == 0) return Status::InvalidArgument("integer division by 0");
          overflow = traps;
          if (!traps) r = x / y;
          break;
        case ArithmeticOp::kMod:
          if (y == 0) return Status::InvalidArgument("modulo by 0");
          overflow = traps;
          if (!traps) r = x % y;
          break;
      }
      if (overflow) {
        return Status::InvalidArgument("INT64 overflow in " + ToString());
      }
      return Value::Int(r);
    }
    DIP_ASSIGN_OR_RETURN(double x, a.ToNumeric());
    DIP_ASSIGN_OR_RETURN(double y, b.ToNumeric());
    switch (op_) {
      case ArithmeticOp::kAdd:
        return Value::Double(x + y);
      case ArithmeticOp::kSub:
        return Value::Double(x - y);
      case ArithmeticOp::kMul:
        return Value::Double(x * y);
      case ArithmeticOp::kDiv:
        if (y == 0.0) return Status::InvalidArgument("division by 0");
        return Value::Double(x / y);
      case ArithmeticOp::kMod:
        if (y == 0.0) return Status::InvalidArgument("modulo by 0");
        return Value::Double(std::fmod(x, y));
    }
    return Status::Internal("bad arithmetic op");
  }

  ArithmeticOp op_;
  ExprPtr lhs_, rhs_;
};

class IsNullExpr : public Expr {
 public:
  explicit IsNullExpr(ExprPtr operand) : operand_(std::move(operand)) {}
  ExprKind kind() const override { return ExprKind::kIsNull; }
  Result<Value> Eval(RowView row, const Schema& schema) const override {
    DIP_ASSIGN_OR_RETURN(Value v, operand_->Eval(row, schema));
    return Value::Bool(v.is_null());
  }
  Status EvalBatch(const TupleRefs& rows, const Schema& schema,
                   std::vector<Value>* out) const override {
    Operand operand;
    DIP_RETURN_NOT_OK(operand.Bind(*operand_, rows, schema));
    out->clear();
    out->reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      out->push_back(Value::Bool(operand.at(rows, i).is_null()));
    }
    return Status::OK();
  }
  std::string ToString() const override {
    return operand_->ToString() + " IS NULL";
  }

 private:
  ExprPtr operand_;
};

class FunctionExpr : public Expr {
 public:
  FunctionExpr(std::string name, std::vector<ExprPtr> args)
      : name_(StrLower(name)), fn_(Resolve(name_)), args_(std::move(args)) {}
  ExprKind kind() const override { return ExprKind::kFunction; }

  Result<Value> Eval(RowView row, const Schema& schema) const override {
    std::vector<Value> vals;
    vals.reserve(args_.size());
    for (const auto& a : args_) {
      DIP_ASSIGN_OR_RETURN(Value v, a->Eval(row, schema));
      vals.push_back(std::move(v));
    }
    std::vector<const Value*> ptrs;
    ptrs.reserve(vals.size());
    for (const Value& v : vals) ptrs.push_back(&v);
    return Apply(ptrs);
  }

  Status EvalBatch(const TupleRefs& rows, const Schema& schema,
                   std::vector<Value>* out) const override {
    // Each argument is bound once over the whole batch (column references
    // read in place, literals once); per row only pointers to the argument
    // values are gathered, never the values themselves.
    std::vector<Operand> ops(args_.size());
    for (size_t a = 0; a < args_.size(); ++a) {
      DIP_RETURN_NOT_OK(ops[a].Bind(*args_[a], rows, schema));
    }
    out->clear();
    out->reserve(rows.size());
    std::vector<const Value*> vals(args_.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t a = 0; a < args_.size(); ++a) vals[a] = &ops[a].at(rows, i);
      DIP_ASSIGN_OR_RETURN(Value v, Apply(vals));
      out->push_back(std::move(v));
    }
    return Status::OK();
  }

  std::string ToString() const override {
    std::vector<std::string> parts;
    for (const auto& a : args_) parts.push_back(a->ToString());
    return name_ + "(" + StrJoin(parts, ", ") + ")";
  }

 private:
  enum class Fn {
    kYear,
    kMonth,
    kCoalesce,
    kDecode,
    kUnknown,
  };

  static Fn Resolve(const std::string& name) {
    static const std::pair<const char*, Fn> kNames[] = {
        {"year", Fn::kYear},
        {"month", Fn::kMonth},
        {"coalesce", Fn::kCoalesce},
        {"decode", Fn::kDecode},
    };
    for (const auto& [n, fn] : kNames) {
      if (name == n) return fn;
    }
    return Fn::kUnknown;
  }

  Result<Value> Apply(std::span<const Value* const> vals) const {
    auto require_arity = [&](size_t n) -> Status {
      if (vals.size() != n) {
        return Status::InvalidArgument(name_ + " expects " +
                                       std::to_string(n) + " args");
      }
      return Status::OK();
    };
    switch (fn_) {
      case Fn::kYear:
      case Fn::kMonth: {
        DIP_RETURN_NOT_OK(require_arity(1));
        const Value& d = *vals[0];
        if (d.is_null()) return Value::Null();
        Result<int64_t> part =
            fn_ == Fn::kYear ? d.DateYear() : d.DateMonth();
        if (!part.ok()) return part.status();
        return Value::Int(*part);
      }
      case Fn::kCoalesce: {
        for (const Value* v : vals) {
          if (!v->is_null()) return *v;
        }
        return Value::Null();
      }
      case Fn::kDecode: {
        // decode(x, k1, v1, k2, v2, ..., [default]) — Oracle-style value map.
        if (vals.size() < 3) {
          return Status::InvalidArgument("decode needs at least 3 args");
        }
        size_t i = 1;
        for (; i + 1 < vals.size(); i += 2) {
          if (vals[0]->Compare(*vals[i]) == 0) return *vals[i + 1];
        }
        // Odd remaining argument is the default.
        if (i < vals.size()) return *vals[i];
        return Value::Null();
      }
      case Fn::kUnknown:
        break;
    }
    return Status::NotFound("unknown function " + name_);
  }

  std::string name_;
  Fn fn_;  ///< resolved from name_ once, at construction
  std::vector<ExprPtr> args_;
};

}  // namespace

ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr Lit(int64_t v) { return Lit(Value::Int(v)); }
ExprPtr Lit(double v) { return Lit(Value::Double(v)); }
ExprPtr Lit(const char* v) { return Lit(Value::String(v)); }
ExprPtr Col(std::string name) {
  return std::make_shared<ColumnRefExpr>(std::move(name));
}
ExprPtr Cmp(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<CompareExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Eq(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kEq, l, r); }
ExprPtr Ne(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kNe, l, r); }
ExprPtr Lt(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kLt, l, r); }
ExprPtr Le(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kLe, l, r); }
ExprPtr Gt(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kGt, l, r); }
ExprPtr Ge(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kGe, l, r); }
ExprPtr And(ExprPtr l, ExprPtr r) {
  return std::make_shared<LogicalExpr>(LogicalOp::kAnd, std::move(l),
                                       std::move(r));
}
ExprPtr Or(ExprPtr l, ExprPtr r) {
  return std::make_shared<LogicalExpr>(LogicalOp::kOr, std::move(l),
                                       std::move(r));
}
ExprPtr Not(ExprPtr operand) {
  return std::make_shared<LogicalExpr>(LogicalOp::kNot, std::move(operand),
                                       nullptr);
}
ExprPtr Arith(ArithmeticOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ArithmeticExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Add(ExprPtr l, ExprPtr r) { return Arith(ArithmeticOp::kAdd, l, r); }
ExprPtr Sub(ExprPtr l, ExprPtr r) { return Arith(ArithmeticOp::kSub, l, r); }
ExprPtr Mul(ExprPtr l, ExprPtr r) { return Arith(ArithmeticOp::kMul, l, r); }
ExprPtr Div(ExprPtr l, ExprPtr r) { return Arith(ArithmeticOp::kDiv, l, r); }
ExprPtr IsNull(ExprPtr operand) {
  return std::make_shared<IsNullExpr>(std::move(operand));
}
ExprPtr Func(std::string name, std::vector<ExprPtr> args) {
  return std::make_shared<FunctionExpr>(std::move(name), std::move(args));
}

const std::string* ColumnRefName(const Expr& e) {
  if (e.kind() != ExprKind::kColumnRef) return nullptr;
  return &static_cast<const ColumnRefExpr&>(e).name();
}

}  // namespace dipbench
