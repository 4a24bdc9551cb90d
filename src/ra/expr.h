#ifndef DIPBENCH_RA_EXPR_H_
#define DIPBENCH_RA_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/types/schema.h"
#include "src/types/value.h"

namespace dipbench {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Where one logical column of a reference tuple lives: which of the
/// tuple's row pointers holds it, and at which offset of that row.
struct CellRef {
  uint32_t input = 0;
  uint32_t offset = 0;
};

/// The shape of a stream of reference tuples. A reference tuple is one
/// pointer per input, each to the first cell of a borrowed row, and the
/// cells read through `cells` form one logical row: a hash join emits the
/// probe tuple's pointers followed by the build tuple's instead of copying
/// both rows into a new one. Every row one input points to has that
/// input's `row_widths` entry of cells. A plain row is the one-input case:
/// the identity map (empty `cells`) over one row width.
struct TupleLayout {
  std::vector<CellRef> cells;      ///< one per logical column; empty = identity
  std::vector<size_t> row_widths;  ///< cells per row, one entry per input

  /// The plain layout over rows of `row_width` cells.
  static TupleLayout Plain(size_t row_width) { return {{}, {row_width}}; }

  /// Row pointers per tuple.
  size_t width() const { return row_widths.size(); }
  /// Cells in one logical row.
  size_t columns() const {
    return cells.empty() ? row_widths[0] : cells.size();
  }
  CellRef Cell(size_t column) const {
    return cells.empty() ? CellRef{0, static_cast<uint32_t>(column)}
                         : cells[column];
  }
};

/// A batch of reference tuples — the unit of vectorized evaluation. `ptrs`
/// holds size() * layout.width() row-start pointers, tuple-major; the
/// pointees live in table or RowSet storage (or an operator's batch
/// buffer), so no row is built just to be evaluated. Non-owning: the
/// pointer array and the layout must outlive the view.
class TupleRefs {
 public:
  TupleRefs(const Value* const* ptrs, size_t size, const TupleLayout& layout)
      : ptrs_(ptrs), size_(size), layout_(&layout) {}

  size_t size() const { return size_; }
  const TupleLayout& layout() const { return *layout_; }
  /// The layout().width() row pointers of tuple i.
  const Value* const* tuple(size_t i) const {
    return ptrs_ + i * layout_->width();
  }
  /// The cell at `c` of tuple i (`c` already checked by Resolve).
  const Value& at(size_t i, CellRef c) const {
    return tuple(i)[c.input][c.offset];
  }

  /// Resolves column `name` of `schema` to its cell, checking that the
  /// rows of its input are wide enough to hold it (once for the batch: an
  /// input's rows share one width).
  Result<CellRef> Resolve(const std::string& name, const Schema& schema) const;
  /// Appends every tuple's logical row to *out (the fallback for code
  /// without a tuple path), checking the layout against the row widths
  /// once for the batch.
  Status AppendTo(RowSlab* out) const;

 private:
  const Value* const* ptrs_;
  size_t size_;
  const TupleLayout* layout_;
};

/// Expression node kinds.
enum class ExprKind {
  kLiteral,
  kColumnRef,
  kCompare,     // = != < <= > >=
  kLogical,     // AND OR NOT
  kArithmetic,  // + - * /  (numeric) and string concatenation for +
  kIsNull,
  kFunction,  // named scalar function
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicalOp { kAnd, kOr, kNot };
enum class ArithmeticOp { kAdd, kSub, kMul, kDiv, kMod };

/// An immutable expression tree evaluated against (row, schema) pairs.
/// Column references are by name and resolved per evaluation against the
/// input schema — simple and adequate for the table widths this engine uses.
///
/// Supported scalar functions (the ones the process types and the
/// warehouse verification use):
///   year(d), month(d)             — date component extraction
///   coalesce(a, b, ...)           — first non-NULL
///   decode(x, k1, v1, ..., [dft]) — Oracle-style value mapping
class Expr {
 public:
  virtual ~Expr() = default;

  virtual ExprKind kind() const = 0;

  /// Evaluates against one row. Type errors surface as Status.
  virtual Result<Value> Eval(RowView row, const Schema& schema) const = 0;

  /// Evaluates against a whole batch of reference tuples at once: `*out` is
  /// resized to `rows.size()` and out[i] receives the value for tuple i,
  /// whose columns `schema` names. The base implementation materializes
  /// the batch and loops the scalar Eval; concrete nodes override it with
  /// tight loops that resolve each column to its cell once per batch, read
  /// it in place, and skip the per-row virtual dispatch into their
  /// children. Semantics are identical to row-at-a-time evaluation (AND/OR
  /// short-circuiting included); only the order in which per-row type
  /// errors are discovered may differ.
  virtual Status EvalBatch(const TupleRefs& rows, const Schema& schema,
                           std::vector<Value>* out) const;

  virtual std::string ToString() const = 0;
};

/// Constructors (free functions keep call sites compact).
ExprPtr Lit(Value v);
ExprPtr Lit(int64_t v);
ExprPtr Lit(double v);
ExprPtr Lit(const char* v);
ExprPtr Col(std::string name);
ExprPtr Cmp(CompareOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ne(ExprPtr lhs, ExprPtr rhs);
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Le(ExprPtr lhs, ExprPtr rhs);
ExprPtr Gt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ge(ExprPtr lhs, ExprPtr rhs);
ExprPtr And(ExprPtr lhs, ExprPtr rhs);
ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
ExprPtr Not(ExprPtr operand);
ExprPtr Arith(ArithmeticOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Add(ExprPtr lhs, ExprPtr rhs);
ExprPtr Sub(ExprPtr lhs, ExprPtr rhs);
ExprPtr Mul(ExprPtr lhs, ExprPtr rhs);
ExprPtr Div(ExprPtr lhs, ExprPtr rhs);
ExprPtr IsNull(ExprPtr operand);
ExprPtr Func(std::string name, std::vector<ExprPtr> args);

/// Non-null iff `e` is a bare column reference; points at its column name.
/// Lets operators (projection) read referenced columns in place instead of
/// routing them through a value buffer.
const std::string* ColumnRefName(const Expr& e);

}  // namespace dipbench

#endif  // DIPBENCH_RA_EXPR_H_
