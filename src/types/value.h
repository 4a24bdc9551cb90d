#ifndef DIPBENCH_TYPES_VALUE_H_
#define DIPBENCH_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "src/common/result.h"
#include "src/common/status.h"

namespace dipbench {

/// Column data types supported by the storage engine. kDate is stored as an
/// int32 day key in YYYYMMDD form (the DWH time dimension uses the built-in
/// extraction functions Day()/Month()/Year() on it, as in paper Fig. 3).
enum class DataType : uint8_t {
  kNull = 0,
  kBool,
  kInt64,
  kDouble,
  kString,
  kDate,
};

const char* DataTypeToString(DataType t);

/// A dynamically typed cell value. Values are ordered within the same type
/// family (integers and doubles compare numerically with each other); NULL
/// compares less than every non-NULL value, and NULL == NULL holds for the
/// purposes of DISTINCT/GROUP BY (SQL semantics are intentionally simplified
/// to keep the engine deterministic).
class Value {
 public:
  Value() : type_(DataType::kNull) {}
  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    Value v;
    v.type_ = DataType::kBool;
    v.data_ = b;
    return v;
  }
  static Value Int(int64_t i) {
    Value v;
    v.type_ = DataType::kInt64;
    v.data_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = DataType::kDouble;
    v.data_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type_ = DataType::kString;
    v.data_ = std::move(s);
    return v;
  }
  /// `yyyymmdd` e.g. 20080412.
  static Value Date(int64_t yyyymmdd) {
    Value v;
    v.type_ = DataType::kDate;
    v.data_ = yyyymmdd;
    return v;
  }
  static Value DateYmd(int year, int month, int day) {
    return Date(int64_t(year) * 10000 + month * 100 + day);
  }

  DataType type() const { return type_; }
  bool is_null() const { return type_ == DataType::kNull; }

  bool AsBool() const { return std::get<bool>(data_); }
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  int64_t AsDate() const { return std::get<int64_t>(data_); }

  /// Numeric view: int64/double/bool/date widen to double; errors otherwise.
  Result<double> ToNumeric() const;
  /// Integer view: int64/bool/date; a double must be integral.
  Result<int64_t> ToInt() const;

  /// Best-effort cast used by projections and the data generator.
  Result<Value> CastTo(DataType target) const;

  /// Date component extraction (paper Fig. 3's built-in time dimension).
  /// Errors unless type is kDate.
  Result<int64_t> DateYear() const;
  Result<int64_t> DateMonth() const;
  Result<int64_t> DateDay() const;

  /// Render for messages/CSV. NULL renders as empty string.
  std::string ToString() const;

  /// Parses a textual representation into the requested type.
  static Result<Value> Parse(const std::string& text, DataType target);

  /// Total ordering used by indexes, sort and DISTINCT. NULL sorts first.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Stable hash consistent with operator== (numeric family hashes by
  /// double representation of the value).
  size_t Hash() const;

  /// Approximate in-memory footprint in bytes; used for communication-cost
  /// accounting (bytes shipped over simulated channels).
  size_t ByteSize() const;

 private:
  /// ToNumeric for a value known to be in the numeric family, without the
  /// Result wrapper (Compare and Hash run it on every key probe).
  double NumericUnchecked() const;

  DataType type_;
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace dipbench

#endif  // DIPBENCH_TYPES_VALUE_H_
