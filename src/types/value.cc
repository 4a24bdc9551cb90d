#include "src/types/value.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <new>
#include <stdexcept>
#include <variant>

#include "src/common/string_util.h"

namespace dipbench {

const char* DataTypeToString(DataType t) {
  switch (t) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return "BOOL";
    case DataType::kInt64:
      return "INT64";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
    case DataType::kDate:
      return "DATE";
  }
  return "?";
}

namespace {

/// Whether `d` truncates to an int64 without overflow: [-2^63, 2^63).
bool FitsInt64(double d) {
  return d >= -9223372036854775808.0 && d < 9223372036854775808.0;
}

}  // namespace

Value Value::String(std::string_view s) {
  Value v;
  v.cell_.type = DataType::kString;
  if (s.size() <= kMaxInlineString) {
    v.cell_.str_size = static_cast<uint8_t>(s.size());
    s.copy(v.cell_.bytes, s.size());
    return v;
  }
  if (s.size() > UINT32_MAX) {
    throw std::length_error("Value::String: longer than 4 GiB - 1");
  }
  auto* heap =
      new (::operator new(sizeof(HeapString) + s.size())) HeapString{1};
  s.copy(heap->bytes(), s.size());
  const auto size = static_cast<uint32_t>(s.size());
  v.cell_.str_size = kHeapString;
  std::memcpy(v.cell_.bytes + kSizeAt, &size, sizeof(size));
  std::memcpy(v.cell_.bytes + kPayloadAt, &heap, sizeof(heap));
  return v;
}

void Value::FreeHeap(HeapString* heap) {
  heap->~HeapString();
  ::operator delete(heap);
}

void Value::ThrowBadAccess() { throw std::bad_variant_access(); }

Result<double> Value::ToNumeric() const {
  switch (type()) {
    case DataType::kBool:
      return AsBool() ? 1.0 : 0.0;
    case DataType::kInt64:
      return static_cast<double>(AsInt());
    case DataType::kDouble:
      return AsDouble();
    case DataType::kDate:
      return static_cast<double>(AsDate());
    default:
      return Status::TypeMismatch(std::string("not numeric: ") +
                                  DataTypeToString(type()));
  }
}

Result<int64_t> Value::ToInt() const {
  switch (type()) {
    case DataType::kBool:
      return AsBool() ? int64_t{1} : int64_t{0};
    case DataType::kInt64:
      return AsInt();
    case DataType::kDate:
      return AsDate();
    case DataType::kDouble: {
      double d = AsDouble();
      if (d != std::floor(d)) {
        return Status::TypeMismatch("double has fractional part");
      }
      if (!FitsInt64(d)) return Status::TypeMismatch("double overflows INT64");
      return static_cast<int64_t>(d);
    }
    default:
      return Status::TypeMismatch(std::string("not integral: ") +
                                  DataTypeToString(type()));
  }
}

Result<Value> Value::CastTo(DataType target) const {
  if (type() == target) return *this;
  if (is_null()) return Value::Null();
  switch (target) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool: {
      DIP_ASSIGN_OR_RETURN(double d, ToNumeric());
      return Value::Bool(d != 0.0);
    }
    case DataType::kInt64: {
      if (type() == DataType::kString) {
        return Parse(AsString(), DataType::kInt64);
      }
      if (type() == DataType::kDouble) {
        double d = AsDouble();  // truncated toward zero
        if (!FitsInt64(d)) {
          return Status::TypeMismatch("double overflows INT64");
        }
        return Value::Int(static_cast<int64_t>(d));
      }
      DIP_ASSIGN_OR_RETURN(int64_t i, ToInt());
      return Value::Int(i);
    }
    case DataType::kDouble: {
      if (type() == DataType::kString) {
        return Parse(AsString(), DataType::kDouble);
      }
      DIP_ASSIGN_OR_RETURN(double d, ToNumeric());
      return Value::Double(d);
    }
    case DataType::kString:
      return Value::String(ToString());
    case DataType::kDate: {
      if (type() == DataType::kString) {
        return Parse(AsString(), DataType::kDate);
      }
      DIP_ASSIGN_OR_RETURN(int64_t i, ToInt());
      return Value::Date(i);
    }
  }
  return Status::TypeMismatch("unsupported cast");
}

Result<int64_t> Value::DateYear() const {
  if (type() != DataType::kDate) return Status::TypeMismatch("not a date");
  return AsDate() / 10000;
}

Result<int64_t> Value::DateMonth() const {
  if (type() != DataType::kDate) return Status::TypeMismatch("not a date");
  return (AsDate() / 100) % 100;
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull:
      return "";
    case DataType::kBool:
      return AsBool() ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(AsInt());
    case DataType::kDouble: {
      std::string s = StrFormat("%.6g", AsDouble());
      return s;
    }
    case DataType::kString:
      return std::string(StringUnchecked());
    case DataType::kDate:
      return std::to_string(AsDate());
  }
  return "";
}

Result<Value> Value::Parse(std::string_view text, DataType target) {
  switch (target) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool: {
      std::string lower = StrLower(StrTrim(text));
      if (lower == "true" || lower == "1") return Value::Bool(true);
      if (lower == "false" || lower == "0") return Value::Bool(false);
      return Status::ParseError("not a bool: " + std::string(text));
    }
    case DataType::kInt64:
    case DataType::kDate: {
      std::string t(StrTrim(text));
      if (t.empty()) return Value::Null();
      char* end = nullptr;
      errno = 0;
      long long v = std::strtoll(t.c_str(), &end, 10);
      if (end == t.c_str() || *end != '\0') {
        return Status::ParseError("not an integer: " + std::string(text));
      }
      if (errno == ERANGE) {
        return Status::ParseError("integer overflows INT64: " +
                                  std::string(text));
      }
      return target == DataType::kInt64 ? Value::Int(v) : Value::Date(v);
    }
    case DataType::kDouble: {
      std::string t(StrTrim(text));
      if (t.empty()) return Value::Null();
      char* end = nullptr;
      double v = std::strtod(t.c_str(), &end);
      if (end == t.c_str() || *end != '\0') {
        return Status::ParseError("not a double: " + std::string(text));
      }
      // nan, inf and overflow; an underflow to a denormal or 0 is kept.
      if (!std::isfinite(v)) {
        return Status::ParseError("not a finite double: " + std::string(text));
      }
      return Value::Double(v);
    }
    case DataType::kString:
      return Value::String(text);
  }
  return Status::ParseError("unknown target type");
}

namespace {

bool IsNumericFamily(DataType t) {
  return t == DataType::kBool || t == DataType::kInt64 ||
         t == DataType::kDouble || t == DataType::kDate;
}

}  // namespace

double Value::NumericUnchecked() const {
  switch (type()) {
    case DataType::kBool:
      return Payload<int64_t>() != 0 ? 1.0 : 0.0;
    case DataType::kDouble:
      return Payload<double>();
    default:  // kInt64, kDate
      return static_cast<double>(Payload<int64_t>());
  }
}

int Value::Compare(const Value& other) const {
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  if (IsNumericFamily(type()) && IsNumericFamily(other.type())) {
    double a = NumericUnchecked();
    double b = other.NumericUnchecked();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (type() == DataType::kString && other.type() == DataType::kString) {
    return StringUnchecked().compare(other.StringUnchecked());
  }
  // Heterogeneous non-comparable types: order by type tag for determinism.
  return static_cast<int>(type()) < static_cast<int>(other.type()) ? -1 : 1;
}

size_t Value::Hash() const {
  switch (type()) {
    case DataType::kNull:
      return 0x9E3779B9u;
    case DataType::kBool:
    case DataType::kInt64:
    case DataType::kDouble:
    case DataType::kDate: {
      // Hash via the numeric value so 1 == 1.0 hash-agree with Compare().
      double d = NumericUnchecked();
      if (d == 0.0) d = 0.0;  // normalize -0.0
      return std::hash<double>()(d);
    }
    case DataType::kString:
      // Equal to std::hash<std::string> of the same bytes.
      return std::hash<std::string_view>()(StringUnchecked());
  }
  return 0;
}

size_t Value::ByteSize() const {
  switch (type()) {
    case DataType::kNull:
      return 1;
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kDouble:
    case DataType::kDate:
      return 8;
    case DataType::kString:
      return StringUnchecked().size() + 4;
  }
  return 0;
}

}  // namespace dipbench
