#ifndef DIPBENCH_TYPES_VALUE_H_
#define DIPBENCH_TYPES_VALUE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

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
///
/// A Value is one 16-byte cell. Strings of up to 14 bytes live in the
/// cell; a longer string lives in one immutable, reference-counted heap
/// buffer that every copy shares, so copying a cell never allocates. A
/// moved-from Value is NULL.
class alignas(8) Value {
 public:
  Value() noexcept = default;
  Value(const Value& other) noexcept : cell_(other.cell_) { Ref(); }
  Value(Value&& other) noexcept : cell_(other.cell_) {
    other.cell_.type = DataType::kNull;
  }
  Value& operator=(const Value& other) noexcept {
    if (this != &other) {
      other.Ref();  // before Release: both may share one buffer
      Release();
      cell_ = other.cell_;
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      cell_ = other.cell_;
      other.cell_.type = DataType::kNull;
    }
    return *this;
  }
  ~Value() { Release(); }

  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    return WithPayload(DataType::kBool, static_cast<int64_t>(b));
  }
  static Value Int(int64_t i) { return WithPayload(DataType::kInt64, i); }
  static Value Double(double d) { return WithPayload(DataType::kDouble, d); }
  /// Copies the bytes: into the cell when they fit, else into a new shared
  /// buffer. Accepts std::string, std::string_view and const char*.
  static Value String(std::string_view s);
  /// `yyyymmdd` e.g. 20080412.
  static Value Date(int64_t yyyymmdd) {
    return WithPayload(DataType::kDate, yyyymmdd);
  }
  static Value DateYmd(int year, int month, int day) {
    return Date(int64_t(year) * 10000 + month * 100 + day);
  }

  DataType type() const { return cell_.type; }
  bool is_null() const { return cell_.type == DataType::kNull; }

  /// Typed accessors. On a cell of another type each throws
  /// std::bad_variant_access, in every build. AsInt and AsDate accept both
  /// kInt64 and kDate.
  bool AsBool() const {
    Require(cell_.type == DataType::kBool);
    return Payload<int64_t>() != 0;
  }
  int64_t AsInt() const {
    Require(IsIntegral());
    return Payload<int64_t>();
  }
  double AsDouble() const {
    Require(cell_.type == DataType::kDouble);
    return Payload<double>();
  }
  /// A view of the string's bytes. For an inline string it points into this
  /// cell, so it dies when the cell is destroyed, assigned or moved (also
  /// when a std::vector<Value> holding it reallocates); for a heap string
  /// it lives while any cell shares the buffer.
  std::string_view AsString() const {
    Require(cell_.type == DataType::kString);
    return StringUnchecked();
  }
  int64_t AsDate() const {
    Require(IsIntegral());
    return Payload<int64_t>();
  }

  /// Numeric view: int64/double/bool/date widen to double; errors otherwise.
  Result<double> ToNumeric() const;
  /// Integer view: int64/bool/date; a double must be integral and within
  /// [-2^63, 2^63).
  Result<int64_t> ToInt() const;

  /// Best-effort cast used by projections and the data generator. A double
  /// outside [-2^63, 2^63) does not cast to kInt64 or kDate.
  Result<Value> CastTo(DataType target) const;

  /// Date component extraction (paper Fig. 3's built-in time dimension).
  /// Errors unless type is kDate.
  Result<int64_t> DateYear() const;
  Result<int64_t> DateMonth() const;

  /// Render for messages/CSV. NULL renders as empty string.
  std::string ToString() const;

  /// Parses a textual representation into the requested type. Integers and
  /// dates that overflow int64, and doubles that overflow or are not finite
  /// (nan, inf), are a ParseError.
  static Result<Value> Parse(std::string_view text, DataType target);

  /// Total ordering used by indexes, sort and DISTINCT. NULL sorts first.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Stable hash consistent with operator== (numeric family hashes by
  /// double representation of the value; strings as std::hash<std::string>).
  size_t Hash() const;

  /// Approximate in-memory footprint in bytes; used for communication-cost
  /// accounting (bytes shipped over simulated channels). Independent of the
  /// cell's representation: a string costs its length + 4.
  size_t ByteSize() const;

 private:
  /// The shared buffer of a long string: the count, then the bytes, in one
  /// allocation. The bytes never change after construction.
  struct HeapString {
    std::atomic<uint32_t> refs;
    char* bytes() { return reinterpret_cast<char*>(this + 1); }
  };

  /// Byte 0 is the tag. An inline string keeps its length in byte 1 and
  /// its bytes in bytes 2-15. A heap string has kHeapString in byte 1, its
  /// length in bytes 4-7 and the HeapString pointer in bytes 8-15. A bool,
  /// int64, date or double payload sits in bytes 8-15. Multi-byte fields
  /// are copied in and out with memcpy.
  struct Cell {
    DataType type = DataType::kNull;
    uint8_t str_size = 0;
    char bytes[14] = {};
  };
  static constexpr size_t kMaxInlineString = sizeof(Cell::bytes);
  static constexpr uint8_t kHeapString = 0xFF;
  static constexpr size_t kSizeAt = 2;     // heap length: cell offset 4
  static constexpr size_t kPayloadAt = 6;  // payload: cell offset 8

  template <typename T>
  static Value WithPayload(DataType type, T payload) {
    Value v;
    v.cell_.type = type;
    std::memcpy(v.cell_.bytes + kPayloadAt, &payload, sizeof(T));
    return v;
  }
  template <typename T>
  T Payload() const {
    T out{};
    std::memcpy(&out, cell_.bytes + kPayloadAt, sizeof(T));
    return out;
  }

  bool IsIntegral() const {
    return cell_.type == DataType::kInt64 || cell_.type == DataType::kDate;
  }
  bool IsHeap() const {
    return cell_.type == DataType::kString && cell_.str_size == kHeapString;
  }
  HeapString* Heap() const { return Payload<HeapString*>(); }
  std::string_view StringUnchecked() const {
    if (cell_.str_size != kHeapString) {
      return std::string_view(cell_.bytes, cell_.str_size);
    }
    uint32_t size = 0;
    std::memcpy(&size, cell_.bytes + kSizeAt, sizeof(size));
    return std::string_view(Heap()->bytes(), size);
  }

  void Ref() const {
    if (IsHeap()) Heap()->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void Release() {
    if (IsHeap() &&
        Heap()->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      FreeHeap(Heap());
    }
  }
  static void FreeHeap(HeapString* heap);

  /// Throws std::bad_variant_access unless `ok`.
  static void Require(bool ok) {
    if (!ok) ThrowBadAccess();
  }
  [[noreturn]] static void ThrowBadAccess();

  /// ToNumeric for a value known to be in the numeric family, without the
  /// Result wrapper (Compare and Hash run it on every key probe).
  double NumericUnchecked() const;

  Cell cell_;
};

static_assert(sizeof(Value) == 16, "a Value is one 16-byte cell");

}  // namespace dipbench

#endif  // DIPBENCH_TYPES_VALUE_H_
