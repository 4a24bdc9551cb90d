#include "src/conformance/digest.h"

#include <algorithm>
#include <cstdio>

#include "src/common/string_util.h"

namespace dipbench {
namespace conformance {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// Sorts canonical rows by the schema-declared primary key, decoding
/// nothing: key cells are compared as encoded strings. CanonicalCell is
/// injective per value, so equal encodings mean equal (representation-
/// identical) values; the encoded-string ORDER is not Value::Compare
/// order, but any fixed total order canonicalizes equally well.
struct KeyedRowLess {
  const std::vector<size_t>* key;

  bool operator()(const std::pair<std::vector<std::string>, std::string>& a,
                  const std::pair<std::vector<std::string>, std::string>& b)
      const {
    for (size_t k : *key) {
      if (k >= a.first.size() || k >= b.first.size()) break;
      int c = a.first[k].compare(b.first[k]);
      if (c != 0) return c < 0;
    }
    return a.second < b.second;  // tie-break: whole encoded row
  }
};

}  // namespace

uint64_t HashBytes(uint64_t seed, std::string_view bytes) {
  uint64_t h = seed == 0 ? kFnvOffset : seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

std::string CanonicalCell(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return "~";
    case DataType::kBool:
      return v.AsBool() ? "b1" : "b0";
    case DataType::kInt64:
      return "i" + std::to_string(v.AsInt());
    case DataType::kDouble: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "d%a", v.AsDouble());
      return buf;
    }
    case DataType::kDate:
      return "t" + std::to_string(v.AsDate());
    case DataType::kString: {
      std::string_view s = v.AsString();
      std::string out = "s\"";
      for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
          out += '\\';
          out += static_cast<char>(c);
        } else if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\x%02x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
      }
      out += '"';
      return out;
    }
  }
  return "?";
}

std::string CanonicalRow(RowView row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += kCellSep;
    out += CanonicalCell(row[i]);
  }
  return out;
}

std::vector<std::string> SplitCanonicalRow(const std::string& row) {
  std::vector<std::string> cells;
  size_t start = 0;
  for (size_t i = 0; i <= row.size(); ++i) {
    if (i == row.size() || row[i] == kCellSep) {
      cells.push_back(row.substr(start, i - start));
      start = i + 1;
    }
  }
  return cells;
}

std::string StateDigest::Summary() const {
  size_t rows = 0;
  for (const DatabaseDigest& db : databases) {
    for (const TableDigest& t : db.tables) rows += t.rows.size();
  }
  return StrFormat("state=%016llx counters=%016llx rows=%zu ok=%d",
                   static_cast<unsigned long long>(state_hash),
                   static_cast<unsigned long long>(counters_hash), rows,
                   run_ok ? 1 : 0);
}

StateDigest CaptureStateDigest(Scenario* scenario) {
  StateDigest digest;
  std::vector<std::string> names = scenario->DatabaseNames();
  std::sort(names.begin(), names.end());

  uint64_t state_hash = 0;
  uint64_t counters_hash = 0;
  for (const std::string& db_name : names) {
    auto db_result = scenario->db(db_name);
    if (!db_result.ok()) continue;  // DatabaseNames() only lists live dbs
    Database* db = db_result.ValueOrDie();

    DatabaseDigest db_digest;
    db_digest.database = db_name;
    std::vector<std::string> tables = db->ListTables();
    std::sort(tables.begin(), tables.end());
    for (const std::string& table_name : tables) {
      auto table_result = db->GetTable(table_name);
      if (!table_result.ok()) continue;
      const Table* table = *table_result;

      TableDigest t;
      t.table = table_name;
      t.schema_text = table->schema().ToString();
      for (const Column& c : table->schema().columns()) {
        t.column_names.push_back(c.name);
      }
      t.primary_key = table->schema().primary_key();
      // Counters first: the content scan below bumps rows_read, and that
      // bump is digest machinery, not benchmark work.
      t.rows_read = table->rows_read();
      t.rows_written = table->rows_written();

      std::vector<std::pair<std::vector<std::string>, std::string>> keyed;
      keyed.reserve(table->size());
      table->ForEach([&](RowView row) {
        std::string encoded = CanonicalRow(row);
        keyed.emplace_back(SplitCanonicalRow(encoded), std::move(encoded));
      });
      std::sort(keyed.begin(), keyed.end(), KeyedRowLess{&t.primary_key});

      uint64_t h = HashBytes(0, db_name);
      h = HashBytes(h, table_name);
      h = HashBytes(h, t.schema_text);
      t.rows.reserve(keyed.size());
      for (auto& [cells, encoded] : keyed) {
        h = HashBytes(h, encoded);
        h = HashBytes(h, "\n");
        t.rows.push_back(std::move(encoded));
      }
      t.content_hash = h;

      state_hash = HashBytes(state_hash == 0 ? kFnvOffset : state_hash,
                             StrFormat("%016llx",
                                       static_cast<unsigned long long>(h)));
      counters_hash = HashBytes(
          counters_hash == 0 ? kFnvOffset : counters_hash,
          StrFormat("%s.%s:%llu/%llu;", db_name.c_str(), table_name.c_str(),
                    static_cast<unsigned long long>(t.rows_read),
                    static_cast<unsigned long long>(t.rows_written)));
      db_digest.tables.push_back(std::move(t));
    }
    digest.databases.push_back(std::move(db_digest));
  }
  digest.state_hash = state_hash;
  digest.counters_hash = counters_hash;
  return digest;
}

}  // namespace conformance
}  // namespace dipbench
