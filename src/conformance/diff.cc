#include "src/conformance/diff.h"

#include <algorithm>

#include "src/common/string_util.h"

namespace dipbench {
namespace conformance {

namespace {

constexpr const char* kAbsent = "<absent>";

/// Compares two canonical rows by the table's primary-key columns,
/// mirroring digest capture's sort order so a two-pointer merge pairs
/// rows with equal keys. Returns <0, 0, >0.
int CompareByKey(const std::vector<std::string>& a_cells,
                 const std::string& a_row,
                 const std::vector<std::string>& b_cells,
                 const std::string& b_row, const std::vector<size_t>& key) {
  for (size_t k : key) {
    if (k >= a_cells.size() || k >= b_cells.size()) break;
    int c = a_cells[k].compare(b_cells[k]);
    if (c != 0) return c;
  }
  return a_row.compare(b_row);
}

/// Key-columns-only comparison: 0 means "same logical row identity".
/// With an empty primary key every cell is identity — whole-row equality.
bool SameKey(const std::vector<std::string>& a_cells,
             const std::string& a_row,
             const std::vector<std::string>& b_cells,
             const std::string& b_row, const std::vector<size_t>& key) {
  if (key.empty()) return a_row == b_row;
  for (size_t k : key) {
    if (k >= a_cells.size() || k >= b_cells.size()) return a_row == b_row;
    if (a_cells[k] != b_cells[k]) return false;
  }
  return true;
}

std::string KeyOf(const std::vector<std::string>& cells,
                  const std::string& row, const std::vector<size_t>& key) {
  if (key.empty()) return row;
  std::string out;
  for (size_t k : key) {
    if (!out.empty()) out += ',';
    out += k < cells.size() ? cells[k] : "?";
  }
  return out;
}

/// First line where the two texts differ, for the monitor/verification
/// sections: "line 4: <left> != <right>".
std::string FirstLineDiff(const std::string& a, const std::string& b) {
  size_t line = 1, ia = 0, ib = 0;
  while (ia < a.size() || ib < b.size()) {
    size_t ea = a.find('\n', ia);
    size_t eb = b.find('\n', ib);
    std::string la = a.substr(ia, (ea == std::string::npos ? a.size() : ea) -
                                      ia);
    std::string lb = b.substr(ib, (eb == std::string::npos ? b.size() : eb) -
                                      ib);
    if (la != lb) {
      return StrFormat("line %zu: \"%s\" != \"%s\"", line, la.c_str(),
                       lb.c_str());
    }
    if (ea == std::string::npos || eb == std::string::npos) break;
    ia = ea + 1;
    ib = eb + 1;
    ++line;
  }
  return "texts diverge in length only";
}

/// Readable form of a canonical row: cell separator rendered as '|'.
std::string Pretty(const std::string& canonical) {
  std::string out = canonical;
  std::replace(out.begin(), out.end(), kCellSep, '|');
  return out;
}

class Differ {
 public:
  Differ(const PairContext& ctx, const std::vector<AllowRule>& allowlist)
      : ctx_(ctx), allowlist_(allowlist) {}

  void Add(DiffEntry entry) {
    ApplyAllowlist(&entry);
    ++diff_.total_diffs;
    if (!entry.allowlisted) ++diff_.violations;
    if (diff_.entries.size() < DigestDiff::kMaxEntries) {
      diff_.entries.push_back(std::move(entry));
    }
  }

  DigestDiff Take() { return std::move(diff_); }

 private:
  void ApplyAllowlist(DiffEntry* entry) {
    for (const AllowRule& rule : allowlist_) {
      if (rule.section != entry->section) continue;
      if (rule.requires_engine_mismatch && !ctx_.engines_differ()) continue;
      if (!rule.key.empty() && rule.key != entry->key) continue;
      entry->allowlisted = true;
      entry->rule = rule.name;
      return;
    }
  }

  const PairContext& ctx_;
  const std::vector<AllowRule>& allowlist_;
  DigestDiff diff_;
};

void DiffTableRows(const std::string& db_name, const TableDigest& a,
                   const TableDigest& b, Differ* differ) {
  const std::vector<size_t>& key = a.primary_key;
  size_t ia = 0, ib = 0;
  while (ia < a.rows.size() || ib < b.rows.size()) {
    if (ia == a.rows.size() || ib == b.rows.size()) {
      bool from_a = ib == b.rows.size();
      const std::string& row = from_a ? a.rows[ia] : b.rows[ib];
      std::vector<std::string> cells = SplitCanonicalRow(row);
      DiffEntry e;
      e.section = Section::kRows;
      e.database = db_name;
      e.table = a.table;
      e.key = KeyOf(cells, row, key);
      e.left = from_a ? Pretty(row) : kAbsent;
      e.right = from_a ? kAbsent : Pretty(row);
      differ->Add(std::move(e));
      (from_a ? ia : ib)++;
      continue;
    }
    const std::string& ra = a.rows[ia];
    const std::string& rb = b.rows[ib];
    if (ra == rb) {
      ++ia;
      ++ib;
      continue;
    }
    std::vector<std::string> ca = SplitCanonicalRow(ra);
    std::vector<std::string> cb = SplitCanonicalRow(rb);
    if (SameKey(ca, ra, cb, rb, key)) {
      // Same logical row, divergent content: pinpoint the first cell.
      DiffEntry e;
      e.section = Section::kRows;
      e.database = db_name;
      e.table = a.table;
      e.key = KeyOf(ca, ra, key);
      for (size_t c = 0; c < std::max(ca.size(), cb.size()); ++c) {
        std::string va = c < ca.size() ? ca[c] : kAbsent;
        std::string vb = c < cb.size() ? cb[c] : kAbsent;
        if (va != vb) {
          e.column = static_cast<int>(c);
          e.column_name = c < a.column_names.size() ? a.column_names[c]
                                                    : std::to_string(c);
          e.left = va;
          e.right = vb;
          break;
        }
      }
      differ->Add(std::move(e));
      ++ia;
      ++ib;
      continue;
    }
    // Different keys: the smaller-sorting row exists on one side only.
    bool a_first = CompareByKey(ca, ra, cb, rb, key) < 0;
    const std::string& row = a_first ? ra : rb;
    DiffEntry e;
    e.section = Section::kRows;
    e.database = db_name;
    e.table = a.table;
    e.key = KeyOf(a_first ? ca : cb, row, key);
    e.left = a_first ? Pretty(row) : kAbsent;
    e.right = a_first ? kAbsent : Pretty(row);
    differ->Add(std::move(e));
    (a_first ? ia : ib)++;
  }
}

void DiffCounter(const std::string& db_name, const std::string& table,
                 const char* which, uint64_t va, uint64_t vb,
                 Differ* differ) {
  if (va == vb) return;
  DiffEntry e;
  e.section = Section::kCounters;
  e.database = db_name;
  e.table = table;
  e.key = which;
  e.left = std::to_string(va);
  e.right = std::to_string(vb);
  differ->Add(std::move(e));
}

void DiffTables(const std::string& db_name, const DatabaseDigest& a,
                const DatabaseDigest& b, Differ* differ) {
  size_t ia = 0, ib = 0;
  auto missing = [&](const TableDigest& t, bool in_a) {
    DiffEntry e;
    e.section = Section::kSchema;
    e.database = db_name;
    e.table = t.table;
    e.key = "table";
    e.left = in_a ? t.schema_text : kAbsent;
    e.right = in_a ? kAbsent : t.schema_text;
    differ->Add(std::move(e));
  };
  while (ia < a.tables.size() || ib < b.tables.size()) {
    if (ib == b.tables.size() ||
        (ia < a.tables.size() &&
         a.tables[ia].table < b.tables[ib].table)) {
      missing(a.tables[ia++], true);
      continue;
    }
    if (ia == a.tables.size() || b.tables[ib].table < a.tables[ia].table) {
      missing(b.tables[ib++], false);
      continue;
    }
    const TableDigest& ta = a.tables[ia++];
    const TableDigest& tb = b.tables[ib++];
    if (ta.schema_text != tb.schema_text) {
      DiffEntry e;
      e.section = Section::kSchema;
      e.database = db_name;
      e.table = ta.table;
      e.key = "schema";
      e.left = ta.schema_text;
      e.right = tb.schema_text;
      differ->Add(std::move(e));
      continue;  // cell indexes would not line up
    }
    if (ta.content_hash != tb.content_hash || ta.rows != tb.rows) {
      DiffTableRows(db_name, ta, tb, differ);
    }
    DiffCounter(db_name, ta.table, "rows_read", ta.rows_read, tb.rows_read,
                differ);
    DiffCounter(db_name, ta.table, "rows_written", ta.rows_written,
                tb.rows_written, differ);
  }
}

}  // namespace

const char* SectionName(Section s) {
  switch (s) {
    case Section::kRun:
      return "run";
    case Section::kSchema:
      return "schema";
    case Section::kRows:
      return "rows";
    case Section::kCounters:
      return "counters";
    case Section::kMonitor:
      return "monitor";
    case Section::kVerification:
      return "verification";
    case Section::kRecovery:
      return "recovery";
  }
  return "?";
}

std::string PairContext::ToString() const {
  return engine_a + " vs " + engine_b;
}

std::string DiffEntry::ToString() const {
  std::string where = SectionName(section);
  if (!database.empty()) {
    where += " " + database;
    if (!table.empty()) where += "." + table;
  }
  if (!key.empty()) where += " key=" + key;
  std::string what;
  if (column >= 0) {
    what = StrFormat("cell %s: %s != %s", column_name.c_str(), left.c_str(),
                     right.c_str());
  } else {
    what = left + " != " + right;
  }
  std::string out = where + ": " + what;
  if (allowlisted) out += " [allowlisted: " + rule + "]";
  return out;
}

const std::vector<AllowRule>& DocumentedAllowlist() {
  static const std::vector<AllowRule>* rules = [] {
    auto* r = new std::vector<AllowRule>();
    r->push_back(AllowRule{
        "engine-cost-model",
        "Monitor CSVs embed the engine's cost weights; they compare only "
        "within one engine",
        Section::kMonitor, /*requires_engine_mismatch=*/true, /*key=*/""});
    r->push_back(AllowRule{
        "engine-failure-text",
        "when both runs fail, error text may name engine internals; the "
        "ok-flag itself must still agree",
        Section::kRun, /*requires_engine_mismatch=*/true, /*key=*/"error"});
    return r;
  }();
  return *rules;
}

std::string DigestDiff::ToString() const {
  if (identical()) return "identical";
  std::string out =
      StrFormat("%zu divergence(s), %zu violation(s)", total_diffs,
                violations);
  // Lead with the first violation — the pinpointed "first divergent
  // database/table/row/cell" a reader wants.
  for (const DiffEntry& e : entries) {
    if (!e.allowlisted) {
      out += "\n  first violation: " + e.ToString();
      break;
    }
  }
  for (const DiffEntry& e : entries) {
    out += "\n  " + e.ToString();
  }
  if (total_diffs > entries.size()) {
    out += StrFormat("\n  ... %zu more", total_diffs - entries.size());
  }
  return out;
}

DigestDiff DiffDigests(const StateDigest& a, const StateDigest& b,
                       const PairContext& ctx,
                       const std::vector<AllowRule>& allowlist) {
  Differ differ(ctx, allowlist);

  if (a.run_ok != b.run_ok) {
    DiffEntry e;
    e.section = Section::kRun;
    e.key = "ok";
    e.left = a.run_ok ? "ok" : "failed: " + a.run_error;
    e.right = b.run_ok ? "ok" : "failed: " + b.run_error;
    differ.Add(std::move(e));
    return differ.Take();
  }
  if (!a.run_ok) {
    if (a.run_error != b.run_error) {
      DiffEntry e;
      e.section = Section::kRun;
      e.key = "error";
      e.left = a.run_error;
      e.right = b.run_error;
      differ.Add(std::move(e));
    }
    // Both runs failed (identically or allowlisted-differently): the
    // partial landscape is not part of the contract.
    return differ.Take();
  }

  // Databases: both sides sorted by name.
  size_t ia = 0, ib = 0;
  auto missing_db = [&](const DatabaseDigest& db, bool in_a) {
    DiffEntry e;
    e.section = Section::kSchema;
    e.database = db.database;
    e.key = "database";
    e.left = in_a ? "present" : kAbsent;
    e.right = in_a ? kAbsent : "present";
    differ.Add(std::move(e));
  };
  while (ia < a.databases.size() || ib < b.databases.size()) {
    if (ib == b.databases.size() ||
        (ia < a.databases.size() &&
         a.databases[ia].database < b.databases[ib].database)) {
      missing_db(a.databases[ia++], true);
      continue;
    }
    if (ia == a.databases.size() ||
        b.databases[ib].database < a.databases[ia].database) {
      missing_db(b.databases[ib++], false);
      continue;
    }
    const DatabaseDigest& da = a.databases[ia++];
    const DatabaseDigest& db = b.databases[ib++];
    DiffTables(da.database, da, db, &differ);
  }

  if (a.monitor_csv != b.monitor_csv) {
    DiffEntry e;
    e.section = Section::kMonitor;
    e.key = "csv";
    std::string where = FirstLineDiff(a.monitor_csv, b.monitor_csv);
    e.left = where;
    e.right = "(see left)";
    differ.Add(std::move(e));
  }
  if (a.verification != b.verification) {
    DiffEntry e;
    e.section = Section::kVerification;
    e.key = "report";
    std::string where = FirstLineDiff(a.verification, b.verification);
    e.left = where;
    e.right = "(see left)";
    differ.Add(std::move(e));
  }
  if (a.retries != b.retries) {
    DiffEntry e;
    e.section = Section::kRecovery;
    e.key = "retries";
    e.left = std::to_string(a.retries);
    e.right = std::to_string(b.retries);
    differ.Add(std::move(e));
  }
  if (a.dead_letters != b.dead_letters) {
    DiffEntry e;
    e.section = Section::kRecovery;
    e.key = "dead_letters";
    e.left = std::to_string(a.dead_letters);
    e.right = std::to_string(b.dead_letters);
    differ.Add(std::move(e));
  }
  return differ.Take();
}

}  // namespace conformance
}  // namespace dipbench
