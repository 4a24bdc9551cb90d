#include "src/conformance/repro.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/common/json.h"
#include "src/common/string_util.h"

namespace dipbench {
namespace conformance {

namespace {

std::string QuoteJson(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  out += '"';
  return out;
}

std::string NumberText(double d) {
  if (d == std::floor(d) && std::abs(d) < 9007199254740992.0) {
    return StrFormat("%.0f", d);
  }
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

/// Re-serializes a parsed json::Value — used to pull the embedded
/// "manifest" object back out of a repro file as standalone text that the
/// strict manifest reader can consume.
void SerializeValue(const json::Value& v, int indent, std::string* out) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string pad_in(static_cast<size_t>(indent + 1) * 2, ' ');
  switch (v.kind) {
    case json::Value::Kind::kNull:
      *out += "null";
      return;
    case json::Value::Kind::kBool:
      *out += v.bool_value ? "true" : "false";
      return;
    case json::Value::Kind::kNumber:
      *out += NumberText(v.number_value);
      return;
    case json::Value::Kind::kString:
      *out += QuoteJson(v.string_value);
      return;
    case json::Value::Kind::kArray:
      if (v.items.empty()) {
        *out += "[]";
        return;
      }
      *out += "[\n";
      for (size_t i = 0; i < v.items.size(); ++i) {
        *out += pad_in;
        SerializeValue(v.items[i], indent + 1, out);
        *out += i + 1 < v.items.size() ? ",\n" : "\n";
      }
      *out += pad + "]";
      return;
    case json::Value::Kind::kObject:
      if (v.members.empty()) {
        *out += "{}";
        return;
      }
      *out += "{\n";
      for (size_t i = 0; i < v.members.size(); ++i) {
        *out += pad_in + QuoteJson(v.members[i].first) + ": ";
        SerializeValue(v.members[i].second, indent + 1, out);
        *out += i + 1 < v.members.size() ? ",\n" : "\n";
      }
      *out += pad + "}";
      return;
  }
}

/// Indents every line of already-rendered JSON text by `spaces` (for
/// embedding the manifest inside the repro object).
std::string IndentBlock(const std::string& text, int spaces) {
  std::string pad(static_cast<size_t>(spaces), ' ');
  std::string out;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (start > 0) out += pad;
    out += text.substr(start, end - start);
    if (end < text.size()) out += "\n";
    start = end + 1;
  }
  while (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

}  // namespace

Repro MakeRepro(const ShrinkResult& shrunk, uint64_t master_seed,
                size_t case_index, const std::string& note) {
  Repro repro;
  repro.note = note;
  repro.master_seed = master_seed;
  repro.case_index = case_index;
  repro.manifest_json = shrunk.json;
  repro.cells = {shrunk.cell_a, shrunk.cell_b};
  return repro;
}

std::string ReproToJson(const Repro& repro) {
  std::string out = "{\n";
  out += "  \"dipbench_repro\": 1,\n";
  out += "  \"note\": " + QuoteJson(repro.note) + ",\n";
  out += "  \"master_seed\": " + std::to_string(repro.master_seed) + ",\n";
  out += "  \"case_index\": " + std::to_string(repro.case_index) + ",\n";
  out += "  \"cells\": [\n";
  for (size_t i = 0; i < repro.cells.size(); ++i) {
    const MatrixCell& cell = repro.cells[i];
    out += "    {\"engine\": " + QuoteJson(cell.engine) + "}";
    out += i + 1 < repro.cells.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"manifest\": " + IndentBlock(repro.manifest_json, 2) + "\n";
  out += "}\n";
  return out;
}

Result<Repro> ReproFromJsonText(std::string_view text,
                                const std::string& origin) {
  Result<json::Value> parsed = json::Parse(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument(origin + ": " +
                                   parsed.status().message());
  }
  const json::Value& root = *parsed;
  if (!root.is_object()) {
    return Status::InvalidArgument(origin + ": repro must be an object");
  }
  auto err = [&origin](const json::Value& v, const std::string& msg) {
    return Status::InvalidArgument(origin + ": " + v.Where() + ": " + msg);
  };

  const json::Value* marker = root.Find("dipbench_repro");
  if (marker == nullptr || !marker->is_number() ||
      marker->number_value != 1.0) {
    return Status::InvalidArgument(
        origin + ": not a dipbench repro (missing \"dipbench_repro\": 1)");
  }

  Repro repro;
  if (const json::Value* note = root.Find("note")) {
    if (!note->is_string()) return err(*note, "'note' must be a string");
    repro.note = note->string_value;
  }
  if (const json::Value* seed = root.Find("master_seed")) {
    if (!seed->is_number()) {
      return err(*seed, "'master_seed' must be a number");
    }
    repro.master_seed = static_cast<uint64_t>(seed->number_value);
  }
  if (const json::Value* index = root.Find("case_index")) {
    if (!index->is_number()) {
      return err(*index, "'case_index' must be a number");
    }
    repro.case_index = static_cast<size_t>(index->number_value);
  }

  const json::Value* cells = root.Find("cells");
  if (cells == nullptr || !cells->is_array() || cells->items.empty()) {
    return Status::InvalidArgument(
        origin + ": repro must list at least one cell");
  }
  for (const json::Value& item : cells->items) {
    if (!item.is_object()) return err(item, "cell must be an object");
    for (const auto& [key, value] : item.members) {
      if (key != "engine") {
        return err(value,
                   "unknown cell key '" + key + "' (expected engine)");
      }
    }
    MatrixCell cell;
    if (const json::Value* engine = item.Find("engine")) {
      if (!engine->is_string()) {
        return err(*engine, "'engine' must be a string");
      }
      cell.engine = engine->string_value;
    }
    repro.cells.push_back(std::move(cell));
  }

  const json::Value* manifest = root.Find("manifest");
  if (manifest == nullptr || !manifest->is_object()) {
    return Status::InvalidArgument(
        origin + ": repro must embed a 'manifest' object");
  }
  SerializeValue(*manifest, 0, &repro.manifest_json);
  repro.manifest_json += "\n";
  // Validate the extracted manifest now — a repro that cannot replay is
  // an error at load time, not at run time.
  DIP_RETURN_NOT_OK(scenario::ScenarioManifest::FromJsonText(
                        repro.manifest_json, origin + " (manifest)")
                        .status());
  return repro;
}

Result<Repro> LoadRepro(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot read repro '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReproFromJsonText(buffer.str(), path);
}

Result<CaseResult> ReplayRepro(const Repro& repro, const FuzzOptions& opt) {
  FuzzCase fuzz_case;
  fuzz_case.index = repro.case_index;
  fuzz_case.json = repro.manifest_json;
  DIP_ASSIGN_OR_RETURN(fuzz_case.manifest,
                       scenario::ScenarioManifest::FromJsonText(
                           repro.manifest_json, "<repro manifest>"));
  fuzz_case.case_seed = fuzz_case.manifest.config.seed;

  FuzzOptions replay = opt;
  replay.matrix = repro.cells;
  return RunCase(fuzz_case, replay);
}

}  // namespace conformance
}  // namespace dipbench
