#include "src/storage/spill.h"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <utility>

namespace dipbench {

namespace {

thread_local size_t g_memory_budget = 0;  // 0 = unlimited
thread_local obs::ObsContext g_spill_obs;

std::atomic<uint64_t> g_spill_runs{0};
std::atomic<uint64_t> g_spill_rows{0};
std::atomic<uint64_t> g_spill_bytes{0};
std::atomic<uint64_t> g_spill_merges{0};

constexpr size_t kIoChunk = 256 * 1024;

void PutU16(std::string* out, uint16_t v) {
  out->append(reinterpret_cast<const char*>(&v), 2);
}
void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}

bool GetRaw(const std::string& data, size_t* pos, void* out, size_t n) {
  if (*pos + n > data.size()) return false;
  std::memcpy(out, data.data() + *pos, n);
  *pos += n;
  return true;
}

}  // namespace

size_t CurrentMemoryBudget() { return g_memory_budget; }
void SetMemoryBudget(size_t bytes) { g_memory_budget = bytes; }

SpillStats GetSpillStats() {
  SpillStats s;
  s.runs = g_spill_runs.load(std::memory_order_relaxed);
  s.rows = g_spill_rows.load(std::memory_order_relaxed);
  s.bytes = g_spill_bytes.load(std::memory_order_relaxed);
  s.merges = g_spill_merges.load(std::memory_order_relaxed);
  return s;
}

void ResetSpillStats() {
  g_spill_runs.store(0, std::memory_order_relaxed);
  g_spill_rows.store(0, std::memory_order_relaxed);
  g_spill_bytes.store(0, std::memory_order_relaxed);
  g_spill_merges.store(0, std::memory_order_relaxed);
}

void SetSpillObserver(obs::ObsContext ctx) { g_spill_obs = ctx; }
obs::ObsContext SpillObserver() { return g_spill_obs; }

void CountSpillMerge() {
  g_spill_merges.fetch_add(1, std::memory_order_relaxed);
  g_spill_obs.Count("ra.spill.merges");
}

namespace {

std::mutex g_dir_probe_mu;
SpillDirProbe g_dir_probe;

/// Copies the probe out under the lock and invokes it outside, so a probe
/// body may itself call SetSpillDirProbe without deadlocking.
void NotifyDirProbe(const std::string& path, bool claimed) {
  SpillDirProbe probe;
  {
    std::lock_guard<std::mutex> lock(g_dir_probe_mu);
    probe = g_dir_probe;
  }
  if (probe) probe(path, claimed);
}

}  // namespace

void SetSpillDirProbe(SpillDirProbe probe) {
  std::lock_guard<std::mutex> lock(g_dir_probe_mu);
  g_dir_probe = std::move(probe);
}

SpillDir::SpillDir() {
  namespace fs = std::filesystem;
  static std::atomic<uint64_t> counter{0};
  std::error_code ec;
  fs::path base = fs::temp_directory_path(ec) / "dipbench_spill";
  fs::create_directories(base, ec);
  // Create-as-claim: the first create_directory that succeeds owns the dir.
  // pid + process-wide counter makes collisions across processes and across
  // concurrent operators in this process impossible in practice; the loop
  // covers crash leftovers from a recycled pid.
  for (;;) {
    uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
    fs::path dir = base / (std::to_string(static_cast<uint64_t>(::getpid())) +
                           "_" + std::to_string(id));
    if (fs::create_directory(dir, ec)) {
      path_ = dir.string();
      NotifyDirProbe(path_, /*claimed=*/true);
      return;
    }
  }
}

SpillDir::~SpillDir() {
  if (path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  NotifyDirProbe(path_, /*claimed=*/false);
}

std::string SpillDir::RunPath(const std::string& name) const {
  return (std::filesystem::path(path_) / name).string();
}

void EncodeRow(const Row& row, std::string* out) {
  PutU16(out, static_cast<uint16_t>(row.size()));
  for (const Value& v : row) {
    out->push_back(static_cast<char>(v.type()));
    switch (v.type()) {
      case DataType::kNull:
        break;
      case DataType::kBool:
        out->push_back(v.AsBool() ? 1 : 0);
        break;
      case DataType::kInt64: {
        PutU64(out, static_cast<uint64_t>(v.AsInt()));
        break;
      }
      case DataType::kDate: {
        PutU64(out, static_cast<uint64_t>(v.AsDate()));
        break;
      }
      case DataType::kDouble: {
        double d = v.AsDouble();
        uint64_t bits;
        std::memcpy(&bits, &d, 8);
        PutU64(out, bits);
        break;
      }
      case DataType::kString: {
        std::string_view s = v.AsString();
        PutU32(out, static_cast<uint32_t>(s.size()));
        out->append(s);
        break;
      }
    }
  }
}

bool DecodeRow(const std::string& data, size_t* pos, Row* row) {
  row->clear();
  uint16_t ncols = 0;
  if (!GetRaw(data, pos, &ncols, 2)) return false;
  row->reserve(ncols);
  for (uint16_t c = 0; c < ncols; ++c) {
    if (*pos >= data.size()) return false;
    DataType t = static_cast<DataType>(data[*pos]);
    ++*pos;
    switch (t) {
      case DataType::kNull:
        row->push_back(Value::Null());
        break;
      case DataType::kBool: {
        if (*pos >= data.size()) return false;
        row->push_back(Value::Bool(data[*pos] != 0));
        ++*pos;
        break;
      }
      case DataType::kInt64:
      case DataType::kDate: {
        uint64_t raw = 0;
        if (!GetRaw(data, pos, &raw, 8)) return false;
        int64_t i = static_cast<int64_t>(raw);
        row->push_back(t == DataType::kInt64 ? Value::Int(i) : Value::Date(i));
        break;
      }
      case DataType::kDouble: {
        uint64_t bits = 0;
        if (!GetRaw(data, pos, &bits, 8)) return false;
        double d;
        std::memcpy(&d, &bits, 8);
        row->push_back(Value::Double(d));
        break;
      }
      case DataType::kString: {
        uint32_t len = 0;
        if (!GetRaw(data, pos, &len, 4)) return false;
        if (*pos + len > data.size()) return false;
        row->push_back(Value::String(data.substr(*pos, len)));
        *pos += len;
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

SpillRunWriter::SpillRunWriter(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "wb");
  buf_.reserve(kIoChunk + 4096);
}

SpillRunWriter::SpillRunWriter(std::shared_ptr<SpillDir> dir,
                               const std::string& name)
    : SpillRunWriter(dir->RunPath(name)) {
  dir_ = std::move(dir);
}

SpillRunWriter::~SpillRunWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void SpillRunWriter::AddRecord(uint64_t tag, const std::string& key,
                               const Row& row) {
  // Record framing: [u32 payload-length][u64 tag][u32 keylen][key][row].
  std::string payload;
  PutU64(&payload, tag);
  PutU32(&payload, static_cast<uint32_t>(key.size()));
  payload.append(key);
  EncodeRow(row, &payload);
  PutU32(&buf_, static_cast<uint32_t>(payload.size()));
  buf_.append(payload);
  ++rows_;
  bytes_ += payload.size() + 4;
  if (buf_.size() >= kIoChunk) FlushBuffer();
}

void SpillRunWriter::FlushBuffer() {
  if (file_ != nullptr && !buf_.empty()) {
    std::fwrite(buf_.data(), 1, buf_.size(), file_);
  }
  buf_.clear();
}

Status SpillRunWriter::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  if (file_ == nullptr) {
    return Status::Internal("spill run " + path_ + " could not be opened");
  }
  FlushBuffer();
  std::fclose(file_);
  file_ = nullptr;
  g_spill_runs.fetch_add(1, std::memory_order_relaxed);
  g_spill_rows.fetch_add(rows_, std::memory_order_relaxed);
  g_spill_bytes.fetch_add(bytes_, std::memory_order_relaxed);
  g_spill_obs.Count("ra.spill.runs");
  g_spill_obs.Count("ra.spill.rows", rows_);
  g_spill_obs.Count("ra.spill.bytes", bytes_);
  return Status::OK();
}

SpillRunReader::SpillRunReader(std::string path) {
  file_ = std::fopen(path.c_str(), "rb");
  eof_ = file_ == nullptr;
}

SpillRunReader::SpillRunReader(std::shared_ptr<SpillDir> dir,
                               const std::string& name)
    : SpillRunReader(dir->RunPath(name)) {
  dir_ = std::move(dir);
}

SpillRunReader::~SpillRunReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool SpillRunReader::Refill(size_t need) {
  if (pos_ + need <= buf_.size()) return true;
  buf_.erase(0, pos_);
  pos_ = 0;
  while (buf_.size() < need && !eof_) {
    size_t old = buf_.size();
    buf_.resize(old + kIoChunk);
    size_t got = std::fread(buf_.data() + old, 1, kIoChunk, file_);
    buf_.resize(old + got);
    if (got < kIoChunk) eof_ = true;
  }
  return buf_.size() - pos_ >= need;
}

bool SpillRunReader::Next(uint64_t* tag, std::string* key, Row* row) {
  uint32_t len = 0;
  if (!Refill(4)) return false;
  std::memcpy(&len, buf_.data() + pos_, 4);
  pos_ += 4;
  if (!Refill(len)) return false;
  size_t p = pos_;
  uint64_t t = 0;
  uint32_t klen = 0;
  if (!GetRaw(buf_, &p, &t, 8)) return false;
  if (!GetRaw(buf_, &p, &klen, 4)) return false;
  if (p + klen > buf_.size()) return false;
  key->assign(buf_, p, klen);
  p += klen;
  if (!DecodeRow(buf_, &p, row)) return false;
  *tag = t;
  pos_ += len;
  return true;
}

}  // namespace dipbench
