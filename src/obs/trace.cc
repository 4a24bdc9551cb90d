#include "src/obs/trace.h"

#include <algorithm>

namespace dipbench {
namespace obs {

const char* CategoryName(Category c) {
  switch (c) {
    case Category::kComm:
      return "Cc";
    case Category::kManagement:
      return "Cm";
    case Category::kProcessing:
      return "Cp";
    case Category::kNone:
      break;
  }
  return "span";
}

uint64_t TraceRecorder::BeginSpan(std::string name, Category category,
                                  VirtualTime begin_ms, int track) {
  Span span;
  span.id = next_id_++;
  span.track = track;
  span.name = std::move(name);
  span.category = category;
  span.begin_ms = begin_ms;
  span.end_ms = begin_ms;
  auto& stack = open_[track];
  if (!stack.empty()) {
    span.parent = stack.back();
    span.depth = static_cast<int>(stack.size());
  }
  stack.push_back(span.id);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void TraceRecorder::EndSpan(uint64_t id, VirtualTime end_ms) {
  Span* span = Find(id);
  if (span == nullptr) return;
  auto& stack = open_[span->track];
  // Pop everything above (and including) this span; deeper unbalanced
  // spans inherit this close time.
  while (!stack.empty()) {
    uint64_t top = stack.back();
    stack.pop_back();
    Span* open_span = Find(top);
    if (open_span != nullptr && open_span->end_ms <= open_span->begin_ms) {
      open_span->end_ms = std::max(open_span->begin_ms, end_ms);
    }
    if (top == id) break;
  }
}

uint64_t TraceRecorder::AddCompleteSpan(std::string name, Category category,
                                        VirtualTime begin_ms,
                                        VirtualTime end_ms, int track) {
  Span span;
  span.id = next_id_++;
  span.track = track;
  span.name = std::move(name);
  span.category = category;
  span.begin_ms = begin_ms;
  span.end_ms = std::max(begin_ms, end_ms);
  const auto& stack = open_[track];
  if (!stack.empty()) {
    span.parent = stack.back();
    span.depth = static_cast<int>(stack.size());
  }
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void TraceRecorder::Annotate(uint64_t id, std::string key, std::string value) {
  Span* span = Find(id);
  if (span == nullptr) return;
  span->annotations.emplace_back(std::move(key), std::move(value));
}

void TraceRecorder::NameTrack(int track, std::string name) {
  track_names_[track] = std::move(name);
}

void TraceRecorder::Clear() {
  spans_.clear();
  open_.clear();
  next_id_ = 1;
}

double TraceRecorder::CategoryTotalMs(Category category) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.category == category) total += s.DurationMs();
  }
  return total;
}

Span* TraceRecorder::Find(uint64_t id) {
  // Ids are issued sequentially from 1 and spans are only appended, so the
  // span with id N sits at index N-1.
  if (id == 0 || id > spans_.size()) return nullptr;
  Span& s = spans_[id - 1];
  return s.id == id ? &s : nullptr;
}

}  // namespace obs
}  // namespace dipbench
