#include "src/storage/key_index.h"

#include <algorithm>
#include <bit>

namespace dipbench {

void KeyIndex::Insert(size_t hash, size_t pos) {
  if ((live_ + deleted_ + 1) * 4 > entries_.size() * 3) {
    size_t capacity = 8;
    while (capacity < 2 * (live_ + 1)) capacity *= 2;
    Rebuild(capacity);
  }
  for (size_t i = Home(hash);; i = (i + 1) & mask_) {
    Entry& e = entries_[i];
    if (e.pos == kDeleted) {
      --deleted_;
    } else if (e.pos != kEmpty) {
      continue;
    }
    e = Entry{hash, pos};
    ++live_;
    return;
  }
}

void KeyIndex::Erase(size_t hash, size_t pos) {
  if (entries_.empty()) return;
  for (size_t i = Home(hash);; i = (i + 1) & mask_) {
    Entry& e = entries_[i];
    if (e.pos == kEmpty) return;
    if (e.pos != pos) continue;
    --live_;
    if (entries_[(i + 1) & mask_].pos != kEmpty) {
      e.pos = kDeleted;
      ++deleted_;
      return;
    }
    // Every probe through this entry stops at the empty one after it, so
    // it and the tombstones right before it can become empty too.
    e.pos = kEmpty;
    for (size_t j = (i - 1) & mask_; entries_[j].pos == kDeleted;
         j = (j - 1) & mask_) {
      entries_[j].pos = kEmpty;
      --deleted_;
    }
    return;
  }
}

void KeyIndex::Clear() {
  if (live_ == 0 && deleted_ == 0) return;
  std::fill(entries_.begin(), entries_.end(), Entry{0, kEmpty});
  live_ = 0;
  deleted_ = 0;
}

void KeyIndex::Rebuild(size_t capacity) {
  std::vector<Entry> old = std::move(entries_);
  entries_.assign(capacity, Entry{0, kEmpty});
  mask_ = capacity - 1;
  shift_ = 64 - std::countr_zero(capacity);
  deleted_ = 0;
  for (const Entry& e : old) {
    if (e.pos == kEmpty || e.pos == kDeleted) continue;
    size_t i = Home(e.hash);
    while (entries_[i].pos != kEmpty) i = (i + 1) & mask_;
    entries_[i] = e;
  }
}

}  // namespace dipbench
