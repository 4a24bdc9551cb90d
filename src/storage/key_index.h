#ifndef DIPBENCH_STORAGE_KEY_INDEX_H_
#define DIPBENCH_STORAGE_KEY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dipbench {

/// Flat open-addressing hash index from a key hash to row positions: the
/// the primary-key index of Table.
///
/// One array of (hash, position) entries with linear probing from a home
/// bucket taken from the high bits of the hash times the 64-bit golden
/// ratio. The index stores no keys: Find hands each entry whose stored
/// hash matches to the caller's equality test, which reads the key in
/// place from the caller's rows. Erase leaves a tombstone, or an empty
/// entry when the next entry is empty (nothing probes past it), which
/// also frees the tombstones directly before it.
///
/// Growth: an Insert that would take live plus deleted entries past 3/4
/// of the capacity first rebuilds the array, dropping every tombstone, at
/// the smallest power of two (at least 8) that holds twice the live
/// entries, the new one included. Nothing is allocated before the first
/// Insert, and Clear() keeps the capacity, so a table refilled every
/// period does not grow its index again.
class KeyIndex {
 public:
  static constexpr size_t kNotFound = SIZE_MAX;

  /// Position of an entry with this hash for which `match(position)`
  /// holds, or kNotFound.
  template <typename Match>
  size_t Find(size_t hash, const Match& match) const {
    if (entries_.empty()) return kNotFound;
    for (size_t i = Home(hash);; i = (i + 1) & mask_) {
      const Entry& e = entries_[i];
      if (e.pos == kEmpty) return kNotFound;
      if (e.hash == hash && e.pos != kDeleted && match(e.pos)) return e.pos;
    }
  }

  /// Adds (hash, pos). Entries may share a hash; `pos` must not be
  /// indexed already.
  void Insert(size_t hash, size_t pos);
  /// Removes the entry (hash, pos); a no-op when there is none.
  void Erase(size_t hash, size_t pos);
  /// Removes every entry and keeps the capacity.
  void Clear();

  size_t size() const { return live_; }
  size_t capacity() const { return entries_.size(); }

 private:
  struct Entry {
    size_t hash;
    size_t pos;
  };
  static constexpr size_t kEmpty = SIZE_MAX;
  static constexpr size_t kDeleted = SIZE_MAX - 1;

  size_t Home(size_t hash) const {
    return static_cast<size_t>((uint64_t{hash} * 0x9E3779B97F4A7C15ull) >>
                               shift_);
  }
  void Rebuild(size_t capacity);

  std::vector<Entry> entries_;  ///< empty or a power of two long
  size_t mask_ = 0;
  int shift_ = 0;  ///< 64 - log2(capacity)
  size_t live_ = 0;
  size_t deleted_ = 0;
};

}  // namespace dipbench

#endif  // DIPBENCH_STORAGE_KEY_INDEX_H_
