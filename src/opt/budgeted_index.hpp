// The one LRU index under a byte/entry budget — the eviction policy of the
// trace store and of both plan-cache tiers.
//
// An index maps a key to {bytes, last use} on a logical clock and keeps
// the byte total. enforce() evicts least-recently-used entries until the
// Capacity holds again, asking the owner to delete each victim's storage
// through a callback: the trace store and the plan cache's disk tier
// remove blobs from their opt::StoreBackend, the plan cache's memory tier
// drops its shared_ptr (readers holding the entry keep it alive). The
// storage answer is the backend contract's three-way RemoveOutcome, and
// the accounting follows it exactly:
//   * kRemoved  — the entry leaves the index and counts as evicted;
//   * kVanished — a peer already deleted it: the index resyncs, but no
//                 eviction (and no freed bytes) is claimed;
//   * kFailed   — the bytes are still stored: the entry stays indexed
//                 and counted, and is skipped for the rest of the pass so
//                 enforcement cannot spin on it (the budget stays busted,
//                 like a pinned entry).
// Pinned keys (refcounted; a pin may name a key before it is indexed) are
// never victims, so a budget that only pinned entries bust stays busted.
// A size of 0 means "unknown" (the stat at index time failed, e.g. a
// racing eviction); such entries are re-statted before every
// budget decision of a persistent tier, so the byte accounting converges
// to the stored truth instead of freezing at an undercount.
//
// Thread-safety: none of its own. Each owner guards its index with the
// mutex that guards the rest of its state; remove/stat callbacks run
// under that lock.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "opt/store_backend.hpp"

namespace cms::opt {

/// Byte/entry budget; 0 means unlimited. Enforced after every write and on
/// demand by gc() — never below what the pinned entries occupy.
struct Capacity {
  std::uint64_t max_bytes = 0;
  std::uint64_t max_entries = 0;

  bool unlimited() const { return max_bytes == 0 && max_entries == 0; }
};

/// What one eviction pass (gc() or a post-write enforcement) removed.
struct GcResult {
  std::uint64_t evicted_entries = 0;
  std::uint64_t evicted_bytes = 0;
};

class BudgetedIndex {
 public:
  /// Deletes one victim's storage.
  using Remove =
      std::function<StoreBackend::RemoveOutcome(const std::string& key)>;

  explicit BudgetedIndex(Capacity capacity = Capacity())
      : capacity_(capacity) {}

  const Capacity& capacity() const { return capacity_; }

  /// Index every `kind` blob the backend lists. The listing is
  /// stalest-first, so a reopened store evicts its stalest entries first.
  void seed(StoreBackend& backend, BlobKind kind);

  /// Mark `key` used now, indexing it when new. `bytes` == 0 means size
  /// unknown; a known size replaces the indexed one.
  void touch(const std::string& key, std::uint64_t bytes);
  /// Mark `key` used now when it is indexed; no-op when it is not.
  void refresh(const std::string& key);
  /// Forget `key` (its storage is gone); no-op when it is not indexed.
  void erase(const std::string& key);
  /// The logical clock: touch() and refresh() each advance it by one.
  std::uint64_t clock() const { return clock_; }
  /// True when `key` is indexed and was used after clock value `stamp`.
  bool used_since(const std::string& key, std::uint64_t stamp) const;

  void pin(const std::string& key);
  void unpin(const std::string& key);

  /// Evict least-recently-used unpinned entries through `remove` until
  /// the budget holds or no candidate is left. No-op when unlimited.
  GcResult enforce(const Remove& remove);
  /// The persistent-tier pass: re-stat unknown sizes through `backend`
  /// (dropping entries that vanished), then — unless `read_only` —
  /// enforce() by removing `kind` blobs from it.
  GcResult enforce(StoreBackend& backend, BlobKind kind, bool read_only);

  std::uint64_t entries() const { return entries_.size(); }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t pinned() const { return pins_.size(); }
  /// Everything enforce() has evicted over the index's lifetime.
  const GcResult& evicted() const { return evicted_; }

 private:
  struct Entry {
    std::uint64_t bytes = 0;     // 0 = unknown
    std::uint64_t last_use = 0;  // logical clock, larger = more recent
  };
  using Entries = std::map<std::string, Entry>;

  bool over_budget() const;
  /// Remove `it` from the index and the byte total.
  Entries::iterator drop(Entries::iterator it);

  Capacity capacity_;
  Entries entries_;
  std::map<std::string, std::uint32_t> pins_;  // key -> refcount
  std::uint64_t clock_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t unknown_sizes_ = 0;  // entries with bytes == 0
  GcResult evicted_;
};

}  // namespace cms::opt
