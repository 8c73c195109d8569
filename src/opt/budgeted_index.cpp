#include "opt/budgeted_index.hpp"

#include <set>

namespace cms::opt {

void BudgetedIndex::seed(StoreBackend& backend, BlobKind kind) {
  for (const StoreBackend::ListedBlob& b : backend.list(kind))
    touch(b.digest, b.bytes);
}

void BudgetedIndex::touch(const std::string& key, std::uint64_t bytes) {
  Entry& e = entries_[key];
  if (e.last_use == 0) {  // new entry
    e.bytes = bytes;
    bytes_ += bytes;
    if (bytes == 0) ++unknown_sizes_;
  } else if (bytes != 0 && bytes != e.bytes) {  // rewritten, or a size that
    if (e.bytes == 0) --unknown_sizes_;         // could finally be statted
    bytes_ += bytes - e.bytes;
    e.bytes = bytes;
  }
  e.last_use = ++clock_;
}

void BudgetedIndex::refresh(const std::string& key) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) it->second.last_use = ++clock_;
}

void BudgetedIndex::erase(const std::string& key) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) drop(it);
}

bool BudgetedIndex::used_since(const std::string& key,
                               std::uint64_t stamp) const {
  const auto it = entries_.find(key);
  return it != entries_.end() && it->second.last_use > stamp;
}

BudgetedIndex::Entries::iterator BudgetedIndex::drop(Entries::iterator it) {
  if (it->second.bytes == 0) --unknown_sizes_;
  bytes_ -= it->second.bytes;
  return entries_.erase(it);
}

void BudgetedIndex::pin(const std::string& key) { ++pins_[key]; }

void BudgetedIndex::unpin(const std::string& key) {
  const auto it = pins_.find(key);
  if (it == pins_.end()) return;
  if (--it->second == 0) pins_.erase(it);
}

bool BudgetedIndex::over_budget() const {
  return (capacity_.max_bytes != 0 && bytes_ > capacity_.max_bytes) ||
         (capacity_.max_entries != 0 &&
          entries_.size() > capacity_.max_entries);
}

GcResult BudgetedIndex::enforce(const Remove& remove) {
  GcResult out;
  if (capacity_.unlimited()) return out;
  std::set<std::string> skipped;  // remove failed this pass: not a victim
  while (over_budget()) {
    // The least-recently-used unpinned entry. Clock values are unique, so
    // the victim does not depend on the map's iteration order.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (pins_.contains(it->first) || skipped.contains(it->first)) continue;
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use)
        victim = it;
    }
    if (victim == entries_.end()) break;
    const StoreBackend::RemoveOutcome removed = remove(victim->first);
    if (removed == StoreBackend::RemoveOutcome::kFailed) {
      // Dropping the entry would orphan bytes nobody accounts for until
      // reopen, and counting it would claim a reclamation that never
      // happened.
      skipped.insert(victim->first);
      continue;
    }
    if (removed == StoreBackend::RemoveOutcome::kRemoved) {
      out.evicted_entries += 1;
      out.evicted_bytes += victim->second.bytes;
    }
    drop(victim);
  }
  evicted_.evicted_entries += out.evicted_entries;
  evicted_.evicted_bytes += out.evicted_bytes;
  return out;
}

GcResult BudgetedIndex::enforce(StoreBackend& backend, BlobKind kind,
                                bool read_only) {
  // Unknown sizes silently undercount bytes_ and let the byte budget be
  // busted: fix them up before any accounting decision.
  for (auto it = entries_.begin();
       unknown_sizes_ > 0 && it != entries_.end();) {
    if (it->second.bytes != 0) {
      ++it;
      continue;
    }
    const std::optional<std::uint64_t> sz = backend.stat(kind, it->first);
    if (!sz) {
      it = drop(it);  // gone entirely (the racing eviction won)
    } else {
      if (*sz > 0) {
        --unknown_sizes_;
        bytes_ += *sz;
        it->second.bytes = *sz;
      }  // else still unstat-able; the next pass tries again
      ++it;
    }
  }
  if (read_only) return GcResult();
  return enforce([&](const std::string& key) {
    return backend.remove(kind, key);
  });
}

}  // namespace cms::opt
