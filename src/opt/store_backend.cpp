#include "opt/store_backend.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "common/log.hpp"
#include "common/serialize.hpp"

namespace cms::opt {

namespace fs = std::filesystem;

const char* blob_extension(BlobKind kind) {
  switch (kind) {
    case BlobKind::kTrace: return ".cmstrace";
    case BlobKind::kPlan: return ".cmsplan";
  }
  return "";
}

std::optional<std::uint64_t> load_verified(StoreBackend& backend,
                                           BlobKind kind,
                                           const std::string& digest,
                                           const BlobDecoder& decode) {
  std::string context = backend.path_of(kind, digest);
  if (context.empty())
    context = backend.describe() + ":" + digest + blob_extension(kind);
  std::string stored_digest;
  std::uint64_t bytes = 0;
  for (int attempt = 0;; ++attempt) {
    bool fetched = false;
    try {
      const std::optional<StoreBackend::Blob> blob = backend.get(kind, digest);
      if (!blob) return std::nullopt;
      fetched = true;
      stored_digest = decode(*blob, context);
      bytes = blob->size();
      break;
    } catch (const std::runtime_error&) {
      // The backend already reports a vanished entry as nullopt, so a get
      // that throws found the entry present. A decode failure with the
      // entry gone again is the eviction race resolving to a miss.
      if (fetched && !backend.contains(kind, digest)) return std::nullopt;
      if (attempt == 0) continue;
      throw;
    }
  }
  // The digest inside the blob must match the name it was addressed by.
  if (stored_digest != digest)
    throw std::runtime_error(context + ": stored digest " + stored_digest +
                             " does not match requested " + digest);
  return bytes;
}

// ---- DirBackend ----

DirBackend::DirBackend(std::string dir, bool create)
    : dir_(std::move(dir)) {
  if (dir_.empty())
    throw std::runtime_error("store backend needs a directory path");
  if (!create) return;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec)
    throw std::runtime_error(dir_ + ": cannot create store dir (" +
                             ec.message() + ")");
}

std::string DirBackend::path_of(BlobKind kind,
                                const std::string& digest) const {
  return (fs::path(dir_) / (digest + blob_extension(kind))).string();
}

std::optional<StoreBackend::Blob> DirBackend::get(BlobKind kind,
                                                  const std::string& digest) {
  const std::string path = path_of(kind, digest);
  std::error_code ec;
  // Cheap-miss precheck: a cold key must not pay for an ifstream failure
  // + exception on every probe.
  if (!fs::exists(path, ec) || ec) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // Vanished between the existence check and the open (a peer's
    // eviction): an ordinary miss. Still present but unopenable is an
    // error the caller may retry once (evict-then-resave race).
    if (fs::exists(path, ec) && !ec)
      throw std::runtime_error(path + ": cannot open store entry");
    return std::nullopt;
  }
  in.seekg(0, std::ios::end);
  const std::streamsize size = in.tellg();
  // An unseekable "entry" (a FIFO or device node at the entry path)
  // reports -1 here; without the guard the size_t cast below would ask
  // for a SIZE_MAX allocation. Present but unreadable -> throw.
  if (size < 0)
    throw std::runtime_error(path + ": cannot size store entry");
  in.seekg(0);
  Blob bytes(static_cast<std::size_t>(size));
  if (size > 0) in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw std::runtime_error(path + ": short read loading store entry");
  return bytes;
}

void DirBackend::put(BlobKind kind, const std::string& digest,
                     const Blob& bytes) {
  // Temp file + rename: concurrent writers of one digest produce
  // identical content (content addressing), so either rename winning is
  // correct; readers never observe a partial entry.
  serialize::write_file_atomic(path_of(kind, digest), bytes);
}

std::optional<std::uint64_t> DirBackend::stat(BlobKind kind,
                                              const std::string& digest) {
  const std::string path = path_of(kind, digest);
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) return std::nullopt;
  std::error_code size_ec;
  const std::uintmax_t sz = fs::file_size(path, size_ec);
  // Present but unstat-able (e.g. a directory masquerading as an entry):
  // report "size unknown" so the stores' re-stat machinery converges.
  if (size_ec) return 0;
  return static_cast<std::uint64_t>(sz);
}

StoreBackend::RemoveOutcome DirBackend::remove(BlobKind kind,
                                               const std::string& digest) {
  std::error_code ec;
  const bool removed = fs::remove(path_of(kind, digest), ec);
  if (ec) return RemoveOutcome::kFailed;
  return removed ? RemoveOutcome::kRemoved : RemoveOutcome::kVanished;
}

std::vector<StoreBackend::ListedBlob> DirBackend::list(BlobKind kind) {
  struct Row {
    fs::file_time_type mtime;
    std::string digest;
    std::uint64_t bytes;
  };
  std::vector<Row> rows;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    std::error_code file_ec;
    if (!e.is_regular_file(file_ec) || file_ec) continue;
    const fs::path& p = e.path();
    if (p.extension() != blob_extension(kind)) continue;
    // Each stat gets its own error check: a file another process evicts
    // mid-scan must be skipped, not indexed with file_size's uintmax(-1)
    // error value (which would poison the byte accounting).
    std::error_code mtime_ec, size_ec;
    const fs::file_time_type mtime = e.last_write_time(mtime_ec);
    const std::uintmax_t bytes = e.file_size(size_ec);
    if (mtime_ec || size_ec) continue;
    rows.push_back(Row{mtime, p.stem().string(),
                       static_cast<std::uint64_t>(bytes)});
  }
  // Stalest-first for LRU seeding; mtime ties (same-second writes under
  // coarse filesystem timestamps) break by digest so reopen eviction
  // order is deterministic across runs and processes.
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.digest < b.digest;
  });
  std::vector<ListedBlob> out;
  out.reserve(rows.size());
  for (Row& r : rows)
    out.push_back(ListedBlob{std::move(r.digest), r.bytes});
  return out;
}

// ---- MemBackend ----

std::optional<StoreBackend::Blob> MemBackend::get(BlobKind kind,
                                                  const std::string& digest) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto& slots = slots_[static_cast<std::size_t>(kind)];
  const auto it = slots.find(digest);
  if (it == slots.end()) return std::nullopt;
  return it->second.bytes;
}

void MemBackend::put(BlobKind kind, const std::string& digest,
                     const Blob& bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  Slot& slot = slots_[static_cast<std::size_t>(kind)][digest];
  slot.bytes = bytes;
  slot.seq = ++seq_;
}

std::optional<std::uint64_t> MemBackend::stat(BlobKind kind,
                                              const std::string& digest) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto& slots = slots_[static_cast<std::size_t>(kind)];
  const auto it = slots.find(digest);
  if (it == slots.end()) return std::nullopt;
  return static_cast<std::uint64_t>(it->second.bytes.size());
}

StoreBackend::RemoveOutcome MemBackend::remove(BlobKind kind,
                                               const std::string& digest) {
  std::lock_guard<std::mutex> lk(mu_);
  return slots_[static_cast<std::size_t>(kind)].erase(digest) != 0
             ? RemoveOutcome::kRemoved
             : RemoveOutcome::kVanished;
}

std::vector<StoreBackend::ListedBlob> MemBackend::list(BlobKind kind) {
  struct Row {
    std::uint64_t seq;
    std::string digest;
    std::uint64_t bytes;
  };
  std::vector<Row> rows;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto& slots = slots_[static_cast<std::size_t>(kind)];
    rows.reserve(slots.size());
    for (const auto& [digest, slot] : slots)
      rows.push_back(Row{slot.seq, digest,
                         static_cast<std::uint64_t>(slot.bytes.size())});
  }
  // Write order stands in for mtime; seq is unique so no tie-break is
  // needed (it would be by digest, matching DirBackend).
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.seq < b.seq; });
  std::vector<ListedBlob> out;
  out.reserve(rows.size());
  for (Row& r : rows)
    out.push_back(ListedBlob{std::move(r.digest), r.bytes});
  return out;
}

// ---- TieredBackend ----

TieredBackend::TieredBackend(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.l1 == nullptr || cfg_.l2 == nullptr)
    throw std::invalid_argument("TieredBackend needs both an L1 and an L2");
}

std::string TieredBackend::describe() const {
  return "tiered(" + cfg_.l1->describe() + ", " + cfg_.l2->describe() + ")";
}

std::optional<StoreBackend::Blob> TieredBackend::get(
    BlobKind kind, const std::string& digest) {
  if (auto hit = cfg_.l1->get(kind, digest)) {
    l1_hits_.fetch_add(1, std::memory_order_relaxed);
    return hit;
  }
  l1_misses_.fetch_add(1, std::memory_order_relaxed);
  std::optional<Blob> far;
  try {
    far = cfg_.l2->get(kind, digest);
  } catch (const std::exception& e) {
    // The far tier is an amortization, never a correctness boundary:
    // degrade to an L1-only miss (the caller re-captures/recomputes).
    l2_errors_.fetch_add(1, std::memory_order_relaxed);
    log_warn() << "tiered store: L2 read failed, degrading to L1-only: "
               << e.what();
    return std::nullopt;
  }
  if (!far) {
    l2_misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  l2_hits_.fetch_add(1, std::memory_order_relaxed);
  if (cfg_.promote) {
    try {
      cfg_.l1->put(kind, digest, *far);
      promotions_.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception& e) {
      // A failed promotion costs the next read another L2 trip, nothing
      // more; the bytes in hand are still a hit. Counted separately
      // from l2_errors — the far tier answered fine, the NEAR tier
      // refused the copy.
      promotion_failures_.fetch_add(1, std::memory_order_relaxed);
      log_warn() << "tiered store: L1 promotion failed: " << e.what();
    }
  }
  return far;
}

void TieredBackend::put(BlobKind kind, const std::string& digest,
                        const Blob& bytes) {
  // L1 is the correctness boundary — its failures propagate.
  cfg_.l1->put(kind, digest, bytes);
  l1_writes_.fetch_add(1, std::memory_order_relaxed);
  if (!cfg_.l2_writable) return;
  try {
    cfg_.l2->put(kind, digest, bytes);
    l2_writes_.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    l2_errors_.fetch_add(1, std::memory_order_relaxed);
    log_warn() << "tiered store: L2 write-through failed, entry is L1-only: "
               << e.what();
  }
}

std::optional<std::uint64_t> TieredBackend::stat(BlobKind kind,
                                                 const std::string& digest) {
  if (auto near = cfg_.l1->stat(kind, digest)) return near;
  try {
    return cfg_.l2->stat(kind, digest);
  } catch (const std::exception& e) {
    l2_errors_.fetch_add(1, std::memory_order_relaxed);
    log_warn() << "tiered store: L2 stat failed, degrading to L1-only: "
               << e.what();
    return std::nullopt;
  }
}

StoreBackend::RemoveOutcome TieredBackend::remove(BlobKind kind,
                                                  const std::string& digest) {
  return cfg_.l1->remove(kind, digest);
}

std::vector<StoreBackend::ListedBlob> TieredBackend::list(BlobKind kind) {
  return cfg_.l1->list(kind);
}

std::string TieredBackend::path_of(BlobKind kind,
                                   const std::string& digest) const {
  return cfg_.l1->path_of(kind, digest);
}

std::optional<StoreBackend::TierCounters> TieredBackend::tier_counters()
    const {
  TierCounters c;
  c.l1_hits = l1_hits_.load(std::memory_order_relaxed);
  c.l1_misses = l1_misses_.load(std::memory_order_relaxed);
  c.l2_hits = l2_hits_.load(std::memory_order_relaxed);
  c.l2_misses = l2_misses_.load(std::memory_order_relaxed);
  c.l2_errors = l2_errors_.load(std::memory_order_relaxed);
  c.promotions = promotions_.load(std::memory_order_relaxed);
  c.promotion_failures = promotion_failures_.load(std::memory_order_relaxed);
  c.l1_writes = l1_writes_.load(std::memory_order_relaxed);
  c.l2_writes = l2_writes_.load(std::memory_order_relaxed);
  return c;
}

std::string tier_counters_json(
    const std::optional<StoreBackend::TierCounters>& t, const char* key) {
  if (!t) return {};
  std::string json = ", \"";
  json += key;
  json += "\": {";
  const auto field = [&json](const char* name, std::uint64_t v, bool last) {
    json += "\"";
    json += name;
    json += "\": ";
    json += std::to_string(v);
    if (!last) json += ", ";
  };
  field("l1_hits", t->l1_hits, false);
  field("l1_misses", t->l1_misses, false);
  field("l2_hits", t->l2_hits, false);
  field("l2_misses", t->l2_misses, false);
  field("l2_errors", t->l2_errors, false);
  field("promotions", t->promotions, false);
  field("promotion_failures", t->promotion_failures, false);
  field("l1_writes", t->l1_writes, false);
  field("l2_writes", t->l2_writes, true);
  json += "}";
  return json;
}

}  // namespace cms::opt
