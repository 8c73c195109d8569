// Digest-addressed blob storage behind the trace store and the plan
// cache — ONE implementation of directory indexing, atomic writes and
// the vanished-vs-corrupt failure model instead of the two parallel
// copies PRs 3 and 5 grew.
//
// A backend stores immutable blobs keyed by (BlobKind, digest). The
// digest content-addresses everything the blob depends on (the stores
// compose it), so entries are never mutated in place: concurrent writers
// of one key produce identical bytes and either atomic rename winning is
// correct. The backend deals in RAW bytes only — format encoding, LRU
// policy, budgets, pins and hit/miss counters stay above it (the codecs
// and counters in TraceStore / PlanCache, the budget in
// opt::BudgetedIndex). What moves down here is the storage contract,
// plus load_verified(), the one retry-and-verify read both stores make
// over it:
//
//  * get()  — the blob's bytes, or nullopt when no entry exists
//             (including one that vanished mid-read because a peer
//             evicted it: an ordinary miss, never an error). Throws
//             std::runtime_error only for an entry that is PRESENT but
//             unreadable; callers retry once to separate an
//             evict-then-resave race from real corruption.
//  * put()  — atomic publish (temp file + rename for DirBackend);
//             throws on I/O failure.
//  * stat() — nullopt when absent; otherwise the blob's size, with 0
//             meaning "present but size unknown" (a racing eviction or
//             a directory masquerading as an entry — the stores re-stat
//             such entries before budget decisions).
//  * remove() — three-way outcome so eviction accounting stays honest:
//             kRemoved (we deleted it), kVanished (a peer already did —
//             resync, claim nothing), kFailed (still on disk; keep the
//             entry accounted rather than orphan the bytes).
//  * list() — reopen index, ordered stalest-first for LRU seeding:
//             by mtime, ties broken by digest so reopen eviction order
//             is DETERMINISTIC even under same-second writes.
//
// Three implementations:
//   DirBackend    — bit-compatible with the historical on-disk layout
//                   (<digest>.cmstrace / <digest>.cmsplan in one flat
//                   directory); existing stores reopen unchanged.
//   MemBackend    — process-local map; tests and ephemeral services.
//                   Share one instance across store instances to model
//                   cross-process reopen without a filesystem.
//   TieredBackend — L1 read-through with promote-on-hit, write-through
//                   to L2. L2 is an amortization, never a correctness
//                   boundary: any L2 failure logs a warning and
//                   degrades to L1-only semantics. Per-tier counters
//                   surface through TraceStore::Stats / PlanCache::Stats.
//
// Thread-safety: every backend is safe from any number of threads
// (DirBackend is stateless over an atomic filesystem protocol,
// MemBackend locks, TieredBackend composes thread-safe tiers with
// atomic counters).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace cms::opt {

/// What family of blob a key addresses; maps to the on-disk extension so
/// both kinds can share one directory (the historical layout).
enum class BlobKind : std::uint8_t { kTrace = 0, kPlan = 1 };
inline constexpr std::size_t kBlobKinds = 2;

/// ".cmstrace" / ".cmsplan".
const char* blob_extension(BlobKind kind);

class StoreBackend {
 public:
  using Blob = std::vector<std::uint8_t>;

  /// One reopen-index row; list() orders rows stalest-first.
  struct ListedBlob {
    std::string digest;
    std::uint64_t bytes = 0;  // 0 = present but size unknown (stat raced)
  };

  enum class RemoveOutcome : std::uint8_t {
    kRemoved,   // the entry existed and we deleted it
    kVanished,  // already gone (a peer evicted it first)
    kFailed,    // delete failed; the entry is still occupying storage
  };

  /// TieredBackend observability (monotonic, race-free). l1_misses
  /// counts near-tier misses (whether or not L2 then hit); l2_errors
  /// counts degraded L2 operations (logged, never surfaced as errors).
  /// promotion_failures separates a healthy tier from one whose every
  /// L2 hit fails to copy into L1 — each such hit pays the far-tier
  /// round trip again forever, which only this counter can reveal.
  struct TierCounters {
    std::uint64_t l1_hits = 0;
    std::uint64_t l1_misses = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t l2_errors = 0;
    std::uint64_t promotions = 0;          // L2 hits copied into L1
    std::uint64_t promotion_failures = 0;  // L2 hits whose L1 copy failed
    std::uint64_t l1_writes = 0;           // put() near-tier publishes
    std::uint64_t l2_writes = 0;           // write-through publishes
  };

  virtual ~StoreBackend() = default;

  /// Human-readable identity for logs ("dir:traces", "mem",
  /// "tiered(dir:l1, dir:l2)").
  virtual std::string describe() const = 0;

  virtual std::optional<Blob> get(BlobKind kind,
                                  const std::string& digest) = 0;
  virtual void put(BlobKind kind, const std::string& digest,
                   const Blob& bytes) = 0;
  virtual std::optional<std::uint64_t> stat(BlobKind kind,
                                            const std::string& digest) = 0;
  virtual RemoveOutcome remove(BlobKind kind, const std::string& digest) = 0;
  virtual std::vector<ListedBlob> list(BlobKind kind) = 0;

  /// Existence probe (no counters, no validation).
  bool contains(BlobKind kind, const std::string& digest) {
    return stat(kind, digest).has_value();
  }

  /// Where the entry lives on disk, or "" for backends without paths
  /// (error contexts, bench reporting, tests). Tiered forwards to L1.
  virtual std::string path_of(BlobKind /*kind*/,
                              const std::string& /*digest*/) const {
    return {};
  }

  /// Per-tier counters; nullopt for untiered backends.
  virtual std::optional<TierCounters> tier_counters() const {
    return std::nullopt;
  }
};

/// Parses one blob, throwing std::runtime_error (prefixed with `context`,
/// the entry's path or a backend-and-digest label) on malformed bytes, and
/// returns the digest embedded in it.
using BlobDecoder = std::function<std::string(const StoreBackend::Blob& blob,
                                              const std::string& context)>;

/// The one verified load over the contract above, shared by the trace
/// store and the plan cache: get -> decode -> retry once -> digest check.
/// Returns the blob's size on a hit and nullopt on a miss — an absent
/// entry, or one that vanished mid-read because a peer evicted it. An
/// entry that fails to read or decode while still present is retried
/// once: the first failure may be an evict-then-resave race, and entries
/// are immutable per digest, so a successful reread is the same value. A
/// second failure is real corruption and is rethrown; a stored digest
/// other than `digest` (a renamed or hand-copied entry) throws too.
std::optional<std::uint64_t> load_verified(StoreBackend& backend,
                                           BlobKind kind,
                                           const std::string& digest,
                                           const BlobDecoder& decode);

/// The historical flat-directory layout: <digest><extension> files,
/// atomic temp+rename writes. Stateless — any number of DirBackends
/// (in any number of processes) may share one directory.
class DirBackend final : public StoreBackend {
 public:
  /// `create` makes the directory (and parents) eagerly, throwing
  /// std::runtime_error when that fails; pass false for read-only use
  /// (a missing directory then just lists/stats empty).
  explicit DirBackend(std::string dir, bool create = true);

  const std::string& dir() const { return dir_; }

  std::string describe() const override { return "dir:" + dir_; }
  std::optional<Blob> get(BlobKind kind, const std::string& digest) override;
  void put(BlobKind kind, const std::string& digest,
           const Blob& bytes) override;
  std::optional<std::uint64_t> stat(BlobKind kind,
                                    const std::string& digest) override;
  RemoveOutcome remove(BlobKind kind, const std::string& digest) override;
  std::vector<ListedBlob> list(BlobKind kind) override;
  std::string path_of(BlobKind kind,
                      const std::string& digest) const override;

 private:
  std::string dir_;
};

/// Blobs in a process-local map. Stat never fails and reads never race
/// rewrites, so the degenerate stat/remove outcomes of a filesystem
/// (unknown sizes, failed unlinks) simply cannot occur.
class MemBackend final : public StoreBackend {
 public:
  std::string describe() const override { return "mem"; }
  std::optional<Blob> get(BlobKind kind, const std::string& digest) override;
  void put(BlobKind kind, const std::string& digest,
           const Blob& bytes) override;
  std::optional<std::uint64_t> stat(BlobKind kind,
                                    const std::string& digest) override;
  RemoveOutcome remove(BlobKind kind, const std::string& digest) override;
  std::vector<ListedBlob> list(BlobKind kind) override;

 private:
  struct Slot {
    Blob bytes;
    std::uint64_t seq = 0;  // insertion order stands in for mtime
  };

  mutable std::mutex mu_;
  std::map<std::string, Slot> slots_[kBlobKinds];
  std::uint64_t seq_ = 0;
};

/// Two-level read-through composition: L1 is the near (usually local)
/// tier that budgets, eviction and reopen indexing operate on; L2 is a
/// far shared tier consulted on L1 misses, with hits promoted into L1
/// and puts written through (when l2_writable). EVERY L2 failure — get,
/// put, stat — is caught, counted (l2_errors), logged and degraded to
/// L1-only behavior; remove() touches only L1, because a local budget
/// must never evict the fleet-shared copy.
class TieredBackend final : public StoreBackend {
 public:
  struct Config {
    std::shared_ptr<StoreBackend> l1;
    std::shared_ptr<StoreBackend> l2;
    /// Write-through puts to L2 (false = read-only far tier, e.g. a
    /// frozen CI artifact or another fleet's store).
    bool l2_writable = true;
    /// Copy L2 hits into L1 (disable over a read-only L1 directory).
    bool promote = true;
  };

  /// Throws std::invalid_argument unless both tiers are non-null.
  explicit TieredBackend(Config cfg);
  TieredBackend(std::shared_ptr<StoreBackend> l1,
                std::shared_ptr<StoreBackend> l2, bool l2_writable = true)
      : TieredBackend(Config{std::move(l1), std::move(l2), l2_writable,
                             /*promote=*/true}) {}

  const std::shared_ptr<StoreBackend>& l1() const { return cfg_.l1; }
  const std::shared_ptr<StoreBackend>& l2() const { return cfg_.l2; }

  std::string describe() const override;
  std::optional<Blob> get(BlobKind kind, const std::string& digest) override;
  void put(BlobKind kind, const std::string& digest,
           const Blob& bytes) override;
  std::optional<std::uint64_t> stat(BlobKind kind,
                                    const std::string& digest) override;
  /// L1 only — the far tier has its own lifecycle and budget owner.
  RemoveOutcome remove(BlobKind kind, const std::string& digest) override;
  /// L1 only — the reopen index seeds the near tier's LRU; far-tier
  /// entries are discovered on demand by read-through.
  std::vector<ListedBlob> list(BlobKind kind) override;
  std::string path_of(BlobKind kind,
                      const std::string& digest) const override;
  std::optional<TierCounters> tier_counters() const override;

 private:
  Config cfg_;

  std::atomic<std::uint64_t> l1_hits_{0};
  std::atomic<std::uint64_t> l1_misses_{0};
  std::atomic<std::uint64_t> l2_hits_{0};
  std::atomic<std::uint64_t> l2_misses_{0};
  std::atomic<std::uint64_t> l2_errors_{0};
  std::atomic<std::uint64_t> promotions_{0};
  std::atomic<std::uint64_t> promotion_failures_{0};
  std::atomic<std::uint64_t> l1_writes_{0};
  std::atomic<std::uint64_t> l2_writes_{0};
};

/// The one JSON spelling of TierCounters — a `, "KEY": {...}` fragment
/// for embedding in a stats object, or "" when `t` is empty (untiered).
/// Shared by plan_server's stats endpoint and the store benches so
/// every emitter names the same keys.
std::string tier_counters_json(
    const std::optional<StoreBackend::TierCounters>& t,
    const char* key = "tiers");

}  // namespace cms::opt
