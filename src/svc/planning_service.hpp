// Store-aware planning service — the paper's compositional promise as a
// long-running endpoint.
//
// The method's economics only pay off at scale if isolation captures are
// shared and amortized: profile each task mix ONCE (one instrumented
// simulation per jitter seed), persist the captures content-addressed
// (opt/trace_store.hpp), then answer every subsequent "plan this scenario"
// request by replaying the stored streams over the requested grid and
// solving the MCKP — milliseconds instead of seconds. PlanningService is
// that endpoint: concurrent clients submit PlanRequests and get back the
// partition assignment, the predicted per-task t_i, per-jitter-run store
// provenance (hit / captured / coalesced) and phase timings.
//
//   svc::PlanningService service({store, /*jobs=*/2});
//   svc::PlanRequest req;
//   req.scenario = "jpeg-canny-dense";
//   svc::PlanResponse resp = service.plan(req);   // thread-safe
//
// Threading contract:
//  * plan() may be called from any number of threads concurrently; each
//    request builds its own Experiment/Campaign object graph, so requests
//    share nothing but the TraceStore (itself thread-safe), the
//    single-flight table and the application shapes, which every
//    Experiment with the same trace_key shares (core::Experiment::shape(),
//    thread-safe). A store-hit request never builds the application.
//  * SINGLE-FLIGHT capture dedup: when two clients need the same capture
//    digest at the same time, exactly ONE runs the instrumented
//    simulation; the others block until the leader has saved the entry
//    and then read it from the store (source kCoalesced). A leader
//    failure propagates to its followers as the error response. Combined
//    with the store double-check after leader election, the service
//    performs exactly one capture per digest no matter how requests
//    interleave.
//  * EVICTION SAFETY: every digest a request depends on is pinned in the
//    TraceStore for the request's whole lifetime (TraceStore::Pin), so
//    capacity-triggered LRU eviction can drop cold entries but never a
//    capture an in-flight request is about to replay.
//
//  * PLAN MEMOIZATION: with a PlanCache attached (opt/plan_cache.hpp),
//    plan() first hashes everything the answer depends on — the sorted
//    capture digests, resolved grid/runs/L2 size and the planner config
//    (opt::PlanKey) — and a cache hit skips pinning, capture, replay and
//    the MCKP solve entirely; the response is bit-identical to the
//    computed one and reports plan_source == kCache + the lookup cost in
//    plan_cache_ms. The disk tier shares the store directory, so warm
//    plans survive the process.
//
//  * SWEEP COALESCING (union-grid single flight): the plan cache dedups
//    EXACT repeats and capture single-flight dedups identical captures,
//    but two concurrent requests over the same captures with DIFFERENT
//    grids would still replay two full sweeps. Compositionality says
//    they need not: a profile point (task, size) is a pure function of
//    the captures and that size alone, independent of what other sizes
//    share the sweep (each size replays its own standalone cache
//    models, and a point's Welford accumulation only sees its own
//    size's samples in run order). So concurrent requests whose sweep
//    key — sorted capture digests, runs, L2 size and the replay-
//    relevant planner knobs (the buffer-policy sets that shape the
//    uniform profiling plans; NOT curvature_eps, which only shapes the
//    per-request solve) — matches merge their grids: the first request
//    becomes the sweep LEADER, later arrivals fold their grid into the
//    union while the sweep is still open (and can still join a sealed
//    sweep whose union covers them); the leader replays the UNION grid
//    once (the fused opt::MultiReplay kernel makes extra sizes nearly
//    free), then every request slices its own sizes out of the shared
//    MissProfile — bit-identical to an uncoalesced sweep — and solves
//    its own plan (per-request planner knobs stay fully honored).
//    Followers never pin, probe the store or replay. Responses carry
//    the role in PlanResponse::sweep (leader|coalesced) and ServiceStats
//    counts sweeps_started / sweeps_coalesced / union_points_saved.
//    `coalesce_window_ms` optionally holds every sweep open for a fixed
//    window so short bursts are guaranteed to merge fully (at the cost
//    of that much leader latency per cache-missing sweep).
//
// plan() never throws: failures (unknown scenario, missing trace_key,
// unusable capture run, corrupt store or plan-cache entry) come back as
// ok == false with the error message. The store's capacity controls are
// surfaced through gc() and store_stats(); the plan cache's through
// plan_cache_stats().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/scenario.hpp"
#include "opt/plan_cache.hpp"
#include "opt/trace_store.hpp"

namespace cms::svc {

/// One planning request. Only `scenario` is required; everything else
/// overrides the registered spec (and, being part of the capture digest,
/// transparently separates store entries per override).
struct PlanRequest {
  std::string scenario;  // name in core::scenarios()
  /// Profiling grid (candidate partition sizes, in sets); empty keeps the
  /// scenario's grid. Entries must be >= 1.
  std::vector<std::uint32_t> grid;
  /// Number of jitter seeds to profile (seeds 0..runs-1); one capture per
  /// seed.
  std::optional<std::uint32_t> runs;
  /// Platform override: L2 capacity in bytes.
  std::optional<std::uint32_t> l2_size_bytes;
  /// Planner override: curvature-thinning tolerance
  /// (opt::PlannerConfig::curvature_eps; negative = auto-tune from the
  /// profile's jitter spread). Must be finite — NaN/inf are rejected as a
  /// request error (they would poison the plan-cache key and the
  /// thinning comparisons alike).
  std::optional<double> curvature_eps;
  /// TRANSPORT-LEVEL deadline (the plan_server line protocol's
  /// `deadline_ms=`): honored by the net front end at ADMISSION — a
  /// request whose deadline expired while queued is answered with an
  /// error line before any planning work starts. The service itself
  /// ignores it (an admitted request runs to completion) and it is part
  /// of no cache or sweep key.
  std::optional<std::uint64_t> deadline_ms;
  /// Phased planning (wire form `phases=all`): plan EVERY phase of a
  /// streaming scenario through the normal pipeline — per-phase capture
  /// digests, sweeps and plan-cache entries, so phases sharing a mix and
  /// content (within this scenario or across scenarios) dedup naturally.
  /// The response carries one full per-phase PlanResponse in schedule
  /// order (PlanResponse::phases). Requesting it for a scenario without
  /// a phase schedule is a request error.
  bool phases = false;
};

/// Where one jitter run's capture came from.
enum class CaptureSource {
  kStoreHit,   // already resident in the trace store
  kCaptured,   // this request ran the instrumented simulation
  kCoalesced,  // waited for a concurrent request's capture (single-flight)
  /// READ-ONLY STORE: the capture need was recorded but the simulation
  /// runs later, inside this request's profile() pass (an ro store could
  /// never hand a leader's capture to followers, so single-flight is
  /// skipped). Reported distinctly because capture_ms does NOT include
  /// that simulation — profile_ms absorbs it — and the capture_started
  /// hook never fires on this path.
  kDeferred,
  kPlanCached,  // plan-cache hit: no capture was needed at all
};
const char* to_string(CaptureSource source);

/// How the response's assignment was produced.
enum class PlanSource {
  kComputed,  // replay + MCKP solve ran for this request
  kCache,     // served from the memoized plan cache (either tier)
};
const char* to_string(PlanSource source);

/// This request's role in the (possibly shared) replay sweep.
enum class SweepRole {
  kLeader,     // this request executed the (union-grid) replay sweep
  kCoalesced,  // sliced its sizes out of a concurrent leader's sweep
  kCache,      // plan-cache hit: no sweep was involved at all
};
const char* to_string(SweepRole role);

struct PlanResponse {
  bool ok = false;
  std::string error;  // set when !ok
  std::string scenario;
  /// Phase name when this is one per-phase entry of a phased response
  /// (see `phases` below); empty at top level and for classic scenarios.
  std::string phase;

  /// The L2 partition assignment (opt::PartitionPlan) — bit-identical to
  /// what a direct Experiment::plan(profile()) would produce.
  opt::PartitionPlan assignment;

  /// Predicted per-task behavior at the assigned sizes, straight from the
  /// isolation profile: expected misses and reconstructed t_i.
  struct TaskPrediction {
    std::string name;
    std::uint32_t sets = 0;
    double predicted_misses = 0.0;
    double predicted_cycles = 0.0;  // t_i at the assigned size
  };
  std::vector<TaskPrediction> tasks;

  /// Per-jitter-run capture provenance, in seed order.
  struct RunProvenance {
    std::uint64_t jitter = 0;
    std::string digest;
    CaptureSource source = CaptureSource::kStoreHit;
  };
  std::vector<RunProvenance> captures;

  std::uint64_t captured() const;    // runs this request simulated
  std::uint64_t store_hits() const;  // runs served straight from the store
  std::uint64_t deferred() const;    // ro-store runs simulated in profile()

  PlanSource plan_source = PlanSource::kComputed;

  /// Sweep-coalescing provenance: kLeader when this request ran the
  /// replay sweep itself (union grid or its own), kCoalesced when it was
  /// sliced out of a concurrent request's union sweep, kCache on a
  /// plan-cache hit. Coalesced responses are bit-identical to what an
  /// uncoalesced execution would have computed — the role is
  /// observability, never a quality statement.
  SweepRole sweep = SweepRole::kLeader;
  /// Grid points the executed (or shared) replay sweep carried — the
  /// request's own grid when nothing coalesced, the union otherwise.
  /// 0 on plan-cache hits and errors.
  std::uint32_t union_points = 0;

  /// Replay engine that produced the profile, RESOLVED to what actually
  /// executed ("scalar" or "persize" — never "auto"), or "cache" when
  /// the response came from the plan cache and no replay ran at all.
  /// Provenance only: kernels are bit-identical by contract, so
  /// cached entries are kernel-independent (bench/micro_plan_service
  /// asserts a cache hit matches a response computed under a DIFFERENT
  /// kernel bit-for-bit).
  std::string replay_kernel;

  /// Pin + store-probe + ensure-capture phase (see kDeferred for the ro
  /// shift). Digest computation precedes every phase timer and shows up
  /// only in total_ms.
  double capture_ms = 0.0;
  double profile_ms = 0.0;  // store-served replay sweep (plus, over a
                            // read-only store, any deferred captures)
  double plan_ms = 0.0;       // MCKP planning
  double plan_cache_ms = 0.0; // plan-cache key + lookup (0 without a cache)
  double total_ms = 0.0;

  /// Per-phase responses of a phased request (PlanRequest::phases), in
  /// schedule order; empty otherwise. The top level then carries no
  /// assignment of its own — each phase does — and its ok is the AND of
  /// the phases' (error = the first failing phase's, prefixed with the
  /// phase name).
  std::vector<PlanResponse> phases;
};

struct PlanningServiceConfig {
  /// The shared capture store (required): warm starts, single-flight
  /// result hand-off and cross-process reuse all live here.
  std::shared_ptr<opt::TraceStore> store;
  /// Campaign workers per request (Experiment::profile fan-out); requests
  /// are additionally concurrent with each other.
  unsigned jobs = 1;
  /// Observability hook: invoked by the single-flight LEADER right before
  /// it runs an instrumented capture simulation (telemetry, tests).
  /// Called concurrently from request threads; must be thread-safe. Only
  /// fires for store-persisted captures — over a READ-ONLY store the
  /// simulations run inside each request's profile() instead and the
  /// hook stays silent (such runs report CaptureSource::kDeferred).
  std::function<void(const std::string& digest)> capture_started;
  /// Optional memoized plan cache (opt/plan_cache.hpp); null recomputes
  /// every plan. Share one instance across services for a process-wide
  /// memo; with a disk tier, point it at the store's directory
  /// (open_plan_cache below wires the CLI flags).
  std::shared_ptr<opt::PlanCache> plan_cache;
  /// Replay engine for the profiling sweeps (--replay-kernel). Any value
  /// yields bit-identical responses; the flag trades wall-clock only, and
  /// the resolved kernel is echoed in PlanResponse::replay_kernel.
  opt::ReplayKernel replay_kernel = opt::ReplayKernel::kAuto;
  /// Sweep-coalescing merge window: a sweep leader holds its sweep OPEN
  /// for AT MOST this long after it was registered, so every request of
  /// a short concurrent burst folds its grid into one union sweep. The
  /// hold ADAPTS to the arrival rate: when no new request has joined the
  /// sweep for a quiet gap (a quarter of the window, clamped to
  /// [1, 50] ms) the burst is over and the sweep seals early — a lone
  /// request pays roughly the gap, never the whole window (such seals
  /// are counted in ServiceStats::sweeps_sealed_early). A steady
  /// trickle of joiners keeps resetting the gap, so the full window
  /// stays the worst-case leader latency and everything admitted within
  /// it is still guaranteed to merge. 0 (the default) adds no latency
  /// and still coalesces whatever arrives during the leader's capture
  /// phase.
  double coalesce_window_ms = 0.0;
  /// Observability hook: invoked by a sweep leader right BEFORE it seals
  /// the union grid (after the merge window). Tests use it to hold a
  /// sweep open deterministically until every expected joiner has
  /// arrived (joiners bump ServiceStats::sweeps_coalesced as they join).
  /// Called from request threads; must be thread-safe.
  std::function<void()> sweep_sealing = nullptr;
  /// Observability hook: invoked by a sweep leader right after sealing,
  /// with the union grid it is about to replay. Fires once per executed
  /// sweep — exactly the ServiceStats::sweeps_started count.
  std::function<void(const std::string& scenario,
                     const std::vector<std::uint32_t>& union_grid)>
      sweep_started = nullptr;
};

/// Aggregate service counters (monotonic, race-free).
struct ServiceStats {
  std::uint64_t requests = 0;  // plan() calls, failed ones included
  /// Captures this service ran as a single-flight leader (instrumented
  /// simulation + store write).
  std::uint64_t captured = 0;
  /// READ-ONLY store: capture needs that could not be persisted and were
  /// deferred into the request's own profile() pass (kDeferred).
  std::uint64_t deferred = 0;
  std::uint64_t store_hits = 0; // capture needs served by the store
  std::uint64_t coalesced = 0;  // capture needs folded into a leader's run
  std::uint64_t plan_cache_hits = 0;  // requests answered from the cache
  /// Union-grid replay sweeps actually executed by a sweep leader.
  std::uint64_t sweeps_started = 0;
  /// Requests that joined a concurrent leader's sweep instead of running
  /// their own (their responses carry SweepRole::kCoalesced).
  std::uint64_t sweeps_coalesced = 0;
  /// Σ over completed sweeps of (requested grid points across all merged
  /// requests − union grid points): replay work avoided by coalescing.
  std::uint64_t union_points_saved = 0;
  /// Merge windows that sealed EARLY because the arrival rate dropped
  /// (no join for the adaptive quiet gap before the window elapsed).
  std::uint64_t sweeps_sealed_early = 0;
};

class PlanningService {
 public:
  /// Throws std::invalid_argument when `cfg.store` is null — a planning
  /// service without a store could neither amortize captures across
  /// requests nor hand single-flight results to followers.
  explicit PlanningService(PlanningServiceConfig cfg);

  PlanningService(const PlanningService&) = delete;
  PlanningService& operator=(const PlanningService&) = delete;

  /// Serve one request. Thread-safe; never throws (failures are returned
  /// as ok == false responses).
  PlanResponse plan(const PlanRequest& req);

  const std::shared_ptr<opt::TraceStore>& store() const { return store_; }
  opt::TraceStore::Stats store_stats() const { return store_->stats(); }
  /// Enforce the store's AND the plan cache's capacity budgets now.
  opt::GcResult gc();
  ServiceStats service_stats() const;

  /// The attached plan cache (null when memoization is off).
  const std::shared_ptr<opt::PlanCache>& plan_cache() const {
    return cfg_.plan_cache;
  }
  /// The cache's own counters; all-zero without a cache.
  opt::PlanCache::Stats plan_cache_stats() const;

 private:
  /// Immutable result a sweep leader publishes to its followers: the
  /// union-grid profile plus everything a follower needs to assemble its
  /// own response without touching the store.
  struct SweepOutcome;
  /// One open/sealed entry in the sweep single-flight table.
  struct SweepState;

  core::Experiment make_experiment(const PlanRequest& req) const;
  /// Apply the request's validated overrides to `cfg`, force the
  /// service's store / replay profiler / jobs / kernel, and build the
  /// Experiment (shared by the whole-scenario and per-phase paths).
  core::Experiment build_experiment(const PlanRequest& req,
                                    core::AppFactory factory,
                                    core::ExperimentConfig cfg) const;
  /// Body of one plan computation — everything after the Experiment is
  /// built: plan-cache probe, sweep coalescing, replay, MCKP solve.
  /// Throws on failure; on return resp.ok == true (total_ms is the
  /// caller's). `scenario` labels the sweep key and the hooks.
  void run_request(const core::Experiment& exp, const std::string& scenario,
                   PlanResponse& resp);
  /// Phased request (PlanRequest::phases): one run_request per compiled
  /// scenario phase, results in resp.phases.
  void plan_phases(const PlanRequest& req, PlanResponse& resp);
  CaptureSource ensure_capture(const core::Experiment& exp,
                               std::uint32_t run, const std::string& digest);

  PlanningServiceConfig cfg_;
  std::shared_ptr<opt::TraceStore> store_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> captured_{0};
  std::atomic<std::uint64_t> deferred_{0};
  std::atomic<std::uint64_t> store_hits_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> plan_cache_hits_{0};
  std::atomic<std::uint64_t> sweeps_started_{0};
  std::atomic<std::uint64_t> sweeps_coalesced_{0};
  std::atomic<std::uint64_t> union_points_saved_{0};
  std::atomic<std::uint64_t> sweeps_sealed_early_{0};

  std::mutex mu_;  // guards inflight_
  std::unordered_map<std::string, std::shared_future<void>> inflight_;

  std::mutex sweeps_mu_;  // guards sweeps_ and each SweepState's grid
  std::unordered_map<std::string, std::shared_ptr<SweepState>> sweeps_;
};

/// Build the service's store per the store and service flag groups
/// (`--trace-dir`, `--trace`, `--service-budget-bytes`,
/// `--service-budget-entries` — see core/cli.hpp): null when `dir` is
/// empty or `mode` is kOff, otherwise a store rooted at `dir` (read-only
/// for kReadOnly) with the given capacity budget.
std::shared_ptr<opt::TraceStore> open_service_store(
    const std::string& dir, core::TraceMode mode,
    opt::Capacity capacity = opt::Capacity());

/// Same, over an explicit backend (e.g. a TieredBackend composed by
/// core::open_store_backend, shared with the plan cache): null when
/// `backend` is null or `mode` is kOff.
std::shared_ptr<opt::TraceStore> open_service_store(
    std::shared_ptr<opt::StoreBackend> backend, core::TraceMode mode,
    opt::Capacity capacity = opt::Capacity());

/// Build a plan cache per the service flag group (`--plan-cache`,
/// `--plan-cache-budget-bytes/-entries` — see core/cli.hpp): null for
/// kOff; memory-only for kMemory; for kDisk the tier-2 entries live in
/// `store_dir` (read-only when `trace_mode` is kReadOnly, memory-only
/// when the dir is empty or the store is off). `budget` applies to each
/// tier.
std::shared_ptr<opt::PlanCache> open_plan_cache(
    core::PlanCacheMode mode, const std::string& store_dir,
    core::TraceMode trace_mode,
    opt::Capacity budget = opt::Capacity());

/// Same, with tier 2 over an explicit backend (typically the one the
/// trace store sits on, so plans ride the same L1/L2 tiering): memory-only
/// when `backend` is null or `trace_mode` is kOff.
std::shared_ptr<opt::PlanCache> open_plan_cache(
    core::PlanCacheMode mode, std::shared_ptr<opt::StoreBackend> backend,
    core::TraceMode trace_mode,
    opt::Capacity budget = opt::Capacity());

}  // namespace cms::svc
