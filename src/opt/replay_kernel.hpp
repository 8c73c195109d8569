// Fused multi-size replay kernel (the O(1 decode) replacement for the
// per-size replay loop of opt/trace.hpp).
//
// replay_profile pays the dominant cost of a sweep — decoding every
// client's delta-encoded trace and walking a cache model — once PER GRID
// SIZE: a 64-point grid decodes each stream 64 times. But the streams are
// size-invariant (that is the whole premise of capture/replay), so the
// kernel here decodes each stream ONCE and pushes every event through ALL
// grid sizes in one pass. Per stream it keeps one structure-of-arrays
// block of replacement state per grid point ("lane"): flat tag and stamp
// arrays (tag = line_index + 1, 0 = the invalid sentinel, so the "which
// way holds this tag" and "first invalid way" probes are the same
// compare), a per-lane kRandom replacement counter, per-lane miss
// counters and a per-(task-slot, lane) demand-miss matrix.
//
// Bit-identity contract: the fused kernel produces fragments whose fold
// is MissProfile::identical to the per-size path's, because it
// replicates mem::SetAssocCache outcome semantics exactly (see
// run_stream in replay_kernel.cpp for the invariant list) and only
// outcome state is modeled — per
// SetAssocCache::kOutcomeStateIsTagsStampsCounters, dirty bits, owners
// and the cold-miss table cannot change a hit/miss.
// tests/test_replay_kernel.cpp pins this for every scenario and worker
// count against the per-size reference (ReplayKernel::kPerSize).
//
// One body: the way scan is a plain scalar loop over the set's ways.
// Wider tag compares were measured on evaluation-size captures and did
// not pay for themselves, so there is no ISA dispatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "mem/cache_config.hpp"
#include "opt/planner.hpp"
#include "opt/profile.hpp"
#include "opt/replay_kernel_mode.hpp"
#include "opt/trace.hpp"

namespace cms::opt {

/// Map a requested kernel to the one that will actually execute: kAuto
/// is the fused kernel (kScalar); kScalar and kPerSize resolve to
/// themselves. Callers echo the resolved kernel, e.g. the `kernel` field
/// of bench/service JSON.
ReplayKernel resolve_replay_kernel(ReplayKernel requested);

/// One grid point of a fused replay: the uniform isolation plan of that
/// point, its grid label and its fragment's canonical schedule position
/// (same meaning as ReplayJob::sets / ::order).
struct ReplayGridPoint {
  std::shared_ptr<const PartitionPlan> plan;
  std::uint32_t sets = 0;
  std::uint64_t order = 0;
};

/// One fused work unit: a capture plus EVERY grid point it is profiled
/// at. Replaces |points| ReplayJobs.
struct MultiReplayJob {
  const CaptureRun* capture = nullptr;
  std::vector<ReplayGridPoint> points;
};

/// Decode-once multi-size replay of one capture. Usage:
///
///   MultiReplay mr(capture, points, l2, l2_seed, kernel);
///   for (std::size_t s = 0; s < mr.num_streams(); ++s)  // any order /
///     mr.replay_stream(s);                              // any threads
///   auto frags = mr.fragments(surcharge);   // after ALL streams done
///
/// replay_stream(s) is safe to call concurrently for DISTINCT s: streams
/// are independent (the per-size model gives each its own standalone
/// cache), and each stream writes only its own counter rows — this is
/// what lets core::Experiment fan a sweep out per (capture, stream)
/// instead of per (capture, size). fragments() folds nothing: it emits
/// one ProfileFragment per grid point, sample-for-sample identical to
/// replay_fragment's (tasks in capture order, then buffer streams in
/// stream order), tagged with the point's `order`.
class MultiReplay {
 public:
  /// Validates up front that every stream's client has an entry in every
  /// point's plan; throws std::invalid_argument (same message as
  /// replay_fragment) otherwise. `kernel` is resolved via
  /// resolve_replay_kernel; kPerSize is not meaningful here and runs the
  /// fused kernel.
  MultiReplay(const CaptureRun& capture, std::vector<ReplayGridPoint> points,
              const mem::CacheConfig& l2, std::uint64_t l2_seed,
              ReplayKernel kernel);

  std::size_t num_streams() const { return capture_->trace.streams.size(); }
  ReplayKernel kernel() const { return kernel_; }

  /// Replay stream `s` through every grid point in one pass. Allocates
  /// the stream's tag/stamp state locally (freed on return); only the
  /// stream's miss/demand counter rows persist.
  void replay_stream(std::size_t s);

  /// One fragment per grid point, bit-identical to the per-size path.
  /// Call only after every stream has been replayed.
  std::vector<ProfileFragment> fragments(Cycle surcharge) const;

 private:
  const CaptureRun* capture_;
  std::vector<ReplayGridPoint> points_;
  mem::CacheConfig l2_;
  std::uint64_t l2_seed_;
  ReplayKernel kernel_;
  /// Task-slot table: capture_->tasks creation order; slot slot_ids_.size()
  /// is the shared trash slot for ids outside the table.
  std::vector<TaskId> slot_ids_;
  /// client_sets_[s][p]: stream s's exclusive sets at point p (the plan
  /// lookup hoisted out of the hot pass).
  std::vector<std::vector<std::uint32_t>> client_sets_;
  /// misses_[s][p]: stream s's total misses at point p.
  std::vector<std::vector<std::uint64_t>> misses_;
  /// demand_[s][slot * npoints + p]: demand misses attributed to task
  /// slot `slot` by stream s's events at point p. Kept PER STREAM so
  /// concurrent replay_stream calls never share a cache line of output;
  /// fragments() sums across streams (integer addition — order-free).
  std::vector<std::vector<std::uint64_t>> demand_;
};

/// Serial driver over fused jobs: replay every stream of every job, fold
/// all fragments. Bit-identical to replay_profile over the equivalent
/// per-size job list (same orders → same fold sequence).
MissProfile replay_profile_multi(const std::vector<MultiReplayJob>& jobs,
                                 const mem::CacheConfig& l2,
                                 std::uint64_t l2_seed, Cycle surcharge,
                                 ReplayKernel kernel);

}  // namespace cms::opt
