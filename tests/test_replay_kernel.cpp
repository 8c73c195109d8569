// Tests for the fused multi-size replay kernel (opt/replay_kernel.hpp):
// bit-identity of the fused kernel — requested as scalar and as the auto
// default — against the per-size reference replay, over the
// built-in scenarios (LRU, counter-based kRandom, the dense 64-point
// grid) and at several campaign worker counts; synthetic captures pin
// the FIFO and write-through-no-allocate cache paths, the non-power-of-2
// set counts the Lemire fast-mod handles, and the trace-to-L2 line-size
// rescale; plus the kernel resolution rules themselves.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "opt/replay_kernel.hpp"
#include "opt/trace.hpp"

namespace cms::opt {
namespace {

// Every request that runs the fused kernel: by name and the auto default.
const ReplayKernel kFusedKernels[] = {ReplayKernel::kScalar,
                                      ReplayKernel::kAuto};

// ---- built-in scenarios: fused engines vs the per-size reference ----

MissProfile persize_reference(const core::Experiment& exp,
                              const std::vector<CaptureRun>& captures) {
  const auto& hier = exp.config().platform.hier;
  return replay_profile(exp.replay_jobs(captures), hier.l2, hier.l2_seed(),
                        miss_surcharge(hier));
}

MissProfile fused_profile(const core::Experiment& exp,
                          const std::vector<CaptureRun>& captures,
                          ReplayKernel kernel) {
  const auto& hier = exp.config().platform.hier;
  return replay_profile_multi(exp.multi_replay_jobs(captures), hier.l2,
                              hier.l2_seed(), miss_surcharge(hier), kernel);
}

class ReplayKernelScenario : public ::testing::TestWithParam<const char*> {};

TEST_P(ReplayKernelScenario, EveryKernelMatchesPerSizeReference) {
  const core::Experiment exp = core::scenarios().make_experiment(
      GetParam(), 1, core::ProfilerMode::kTraceReplay);
  const std::vector<CaptureRun> captures = exp.capture_runs();
  const MissProfile ref = persize_reference(exp, captures);
  for (const ReplayKernel k : kFusedKernels)
    EXPECT_TRUE(ref.identical(fused_profile(exp, captures, k)))
        << "kernel " << to_string(k) << " (resolved "
        << to_string(resolve_replay_kernel(k)) << ")";
}

INSTANTIATE_TEST_SUITE_P(
    BuiltIns, ReplayKernelScenario,
    ::testing::Values("jpeg-canny-tiny", "mpeg2-tiny", "mpeg2-tiny-rand",
                      "jpeg-canny-dense"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The Experiment-level path: profile() routed through the fused kernel
// must be worker-count invariant (the campaign shards per stream, the
// fold is serial) and match the per-size engine at every count.
TEST(ReplayKernelExperiment, WorkerCountAndKernelInvariant) {
  for (const char* name : {"mpeg2-tiny-rand", "jpeg-canny-dense"}) {
    const MissProfile ref =
        core::scenarios()
            .make_experiment(name, 1, core::ProfilerMode::kTraceReplay,
                             nullptr, ReplayKernel::kPerSize)
            .profile();
    for (const unsigned jobs : {1u, 2u, 8u}) {
      const core::Experiment exp = core::scenarios().make_experiment(
          name, jobs, core::ProfilerMode::kTraceReplay, nullptr,
          ReplayKernel::kAuto);
      EXPECT_TRUE(ref.identical(exp.profile()))
          << name << " auto jobs=" << jobs;
    }
    const core::Experiment scalar2 = core::scenarios().make_experiment(
        name, 2, core::ProfilerMode::kTraceReplay, nullptr,
        ReplayKernel::kScalar);
    EXPECT_TRUE(ref.identical(scalar2.profile())) << name << " scalar jobs=2";
  }
}

// ---- synthetic captures: cache paths the built-ins do not pin ----

constexpr Cycle kSurcharge = 25;
constexpr std::uint64_t kSeed = 0xC0FFEEu ^ 42u;

/// Deterministic LCG-driven stream: reads and (optionally) writes plus
/// occasional L1-writeback drains over a line span larger than any test
/// cache, issuer drawn per event from `issuers` to exercise the task-slot
/// cache (ids absent from the capture's task table land in the trash
/// slot on both engines).
ClientTrace synth_stream(mem::ClientId client, std::uint64_t seed,
                         std::uint64_t events, std::uint64_t line_span,
                         const std::vector<TaskId>& issuers) {
  ClientTrace t(client);
  std::uint64_t x = seed;
  for (std::uint64_t i = 0; i < events; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t line = (x >> 33) % line_span;
    const AccessType type =
        ((x >> 13) & 3) == 0 ? AccessType::kWrite : AccessType::kRead;
    const bool writeback = ((x >> 21) & 15) == 0;
    t.append(line, type, writeback, issuers[(x >> 5) % issuers.size()]);
  }
  return t;
}

CaptureRun synth_capture(std::uint32_t line_bytes = 64) {
  CaptureRun c;
  c.trace.line_bytes = line_bytes;
  c.trace.streams.push_back(
      synth_stream(mem::ClientId::task(0), 11, 3000, 640, {0}));
  c.trace.streams.push_back(
      synth_stream(mem::ClientId::task(1), 22, 2500, 512, {1}));
  // A shared buffer stream with interleaved issuers; id 99 is not in the
  // task table, so its demand misses hit the trash slot.
  c.trace.streams.push_back(
      synth_stream(mem::ClientId::buffer(7), 33, 2000, 320, {0, 1, 99}));
  c.tasks = {{0, "t0", 1000, 5000, 800}, {1, "t1", 900, 4000, 700}};
  return c;
}

/// Uniform isolation plan: every stream gets `client_sets` exclusive
/// sets out of a 64-set virtual total (the conventional-index modulus).
std::shared_ptr<const PartitionPlan> synth_plan(const CaptureRun& c,
                                                std::uint32_t client_sets) {
  auto plan = std::make_shared<PartitionPlan>();
  plan->total_sets = 64;
  std::uint32_t base = 0;
  for (const ClientTrace& s : c.trace.streams) {
    PlanEntry e;
    e.client = s.client();
    e.name = s.client().to_string();
    e.is_task = !s.client().is_buffer();
    e.sets = client_sets;
    e.partition = {base, client_sets};
    base += client_sets;
    plan->entries.push_back(std::move(e));
  }
  plan->used_sets = base;
  plan->feasible = true;
  return plan;
}

// Non-power-of-2 sizes exercise the Lemire fast-mod lanes; 1 pins the
// degenerate d=1 geometry.
const std::vector<std::uint32_t> kSynthSizes = {1, 2, 3, 5, 8};

MissProfile synth_reference(const CaptureRun& c, const mem::CacheConfig& l2) {
  std::vector<ProfileFragment> frags;
  for (std::size_t i = 0; i < kSynthSizes.size(); ++i)
    frags.push_back(replay_fragment(c, *synth_plan(c, kSynthSizes[i]), l2,
                                    kSeed, kSynthSizes[i], i, kSurcharge));
  return fold_fragments(std::move(frags));
}

MissProfile synth_fused(const CaptureRun& c, const mem::CacheConfig& l2,
                        ReplayKernel kernel) {
  std::vector<ReplayGridPoint> points;
  for (std::size_t i = 0; i < kSynthSizes.size(); ++i)
    points.push_back({synth_plan(c, kSynthSizes[i]), kSynthSizes[i], i});
  MultiReplay mr(c, std::move(points), l2, kSeed, kernel);
  for (std::size_t s = 0; s < mr.num_streams(); ++s) mr.replay_stream(s);
  return fold_fragments(mr.fragments(kSurcharge));
}

void expect_synth_identity(const CaptureRun& c, const mem::CacheConfig& l2) {
  const MissProfile ref = synth_reference(c, l2);
  for (const ReplayKernel k : kFusedKernels)
    EXPECT_TRUE(ref.identical(synth_fused(c, l2, k)))
        << "kernel " << to_string(k) << " l2 " << l2.to_string();
}

TEST(ReplayKernelSynthetic, FifoReplacement) {
  mem::CacheConfig l2;
  l2.size_bytes = 16 * 1024;
  l2.ways = 4;
  l2.replacement = mem::Replacement::kFifo;
  expect_synth_identity(synth_capture(), l2);
}

TEST(ReplayKernelSynthetic, WriteThroughNoAllocate) {
  mem::CacheConfig l2;
  l2.size_bytes = 16 * 1024;
  l2.ways = 4;
  l2.write_policy = mem::WritePolicy::kWriteThroughNoAllocate;
  expect_synth_identity(synth_capture(), l2);
}

// The trickiest interaction: a no-allocate write miss must count as a
// miss WITHOUT consuming a victim draw, or every later kRandom victim of
// that client shifts.
TEST(ReplayKernelSynthetic, RandomReplacementWithNoAllocate) {
  mem::CacheConfig l2;
  l2.size_bytes = 16 * 1024;
  l2.ways = 4;
  l2.replacement = mem::Replacement::kRandom;
  l2.write_policy = mem::WritePolicy::kWriteThroughNoAllocate;
  expect_synth_identity(synth_capture(), l2);
}

// Captures recorded at a different line size than the replay L2 rescale
// line indices on both engines identically.
TEST(ReplayKernelSynthetic, LineBytesRescale) {
  mem::CacheConfig l2;
  l2.size_bytes = 16 * 1024;
  l2.ways = 4;
  expect_synth_identity(synth_capture(/*line_bytes=*/128), l2);
}

TEST(ReplayKernelSynthetic, UnplannedClientThrows) {
  const CaptureRun c = synth_capture();
  auto plan = std::make_shared<PartitionPlan>(*synth_plan(c, 2));
  plan->entries.pop_back();  // drop the buffer stream's entry
  const mem::CacheConfig l2;
  std::vector<ReplayGridPoint> points = {{plan, 2, 0}};
  EXPECT_THROW(MultiReplay(c, points, l2, kSeed, ReplayKernel::kScalar),
               std::invalid_argument);
  EXPECT_THROW(replay_fragment(c, *plan, l2, kSeed, 2, 0, kSurcharge),
               std::invalid_argument);
}

// ---- kernel resolution ----

TEST(ReplayKernelDispatch, ResolveRules) {
  // The same on every host: auto is the fused kernel, the named engines
  // resolve to themselves.
  EXPECT_EQ(resolve_replay_kernel(ReplayKernel::kAuto), ReplayKernel::kScalar);
  EXPECT_EQ(resolve_replay_kernel(ReplayKernel::kScalar),
            ReplayKernel::kScalar);
  EXPECT_EQ(resolve_replay_kernel(ReplayKernel::kPerSize),
            ReplayKernel::kPerSize);
}

TEST(ReplayKernelDispatch, KernelNames) {
  EXPECT_STREQ(to_string(ReplayKernel::kAuto), "auto");
  EXPECT_STREQ(to_string(ReplayKernel::kScalar), "scalar");
  EXPECT_STREQ(to_string(ReplayKernel::kPerSize), "persize");
}

TEST(ReplayKernelDispatch, MultiReplayNeverRunsPerSize) {
  const CaptureRun c = synth_capture();
  std::vector<ReplayGridPoint> points = {{synth_plan(c, 2), 2, 0}};
  const MultiReplay mr(c, std::move(points), mem::CacheConfig(), kSeed,
                       ReplayKernel::kPerSize);
  EXPECT_EQ(mr.kernel(), ReplayKernel::kScalar);
}

}  // namespace
}  // namespace cms::opt
