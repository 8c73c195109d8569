// Tests for the timing engine, the OS scheduler and their interplay,
// using small synthetic tasks, plus golden schedule fingerprints of the
// built-in tiny scenarios.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "core/scenario.hpp"
#include "opt/dynamic.hpp"
#include "opt/replay_kernel.hpp"
#include "opt/trace.hpp"
#include "sim/engine.hpp"
#include "sim/os.hpp"
#include "sim/platform.hpp"
#include "sim/task.hpp"

namespace cms::sim {
namespace {

PlatformConfig tiny_platform(std::uint32_t procs = 2) {
  PlatformConfig cfg;
  cfg.hier.num_procs = procs;
  cfg.hier.l1 = mem::CacheConfig{.size_bytes = 1024, .line_bytes = 64, .ways = 2};
  cfg.hier.l2 = mem::CacheConfig{.size_bytes = 16 * 1024, .line_bytes = 64, .ways = 4};
  cfg.task_switch_cost = 10;
  cfg.quantum_firings = 2;
  return cfg;
}

/// Fires `firings` times; each firing does `reads` sequential reads from a
/// private range and `compute` cycles.
class WorkTask final : public Task {
 public:
  WorkTask(TaskId id, std::string name, int firings, int reads, int compute)
      : Task(id, std::move(name)), firings_(firings), reads_(reads),
        compute_(compute) {}

  bool can_fire() const override { return fired_ < firings_; }
  bool done() const override { return fired_ >= firings_; }

  void fire(TaskContext& ctx) override {
    for (int i = 0; i < reads_; ++i) {
      ctx.mem().compute(static_cast<std::uint32_t>(compute_));
      ctx.mem().read(static_cast<Addr>(id()) * 0x100000 +
                         static_cast<Addr>(cursor_++) * 64,
                     4);
    }
    ++fired_;
  }

  int fired() const { return fired_; }

 private:
  int firings_, reads_, compute_;
  int fired_ = 0;
  std::uint64_t cursor_ = 0;
};

/// A task that is never ready (for deadlock detection).
class StuckTask final : public Task {
 public:
  StuckTask(TaskId id) : Task(id, "stuck") {}
  bool can_fire() const override { return false; }
  bool done() const override { return false; }
  void fire(TaskContext&) override {}
};

TEST(Engine, RunsAllFirings) {
  Platform platform(tiny_platform());
  Os os(SchedPolicy::kMigrating, 2);
  WorkTask a(0, "a", 5, 10, 3), b(1, "b", 7, 4, 2);
  TimingEngine engine(platform, os, {&a, &b});
  const SimResults res = engine.run();
  EXPECT_FALSE(res.deadlocked);
  EXPECT_EQ(a.fired(), 5);
  EXPECT_EQ(b.fired(), 7);
  ASSERT_EQ(res.tasks.size(), 2u);
  EXPECT_EQ(res.tasks[0].firings, 5u);
  EXPECT_EQ(res.tasks[1].firings, 7u);
  EXPECT_GT(res.makespan, 0u);
}

TEST(Engine, InstructionAccounting) {
  Platform platform(tiny_platform(1));
  Os os(SchedPolicy::kMigrating, 1);
  WorkTask a(0, "a", 2, 10, 3);
  TimingEngine engine(platform, os, {&a});
  const SimResults res = engine.run();
  // Each firing: 10 reads + 30 compute cycles = 40 "instructions".
  EXPECT_EQ(res.tasks[0].instructions, 80u);
  EXPECT_EQ(res.total_instructions, 80u);
}

TEST(Engine, DetectsDeadlock) {
  Platform platform(tiny_platform());
  Os os(SchedPolicy::kMigrating, 2);
  StuckTask s(0);
  TimingEngine engine(platform, os, {&s});
  const SimResults res = engine.run();
  EXPECT_TRUE(res.deadlocked);
}

TEST(Engine, FinishedPredicateStopsEarly) {
  Platform platform(tiny_platform());
  Os os(SchedPolicy::kMigrating, 2);
  WorkTask a(0, "a", 1000000, 2, 1);
  int count = 0;
  TimingEngine engine(platform, os, {&a}, [&count] { return ++count > 50; });
  const SimResults res = engine.run();
  EXPECT_FALSE(res.deadlocked);
  EXPECT_LT(a.fired(), 1000000);
}

TEST(Engine, StaticAssignmentPinsTasks) {
  Platform platform(tiny_platform(2));
  Os os(SchedPolicy::kStatic, 2);
  WorkTask a(0, "a", 6, 4, 2), b(1, "b", 6, 4, 2);
  os.assign(0, 0);
  os.assign(1, 1);
  TimingEngine engine(platform, os, {&a, &b});
  const SimResults res = engine.run();
  EXPECT_FALSE(res.deadlocked);
  // Both processors did work (one task each).
  EXPECT_GT(res.procs[0].instructions, 0u);
  EXPECT_GT(res.procs[1].instructions, 0u);
}

TEST(Engine, StaticAssignmentToOneProcLeavesOtherIdle) {
  Platform platform(tiny_platform(2));
  Os os(SchedPolicy::kStatic, 2);
  WorkTask a(0, "a", 6, 4, 2), b(1, "b", 6, 4, 2);
  os.assign(0, 0);
  os.assign(1, 0);
  TimingEngine engine(platform, os, {&a, &b});
  const SimResults res = engine.run();
  EXPECT_FALSE(res.deadlocked);
  EXPECT_EQ(res.procs[1].instructions, 0u);
  EXPECT_GT(res.procs[0].switches, 0u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Platform platform(tiny_platform());
    Os os(SchedPolicy::kMigrating, 2, 3);
    WorkTask a(0, "a", 20, 8, 2), b(1, "b", 15, 6, 3), c(2, "c", 10, 12, 1);
    TimingEngine engine(platform, os, {&a, &b, &c});
    return engine.run();
  };
  const SimResults r1 = run_once();
  const SimResults r2 = run_once();
  EXPECT_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.l2_misses, r2.l2_misses);
  for (std::size_t i = 0; i < r1.tasks.size(); ++i) {
    EXPECT_EQ(r1.tasks[i].l2.misses, r2.tasks[i].l2.misses);
    EXPECT_EQ(r1.tasks[i].active_cycles, r2.tasks[i].active_cycles);
  }
}

TEST(Engine, JitterChangesScheduleButNotWork) {
  auto run_with = [](std::uint64_t jitter) {
    Platform platform(tiny_platform());
    Os os(SchedPolicy::kMigrating, 2, jitter);
    WorkTask a(0, "a", 20, 8, 2), b(1, "b", 15, 6, 3), c(2, "c", 10, 12, 1);
    TimingEngine engine(platform, os, {&a, &b, &c});
    return engine.run();
  };
  const SimResults r1 = run_with(0);
  const SimResults r2 = run_with(1);
  // The same firings happen in both runs.
  EXPECT_EQ(r1.tasks[0].firings, r2.tasks[0].firings);
  EXPECT_EQ(r1.tasks[0].instructions, r2.tasks[0].instructions);
}

TEST(Engine, SwitchCostCharged) {
  Platform platform(tiny_platform(1));
  Os os(SchedPolicy::kMigrating, 1);
  WorkTask a(0, "a", 4, 2, 1), b(1, "b", 4, 2, 1);
  TimingEngine engine(platform, os, {&a, &b});
  const SimResults res = engine.run();
  EXPECT_GT(res.procs[0].switches, 1u);
  EXPECT_GE(res.procs[0].switch_cycles,
            res.procs[0].switches * tiny_platform().task_switch_cost);
}

TEST(Engine, QuantumKeepsTaskScheduled) {
  // With quantum 4 and two tasks on one processor, switches are bounded
  // by roughly total_firings / quantum (plus one).
  PlatformConfig cfg = tiny_platform(1);
  cfg.quantum_firings = 4;
  Platform platform(cfg);
  Os os(SchedPolicy::kMigrating, 1);
  WorkTask a(0, "a", 16, 2, 1), b(1, "b", 16, 2, 1);
  TimingEngine engine(platform, os, {&a, &b});
  const SimResults res = engine.run();
  EXPECT_LE(res.procs[0].switches, 10u);
}

TEST(Engine, CpiAtLeastOne) {
  Platform platform(tiny_platform());
  Os os(SchedPolicy::kMigrating, 2);
  WorkTask a(0, "a", 10, 10, 2);
  TimingEngine engine(platform, os, {&a});
  const SimResults res = engine.run();
  for (const auto& p : res.procs) {
    if (p.instructions > 0) {
      EXPECT_GE(p.cpi(), 1.0);
    }
  }
}

TEST(Engine, DispatchLimitStopsRunaway) {
  PlatformConfig cfg = tiny_platform();
  cfg.max_dispatches = 10;
  Platform platform(cfg);
  Os os(SchedPolicy::kMigrating, 2);
  WorkTask a(0, "a", 1000000, 1, 1);
  TimingEngine engine(platform, os, {&a});
  const SimResults res = engine.run();
  EXPECT_TRUE(res.hit_dispatch_limit);
  EXPECT_EQ(res.dispatches, 10u);
}

/// FNV-1a 64 over every counter of a run: per-task, per-processor and
/// per-buffer stats, makespan, dispatches, the L2 totals and traffic.
std::uint64_t results_fingerprint(const SimResults& r) {
  serialize::ByteWriter w;
  const auto cache = [&w](const mem::CacheStats& s) {
    w.varint(s.accesses);
    w.varint(s.hits);
    w.varint(s.misses);
    w.varint(s.cold_misses);
    w.varint(s.writebacks);
    w.varint(s.evictions_by_other);
  };
  for (const TaskRunStats& t : r.tasks) {
    w.varint(t.id);
    w.str(t.name);
    w.varint(t.firings);
    w.varint(t.instructions);
    w.varint(t.compute_cycles);
    w.varint(t.mem_cycles);
    w.varint(t.active_cycles);
    w.varint(t.l2_demand_misses);
    cache(t.l2);
  }
  for (const BufferRunStats& b : r.buffers) {
    w.varint(b.id);
    w.str(b.name);
    cache(b.l2);
  }
  for (const ProcRunStats& p : r.procs) {
    w.varint(static_cast<std::uint64_t>(p.id));
    w.varint(p.cycles);
    w.varint(p.busy_cycles);
    w.varint(p.idle_cycles);
    w.varint(p.switch_cycles);
    w.varint(p.switches);
    w.varint(p.instructions);
  }
  w.varint(r.l2_accesses);
  w.varint(r.l2_misses);
  w.varint(r.traffic.l1_accesses);
  w.varint(r.traffic.l2_accesses);
  w.varint(r.traffic.dram_accesses);
  w.varint(r.traffic.offchip_bytes);
  w.varint(r.makespan);
  w.varint(r.total_instructions);
  w.varint(r.dispatches);
  w.u8(r.deadlocked ? 1 : 0);
  w.u8(r.hit_dispatch_limit ? 1 : 0);
  return serialize::fnv1a64(w.bytes().data(), w.size());
}

std::uint64_t capture_fingerprint(const opt::CaptureRun& capture) {
  const std::vector<std::uint8_t> bytes = opt::encode_capture(capture, "");
  return serialize::fnv1a64(bytes.data(), bytes.size());
}

/// A hand-built run of `spec`'s application under `plan`, so the test can
/// install what core::execute_job does not: a Suh-style epoch hook that
/// repartitions the L2 from `plan` every `epoch` cycles (when non-zero),
/// and the phase schedule of a streaming app (when `phased`). Cycles seen
/// by the hooks are folded into the fingerprint, so hook timing is pinned
/// as well as its effect on the counters.
std::uint64_t hooked_run_fingerprint(const core::ScenarioSpec& spec,
                                     const opt::PartitionPlan& plan,
                                     Cycle epoch, bool phased) {
  apps::Application app = spec.factory();
  PlatformConfig pc = spec.experiment.platform;
  pc.rt_data = app.rt_data;
  pc.rt_bss = app.rt_bss;
  Platform platform(pc);
  for (const auto& b : app.net->buffers())
    platform.hierarchy().l2().interval_table().add(b.base, b.footprint, b.id);
  plan.apply(platform.hierarchy().l2());
  Os os(spec.experiment.policy, pc.hier.num_procs, spec.experiment.eval_jitter);
  TimingEngine engine(platform, os, app.net->tasks());
  engine.set_buffer_names(app.net->buffer_names());

  serialize::ByteWriter hooks;
  opt::DynamicPartitioner dyn(plan);
  int epochs = 0;
  if (epoch > 0)
    engine.set_epoch_hook(epoch, [&](Cycle now, mem::MemoryHierarchy& h) {
      ++epochs;
      hooks.varint(now);
      dyn.epoch(now, h);
    });
  if (phased) {
    std::vector<std::vector<TaskId>> phases;
    for (const auto& u : app.phases) phases.push_back(u->tasks);
    engine.set_phase_schedule(phases);
    engine.set_phase_hook([&](std::size_t k, Cycle now, mem::MemoryHierarchy&) {
      hooks.varint(k);
      hooks.varint(now);
    });
  }
  const SimResults res = engine.run();
  EXPECT_FALSE(res.deadlocked);
  EXPECT_TRUE(app.verify());
  if (epoch > 0) {
    EXPECT_GT(epochs, 2);
  }
  hooks.varint(dyn.moves());
  return serialize::fnv1a64(hooks.bytes().data(), hooks.size(),
                            results_fingerprint(res));
}

/// Every schedule-dependent output of one tiny scenario: the encoded
/// captures of jitter runs 0 and 1, the shared and partitioned co-runs,
/// a kStatic-policy run, a partitioned run under an epoch hook and, for
/// streaming scenarios, a phase-gated run.
std::vector<std::pair<std::string, std::uint64_t>> scenario_fingerprints(
    const std::string& name) {
  core::ScenarioSpec spec = core::scenarios().get(name);
  spec.experiment.profile_runs = 2;
  const core::Experiment exp(spec.factory, spec.experiment);

  std::vector<std::pair<std::string, std::uint64_t>> out;
  std::vector<opt::CaptureRun> captures;
  for (std::uint32_t run = 0; run < 2; ++run) {
    bool usable = false;
    captures.push_back(exp.capture_single(run, &usable));
    EXPECT_TRUE(usable) << name << " capture " << run;
    out.emplace_back("capture" + std::to_string(run),
                     capture_fingerprint(captures.back()));
  }
  const mem::HierarchyConfig& hier = spec.experiment.platform.hier;
  const opt::MissProfile prof = opt::replay_profile_multi(
      exp.multi_replay_jobs(captures), hier.l2, hier.l2_seed(),
      opt::miss_surcharge(hier), opt::ReplayKernel::kAuto);
  const opt::PartitionPlan plan = exp.plan(prof);
  EXPECT_TRUE(plan.feasible) << name;

  const core::RunOutput shared = exp.run_shared();
  const core::RunOutput part = exp.run_partitioned(plan);
  EXPECT_TRUE(shared.verified && part.verified) << name;
  out.emplace_back("shared", results_fingerprint(shared.results));
  out.emplace_back("partitioned", results_fingerprint(part.results));

  core::ExperimentConfig pinned = spec.experiment;
  pinned.policy = SchedPolicy::kStatic;
  const core::RunOutput stat = core::Experiment(spec.factory, pinned).run_shared();
  EXPECT_TRUE(stat.verified) << name;
  out.emplace_back("static", results_fingerprint(stat.results));

  out.emplace_back("epoch", hooked_run_fingerprint(spec, plan, 20000, false));
  if (!spec.phases.empty())
    out.emplace_back("phased", hooked_run_fingerprint(spec, plan, 0, true));
  return out;
}

// Absolute schedules of the tiny scenarios. Replay == full simulation and
// the determinism tests only compare the engine with itself, so a drift
// in dispatch order, tie-breaking or hook timing that stays
// self-consistent would pass them; these fingerprints catch it. A change
// that is MEANT to alter schedules must update the table (each mismatch
// prints the new value).
TEST(Engine, GoldenScheduleFingerprints) {
  struct Golden {
    const char* scenario;
    const char* run;
    std::uint64_t fingerprint;
  };
  const std::vector<Golden> golden = {
      {"jpeg-canny-tiny", "capture0", 0x86e3305751de631full},
      {"jpeg-canny-tiny", "capture1", 0xa5f5ddfd98a35affull},
      {"jpeg-canny-tiny", "shared", 0xbe3f861d65bfb33cull},
      {"jpeg-canny-tiny", "partitioned", 0x48aaf54debb9328aull},
      {"jpeg-canny-tiny", "static", 0x40503e7923592956ull},
      {"jpeg-canny-tiny", "epoch", 0xac3a500e8df763f0ull},
      {"mpeg2-tiny", "capture0", 0x9770d28a5e06ef9aull},
      {"mpeg2-tiny", "capture1", 0x9770d28a5e06ef9aull},
      {"mpeg2-tiny", "shared", 0xc1a2f7246ce498b4ull},
      {"mpeg2-tiny", "partitioned", 0xdf97b9bfa35859ceull},
      {"mpeg2-tiny", "static", 0x959f6e482459a18aull},
      {"mpeg2-tiny", "epoch", 0xb7ad14bc9c92c3a7ull},
      {"mpeg2-tiny-rand", "capture0", 0x9770d28a5e06ef9aull},
      {"mpeg2-tiny-rand", "capture1", 0x9770d28a5e06ef9aull},
      {"mpeg2-tiny-rand", "shared", 0xe0b07193b9885c8bull},
      {"mpeg2-tiny-rand", "partitioned", 0xf72241f6fbf772e9ull},
      {"mpeg2-tiny-rand", "static", 0xc3c9904597cadbb3ull},
      {"mpeg2-tiny-rand", "epoch", 0xb104c26eaa52a947ull},
      {"stream-tiny", "capture0", 0xd24efe4697babc06ull},
      {"stream-tiny", "capture1", 0xe4d2de2ec6ae00d4ull},
      {"stream-tiny", "shared", 0x4e02b4d3407b0d0eull},
      {"stream-tiny", "partitioned", 0x62c6a4515fa913bcull},
      {"stream-tiny", "static", 0x81eee114a303c410ull},
      {"stream-tiny", "epoch", 0x965e527ec3783cddull},
      {"stream-tiny", "phased", 0x286c95d2cd3555aeull},
  };
  for (const char* name :
       {"jpeg-canny-tiny", "mpeg2-tiny", "mpeg2-tiny-rand", "stream-tiny"}) {
    for (const auto& [run, fp] : scenario_fingerprints(name)) {
      char row[128];
      std::snprintf(row, sizeof row, "{\"%s\", \"%s\", 0x%016" PRIx64 "ull}",
                    name, run.c_str(), fp);
      const Golden* g = nullptr;
      for (const Golden& r : golden)
        if (name == std::string(r.scenario) && run == r.run) g = &r;
      if (g == nullptr) {
        ADD_FAILURE() << "no golden row; measured " << row;
        continue;
      }
      EXPECT_EQ(fp, g->fingerprint) << "measured " << row;
    }
  }
}

TEST(Os, RoundRobinCyclesThroughReadyTasks) {
  Os os(SchedPolicy::kMigrating, 1);
  WorkTask a(0, "a", 5, 1, 1), b(1, "b", 5, 1, 1), c(2, "c", 5, 1, 1);
  std::vector<Task*> tasks = {&a, &b, &c};
  std::vector<bool> busy(3, false);
  const int first = os.pick(0, tasks, busy);
  const int second = os.pick(0, tasks, busy);
  const int third = os.pick(0, tasks, busy);
  EXPECT_NE(first, second);
  EXPECT_NE(second, third);
  EXPECT_NE(first, third);
}

TEST(Os, SkipsBusyTasks) {
  Os os(SchedPolicy::kMigrating, 1);
  WorkTask a(0, "a", 5, 1, 1), b(1, "b", 5, 1, 1);
  std::vector<Task*> tasks = {&a, &b};
  std::vector<bool> busy = {true, false};
  EXPECT_EQ(os.pick(0, tasks, busy), 1);
}

TEST(Os, StaticPolicyFiltersByAssignment) {
  Os os(SchedPolicy::kStatic, 2);
  WorkTask a(0, "a", 5, 1, 1), b(1, "b", 5, 1, 1);
  os.assign(0, 0);
  os.assign(1, 1);
  std::vector<Task*> tasks = {&a, &b};
  std::vector<bool> busy(2, false);
  EXPECT_EQ(os.pick(0, tasks, busy), 0);
  EXPECT_EQ(os.pick(1, tasks, busy), 1);
}

TEST(Os, UnassignedTaskNeverPickedUnderStatic) {
  Os os(SchedPolicy::kStatic, 1);
  WorkTask a(0, "a", 5, 1, 1);
  std::vector<Task*> tasks = {&a};
  std::vector<bool> busy = {false};
  EXPECT_EQ(os.pick(0, tasks, busy), -1);
}

TEST(Os, FailedPickHasNoSideEffects) {
  // The engine asks an idle processor once and then skips it until the
  // scheduling state changes; that is only sound if a failed pick changes
  // nothing a later pick depends on (cursors, lazy cursor seeding).
  for (const SchedPolicy policy : {SchedPolicy::kMigrating, SchedPolicy::kStatic}) {
    for (const std::uint64_t jitter : {0ull, 5ull}) {
      WorkTask a(0, "a", 5, 1, 1), b(1, "b", 5, 1, 1), c(2, "c", 5, 1, 1);
      std::vector<Task*> tasks = {&a, &b, &c};
      const std::vector<bool> all_busy(3, true);
      const std::vector<bool> none_busy(3, false);
      Os with_failures(policy, 2, jitter), without(policy, 2, jitter);
      for (Os* os : {&with_failures, &without})
        for (const TaskId t : {0, 1, 2}) os->assign(t, 0);

      std::vector<int> expected, got;
      for (int round = 0; round < 4; ++round) {
        EXPECT_EQ(with_failures.pick(0, tasks, all_busy), -1);
        // Under kStatic nothing is pinned to processor 1, so it fails
        // even with every task ready.
        EXPECT_EQ(with_failures.pick(1, tasks,
                                     policy == SchedPolicy::kStatic ? none_busy
                                                                    : all_busy),
                  -1);
        got.push_back(with_failures.pick(0, tasks, none_busy));
        expected.push_back(without.pick(0, tasks, none_busy));
      }
      EXPECT_EQ(got, expected);
      EXPECT_NE(got.front(), -1);
    }
  }
}

}  // namespace
}  // namespace cms::sim
