// Integration tests: the full Experiment pipeline on tiny app instances —
// functional verification, compositionality, and the headline shared-vs-
// partitioned comparison in the conflict-heavy regime.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>

#include "core/experiment.hpp"

namespace cms::core {
namespace {

ExperimentConfig tiny_experiment(std::uint32_t l2_kb = 32) {
  ExperimentConfig cfg;
  cfg.platform.hier.l2.size_bytes = l2_kb * 1024;
  cfg.profile_grid = {1, 2, 4, 8, 16};
  cfg.profile_runs = 1;
  return cfg;
}

AppFactory tiny_jpeg_canny(std::uint64_t seed = 7) {
  return [seed] { return apps::make_jpeg_canny_app(apps::AppConfig::tiny(seed)); };
}

AppFactory tiny_m2v(std::uint64_t seed = 7) {
  return [seed] { return apps::make_m2v_app(apps::AppConfig::tiny(seed)); };
}

TEST(Experiment, TaskAndBufferInventories) {
  Experiment exp(tiny_jpeg_canny(), tiny_experiment());
  const auto tasks = exp.tasks();
  EXPECT_EQ(tasks.size(), 15u);  // 2 x 4 JPEG tasks + 7 Canny tasks
  const auto buffers = exp.buffers();
  EXPECT_GT(buffers.size(), 10u);  // fifos + frames + 4 segments
  int segments = 0;
  for (const auto& b : buffers)
    segments += b.kind == kpn::BufferKind::kSegment;
  EXPECT_EQ(segments, 4);  // appl data/bss, rt data/bss
}

/// tiny_m2v that counts its builds in `builds` and throws while `fail`
/// is set.
AppFactory counted_m2v(std::shared_ptr<std::atomic<int>> builds,
                       std::shared_ptr<std::atomic<bool>> fail = nullptr) {
  return [builds, fail] {
    ++*builds;
    if (fail != nullptr && fail->load())
      throw std::runtime_error("factory failure");
    return apps::make_m2v_app(apps::AppConfig::tiny(7));
  };
}

TEST(Experiment, ShapeIsBuiltOnceAndSharedByCopies) {
  // Empty trace_key: one build per Experiment, shared by its copies.
  auto builds = std::make_shared<std::atomic<int>>(0);
  const Experiment exp(counted_m2v(builds), tiny_experiment());
  EXPECT_EQ(builds->load(), 0);  // lazy: construction builds nothing
  EXPECT_EQ(exp.tasks().size(), 13u);
  EXPECT_EQ(exp.profile_jobs().size(), 5u);
  const Experiment wide = exp.with_grid({1, 32});
  EXPECT_EQ(wide.config().profile_grid, (std::vector<std::uint32_t>{1, 32}));
  EXPECT_EQ(exp.config().profile_grid, tiny_experiment().profile_grid);
  EXPECT_EQ(wide.profile_jobs().size(), 2u);
  exp.buffers();
  EXPECT_EQ(builds->load(), 1);
  EXPECT_TRUE(wide.shape() == AppShape::of(counted_m2v(builds)()));

  // Another Experiment without a key resolves its own shape.
  const Experiment other(counted_m2v(builds), tiny_experiment());
  other.shape();
  EXPECT_EQ(builds->load(), 3);
}

TEST(Experiment, ShapeIsSharedPerTraceKey) {
  auto builds = std::make_shared<std::atomic<int>>(0);
  ExperimentConfig cfg = tiny_experiment();
  cfg.trace_key = "test-experiment/shape-per-key";
  const Experiment a(counted_m2v(builds), cfg);
  const Experiment b(counted_m2v(builds), cfg);
  EXPECT_TRUE(a.shape() == b.shape());
  EXPECT_EQ(&a.shape(), &b.shape());
  EXPECT_EQ(builds->load(), 1);

  cfg.trace_key += "/other";
  const Experiment c(counted_m2v(builds), cfg);
  c.shape();
  EXPECT_EQ(builds->load(), 2);
}

TEST(Experiment, FactoryFailureSurfacesAtUseAndRetries) {
  auto builds = std::make_shared<std::atomic<int>>(0);
  auto fail = std::make_shared<std::atomic<bool>>(true);
  ExperimentConfig cfg = tiny_experiment();
  cfg.trace_key = "test-experiment/failing-factory";
  const Experiment exp(counted_m2v(builds, fail), cfg);  // must not throw
  EXPECT_THROW(exp.profile_jobs(), std::runtime_error);
  EXPECT_THROW(exp.plan(opt::MissProfile{}), std::runtime_error);
  EXPECT_EQ(builds->load(), 2);  // a failure is not cached
  fail->store(false);
  EXPECT_EQ(exp.tasks().size(), 13u);
  exp.buffers();
  EXPECT_EQ(builds->load(), 3);
}

TEST(Experiment, M2vHasThirteenTasks) {
  Experiment exp(tiny_m2v(), tiny_experiment());
  EXPECT_EQ(exp.tasks().size(), 13u);
}

TEST(Experiment, SharedRunVerifiesFunctionally) {
  Experiment exp(tiny_jpeg_canny(), tiny_experiment());
  const RunOutput out = exp.run_shared();
  EXPECT_TRUE(out.verified);
  EXPECT_FALSE(out.results.deadlocked);
  EXPECT_FALSE(out.partitioned);
  EXPECT_GT(out.results.l2_accesses, 0u);
}

TEST(Experiment, PartitionedRunVerifiesFunctionally) {
  Experiment exp(tiny_m2v(), tiny_experiment());
  const auto prof = exp.profile();
  const auto plan = exp.plan(prof);
  ASSERT_TRUE(plan.feasible);
  const RunOutput out = exp.run_partitioned(plan);
  EXPECT_TRUE(out.verified);
  EXPECT_TRUE(out.partitioned);
  EXPECT_FALSE(out.results.deadlocked);
}

TEST(Experiment, RunsAreDeterministic) {
  Experiment exp(tiny_jpeg_canny(), tiny_experiment());
  const RunOutput a = exp.run_shared();
  const RunOutput b = exp.run_shared();
  EXPECT_EQ(a.results.l2_misses, b.results.l2_misses);
  EXPECT_EQ(a.results.makespan, b.results.makespan);
}

TEST(Experiment, ProfileCoversGridForEveryTask) {
  ExperimentConfig cfg = tiny_experiment();
  cfg.profile_grid = {1, 4};
  Experiment exp(tiny_m2v(), cfg);
  const auto prof = exp.profile();
  for (const auto& [id, name] : exp.tasks()) {
    EXPECT_TRUE(prof.has(name)) << name;
    EXPECT_EQ(prof.sizes(name).size(), 2u) << name;
  }
}

TEST(Experiment, MissCurvesAreRoughlyMonotone) {
  Experiment exp(tiny_jpeg_canny(), tiny_experiment());
  const auto prof = exp.profile();
  for (const auto& [id, name] : exp.tasks()) {
    const double at_min = prof.misses(name, 1);
    const double at_max = prof.misses(name, 16);
    EXPECT_LE(at_max, at_min * 1.05 + 50.0) << name;  // small tolerance
  }
}

TEST(Experiment, CompositionalityWithinPaperBound) {
  // The paper's Figure 3: expected-vs-simulated per-task difference
  // relative to total misses stays small (theirs: <= 2%).
  Experiment exp(tiny_m2v(), tiny_experiment());
  const auto prof = exp.profile();
  const auto plan = exp.plan(prof);
  ASSERT_TRUE(plan.feasible);
  const RunOutput out = exp.run_partitioned(plan);
  const auto rep =
      opt::compare_expected_vs_simulated(prof, plan, out.results);
  EXPECT_FALSE(rep.rows.empty());
  EXPECT_TRUE(rep.within(0.05)) << "max rel diff " << rep.max_rel_to_total;
}

TEST(Experiment, PerTaskMissesIndependentOfCoRunners) {
  // Strong compositionality: a task's misses under the full partitioned
  // app equal its misses when profiled in isolation at the same size.
  Experiment exp(tiny_jpeg_canny(), tiny_experiment());
  const auto prof = exp.profile();
  const auto plan = exp.plan(prof);
  const RunOutput out = exp.run_partitioned(plan);
  double total = 0;
  for (const auto& t : out.results.tasks) total += static_cast<double>(t.l2.misses);
  for (const auto& entry : plan.entries) {
    if (!entry.is_task) continue;
    const auto* t = out.results.find_task(entry.name);
    ASSERT_NE(t, nullptr);
    const double expected = prof.misses(entry.name, entry.sets);
    EXPECT_NEAR(static_cast<double>(t->l2.misses), expected,
                0.05 * total + 20.0)
        << entry.name;
  }
}

TEST(Experiment, PartitioningReducesMissesUnderPressure) {
  // In the conflict-heavy regime (small L2 relative to footprint) the
  // paper's headline result must hold: partitioned < shared misses.
  ExperimentConfig cfg = tiny_experiment(16);  // deliberately small L2
  Experiment exp(tiny_jpeg_canny(), cfg);
  const auto prof = exp.profile();
  const auto plan = exp.plan(prof);
  ASSERT_TRUE(plan.feasible);
  const RunOutput shared = exp.run_shared();
  const RunOutput part = exp.run_partitioned(plan);
  EXPECT_TRUE(shared.verified);
  EXPECT_TRUE(part.verified);
  EXPECT_LT(part.results.l2_misses, shared.results.l2_misses);
}

TEST(Experiment, LargerSharedL2Helps) {
  Experiment small(tiny_m2v(), tiny_experiment(16));
  Experiment large(tiny_m2v(), tiny_experiment(16));
  const RunOutput s16 = small.run_shared();
  const RunOutput s128 = large.run_shared_with_l2(128 * 1024);
  EXPECT_LT(s128.results.l2_misses, s16.results.l2_misses);
}

TEST(Experiment, StaticPolicyAlsoRunsToCompletion) {
  ExperimentConfig cfg = tiny_experiment();
  cfg.policy = sim::SchedPolicy::kStatic;
  Experiment exp(tiny_m2v(), cfg);
  // Static assignment requires assigning tasks; round-robin by id happens
  // in the harness... verify it completes without deadlock.
  const RunOutput out = exp.run_shared();
  EXPECT_FALSE(out.results.deadlocked);
  EXPECT_TRUE(out.verified);
}

}  // namespace
}  // namespace cms::core
