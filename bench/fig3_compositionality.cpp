// Figure 3 — "Expected-simulated performance comparison for every task".
//
// The model's expected misses (average M_i over the isolation profile at
// the chosen sizes) are compared with the misses observed when the whole
// application runs under the chosen partitioning. The paper's headline:
// "the largest difference for a task between the expected and simulated
// number of misses relative to the overall simulated number of misses is
// 2%" — that residual comes from the neglected effects (task switching,
// L1 and bus contention).
//
// Exits nonzero when either app's plan is infeasible, its partitioned run
// fails functional verification, or its max per-task error exceeds the
// paper's 2% bound.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "common/table.hpp"

using namespace cms;

namespace {

/// Prints one app's figure; returns false on an infeasible plan, a failed
/// functional verification or an error above the paper's 2% bound.
bool run_app(const char* title, const core::AppFactory& factory,
             const core::ExperimentConfig& cfg) {
  print_banner(title);
  core::Experiment exp(factory, cfg);
  const opt::MissProfile prof = exp.profile();
  const opt::PartitionPlan plan = exp.plan(prof);
  if (!plan.feasible) {
    std::printf("plan infeasible!\n");
    return false;
  }
  const core::RunOutput part = exp.run_partitioned(plan);
  const opt::CompositionalityReport rep =
      opt::compare_expected_vs_simulated(prof, plan, part.results);

  Table t({"task", "sets", "expected misses", "simulated misses",
           "|diff| / total %"});
  for (const auto& row : rep.rows) {
    t.row()
        .cell(row.task)
        .integer(row.sets)
        .integer(static_cast<std::int64_t>(row.expected))
        .integer(static_cast<std::int64_t>(row.simulated))
        .num(100.0 * row.rel_to_total, 3)
        .done();
  }
  t.print();
  const bool within = rep.within(0.02);
  std::printf(
      "max per-task |expected - simulated| relative to total simulated "
      "misses: %.3f%%  (paper: <= 2%%)  [%s]\n",
      100.0 * rep.max_rel_to_total,
      within ? "within the paper's bound" : "above the paper's bound");
  std::printf("functional verification: %s\n",
              part.verified ? "PASS" : "FAIL");
  return within && part.verified;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_jobs(argc, argv);
  const core::ProfilerMode prof = bench::parse_profiler(argc, argv);
  const auto store = bench::parse_trace_store(argc, argv);
  // Both apps run even when the first fails, so one invocation reports all.
  const bool ok1 =
      run_app("Figure 3a: expected vs simulated misses — 2 jpegs & canny",
              bench::app1_factory(), bench::app1_experiment(jobs, prof, store));
  const bool ok2 =
      run_app("Figure 3b: expected vs simulated misses — mpeg2",
              bench::app2_factory(), bench::app2_experiment(jobs, prof, store));
  return ok1 && ok2 ? 0 : 1;
}
