// Ablation C — MCKP solver comparison (google-benchmark): the exact DP,
// the branch-and-bound "ILP solver", and the greedy marginal-gain
// baseline, on synthetic miss-curve instances shaped like the measured
// ones (convex-ish, diminishing returns).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "opt/mckp.hpp"

namespace {

using cms::opt::MckpGroup;
using cms::opt::MckpSolution;

std::vector<MckpGroup> make_instance(int groups, int options,
                                     std::uint64_t seed) {
  cms::Rng rng(seed);
  std::vector<MckpGroup> out;
  for (int g = 0; g < groups; ++g) {
    MckpGroup grp;
    grp.name = "task" + std::to_string(g);
    double misses = 500.0 + rng.next_double() * 5000.0;
    std::uint32_t size = 1;
    for (int i = 0; i < options; ++i) {
      grp.items.push_back({size, misses});
      size *= 2;
      misses *= 0.25 + rng.next_double() * 0.5;
    }
    out.push_back(std::move(grp));
  }
  return out;
}

/// Dense-grid instance shaped like a replay-profiled 64-point sweep: one
/// option per integer size, with long flat stretches between knees — the
/// input prune_mckp_items exists for.
std::vector<MckpGroup> make_dense_instance(int groups, int options,
                                           std::uint64_t seed) {
  cms::Rng rng(seed);
  std::vector<MckpGroup> out;
  for (int g = 0; g < groups; ++g) {
    MckpGroup grp;
    grp.name = "task" + std::to_string(g);
    double misses = 500.0 + rng.next_double() * 5000.0;
    for (int i = 0; i < options; ++i) {
      grp.items.push_back({static_cast<std::uint32_t>(i + 1), misses});
      if (rng.chance(0.15)) misses *= 0.3 + rng.next_double() * 0.5;  // knee
    }
    out.push_back(std::move(grp));
  }
  return out;
}

void BM_MckpDp(benchmark::State& state) {
  const auto groups = make_instance(static_cast<int>(state.range(0)), 9, 1);
  const auto cap = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    MckpSolution s = cms::opt::solve_mckp_dp(groups, cap);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_MckpDp)->Args({15, 512})->Args({15, 2048})->Args({32, 2048});

void BM_MckpBranchBound(benchmark::State& state) {
  const auto groups = make_instance(static_cast<int>(state.range(0)), 9, 1);
  const auto cap = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    MckpSolution s = cms::opt::solve_mckp_branch_bound(groups, cap);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_MckpBranchBound)->Args({15, 512})->Args({15, 2048});

void BM_MckpGreedy(benchmark::State& state) {
  const auto groups = make_instance(static_cast<int>(state.range(0)), 9, 1);
  const auto cap = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    MckpSolution s = cms::opt::solve_mckp_greedy(groups, cap);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_MckpGreedy)->Args({15, 512})->Args({15, 2048})->Args({32, 2048});

/// Solution-quality report (printed once): greedy's optimality gap.
void BM_GreedyQualityGap(benchmark::State& state) {
  double worst_gap = 0.0;
  for (auto _ : state) {
    worst_gap = 0.0;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const auto groups = make_instance(15, 9, seed);
      const MckpSolution dp = cms::opt::solve_mckp_dp(groups, 512);
      const MckpSolution gr = cms::opt::solve_mckp_greedy(groups, 512);
      if (dp.feasible && gr.feasible && dp.total_cost > 0) {
        const double gap = (gr.total_cost - dp.total_cost) / dp.total_cost;
        worst_gap = std::max(worst_gap, gap);
      }
    }
    benchmark::DoNotOptimize(worst_gap);
  }
  state.counters["worst_gap_pct"] = 100.0 * worst_gap;
}
BENCHMARK(BM_GreedyQualityGap)->Iterations(1);

/// Dense 64-point grids, as produced by trace-replay profiling: DP with
/// and without dominance pruning. Pruning is exact, so both arms return
/// the same total cost; the counters report how many candidates survive.
void BM_MckpDenseDp(benchmark::State& state) {
  auto groups = make_dense_instance(static_cast<int>(state.range(0)), 64, 1);
  const bool prune = state.range(1) != 0;
  std::size_t kept = 0;
  if (prune) {
    kept = 0;
    for (auto& g : groups) {
      cms::opt::prune_mckp_items(g.items);
      kept += g.items.size();
    }
  } else {
    for (const auto& g : groups) kept += g.items.size();
  }
  for (auto _ : state) {
    MckpSolution s = cms::opt::solve_mckp_dp(groups, 512);
    benchmark::DoNotOptimize(s);
  }
  state.counters["candidates"] = static_cast<double>(kept);
}
BENCHMARK(BM_MckpDenseDp)->Args({15, 0})->Args({15, 1})->Args({32, 1});

}  // namespace

// BENCHMARK_MAIN, except that an unknown flag exits 2 like every other
// bench (google-benchmark's own --help prints its flags and exits 0).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
