// Campaign scaling microbenchmark (acceptance check for the parallel
// runner): Experiment::profile() on the JPEG workload, executed with an
// increasing number of campaign workers. Verifies that every parallel
// MissProfile is bit-identical to the serial one and reports per-jobs
// wall-clock timings as JSON, e.g.
//
//   ./micro_campaign --jobs 4
//   {"bench": "micro_campaign", ..., "runs": [{"jobs": 1, "ms": ...}, ...],
//    "identical": true, "speedup_max_jobs": 2.31}
//
// Flags: --jobs N   highest worker count measured (default 4)
//        --full     evaluation-sized content + full 9-point sweep grid
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_common.hpp"

using namespace cms;

namespace {

double profile_ms(const core::Experiment& exp, opt::MissProfile& out) {
  const auto t0 = std::chrono::steady_clock::now();
  out = exp.profile();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  // 0 = hardware concurrency, like every other binary.
  const unsigned max_jobs =
      core::Campaign::resolve_jobs(bench::parse_jobs(argc, argv, 4));
  const bool full = bench::has_flag(argc, argv, "--full");

  apps::AppConfig content = bench::app1_content();
  core::ExperimentConfig cfg = bench::app1_experiment();
  if (!full) {
    // Reduced content + grid: enough work per job to time meaningfully,
    // small enough that the whole sweep finishes in seconds.
    content.jpeg_pictures = 2;
    content.canny_frames = 2;
    cfg.profile_grid = {1, 4, 16, 64, 256};
    cfg.trace_key = core::app_trace_key("bench-app1", content);
  }
  const core::AppFactory factory = [content] {
    return apps::make_jpeg_canny_app(content);
  };

  std::vector<unsigned> jobs_axis = {1};
  // `j <= max_jobs / 2` keeps the doubling wrap-free for any max_jobs.
  for (unsigned j = 2; j <= max_jobs / 2; j *= 2) jobs_axis.push_back(j);
  if (max_jobs > 1) jobs_axis.push_back(max_jobs);

  opt::MissProfile serial;
  double serial_ms = 0.0;
  bool identical = true;
  std::vector<std::pair<unsigned, double>> timings;

  for (const unsigned jobs : jobs_axis) {
    cfg.jobs = jobs;
    core::Experiment exp(factory, cfg);
    opt::MissProfile prof;
    const double ms = profile_ms(exp, prof);
    timings.emplace_back(jobs, ms);
    if (jobs == 1) {
      serial = prof;
      serial_ms = ms;
    } else {
      identical = identical && prof.identical(serial);
    }
  }

  const double last_ms = timings.back().second;
  const double speedup = last_ms > 0.0 ? serial_ms / last_ms : 0.0;
  const std::size_t sims =
      cfg.profile_grid.size() * std::max(1u, cfg.profile_runs);

  std::printf("{\"bench\": \"micro_campaign\", \"app\": \"jpeg-canny\", "
              "\"sims_per_sweep\": %zu, \"runs\": [",
              sims);
  for (std::size_t i = 0; i < timings.size(); ++i)
    std::printf("%s{\"jobs\": %u, \"ms\": %.1f}", i ? ", " : "",
                timings[i].first, timings[i].second);
  std::printf("], \"identical\": %s, \"speedup_max_jobs\": %.2f}\n",
              identical ? "true" : "false", speedup);
  return identical ? 0 : 1;
}
