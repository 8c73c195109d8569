// Shared configuration of the benchmark harnesses that regenerate the
// paper's tables and figures.
//
// Scaling note (see DESIGN.md and EXPERIMENTS.md): the paper evaluates on
// a 512 KB L2 with production-sized content (their MPEG2 footprint sits
// between 512 KB and 1 MB — doubling the shared L2 to 1 MB nearly matched
// the partitioned 512 KB). We use QCIF-class synthetic content, so the L2
// is scaled to keep the footprint/capacity ratio in the same regime:
//  * application 1 (2x JPEG + Canny): QCIF content, 96 KB 4-way L2;
//  * application 2 (MPEG2): 128x96 content, 10 frames, 64 KB 4-way L2.
// Trends and ratios — who wins, by what factor, where the crossovers are —
// are the reproduction targets, not absolute miss counts.
#pragma once

#include <cstdio>
#include <memory>

#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "opt/trace_store.hpp"

namespace cms::bench {

/// The persistent capture store the kStoreFlags group selects (null when
/// --trace-dir is absent or --trace=off). With --store-l2-dir DIR,
/// --store-l2-dir tcp://host:port or --store-l2 tcp://host:port the local
/// dir becomes the L1 of a tiered store over the shared far tier (a
/// directory or a blob_server daemon), so every bench can replay a
/// fleet-shared capture corpus.
inline std::shared_ptr<opt::TraceStore> open_trace_store(
    const core::cli::Args& args) {
  const auto [dir, mode, l2_target, l2] = core::cli::store_choice(args);
  return core::open_trace_store(dir, mode, l2_target, l2);
}

/// What the campaign and store groups select. Results are bit-identical
/// for any of them, so benches default to serial full simulation for
/// undisturbed timing and let the flags speed things up on demand.
struct CampaignFlags {
  unsigned jobs = 1;
  core::ProfilerMode profiler = core::ProfilerMode::kFullSim;
  std::shared_ptr<opt::TraceStore> store;
};

inline CampaignFlags campaign_flags(const core::cli::Args& args) {
  return {args.count<unsigned>("--jobs"),
          args.choice<core::ProfilerMode>("--profiler"),
          open_trace_store(args)};
}

/// The command line of a paper bench: the campaign and store groups.
inline CampaignFlags parse_campaign_flags(int argc, char** argv) {
  return campaign_flags(core::cli::parse_or_exit(
      argc, argv, {core::cli::kCampaignFlags, core::cli::kStoreFlags}));
}

inline apps::AppConfig app1_content() {
  apps::AppConfig cfg;  // QCIF defaults: 176x144 + 128x96 + 176x144
  cfg.jpeg_pictures = 4;
  cfg.canny_frames = 4;
  return cfg;
}

inline apps::AppConfig app2_content() {
  apps::AppConfig cfg;
  cfg.m2v_width = 128;
  cfg.m2v_height = 96;
  cfg.m2v_frames = 10;
  return cfg;
}

inline core::AppFactory app1_factory() {
  return [] { return apps::make_jpeg_canny_app(app1_content()); };
}

inline core::AppFactory app2_factory() {
  return [] { return apps::make_m2v_app(app2_content()); };
}

/// The benches' experiments, run as `flags` asks. The trace_key is always
/// set, so attaching a store later also works.
inline core::ExperimentConfig app1_experiment(const CampaignFlags& flags = {}) {
  core::ExperimentConfig cfg;
  cfg.platform.hier.l2.size_bytes = 96 * 1024;
  cfg.profile_runs = 2;
  cfg.jobs = flags.jobs;
  cfg.profiler = flags.profiler;
  cfg.trace_store = flags.store;
  cfg.trace_key = core::app_trace_key("bench-app1", app1_content());
  return cfg;
}

inline core::ExperimentConfig app2_experiment(const CampaignFlags& flags = {}) {
  core::ExperimentConfig cfg;
  cfg.platform.hier.l2.size_bytes = 64 * 1024;
  cfg.profile_runs = 2;
  cfg.jobs = flags.jobs;
  cfg.profiler = flags.profiler;
  cfg.trace_store = flags.store;
  cfg.trace_key = core::app_trace_key("bench-app2", app2_content());
  return cfg;
}

inline void print_run_summary(const char* label, const core::RunOutput& out) {
  std::printf(
      "%-22s L2 misses %8llu / %8llu accesses (%.2f%%)  mean CPI %.3f  "
      "makespan %llu  %s%s\n",
      label, static_cast<unsigned long long>(out.results.l2_misses),
      static_cast<unsigned long long>(out.results.l2_accesses),
      100.0 * out.results.l2_miss_rate(), out.results.mean_cpi(),
      static_cast<unsigned long long>(out.results.makespan),
      out.verified ? "[verified]" : "[VERIFY FAILED]",
      out.results.deadlocked ? " [DEADLOCK]" : "");
}

}  // namespace cms::bench
