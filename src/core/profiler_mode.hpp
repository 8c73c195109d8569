// ProfilerMode / TraceMode live in their own header so the flag table
// (core/cli.hpp) can name them without dragging the whole Experiment/sim
// stack into every bench and example TU. The enumerators follow the
// order of their flags' choice lists (Args::choice relies on it).
#pragma once

#include <cstdint>

namespace cms::core {

/// How Experiment::profile() measures the miss curves.
enum class ProfilerMode : std::uint8_t {
  /// One full simulation per (grid size x jitter run) — the reference.
  kFullSim,
  /// One instrumented simulation per jitter run captures every client's
  /// L2-bound stream; every grid point is then replayed through
  /// standalone cache models (opt/trace.hpp). Bit-identical profiles at
  /// ~grid-times fewer engine runs, for every replacement policy
  /// (kRandom replacement is counter-based per client, so it replays
  /// exactly too).
  kTraceReplay,
};

/// Persistence of profiling captures (--trace=off|ro|rw + --trace-dir).
/// With a store attached, kTraceReplay consults it before capturing:
/// hits skip the instrumented simulation entirely, misses capture live
/// and (in kReadWrite) write back — capture once, replay across
/// processes and runs (opt/trace_store.hpp).
enum class TraceMode : std::uint8_t {
  kOff,        // no persistence: captures live and die with the process
  kReadOnly,   // serve store hits, never write (frozen CI stores)
  kReadWrite,  // serve hits, write back misses (the default with a dir)
};

/// Far tier of a two-level store (--store-l2=off|ro|rw + --store-l2-dir).
/// With an L2 attached, the local --trace-dir becomes the L1 of an
/// opt::TieredBackend: L1 misses read through to the L2 (hits promoted
/// into L1), writes go through to both tiers in kReadWrite, and every
/// L2 failure degrades to L1-only with a logged warning — a fleet then
/// captures each digest once GLOBALLY, not once per box.
enum class StoreL2Mode : std::uint8_t {
  kOff,        // no far tier: the local directory is the whole store
  kReadOnly,   // serve L2 hits, never write through (frozen shared tier)
  kReadWrite,  // read through and write through (the default with a dir)
};

/// Memoized plan cache of the planning service (--plan-cache=off|mem|disk
/// + --plan-cache-budget-bytes/-entries). A PlanResponse is a pure
/// function of its capture digests, grid and planner config, so warm
/// requests can skip pinning, capture, replay AND the MCKP solve
/// entirely (opt/plan_cache.hpp).
enum class PlanCacheMode : std::uint8_t {
  kOff,     // recompute every request (the pre-cache behavior)
  kMemory,  // tier 1 only: memoized within this process
  kDisk,    // tiers 1+2: .cmsplan entries in the trace-store dir survive
            // the process (read-only when the store is read-only)
};

}  // namespace cms::core
