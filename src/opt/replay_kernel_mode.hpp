// ReplayKernel lives in its own header so callers can select it without
// dragging the whole trace/replay stack into every bench and example TU
// (same reasoning as core/profiler_mode.hpp). The enumerators follow the
// order of the --replay-kernel choice list in core/cli.hpp.
#pragma once

#include <cstdint>

namespace cms::opt {

/// Which replay engine executes the profiling sweep. Every engine is
/// BIT-IDENTICAL in output (misses, demand misses, reconstructed t_i);
/// they differ only in wall-clock. See opt/replay_kernel.hpp for the
/// fused-kernel contract and resolve_replay_kernel for the mapping.
enum class ReplayKernel : std::uint8_t {
  /// The default: the fused multi-size kernel (resolves to kScalar).
  kAuto,
  /// Fused multi-size kernel: each trace decoded once for every grid
  /// size, scalar tag compares.
  kScalar,
  /// Legacy one-standalone-cache-per-grid-size loop (opt::replay_fragment)
  /// — one full pass over every trace PER SIZE. Kept as the independent
  /// reference implementation the fused kernel is verified against.
  kPerSize,
};

inline const char* to_string(ReplayKernel k) {
  switch (k) {
    case ReplayKernel::kAuto: return "auto";
    case ReplayKernel::kScalar: return "scalar";
    case ReplayKernel::kPerSize: return "persize";
  }
  return "?";
}

}  // namespace cms::opt
