// Ablation D — microbenchmarks (google-benchmark) of the memory-substrate
// hot paths: raw cache access, partitioned access with index translation,
// interval-table lookup, and a full hierarchy access.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "mem/hierarchy.hpp"
#include "mem/interval_table.hpp"
#include "mem/partitioned_cache.hpp"

namespace {

using namespace cms;
using namespace cms::mem;

CacheConfig l2cfg() {
  return CacheConfig{.size_bytes = 512 * 1024, .line_bytes = 64, .ways = 4};
}

void BM_RawCacheAccess(benchmark::State& state) {
  SetAssocCache cache(l2cfg());
  Rng rng(1);
  std::vector<Addr> addrs(4096);
  for (auto& a : addrs) a = rng.below(1 << 22) & ~63ull;
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = cache.access(addrs[i++ & 4095], AccessType::kRead, ClientId::task(0));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RawCacheAccess);

void BM_PartitionedAccessSharedMode(benchmark::State& state) {
  PartitionedCache l2(l2cfg());
  l2.set_partitioning_enabled(false);
  Rng rng(2);
  std::vector<Addr> addrs(4096);
  for (auto& a : addrs) a = rng.below(1 << 22) & ~63ull;
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = l2.access(static_cast<TaskId>(i & 7), addrs[i & 4095],
                       AccessType::kRead);
    ++i;
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PartitionedAccessSharedMode);

void BM_PartitionedAccessTranslated(benchmark::State& state) {
  PartitionedCache l2(l2cfg());
  for (int t = 0; t < 8; ++t)
    l2.partition_table().assign(ClientId::task(t),
                                {static_cast<std::uint32_t>(t) * 64, 64});
  l2.set_partitioning_enabled(true);
  Rng rng(3);
  std::vector<Addr> addrs(4096);
  for (auto& a : addrs) a = rng.below(1 << 22) & ~63ull;
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = l2.access(static_cast<TaskId>(i & 7), addrs[i & 4095],
                       AccessType::kRead);
    ++i;
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PartitionedAccessTranslated);

void BM_IntervalLookup(benchmark::State& state) {
  IntervalTable table;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i)
    table.add(static_cast<Addr>(i) * 0x10000, 0x8000, i);
  Rng rng(4);
  std::vector<Addr> probes(4096);
  for (auto& p : probes)
    p = rng.below(static_cast<std::uint64_t>(n) * 0x10000);
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = table.lookup(probes[i++ & 4095]);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_IntervalLookup)->Arg(8)->Arg(32)->Arg(128);

void BM_HierarchyAccess(benchmark::State& state) {
  HierarchyConfig cfg;
  cfg.num_procs = 4;
  MemoryHierarchy h(cfg);
  Rng rng(5);
  std::vector<Addr> addrs(4096);
  for (auto& a : addrs) a = rng.below(1 << 24) & ~7ull;
  std::size_t i = 0;
  Cycle now = 0;
  for (auto _ : state) {
    const auto out = h.access(static_cast<ProcId>(i & 3), static_cast<TaskId>(i & 7),
                              addrs[i & 4095], 8, AccessType::kRead, now);
    now += 2;
    ++i;
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_HierarchyAccess);

void BM_L1HitPath(benchmark::State& state) {
  HierarchyConfig cfg;
  MemoryHierarchy h(cfg);
  h.access(0, 0, 0x1000, 8, AccessType::kRead, 0);  // warm one line
  Cycle now = 0;
  for (auto _ : state) {
    const auto out = h.access(0, 0, 0x1000, 8, AccessType::kRead, now);
    now += 2;
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_L1HitPath);

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
