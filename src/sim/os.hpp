// Operating-system model: task scheduling plus the cache-allocation
// primitives the paper adds to the OS ("it offers primitives of cache
// allocation for tasks and for shared memory", section 4.2).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "mem/partitioned_cache.hpp"
#include "sim/task.hpp"

namespace cms::sim {

enum class SchedPolicy : std::uint8_t {
  /// Tasks are pinned to processors (the static assignment required by the
  /// paper's exact throughput formulation, section 3.1).
  kStatic,
  /// Any idle processor may pick any ready task (the paper's experimental
  /// system "allows task migration and dynamic scheduling").
  kMigrating,
};

class Os {
 public:
  /// `jitter` perturbs the initial round-robin cursors deterministically;
  /// the profiler averages miss counts over several jitter values (the
  /// paper averages M_ik "out of different simulations").
  Os(SchedPolicy policy, std::uint32_t num_procs, std::uint64_t jitter = 0)
      : policy_(policy), jitter_(jitter), cursors_(num_procs, 0),
        cursors_seeded_(false) {}

  SchedPolicy policy() const { return policy_; }

  /// Pin `task` to `proc` (kStatic policy; ignored when migrating).
  void assign(TaskId task, ProcId proc) { assignment_[task] = proc; }
  ProcId assignment(TaskId task) const {
    const auto it = assignment_.find(task);
    return it != assignment_.end() ? it->second : -1;
  }

  /// Round-robin pick of the next fireable task for `proc`. `busy[i]`
  /// marks tasks currently dispatched on some processor (a task instance
  /// is sequential). Returns the index into `tasks`, or -1.
  ///
  /// Contract: a pick that returns -1 leaves the scheduler untouched — no
  /// cursor moves, and the lazy cursor seeding it may trigger yields the
  /// same cursors any later first pick would. So asking again with the
  /// same tasks and `busy` gives -1 again, and a later successful pick
  /// chooses exactly what it would have without the failed one. The
  /// timing engine relies on this to skip re-asking a blocked processor
  /// until a dispatch or drain changes the scheduling state.
  int pick(ProcId proc, const std::vector<Task*>& tasks,
           const std::vector<bool>& busy);

  // ---- Cache allocation primitives (paper section 4.2) ----

  /// Allocate an exclusive L2 set range to a task.
  bool alloc_task_cache(mem::PartitionedCache& l2, TaskId task,
                        mem::Partition p) {
    return l2.partition_table().assign(mem::ClientId::task(task), p);
  }

  /// Register a shared-memory interval for a buffer and give it an
  /// exclusive L2 set range.
  bool alloc_buffer_cache(mem::PartitionedCache& l2, BufferId buffer, Addr base,
                          std::uint64_t size, mem::Partition p) {
    if (!l2.interval_table().add(base, size, buffer)) return false;
    return l2.partition_table().assign(mem::ClientId::buffer(buffer), p);
  }

 private:
  SchedPolicy policy_;
  std::uint64_t jitter_;
  std::unordered_map<TaskId, ProcId> assignment_;
  std::vector<std::size_t> cursors_;  // per-proc round-robin position
  bool cursors_seeded_;
};

}  // namespace cms::sim
