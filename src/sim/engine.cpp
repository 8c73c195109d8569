#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <tuple>

namespace cms::sim {

TimingEngine::TimingEngine(Platform& platform, Os& os, std::vector<Task*> tasks,
                           std::function<bool()> finished)
    : platform_(platform), os_(os), tasks_(std::move(tasks)),
      finished_(std::move(finished)) {
  procs_.resize(platform_.num_procs());
  for (std::size_t p = 0; p < procs_.size(); ++p)
    procs_[p].stats.id = static_cast<ProcId>(p);
  task_states_.resize(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    task_states_[i].stats.id = tasks_[i]->id();
    task_states_[i].stats.name = tasks_[i]->name();
  }
}

void TimingEngine::dispatch(ProcState& ps, std::size_t p, int idx) {
  Task* task = tasks_[static_cast<std::size_t>(idx)];
  const PlatformConfig& cfg = platform_.config();

  if (ps.current != idx) {
    if (ps.current != -1)
      platform_.hierarchy().on_task_switch(static_cast<ProcId>(p));
    ps.clock += cfg.task_switch_cost;
    ps.stats.switch_cycles += cfg.task_switch_cost;
    ++ps.stats.switches;
    // Scheduler work touches the runtime's static data/bss segments. The
    // scheduler reads the same run-queue structures on every switch (a
    // small per-processor window), which is why the paper's "rt data" /
    // "rt bss" clients are satisfied by a few exclusive sets.
    const Cycle before = ps.clock;
    for (const Region* r : {&cfg.rt_data, &cfg.rt_bss}) {
      if (r->size == 0 || cfg.switch_touch_bytes == 0) continue;
      const std::uint64_t stride = platform_.config().hier.l1.line_bytes;
      const std::uint64_t offset = (p * cfg.switch_touch_bytes) % r->size;
      for (std::uint64_t b = 0; b < cfg.switch_touch_bytes; b += stride) {
        const Addr a = r->base + (offset + b) % r->size;
        const auto type = (r == &cfg.rt_bss) ? AccessType::kWrite : AccessType::kRead;
        const auto out = platform_.hierarchy().access(
            static_cast<ProcId>(p), task->id(), a, 4, type, ps.clock);
        ps.clock = out.finish;
      }
    }
    ps.stats.switch_cycles += ps.clock - before;
    ps.current = idx;
    ps.quantum_left = cfg.quantum_firings;
  }
  if (ps.quantum_left > 0) --ps.quantum_left;

  // The firing records into the processor's drained buffer and takes it
  // back with its events, so no firing regrows an event vector.
  MemoryRecorder& rec = task->recorder();
  rec.recycle(std::move(ps.events));
  TaskContext ctx(&rec, &task->regions());
  task->fire(ctx);
  auto trace = rec.take();

  TaskState& tst = task_states_[static_cast<std::size_t>(idx)];
  ++tst.stats.firings;
  const std::uint64_t instr = trace.compute_cycles + trace.accesses;
  tst.stats.instructions += instr;
  ps.stats.instructions += instr;
  ++dispatches_;

  tst.dispatched = !trace.events.empty();
  ps.events = std::move(trace.events);
  ps.next = 0;
}

bool TimingEngine::step_access(ProcState& ps, std::size_t p) {
  assert(ps.pending() && ps.current >= 0);
  const MemAccess a = ps.events[ps.next++];
  TaskState& tst = task_states_[static_cast<std::size_t>(ps.current)];

  ps.clock += a.gap;
  tst.stats.compute_cycles += a.gap;
  tst.stats.active_cycles += a.gap;
  ps.stats.busy_cycles += a.gap;

  if (a.size > 0) {
    const auto out = platform_.hierarchy().access(
        static_cast<ProcId>(p), tasks_[static_cast<std::size_t>(ps.current)]->id(),
        a.addr, a.size, a.type, ps.clock);
    const Cycle latency = out.finish - ps.clock;
    tst.stats.mem_cycles += latency;
    tst.stats.active_cycles += latency;
    tst.stats.l2_demand_misses += out.l2_misses;
    ps.stats.busy_cycles += latency;
    ps.clock = out.finish;
  }
  if (ps.pending()) return false;
  tst.dispatched = false;
  return true;
}

int TimingEngine::pick(const ProcState& ps, std::size_t p,
                       const std::vector<bool>& busy) {
  // Within its quantum a task keeps its processor if it can fire again.
  if (ps.current != -1 && ps.quantum_left > 0) {
    const auto cur = static_cast<std::size_t>(ps.current);
    if (!busy[cur] && !tasks_[cur]->done() && tasks_[cur]->can_fire())
      return ps.current;
  }
  return os_.pick(static_cast<ProcId>(p), tasks_, busy);
}

std::pair<std::size_t, std::size_t> TimingEngine::first_actors(
    bool idle_ok) const {
  const std::size_t none = procs_.size();
  std::size_t a = none, b = none;
  for (std::size_t q = 0; q < procs_.size(); ++q) {
    const ProcState& ps = procs_[q];
    if (!(ps.pending() || (idle_ok && !ps.blocked))) continue;
    if (a == none || ps.clock < procs_[a].clock) {
      b = a;
      a = q;
    } else if (b == none || ps.clock < procs_[b].clock) {
      b = q;
    }
  }
  return {a, b};
}

Cycle TimingEngine::earliest_clock() const {
  Cycle now = std::numeric_limits<Cycle>::max();
  for (const ProcState& ps : procs_) now = std::min(now, ps.clock);
  return now;
}

void TimingEngine::set_phase_schedule(
    const std::vector<std::vector<TaskId>>& phases) {
  std::vector<std::size_t> phase_of(tasks_.size(),
                                    std::numeric_limits<std::size_t>::max());
  for (std::size_t k = 0; k < phases.size(); ++k) {
    for (const TaskId id : phases[k]) {
      std::size_t idx = tasks_.size();
      for (std::size_t i = 0; i < tasks_.size(); ++i)
        if (tasks_[i]->id() == id) {
          idx = i;
          break;
        }
      if (idx == tasks_.size())
        throw std::invalid_argument("phase schedule names task " +
                                    std::to_string(id) +
                                    ", which this engine does not run");
      if (phase_of[idx] != std::numeric_limits<std::size_t>::max())
        throw std::invalid_argument("phase schedule lists task " +
                                    std::to_string(id) + " twice (phases " +
                                    std::to_string(phase_of[idx]) + " and " +
                                    std::to_string(k) + ")");
      phase_of[idx] = k;
    }
  }
  for (std::size_t i = 0; i < phase_of.size(); ++i)
    if (phase_of[i] == std::numeric_limits<std::size_t>::max())
      throw std::invalid_argument("phase schedule misses task " +
                                  std::to_string(tasks_[i]->id()) + " (" +
                                  tasks_[i]->name() + ")");
  phase_of_ = std::move(phase_of);
  num_phases_ = phases.size();
  active_phase_ = 0;
  phase_entry_ = {0};
}

void TimingEngine::advance_phases(Cycle now) {
  // Earlier phases are drained by induction: a phase only activates once
  // its predecessor's tasks are all done, and done tasks stay done.
  while (active_phase_ + 1 < num_phases_) {
    bool drained = true;
    for (std::size_t i = 0; i < tasks_.size(); ++i)
      if (phase_of_[i] == active_phase_ && !tasks_[i]->done()) {
        drained = false;
        break;
      }
    if (!drained) break;
    ++active_phase_;
    phase_entry_.push_back(now);
    if (phase_hook_) phase_hook_(active_phase_, now, platform_.hierarchy());
  }
}

bool TimingEngine::all_done() const {
  return std::all_of(tasks_.begin(), tasks_.end(),
                     [](const Task* t) { return t->done(); });
}

SimResults TimingEngine::run() {
  platform_.hierarchy().reset_stats();
  const std::uint64_t max_dispatches = platform_.config().max_dispatches;
  const bool epochs = epoch_hook_ && epoch_length_ > 0;
  const std::size_t none = procs_.size();
  bool deadlocked = false;
  bool hit_limit = false;

  // Scheduling state: re-evaluated only after a dispatch or a drain (the
  // only events that change any input to it), i.e. while `dirty`.
  std::vector<bool> busy(tasks_.size(), false);
  bool app_finished = false;
  bool dirty = true;

  for (;;) {
    if (dispatches_ >= max_dispatches) {
      hit_limit = true;
      break;
    }

    if (dirty) {
      app_finished = finished_ && finished_();
      for (std::size_t i = 0; i < tasks_.size(); ++i)
        busy[i] = task_states_[i].dispatched;
      if (num_phases_ > 1) {
        // Phase bookkeeping runs BEFORE the dispatch scan: the moment a
        // phase drains, its successor's tasks are already eligible below
        // — a fully gated network can never be mistaken for a deadlock.
        // Gating rides the busy[] mask, which Os::pick and the
        // quantum-keep test both honor.
        advance_phases(earliest_clock());
        for (std::size_t i = 0; i < tasks_.size(); ++i)
          if (phase_of_[i] > active_phase_) busy[i] = true;
      }
      for (ProcState& ps : procs_) ps.blocked = false;
      dirty = false;
    }

    if (epochs) {
      const Cycle now = earliest_clock();
      if (now >= next_epoch_) {
        epoch_hook_(now, platform_.hierarchy());
        next_epoch_ = (now / epoch_length_ + 1) * epoch_length_;
      }
    }

    // The first processor in (clock, index) order that can act (replay a
    // pending access, or dispatch a new firing) does so. This keeps
    // shared-L2 interleaving close to global time order while never
    // stalling on a processor that simply has nothing to run. A failed
    // pick has no side effects and its inputs are frozen until the state
    // is dirty again, so that processor is not asked again until then.
    std::size_t p = none, rival = none;
    int idx = -1;
    for (;;) {
      std::tie(p, rival) = first_actors(!app_finished);
      if (p == none || procs_[p].pending()) break;
      idx = pick(procs_[p], p, busy);
      if (idx >= 0) break;
      procs_[p].blocked = true;
    }
    if (p == none) {
      // No processor can replay or dispatch anything.
      deadlocked = !app_finished && !all_done();
      break;
    }

    ProcState& ps = procs_[p];
    if (idx >= 0) {
      // p dispatches at its own clock, which is never earlier than the
      // earliest clock (the minimum over every processor, p included).
      dispatch(ps, p, idx);
      dirty = true;
      continue;
    }

    // Replay. Until p drains, nothing another processor could do changes,
    // so p keeps replaying while it stays first in (clock, index) order
    // against the first rival that could act, and while the earliest
    // clock stays short of the next epoch boundary.
    Cycle others = std::numeric_limits<Cycle>::max();
    if (epochs)
      for (std::size_t q = 0; q < procs_.size(); ++q)
        if (q != p) others = std::min(others, procs_[q].clock);
    const auto keeps_turn = [&] {
      if (rival != none && (procs_[rival].clock < ps.clock ||
                            (procs_[rival].clock == ps.clock && rival < p)))
        return false;
      return !epochs || std::min(ps.clock, others) < next_epoch_;
    };
    do {
      dirty = step_access(ps, p);
    } while (!dirty && keeps_turn());
  }

  // Idle time = the span the processor's clock lags the makespan plus any
  // wait gaps already absorbed into its clock.
  Cycle makespan = 0;
  for (const auto& ps : procs_) makespan = std::max(makespan, ps.clock);
  for (auto& ps : procs_) {
    const Cycle accounted = ps.stats.busy_cycles + ps.stats.switch_cycles;
    ps.stats.idle_cycles = makespan > accounted ? makespan - accounted : 0;
  }

  return collect(deadlocked, hit_limit);
}

SimResults TimingEngine::collect(bool deadlocked, bool hit_limit) {
  SimResults res;
  res.deadlocked = deadlocked;
  res.hit_dispatch_limit = hit_limit;
  res.dispatches = dispatches_;

  const mem::PartitionedCache& l2 = platform_.hierarchy().l2();
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    TaskRunStats t = task_states_[i].stats;
    t.l2 = l2.client_stats(mem::ClientId::task(tasks_[i]->id()));
    res.tasks.push_back(std::move(t));
  }
  for (const auto& [client, stats] : l2.all_client_stats()) {
    if (!client.is_buffer()) continue;
    BufferRunStats b;
    b.id = client.id;
    const auto it = buffer_names_.find(client.id);
    b.name = it != buffer_names_.end() ? it->second
                                       : ("buffer" + std::to_string(client.id));
    b.l2 = stats;
    res.buffers.push_back(std::move(b));
  }
  for (std::size_t p = 0; p < procs_.size(); ++p) {
    ProcRunStats st = procs_[p].stats;
    st.cycles = procs_[p].clock;
    res.procs.push_back(st);
    res.makespan = std::max(res.makespan, procs_[p].clock);
    res.total_instructions += st.instructions;
  }
  res.l2_accesses = l2.stats().accesses;
  res.l2_misses = l2.stats().misses;
  res.traffic = platform_.hierarchy().traffic();
  return res;
}

}  // namespace cms::sim
