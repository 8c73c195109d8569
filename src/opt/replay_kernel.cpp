#include "opt/replay_kernel.hpp"

#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "mem/cache.hpp"

namespace cms::opt {

ReplayKernel resolve_replay_kernel(ReplayKernel requested) {
  return requested == ReplayKernel::kAuto ? ReplayKernel::kScalar : requested;
}

namespace {

/// Exact x % d for x, d < 2^32 via one wraparound multiply + one
/// high-multiply (Lemire's fastmod) — the per-event (line % total) %
/// client_sets chain costs 2 of these PER LANE, and a hardware divide
/// there would dominate the whole kernel. d == 1 works out naturally:
/// magic wraps to 0 and the result is 0.
struct FastMod {
  std::uint64_t magic = 0;  // UINT64_MAX / d + 1 (mod 2^64)
  std::uint32_t d = 1;

  static FastMod make(std::uint32_t d) {
    return FastMod{~std::uint64_t{0} / d + 1, d};
  }
  std::uint32_t mod(std::uint32_t x) const {
    const std::uint64_t low = magic * x;
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(low) * d) >> 64);
  }
};

/// One grid size's lane block: its index-translation geometry and where
/// its SoA tag/stamp state lives inside the stream's arrays.
struct LaneGeom {
  FastMod total;        // virtual total sets of this point's uniform plan
  FastMod client_sets;  // this stream's exclusive sets at this point
  std::size_t base = 0;  // offset of this lane's block in tags/stamps
};

/// Everything one stream pass needs, SoA. The tag encoding: a way holds
/// `line_of(addr)/line_bytes + 1`, 0 = invalid — so the "which way
/// matches" and "first invalid way" probes are the SAME scan with
/// needle = tag resp. 0. Dirty bits and owners are not modeled: per
/// mem::SetAssocCache::kOutcomeStateIsTagsStampsCounters they cannot
/// influence a hit/miss outcome, and outcomes are all replay consumes.
struct StreamCtx {
  const ClientTrace* stream = nullptr;
  bool count_issuers = true;  // false for scheduler clients
  std::uint32_t ways = 0;
  mem::Replacement replacement = mem::Replacement::kLru;
  bool write_allocate = true;  // false = kWriteThroughNoAllocate
  std::uint64_t l2_seed = 0;
  std::uint64_t client_key = 0;
  /// line_bytes rescale of a foreign-granularity capture (tags must match
  /// SetAssocCache::line_of exactly); both are equal in practice.
  std::uint32_t trace_line_bytes = 64;
  std::uint32_t l2_line_bytes = 64;

  std::vector<LaneGeom> lanes;  // one per grid point

  /// Dense task-slot table: position in CaptureRun::tasks, resolved on
  /// task-change events only; ids not in the table use the trailing
  /// trash slot (their demand misses are never read back).
  std::vector<TaskId> slot_ids;

  // State + output arrays, owned by replay_stream (tags/stamps live for
  // one pass; the counters are MultiReplay's and persist for fragment
  // assembly).
  std::uint64_t* tags = nullptr;      // [all lane blocks], 0 = invalid
  std::uint64_t* stamps = nullptr;    // [all lane blocks]
  std::uint64_t* rand_seq = nullptr;  // [lanes] kRandom counters
  std::uint64_t* misses = nullptr;    // [lanes]
  std::uint64_t* demand = nullptr;    // [(slot_ids.size()+1) * lanes]
};

/// First way of a set whose tag equals `needle`, or -1 (the way
/// SetAssocCache::find would report).
int find_way(const std::uint64_t* tags, std::uint32_t ways,
             std::uint64_t needle) {
  for (std::uint32_t w = 0; w < ways; ++w)
    if (tags[w] == needle) return static_cast<int>(w);
  return -1;
}

/// The fused hot loop: decode the stream ONCE, push every event through
/// every lane.
///
/// Bit-identity invariants mirrored from mem::SetAssocCache::access_at
/// (any deviation breaks the MissProfile::identical safety net):
///  * the access tick pre-increments per event and is SHARED by all
///    lanes — a standalone per-size cache sees exactly this stream, so
///    its tick sequence is the event ordinal;
///  * hits refresh the stamp under LRU only;
///  * a write miss under kWriteThroughNoAllocate counts but does not
///    allocate (and does not consume a kRandom draw);
///  * victim choice prefers the FIRST invalid way, then LRU/FIFO argmin
///    with strict < (stamps are unique, ties impossible), then the
///    counter-based kRandom stream (mem::SetAssocCache::random_victim_way
///    — the counter advances per replacement, per lane).
void run_stream(StreamCtx& ctx) {
  const std::uint32_t ways = ctx.ways;
  const std::size_t nlanes = ctx.lanes.size();
  const std::size_t trash_slot = ctx.slot_ids.size();
  const bool lru = ctx.replacement == mem::Replacement::kLru;
  const bool random = ctx.replacement == mem::Replacement::kRandom;
  const bool rescale = ctx.trace_line_bytes != ctx.l2_line_bytes;

  std::uint64_t tick = 0;
  TaskId cur_task = kInvalidTask;
  std::size_t cur_slot = trash_slot;

  auto rd = ctx.stream->reader();
  TraceEvent ev;
  while (rd.next(ev)) {
    ++tick;
    // Tag = canonical line index + 1 (0 stays the invalid sentinel). A
    // capture at a foreign line granularity is collapsed through the same
    // arithmetic as SetAssocCache::line_of.
    const std::uint64_t tag =
        (rescale ? ev.line_index * ctx.trace_line_bytes / ctx.l2_line_bytes
                 : ev.line_index) +
        1;
    const bool no_alloc =
        ev.type == AccessType::kWrite && !ctx.write_allocate;
    const bool count_demand = ctx.count_issuers && !ev.l1_writeback;
    if (ev.task != cur_task) {
      cur_task = ev.task;
      cur_slot = trash_slot;
      for (std::size_t s = 0; s < ctx.slot_ids.size(); ++s)
        if (ctx.slot_ids[s] == cur_task) {
          cur_slot = s;
          break;
        }
    }
    // The index chain works on 32-bit values (FastMod); line indices
    // above 2^32 would need the slow path, but a capture's line index is
    // bounded by the simulated address space (far below 2^32) — guarded
    // here so the claim is checked, not assumed.
    const bool fast = ev.line_index <= 0xFFFFFFFFull;
    const auto line32 = static_cast<std::uint32_t>(ev.line_index);

    for (std::size_t l = 0; l < nlanes; ++l) {
      const LaneGeom& g = ctx.lanes[l];
      const std::uint32_t idx =
          fast ? g.client_sets.mod(g.total.mod(line32))
               : static_cast<std::uint32_t>((ev.line_index % g.total.d) %
                                            g.client_sets.d);
      std::uint64_t* tags = ctx.tags + g.base +
                            static_cast<std::size_t>(idx) * ways;
      std::uint64_t* stamps = ctx.stamps + g.base +
                              static_cast<std::size_t>(idx) * ways;
      const int hit_way = find_way(tags, ways, tag);
      if (hit_way >= 0) {
        if (lru) stamps[hit_way] = tick;
        continue;
      }
      ++ctx.misses[l];
      if (count_demand) ++ctx.demand[cur_slot * nlanes + l];
      if (no_alloc) continue;  // write-through no-allocate: nothing cached
      int victim = find_way(tags, ways, 0);  // first invalid way
      if (victim < 0) {
        if (random) {
          victim = static_cast<int>(mem::SetAssocCache::random_victim_way(
              ctx.l2_seed, ctx.client_key, ctx.rand_seq[l]++, ways));
        } else {  // kLru / kFifo: first way with the minimal stamp
          victim = 0;
          for (std::uint32_t w = 1; w < ways; ++w)
            if (stamps[w] < stamps[victim]) victim = static_cast<int>(w);
        }
      }
      tags[victim] = tag;
      stamps[victim] = tick;
    }
  }
}

/// Plan entry of `client` in `plan`, or the replay_fragment error.
const PlanEntry& entry_for(const PartitionPlan& plan, mem::ClientId client) {
  for (const PlanEntry& e : plan.entries)
    if (e.client == client) return e;
  throw std::invalid_argument("trace stream for unplanned client " +
                              client.to_string());
}

}  // namespace

MultiReplay::MultiReplay(const CaptureRun& capture,
                         std::vector<ReplayGridPoint> points,
                         const mem::CacheConfig& l2, std::uint64_t l2_seed,
                         ReplayKernel kernel)
    : capture_(&capture),
      points_(std::move(points)),
      l2_(l2),
      l2_seed_(l2_seed),
      kernel_(resolve_replay_kernel(kernel)) {
  if (kernel_ == ReplayKernel::kPerSize) kernel_ = ReplayKernel::kScalar;
  slot_ids_.reserve(capture_->tasks.size());
  for (const CaptureTaskStats& t : capture_->tasks) slot_ids_.push_back(t.id);

  const std::size_t nstreams = capture_->trace.streams.size();
  const std::size_t npoints = points_.size();
  client_sets_.resize(nstreams);
  misses_.resize(nstreams);
  demand_.resize(nstreams);
  for (std::size_t s = 0; s < nstreams; ++s) {
    const mem::ClientId client = capture_->trace.streams[s].client();
    client_sets_[s].reserve(npoints);
    // entry_for throws for a client missing from ANY point's plan — the
    // same std::invalid_argument the first offending per-size job would
    // have raised, just before any work instead of mid-sweep.
    for (const ReplayGridPoint& p : points_) {
      assert(p.plan != nullptr);
      client_sets_[s].push_back(
          std::max(entry_for(*p.plan, client).partition.num_sets, 1u));
    }
    misses_[s].assign(npoints, 0);
    demand_[s].assign((slot_ids_.size() + 1) * npoints, 0);
  }
}

void MultiReplay::replay_stream(std::size_t s) {
  assert(s < num_streams());
  const ClientTrace& stream = capture_->trace.streams[s];

  StreamCtx ctx;
  ctx.stream = &stream;
  ctx.count_issuers = !capture_->is_scheduler_client(stream.client());
  ctx.ways = l2_.ways;
  ctx.replacement = l2_.replacement;
  ctx.write_allocate = l2_.write_policy != mem::WritePolicy::kWriteThroughNoAllocate;
  ctx.l2_seed = l2_seed_;
  ctx.client_key = stream.client().key();
  ctx.trace_line_bytes = capture_->trace.line_bytes;
  ctx.l2_line_bytes = l2_.line_bytes;
  ctx.slot_ids = slot_ids_;

  ctx.lanes.reserve(points_.size());
  std::size_t slots = 0;
  for (std::size_t p = 0; p < points_.size(); ++p) {
    LaneGeom g;
    g.total = FastMod::make(std::max(points_[p].plan->total_sets, 1u));
    g.client_sets = FastMod::make(client_sets_[s][p]);
    g.base = slots;
    slots += static_cast<std::size_t>(client_sets_[s][p]) * l2_.ways;
    ctx.lanes.push_back(g);
  }

  std::vector<std::uint64_t> tags(slots, 0);
  std::vector<std::uint64_t> stamps(slots, 0);
  std::vector<std::uint64_t> rand_seq(points_.size(), 0);
  ctx.tags = tags.data();
  ctx.stamps = stamps.data();
  ctx.rand_seq = rand_seq.data();
  ctx.misses = misses_[s].data();
  ctx.demand = demand_[s].data();

  run_stream(ctx);
}

std::vector<ProfileFragment> MultiReplay::fragments(Cycle surcharge) const {
  const std::size_t npoints = points_.size();
  const std::size_t nstreams = capture_->trace.streams.size();

  // Stream index of each task's own client, for the per-task miss rows.
  std::unordered_map<mem::ClientId, std::size_t, mem::ClientIdHash> stream_of;
  stream_of.reserve(nstreams);
  for (std::size_t s = 0; s < nstreams; ++s)
    stream_of.emplace(capture_->trace.streams[s].client(), s);

  std::vector<ProfileFragment> out;
  out.reserve(npoints);
  for (std::size_t p = 0; p < npoints; ++p) {
    const ReplayGridPoint& point = points_[p];
    ProfileFragment frag;
    frag.order = point.order;
    // Sample order replicates replay_fragment exactly: tasks in capture
    // (creation) order first, then buffer streams in stream order.
    for (std::size_t slot = 0; slot < capture_->tasks.size(); ++slot) {
      const CaptureTaskStats& t = capture_->tasks[slot];
      const auto it = stream_of.find(mem::ClientId::task(t.id));
      const std::uint64_t m =
          it != stream_of.end() ? misses_[it->second][p] : 0;
      std::uint64_t dm = 0;
      for (std::size_t s = 0; s < nstreams; ++s)
        dm += demand_[s][slot * npoints + p];
      frag.add(t.name, point.sets, static_cast<double>(m),
               static_cast<double>(reconstruct_active_cycles(
                   t.compute_cycles, t.mem_cycles, dm, surcharge)),
               static_cast<double>(t.instructions));
    }
    for (std::size_t s = 0; s < nstreams; ++s) {
      const ClientTrace& stream = capture_->trace.streams[s];
      if (!stream.client().is_buffer()) continue;
      frag.add(entry_for(*point.plan, stream.client()).name, point.sets,
               static_cast<double>(misses_[s][p]), 0.0, 0.0);
    }
    out.push_back(std::move(frag));
  }
  return out;
}

MissProfile replay_profile_multi(const std::vector<MultiReplayJob>& jobs,
                                 const mem::CacheConfig& l2,
                                 std::uint64_t l2_seed, Cycle surcharge,
                                 ReplayKernel kernel) {
  std::vector<ProfileFragment> fragments;
  for (const MultiReplayJob& job : jobs) {
    assert(job.capture != nullptr);
    MultiReplay mr(*job.capture, job.points, l2, l2_seed, kernel);
    for (std::size_t s = 0; s < mr.num_streams(); ++s) mr.replay_stream(s);
    for (ProfileFragment& f : mr.fragments(surcharge))
      fragments.push_back(std::move(f));
  }
  return fold_fragments(std::move(fragments));
}

}  // namespace cms::opt
