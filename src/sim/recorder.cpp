#include "sim/recorder.hpp"

namespace cms::sim {

void MemoryRecorder::emit(Addr addr, std::uint32_t size, AccessType type) {
  MemAccess a;
  a.addr = addr;
  a.size = size;
  a.type = type;
  a.gap = pending_gap_;
  compute_total_ += pending_gap_;
  pending_gap_ = 0;
  events_.push_back(a);
}

void MemoryRecorder::touch_code(const Region& code, std::uint64_t bytes,
                                std::uint32_t line_bytes) {
  if (code.size == 0 || bytes == 0) return;
  // Instruction fetch shows loop locality: the task's inner loops live in
  // a hot window at the start of its code region, so successive firings
  // re-fetch the same lines (cacheable with a small partition) rather
  // than streaming through the whole code segment.
  const std::uint64_t hot_window = std::min<std::uint64_t>(code.size, 2048);
  for (std::uint64_t off = 0; off < bytes; off += line_bytes) {
    const Addr a = code.base + (code_cursor_ % hot_window);
    compute(line_bytes / 8);  // a VLIW-ish bundle of work per fetched line
    read(a, line_bytes);
    code_cursor_ += line_bytes;
  }
}

void MemoryRecorder::recycle(std::vector<MemAccess>&& buffer) {
  if (!events_.empty()) return;
  buffer.clear();
  events_.swap(buffer);
}

MemoryRecorder::FiringTrace MemoryRecorder::take() {
  // Preserve any trailing compute as a final zero-byte "gap carrier" so
  // the engine charges it: encode as a size-0 read of the last address.
  const std::uint64_t real_accesses = events_.size();
  if (pending_gap_ != 0 && !events_.empty()) {
    MemAccess tail;
    tail.addr = events_.back().addr;
    tail.size = 0;
    tail.type = AccessType::kRead;
    tail.gap = pending_gap_;
    compute_total_ += pending_gap_;
    events_.push_back(tail);
  }
  pending_gap_ = 0;
  FiringTrace trace;
  trace.events.swap(events_);
  trace.compute_cycles = compute_total_;
  trace.accesses = real_accesses;
  compute_total_ = 0;
  return trace;
}

}  // namespace cms::sim
