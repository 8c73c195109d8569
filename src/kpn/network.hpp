// Kahn process network container: owns processes, FIFOs, frame buffers and
// shared segments, and lays all of them out in the simulated address
// space. This is the "memory-active entities" inventory of the paper
// (section 4.1): tasks, FIFOs and frame buffers — plus the application and
// runtime static data/bss segments the evaluation also partitions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "kpn/fifo.hpp"
#include "kpn/frame_buffer.hpp"
#include "kpn/process.hpp"
#include "sim/regions.hpp"
#include "sim/task.hpp"

namespace cms::kpn {

enum class BufferKind : std::uint8_t { kFifo, kFrame, kSegment };

inline const char* to_string(BufferKind k) {
  switch (k) {
    case BufferKind::kFifo: return "fifo";
    case BufferKind::kFrame: return "frame";
    case BufferKind::kSegment: return "segment";
  }
  return "?";
}

/// Descriptor the partition planner and the OS consume.
struct SharedBufferInfo {
  BufferId id = kInvalidBuffer;
  std::string name;
  BufferKind kind = BufferKind::kFifo;
  Addr base = 0;
  std::uint64_t footprint = 0;  // bytes actually touched

  bool operator==(const SharedBufferInfo&) const = default;
};

class Network {
 public:
  explicit Network(Addr base = 0x1000'0000) : space_(base) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Configure the shared progress-counter array (lives in the appl-bss
  /// segment); processes added afterwards bump slot[task id] per firing.
  void set_progress_counters(sim::SharedArray<std::uint64_t>* counters) {
    counters_ = counters;
  }

  /// Construct a process, assign its private regions, call init().
  template <class P, class... Args>
  P* add_process(const std::string& name, const ProcessSpec& spec,
                 Args&&... args) {
    auto proc = std::make_unique<P>(next_task_++, name,
                                    std::forward<Args>(args)...);
    proc->regions().code = space_.allocate(spec.code_bytes, name + ".code");
    proc->regions().stack = space_.allocate(spec.stack_bytes, name + ".stack");
    proc->regions().heap = space_.allocate(spec.heap_bytes, name + ".heap");
    if (counters_ != nullptr)
      proc->set_progress(counters_, static_cast<std::size_t>(proc->id()));
    proc->init();
    P* raw = proc.get();
    processes_.push_back(std::move(proc));
    return raw;
  }

  /// Create a bounded typed FIFO.
  template <typename T>
  Fifo<T>* make_fifo(const std::string& name, std::uint32_t capacity_tokens) {
    const std::uint64_t bytes =
        FifoBase::kAdminBytes + sizeof(T) * static_cast<std::uint64_t>(capacity_tokens);
    const sim::Region r = space_.allocate(bytes, "fifo." + name);
    auto fifo = std::make_unique<Fifo<T>>(next_buffer_, name, r, capacity_tokens);
    auto* raw = fifo.get();
    buffers_.push_back({next_buffer_, name, BufferKind::kFifo, r.base,
                        fifo->footprint_bytes()});
    ++next_buffer_;
    fifos_.push_back(std::move(fifo));
    return raw;
  }

  FrameBuffer* make_frame_buffer(const std::string& name, std::uint64_t bytes);

  /// Shared static segment (appl/rt data/bss). Returns its region.
  sim::Region make_segment(const std::string& name, std::uint64_t bytes);

  std::vector<sim::Task*> tasks() const;
  const std::vector<std::unique_ptr<Process>>& processes() const {
    return processes_;
  }
  Process* find_process(const std::string& name) const;
  FifoBase* find_fifo(const std::string& name) const;
  FrameBuffer* find_frame(const std::string& name) const;
  sim::Region segment(const std::string& name) const;

  const std::vector<SharedBufferInfo>& buffers() const { return buffers_; }
  std::map<BufferId, std::string> buffer_names() const;

  sim::AddressSpace& space() { return space_; }

  /// All FIFOs empty and closed, or all tasks done — used for deadlock
  /// diagnostics in tests.
  bool all_tasks_done() const;

 private:
  sim::AddressSpace space_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::unique_ptr<FifoBase>> fifos_;
  std::vector<std::unique_ptr<FrameBuffer>> frames_;
  std::vector<std::pair<std::string, sim::Region>> segments_;
  std::vector<SharedBufferInfo> buffers_;
  TaskId next_task_ = 0;
  BufferId next_buffer_ = 0;
  sim::SharedArray<std::uint64_t>* counters_ = nullptr;
};

}  // namespace cms::kpn
