#include "sim/trace.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

namespace snp::sim {

namespace {

// Canonical pid assignment of the merged trace (see trace.hpp).
constexpr std::uint32_t kDevicePid = 0;
constexpr std::uint32_t kHostSpanPid = 1;
constexpr std::uint32_t kPipelinePid = 2;

void push_slice(std::vector<obs::TraceEvent>& out, std::string name,
                std::uint32_t pid, std::uint32_t tid, double start_s,
                double end_s) {
  if (end_s <= start_s) {
    return;  // zero-length stage (e.g. empty transfer)
  }
  obs::TraceEvent ev;
  ev.name = std::move(name);
  ev.pid = pid;
  ev.tid = tid;
  ev.ts_us = start_s * 1e6;
  ev.dur_us = (end_s - start_s) * 1e6;
  out.push_back(std::move(ev));
}

/// Device-engine tracks: init(0), h2d(1), kernel(2), d2h(3) under `pid`.
void append_timeline(const Timeline& tl, const std::string& device_name,
                     std::uint32_t pid,
                     std::vector<obs::TrackLabel>& tracks,
                     std::vector<obs::TraceEvent>& events) {
  const char* names[] = {"init", "h2d copy", "kernel", "d2h copy"};
  for (std::uint32_t tid = 0; tid < 4; ++tid) {
    tracks.push_back({pid, tid, std::string(names[tid]) + " (" +
                                    device_name + ")"});
  }
  if (tl.init_seconds > 0.0) {
    push_slice(events, "platform init", pid, 0, 0.0, tl.init_seconds);
  }
  for (std::size_t i = 0; i < tl.chunks.size(); ++i) {
    const ChunkTimes& c = tl.chunks[i];
    const std::string idx = std::to_string(i);
    push_slice(events, "h2d chunk " + idx, pid, 1, c.h2d_start, c.h2d_end);
    push_slice(events, "kernel chunk " + idx, pid, 2, c.kernel_start,
               c.kernel_end);
    push_slice(events, "d2h chunk " + idx, pid, 3, c.d2h_start,
               c.d2h_end);
  }
}

/// Host pipeline stage tracks: execute(0), drain(1) under `pid`.
void append_host_chunks(std::span<const HostChunkEvent> chunks,
                        const std::string& label, std::uint32_t pid,
                        std::vector<obs::TrackLabel>& tracks,
                        std::vector<obs::TraceEvent>& events) {
  const char* names[] = {"execute", "drain"};
  for (std::uint32_t tid = 0; tid < 2; ++tid) {
    tracks.push_back({pid, tid,
                      std::string(names[tid]) + " (" + label + ")"});
  }
  for (const HostChunkEvent& c : chunks) {
    const std::string idx = std::to_string(c.index);
    push_slice(events, "exec chunk " + idx, pid, 0, c.host_exec_start,
               c.host_exec_end);
    push_slice(events, "drain chunk " + idx, pid, 1, c.host_drain_start,
               c.host_drain_end);
  }
}

}  // namespace

void write_chrome_trace(const Timeline& tl, std::ostream& os,
                        const std::string& device_name) {
  std::vector<obs::TrackLabel> tracks;
  std::vector<obs::TraceEvent> events;
  // Standalone timeline traces keep the historical pid 0 layout.
  append_timeline(tl, device_name, kDevicePid, tracks, events);
  obs::write_trace_events(tracks, events, os);
}

std::string chrome_trace_json(const Timeline& tl,
                              const std::string& device_name) {
  std::ostringstream os;
  write_chrome_trace(tl, os, device_name);
  return os.str();
}

void write_host_chrome_trace(std::span<const HostChunkEvent> chunks,
                             std::ostream& os, const std::string& label) {
  std::vector<obs::TrackLabel> tracks;
  std::vector<obs::TraceEvent> events;
  // Standalone host-pipeline traces likewise stay on pid 0.
  append_host_chunks(chunks, label, kDevicePid, tracks, events);
  obs::write_trace_events(tracks, events, os);
}

std::string host_chrome_trace_json(std::span<const HostChunkEvent> chunks,
                                   const std::string& label) {
  std::ostringstream os;
  write_host_chrome_trace(chunks, os, label);
  return os.str();
}

void write_merged_chrome_trace(const obs::TraceCollector& spans,
                               const Timeline* tl,
                               std::span<const HostChunkEvent> chunks,
                               std::ostream& os,
                               const std::string& device_name,
                               double host_anchor_us) {
  std::vector<obs::TrackLabel> tracks;
  std::vector<obs::TraceEvent> events;
  // Re-anchors a [from, events.size()) range of just-appended events
  // (device virtual clock or compare-relative wall clock, both t=0 at
  // compare start) onto the span clock's session origin.
  const auto shift_from = [&events, host_anchor_us](std::size_t from) {
    for (std::size_t i = from; i < events.size(); ++i) {
      events[i].ts_us += host_anchor_us;
    }
  };
  if (tl != nullptr) {
    append_timeline(*tl, device_name + ", virtual clock", kDevicePid,
                    tracks, events);
    shift_from(0);
  } else if (!chunks.empty()) {
    // Functional compare() has no Timeline, but each chunk event carries
    // the simulated h2d/kernel/d2h intervals — reconstruct the device
    // engine tracks from those so the merged trace still shows the
    // virtual-clock side.
    const char* names[] = {"h2d copy", "kernel", "d2h copy"};
    for (std::uint32_t tid = 0; tid < 3; ++tid) {
      tracks.push_back({kDevicePid, tid + 1,
                        std::string(names[tid]) + " (" + device_name +
                            ", virtual clock)"});
    }
    for (const HostChunkEvent& c : chunks) {
      const std::string idx = std::to_string(c.index);
      push_slice(events, "h2d chunk " + idx, kDevicePid, 1, c.h2d_start,
                 c.h2d_end);
      push_slice(events, "kernel chunk " + idx, kDevicePid, 2,
                 c.kernel_start, c.kernel_end);
      push_slice(events, "d2h chunk " + idx, kDevicePid, 3, c.d2h_start,
                 c.d2h_end);
    }
    shift_from(0);
  }
  // Host spans already carry pid 1 and a per-thread tid; label the
  // threads that actually appear.
  std::uint32_t max_tid = 0;
  bool any_span = false;
  for (obs::TraceEvent& ev : spans.events()) {
    ev.pid = kHostSpanPid;
    max_tid = std::max(max_tid, ev.tid);
    any_span = true;
    events.push_back(std::move(ev));
  }
  if (any_span) {
    for (std::uint32_t tid = 0; tid <= max_tid; ++tid) {
      tracks.push_back({kHostSpanPid, tid,
                        "host thread " + std::to_string(tid) + " (spans)"});
    }
  }
  if (!chunks.empty()) {
    const std::size_t pipeline_from = events.size();
    append_host_chunks(chunks, device_name + " chunk pipeline",
                       kPipelinePid, tracks, events);
    shift_from(pipeline_from);
  }
  obs::write_trace_events(tracks, events, os);
}

std::string merged_chrome_trace_json(const obs::TraceCollector& spans,
                                     const Timeline* tl,
                                     std::span<const HostChunkEvent> chunks,
                                     const std::string& device_name,
                                     double host_anchor_us) {
  std::ostringstream os;
  write_merged_chrome_trace(spans, tl, chunks, os, device_name,
                            host_anchor_us);
  return os.str();
}

}  // namespace snp::sim
