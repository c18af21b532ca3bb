// Chrome-trace export: structural validity, event coverage, ordering,
// and the merged-trace conformance the request-flow arrows depend on:
// all three pids share one clock origin (host_anchor_us) and each flow
// chain's records appear start -> steps -> finish with monotone
// timestamps.
#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <vector>

#include "model/device.hpp"
#include "sim/transfer.hpp"

namespace snp::sim {
namespace {

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

Timeline sample_timeline() {
  const auto d = model::titan_v();
  const std::vector<Chunk> chunks(4, Chunk{1 << 22, 0.003, 1 << 20});
  return run_timeline(d, chunks);
}

TEST(Trace, StructureAndCoverage) {
  const auto json = chrome_trace_json(sample_timeline(), "Titan V");
  // Array-shaped, balanced braces.
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
  // Track metadata + init + 3 stages x 4 chunks.
  EXPECT_EQ(count_occurrences(json, "thread_name"), 4u);
  EXPECT_EQ(count_occurrences(json, "platform init"), 1u);
  EXPECT_EQ(count_occurrences(json, "h2d chunk"), 4u);
  EXPECT_EQ(count_occurrences(json, "kernel chunk"), 4u);
  EXPECT_EQ(count_occurrences(json, "d2h chunk"), 4u);
  EXPECT_NE(json.find("Titan V"), std::string::npos);
  // Every complete event carries duration and timestamp fields.
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"X\""),
            count_occurrences(json, "\"dur\": "));
}

TEST(Trace, ZeroLengthStagesOmitted) {
  const auto d = model::gtx980();
  const Timeline tl = run_timeline(d, {Chunk{0, 0.001, 0}});
  const auto json = chrome_trace_json(tl);
  EXPECT_EQ(count_occurrences(json, "h2d chunk"), 0u);
  EXPECT_EQ(count_occurrences(json, "d2h chunk"), 0u);
  EXPECT_EQ(count_occurrences(json, "kernel chunk"), 1u);
}

TEST(Trace, EmptyTimelineIsValidJsonArray) {
  Timeline tl;
  const auto json = chrome_trace_json(tl);
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"X\""), 0u);
  EXPECT_EQ(count_occurrences(json, "thread_name"), 4u);
}

// ---- merged trace: clock anchoring & flow chains -----------------------

/// The emitter writes one JSON object per line; pull a numeric field out
/// of one line ("ts", "pid", "id", ...). Returns false when absent.
bool line_field(const std::string& line, const std::string& key,
                double* out) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  *out = std::strtod(line.c_str() + pos + needle.size(), nullptr);
  return true;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) {
    lines.push_back(line);
  }
  return lines;
}

/// Satellite 2: pid-0 (simulated device) and pid-2 (host pipeline)
/// timestamps must be shifted onto the span clock's origin by
/// host_anchor_us, while pid-1 span events keep their native session
/// timestamps — otherwise cross-pid flow arrows point backwards in time.
TEST(MergedTrace, AnchorShiftsDeviceAndPipelinePidsOnly) {
  obs::TraceCollector collector;
  collector.set_enabled(true);
  collector.begin_session();
  obs::TraceEvent span;
  span.name = "svc.batch";
  span.pid = 1;
  span.ts_us = 42.0;
  span.dur_us = 7.0;
  collector.record(span);

  const Timeline tl = sample_timeline();
  HostChunkEvent chunk;
  chunk.index = 0;
  chunk.rows = 8;
  chunk.host_exec_start = 0.002;
  chunk.host_exec_end = 0.004;
  chunk.host_drain_start = 0.004;
  chunk.host_drain_end = 0.005;
  const std::vector<HostChunkEvent> chunks{chunk};

  constexpr double kAnchor = 1500.0;
  const auto plain =
      lines_of(merged_chrome_trace_json(collector, &tl, chunks, "Titan V"));
  const auto anchored = lines_of(merged_chrome_trace_json(
      collector, &tl, chunks, "Titan V", kAnchor));
  ASSERT_EQ(plain.size(), anchored.size());

  std::size_t shifted = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    double pid = -1.0;
    double ts0 = 0.0;
    double ts1 = 0.0;
    if (!line_field(plain[i], "pid", &pid) ||
        !line_field(plain[i], "ts", &ts0) ||
        !line_field(anchored[i], "ts", &ts1)) {
      continue;  // metadata records carry no ts
    }
    if (pid == 1.0) {
      EXPECT_DOUBLE_EQ(ts1, ts0) << plain[i];
      ++kept;
    } else {
      EXPECT_DOUBLE_EQ(ts1, ts0 + kAnchor) << plain[i];
      ++shifted;
    }
  }
  EXPECT_GT(shifted, 0u);  // device + pipeline events were present
  EXPECT_GT(kept, 0u);     // and so was the host span
}

/// Request flow chains: the emitter must bind flow records to the slice
/// starts, order them s -> t -> f by timestamp, emit "bp": "e" on the
/// finish, and render zero-duration flow endpoints as instants.
TEST(MergedTrace, FlowChainIsOrderedAndWellFormed) {
  obs::TraceCollector collector;
  collector.set_enabled(true);
  collector.begin_session();

  obs::TraceEvent submit;
  submit.name = "req.submit";
  submit.ts_us = 10.0;
  submit.dur_us = 0.0;  // flow endpoint -> instant, not dropped
  submit.trace_id = 9;
  submit.flow_id = 9;
  submit.flow_phase = 's';
  collector.record(submit);

  obs::TraceEvent batch;
  batch.name = "svc.batch";
  batch.ts_us = 20.0;
  batch.dur_us = 5.0;
  batch.trace_id = 9;
  batch.flow_id = 9;
  batch.flow_phase = 't';
  collector.record(batch);

  obs::TraceEvent resolve;
  resolve.name = "req.resolve";
  resolve.ts_us = 40.0;
  resolve.dur_us = 0.0;
  resolve.trace_id = 9;
  resolve.flow_id = 9;
  resolve.flow_phase = 'f';
  collector.record(resolve);

  const std::string json =
      merged_chrome_trace_json(collector, nullptr, {}, "cpu");
  // Zero-duration flow endpoints survive as instants.
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"i\""), 2u) << json;
  // Exactly one flow record per phase, chained by the flow id.
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"s\""), 1u) << json;
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"t\""), 1u) << json;
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"f\""), 1u) << json;
  EXPECT_EQ(count_occurrences(json, "\"bp\": \"e\""), 1u) << json;

  // The flow records appear in chain order with monotone timestamps.
  double last_ts = -1.0;
  std::string phases;
  for (const std::string& line : lines_of(json)) {
    for (const char phase : {'s', 't', 'f'}) {
      const std::string marker =
          std::string("\"ph\": \"") + phase + "\"";
      if (line.find(marker) == std::string::npos) {
        continue;
      }
      double id = 0.0;
      double ts = 0.0;
      ASSERT_TRUE(line_field(line, "id", &id)) << line;
      ASSERT_TRUE(line_field(line, "ts", &ts)) << line;
      EXPECT_EQ(id, 9.0) << line;
      EXPECT_GE(ts, last_ts) << "flow arrows must move forward: " << line;
      last_ts = ts;
      phases.push_back(phase);
    }
  }
  EXPECT_EQ(phases, "stf");
}

}  // namespace
}  // namespace snp::sim
