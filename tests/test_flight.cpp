// Flight-recorder conformance: ring semantics (wraparound, drop
// accounting), dump schema, code naming, and the concurrency soak the
// TSan stage of tools/check.sh runs — concurrent writers with a dumper
// snapshotting mid-write must never surface a torn record.
#include "obs/flight.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace snp::obs {
namespace {

namespace fs = std::filesystem;

std::string tmp(const std::string& name) {
  const auto* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (std::string("snpcmp_flight_") +
                        info->test_suite_name() + "_" + info->name());
  fs::create_directories(dir);
  return (dir / name).string();
}

TEST(Flight, KindNamesAreStable) {
  EXPECT_STREQ(to_string(FlightKind::kEnqueue), "enqueue");
  EXPECT_STREQ(to_string(FlightKind::kCacheHit), "cache-hit");
  EXPECT_STREQ(to_string(FlightKind::kShed), "shed");
  EXPECT_STREQ(to_string(FlightKind::kBatch), "batch");
  EXPECT_STREQ(to_string(FlightKind::kChunkExec), "chunk-exec");
  EXPECT_STREQ(to_string(FlightKind::kChunkDrain), "chunk-drain");
  EXPECT_STREQ(to_string(FlightKind::kFault), "fault");
  EXPECT_STREQ(to_string(FlightKind::kRetry), "retry");
  EXPECT_STREQ(to_string(FlightKind::kResolve), "resolve");
  EXPECT_STREQ(to_string(FlightKind::kEpoch), "epoch");
  EXPECT_STREQ(to_string(FlightKind::kSloBreach), "slo-breach");
}

TEST(Flight, RecordRoundTripsThroughSnapshot) {
  FlightRecorder rec(64);
  rec.record(FlightKind::kEnqueue, 42, 0, 3, 7);
  rec.record(FlightKind::kFault, 42, 9, -1, 2);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Merged snapshot is timestamp-sorted; both came from this thread.
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_EQ(events[0].kind, FlightKind::kEnqueue);
  EXPECT_EQ(events[0].trace_id, 42u);
  EXPECT_EQ(events[0].a, 3);
  EXPECT_EQ(events[0].b, 7);
  EXPECT_EQ(events[1].kind, FlightKind::kFault);
  EXPECT_EQ(events[1].code, 9u);
  EXPECT_EQ(events[1].a, -1);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Flight, CapacityRoundsUpToPowerOfTwo) {
  const FlightRecorder round_up(9);
  EXPECT_EQ(round_up.capacity(), 16u);
  const FlightRecorder clamp(2);  // 16 is the floor
  EXPECT_EQ(clamp.capacity(), 16u);
  const FlightRecorder exact(64);
  EXPECT_EQ(exact.capacity(), 64u);
}

TEST(Flight, WraparoundKeepsNewestAndCountsDropped) {
  FlightRecorder rec(16);
  for (std::int64_t i = 0; i < 40; ++i) {
    rec.record(FlightKind::kEnqueue, 1, 0, i, 0);
  }
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(rec.dropped(), 24u);
  // The ring holds exactly the 16 most recent appends, in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, static_cast<std::int64_t>(24 + i));
  }
}

TEST(Flight, DisabledRecorderDropsSilently) {
  FlightRecorder rec(8);
  rec.set_enabled(false);
  rec.record(FlightKind::kEnqueue, 1, 0, 0, 0);
  EXPECT_TRUE(rec.snapshot().empty());
  rec.set_enabled(true);
  rec.record(FlightKind::kEnqueue, 1, 0, 0, 0);
  EXPECT_EQ(rec.snapshot().size(), 1u);
}

TEST(Flight, ClearDropsEventsKeepsRings) {
  FlightRecorder rec(8);
  rec.record(FlightKind::kBatch, 1, 0, 1, 4);
  rec.clear();
  EXPECT_TRUE(rec.snapshot().empty());
  EXPECT_EQ(rec.dropped(), 0u);
  rec.record(FlightKind::kBatch, 2, 0, 2, 4);
  EXPECT_EQ(rec.snapshot().size(), 1u);
}

TEST(Flight, DumpJsonSchemaAndCodeNaming) {
  FlightRecorder rec(16);
  rec.set_code_namer(+[](std::uint32_t c) {
    return c == 7 ? std::string_view("SNPRT-TEST") : std::string_view();
  });
  rec.record(FlightKind::kFault, 5, 7, 2, 1);
  rec.record(FlightKind::kRetry, 5, 250, 2, 1);  // unnamed -> number
  std::ostringstream os;
  rec.dump_json(os, "unit \"test\"");
  const std::string json = os.str();
  EXPECT_NE(json.find("\"flight\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"reason\": \"unit \\\"test\\\"\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ring_capacity\": 16"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\": \"fault\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"code\": \"SNPRT-TEST\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"code\": 250"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace\": 5"), std::string::npos) << json;
}

TEST(Flight, AutoDumpUsesConfiguredPath) {
  FlightRecorder rec(16);
  rec.record(FlightKind::kSloBreach, 3, 0, 1, 10);
  // No destination configured (and no env contract in-process): skip.
  EXPECT_EQ(rec.auto_dump("slo-breach"), "");
  const std::string path = tmp("dump.json");
  rec.set_dump_path(path);
  EXPECT_EQ(rec.auto_dump("slo-breach"), path);
  std::ifstream is(path);
  std::stringstream buf;
  buf << is.rdbuf();
  EXPECT_NE(buf.str().find("\"reason\": \"slo-breach\""),
            std::string::npos);
  EXPECT_NE(buf.str().find("\"kind\": \"slo-breach\""), std::string::npos);
}

/// The check.sh TSan soak: several writers wrapping their rings many
/// times over while a dumper snapshots continuously. Payload words are
/// derived from one counter, so any torn (cross-generation) read shows
/// up as an inconsistent record, and TSan sees every access.
TEST(Flight, ConcurrentWritersAndDumperYieldOnlyWholeRecords) {
  FlightRecorder rec(128);
  constexpr int kWriters = 4;
  constexpr std::int64_t kPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::thread dumper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const FlightRecord& r : rec.snapshot()) {
        const auto tid = static_cast<std::uint64_t>(r.b);
        const auto i = static_cast<std::uint64_t>(r.a);
        // trace encodes (writer, iteration); a/b must agree with it and
        // the code channel carries iteration mod 251.
        if (r.trace_id != (tid << 32 | i) || tid >= kWriters ||
            i >= static_cast<std::uint64_t>(kPerWriter) ||
            r.code != i % 251 || r.kind != FlightKind::kChunkExec) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  std::vector<std::thread> writers;
  for (std::uint64_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&rec, t] {
      for (std::int64_t i = 0; i < kPerWriter; ++i) {
        rec.record(FlightKind::kChunkExec,
                   t << 32 | static_cast<std::uint64_t>(i),
                   static_cast<std::uint32_t>(i % 251), i,
                   static_cast<std::int64_t>(t));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  dumper.join();

  EXPECT_EQ(torn.load(), 0u);
  // Everything that survived is coherent, and the drop accounting covers
  // exactly what wrapped away.
  const auto final_events = rec.snapshot();
  EXPECT_EQ(final_events.size(), 4u * 128u);
  EXPECT_EQ(rec.dropped(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter -
                final_events.size());
}

// ---------------------------------------------------------------------
// SNPCMP_FLIGHT_RING parsing (PR-8 satellite). parse_flight_ring is the
// single source of truth for what the env var accepts; the table below
// is the contract docs/observability.md documents.

TEST(FlightEnv, ParseAcceptsBase10AndRoundsUpToPowerOfTwo) {
  struct Case {
    const char* text;
    std::size_t want;
  };
  const Case cases[] = {
      {"16", 16},          // lower bound, already a power of two
      {"17", 32},          // rounds up, never down
      {"100", 128},
      {"4096", 4096},
      {"  4096", 4096},    // leading whitespace tolerated
      {"4096  ", 4096},    // trailing whitespace tolerated
      {"\t 65535 \n", 65536},
      {"16777216", 1ULL << 24U},  // kMaxCapacity exactly
  };
  for (const auto& c : cases) {
    const auto got = parse_flight_ring(c.text);
    ASSERT_TRUE(got.has_value()) << "rejected: \"" << c.text << "\"";
    EXPECT_EQ(*got, c.want) << "input: \"" << c.text << "\"";
  }
}

TEST(FlightEnv, ParseRejectsEverythingElseWithoutThrowing) {
  const char* cases[] = {
      "",         // unset-equivalent
      "   ",      // blank
      "abc",      // non-digit
      "4096x",    // trailing garbage
      "1e4",      // no scientific notation
      "0x1000",   // no hex
      "+4096",    // no signs, even benign ones
      "-4096",
      "40 96",    // interior whitespace is garbage
      "15",       // below the 16-record floor
      "0",
      "16777217",                // above kMaxCapacity
      "99999999999999999999999"  // overflows uint64 parsing
  };
  for (const auto* c : cases) {
    EXPECT_FALSE(parse_flight_ring(c).has_value())
        << "accepted: \"" << c << "\"";
  }
}

TEST(FlightEnv, ParseBoundsMatchRecorderConstants) {
  // The accepted range is tied to the recorder's own limits so the two
  // can't drift apart silently.
  EXPECT_EQ(parse_flight_ring("16777216"), FlightRecorder::kMaxCapacity);
  EXPECT_FALSE(parse_flight_ring(
                   std::to_string(FlightRecorder::kMaxCapacity + 1))
                   .has_value());
}

}  // namespace
}  // namespace snp::obs
