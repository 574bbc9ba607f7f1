// The benchmark's own tests: seeded inputs are deterministic, tiled
// streams have the GOP structure they claim and decode ok, and the
// percentile helper honours the "at least 10 samples beyond" rule.
//
//   python3 perfbench/run.py test
#include <gtest/gtest.h>

#include <map>

#include "mpeg2/decoder.h"
#include "pb/inputs.h"
#include "pb/stages.h"
#include "pb/stats.h"

namespace perfbench {
namespace {

// Set-up is the expensive part; build each workload's inputs once.
const Inputs& inputs(Workload w, std::uint64_t seed) {
  static std::map<std::pair<int, std::uint64_t>, Inputs> cache;
  const auto key = std::pair{static_cast<int>(w), seed};
  auto it = cache.find(key);
  if (it == cache.end()) it = cache.emplace(key, build_inputs(w, seed, 4)).first;
  return it->second;
}

TEST(Inputs, SameSeedGivesByteIdenticalStreams) {
  const Inputs again = build_inputs(Workload::kPlayback704, 7, 2);
  EXPECT_EQ(serialize(inputs(Workload::kPlayback704, 7)), serialize(again));
}

TEST(Inputs, SeedChangesTheContent) {
  EXPECT_NE(serialize(inputs(Workload::kPlayback704, 7)),
            serialize(inputs(Workload::kPlayback704, 8)));
}

TEST(Inputs, TiledStreamsScanToTheirTileCount) {
  for (const Workload w : {Workload::kPlayback704, Workload::kServeSegments}) {
    const Inputs& in = inputs(w, 7);
    ASSERT_FALSE(in.files.empty());
    ASSERT_FALSE(in.segments.empty());
    for (const auto* set : {&in.files, &in.segments}) {
      for (const Stream& s : *set) {
        const auto st = pmp2::mpeg2::scan_structure(s.bytes);
        ASSERT_TRUE(st.valid);
        EXPECT_EQ(static_cast<int>(st.gops.size()), s.gops);
        EXPECT_EQ(st.total_pictures(), s.pictures);
        EXPECT_EQ(st.seq.horizontal_size, s.width);
      }
    }
  }
}

TEST(Inputs, SequentialDecodeIsOkAndMatchesTheReference) {
  const Inputs& in = inputs(Workload::kServeSegments, 7);
  for (const Stream& s : in.segments) {
    EXPECT_TRUE(s.reference_ok);
    pmp2::mpeg2::Decoder dec;
    const auto st = dec.decode_stream(s.bytes, [](pmp2::mpeg2::FramePtr) {});
    EXPECT_TRUE(st.ok);
    EXPECT_EQ(st.work.macroblocks, static_cast<std::uint64_t>(s.macroblocks()));
  }
}

TEST(Inputs, SplitAndTileRoundTrip) {
  const Stream& s = inputs(Workload::kPlayback704, 7).files.front();
  const GopUnits u = split_gops(s.bytes);
  ASSERT_EQ(static_cast<int>(u.gops.size()), s.gops);
  EXPECT_EQ(tile_gops(u.header, u.gops), s.bytes);
}

TEST(Inputs, SerializeRoundTrips) {
  const Inputs& in = inputs(Workload::kServeSegments, 7);
  Inputs back;
  const auto bytes = serialize(in);
  ASSERT_TRUE(deserialize(bytes, back));
  EXPECT_EQ(serialize(back), bytes);
  EXPECT_EQ(back.segment_weights, in.segment_weights);
  EXPECT_FALSE(deserialize(std::span(bytes).first(bytes.size() - 1), back));
}

TEST(Schedule, SameSeedSameScheduleAndExactMix) {
  const std::vector<double> weights = {1, 1, 2, 2, 1, 1};  // 1:2:1 by pairs
  const std::vector<Phase> phases = {{"light", 30.0, 200}, {"peak", 50.0, 320}};
  const auto a = make_schedule(5, phases, 12, weights);
  const auto b = make_schedule(5, phases, 12, weights);
  ASSERT_EQ(a.size(), 12u + 200u + 320u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].segment, b[i].segment);
    EXPECT_EQ(a[i].phase, b[i].phase);
  }
  EXPECT_NE(make_schedule(6, phases, 12, weights)[20].due_s, a[20].due_s);

  std::map<int, std::vector<int>> per_phase;  // phase -> segment counts
  for (const Arrival& r : a) {
    auto& counts = per_phase[r.phase];
    counts.resize(weights.size());
    ++counts[static_cast<std::size_t>(r.segment)];
  }
  EXPECT_EQ(per_phase[0], (std::vector<int>{25, 25, 50, 50, 25, 25}));
  EXPECT_EQ(per_phase[1], (std::vector<int>{40, 40, 80, 80, 40, 40}));
}

TEST(Schedule, PhasesAreBackToBackAndSorted) {
  const std::vector<Phase> phases = {{"light", 40.0, 200}, {"peak", 80.0, 200}};
  const auto s = make_schedule(9, phases, 0, {1.0});
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_LE(s[i - 1].due_s, s[i].due_s);
  for (const Arrival& r : s) {
    const double start = r.phase == 0 ? 0.0 : 5.0;  // 200 / 40
    const double end = r.phase == 0 ? 5.0 : 7.5;    // + 200 / 80
    EXPECT_GE(r.due_s, start);
    EXPECT_LT(r.due_s, end);
  }
}

TEST(Schedule, ViewersRepeatEveryPeriod) {
  // 4 viewers at one request per 0.5 s each: 8 requests/s.
  const std::vector<Phase> phases = {{"light", 8.0, 40, 0.5}};
  const auto s = make_schedule(3, phases, 0, {1.0});
  ASSERT_EQ(s.size(), 40u);
  for (std::size_t i = 4; i < s.size(); ++i) {
    EXPECT_DOUBLE_EQ(s[i].due_s - s[i - 4].due_s, 0.5);
  }
  EXPECT_LT(s.back().due_s, 5.0);  // 40 / 8
  const auto two = make_schedule(3, {phases[0], phases[0]}, 0, {1.0});
  for (std::size_t i = 1; i < two.size(); ++i) EXPECT_LE(two[i - 1].due_s, two[i].due_s);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(supports_percentile(199, 0.95));
  EXPECT_TRUE(supports_percentile(200, 0.95));
  EXPECT_FALSE(supports_percentile(999, 0.99));
  EXPECT_TRUE(supports_percentile(1000, 0.99));
  EXPECT_EQ(min_samples_for(0.95), 200u);
  EXPECT_EQ(min_samples_for(0.99), 1000u);
  EXPECT_EQ(min_samples_for(0.50), 20u);
  EXPECT_EQ(samples_beyond(200, 0.95), 10u);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({7}, 0.95), 7.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(quantile(v, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.25), 2.5);
}

TEST(Serve, PoolByNameMergesSlices) {
  ServePhaseStats a{"light", 30, 2.0, 10, 9, {1, 2}, 1, 2, 0.2, 0.1};
  ServePhaseStats b{"peak", 50, 1.0, 5, 5, {3}, 4, 0, 0.6, 0.3};
  ServePhaseStats c{"light", 30, 2.0, 10, 10, {4}, 3, 1, 0.4, 0.3};
  const auto pooled = pool_by_name({a, b, c});
  ASSERT_EQ(pooled.size(), 2u);
  EXPECT_EQ(pooled[0].name, "light");
  EXPECT_EQ(pooled[0].attempted, 20);
  EXPECT_EQ(pooled[0].on_time, 19);
  EXPECT_EQ(pooled[0].latency_ms, (std::vector<double>{1, 2, 4}));
  EXPECT_DOUBLE_EQ(pooled[0].utilization, 0.3);
  EXPECT_EQ(pooled[0].backlog_mid, 3);
  EXPECT_EQ(pooled[0].backlog_end, 1);
  EXPECT_EQ(pooled[1].attempted, 5);
}

TEST(Serve, LatencyPoolDropsTheSlowestSliceOfARate) {
  ServePhaseStats a{"light", 30, 1.0, 3, 3, {1, 2, 3}, 0, 0, 0.2, 0.1};
  ServePhaseStats b{"peak", 50, 1.0, 1, 1, {100}, 0, 0, 0.4, 0.1};
  // Slowest by mean (a slow tail), though its median is the lowest.
  ServePhaseStats c{"light", 30, 1.0, 3, 3, {1, 1, 30}, 0, 0, 0.2, 0.1};
  ServePhaseStats d{"light", 30, 1.0, 2, 2, {4, 5}, 0, 0, 0.2, 0.1};
  EXPECT_EQ(latencies_but_slowest({a, b, c, d}, "light"),
            (std::vector<double>{1, 2, 3, 4, 5}));
  EXPECT_EQ(latencies_but_slowest({a, b, c, d}, "peak"),
            (std::vector<double>{100}));  // a lone slice is kept
  EXPECT_TRUE(latencies_but_slowest({a}, "none").empty());
}

}  // namespace
}  // namespace perfbench
