// Self-tests for the benchmark's own logic: percentile selection, the
// timed chunked-response parser, arrival schedules, and span arithmetic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.h"
#include "sb/http_client.h"
#include "sb/spans.h"
#include "sb/stats.h"
#include "net/http.h"

namespace sb = servebench;
namespace net = matgpt::net;

TEST(Percentile, NearestRankWithTenBeyond) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const sb::Percentile p90 = sb::percentile(v, 0.9);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.n, 100u);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_TRUE(p90.supported);

  v.pop_back();  // 99 samples: 9 beyond the p90 rank
  const sb::Percentile short90 = sb::percentile(v, 0.9);
  EXPECT_EQ(short90.beyond, 9u);
  EXPECT_FALSE(short90.supported);

  EXPECT_EQ(sb::percentile({3.0, 1.0, 2.0}, 0.5).value, 2.0);
  EXPECT_EQ(sb::percentile({}, 0.5).value, 0.0);
  EXPECT_FALSE(sb::percentile({}, 0.5).supported);
}

TEST(Percentile, MinimumSampleSizes) {
  EXPECT_EQ(sb::min_samples_for(0.5), 20u);
  EXPECT_EQ(sb::min_samples_for(0.9), 100u);
  EXPECT_EQ(sb::min_samples_for(0.99), 1000u);
  for (const double q : {0.5, 0.9, 0.99}) {
    const std::size_t n = sb::min_samples_for(q);
    EXPECT_TRUE(sb::percentile(std::vector<double>(n, 1.0), q).supported);
    EXPECT_FALSE(
        sb::percentile(std::vector<double>(n - 1, 1.0), q).supported);
  }
}

TEST(Percentile, RejectsQuantilesOutsideTheOpenInterval) {
  EXPECT_THROW(sb::percentile({1.0}, 1.0), matgpt::Error);
  EXPECT_THROW(sb::percentile({1.0}, 0.0), matgpt::Error);
}

namespace {

std::string stream_bytes() {
  std::string s = net::make_chunked_head(200);
  s += net::make_chunk("{\"id\":7}\n");
  s += net::make_chunk("{\"token\":11}\n");
  s += net::make_chunk("{\"token\":12}\n");
  s += net::make_chunk(
      "{\"done\":true,\"status\":\"ok\",\"generated\":2,\"ttft_ms\":1.5,"
      "\"total_ms\":4.25,\"tokens_per_s\":470,\"preemptions\":0}\n");
  s += net::make_last_chunk();
  return s;
}

}  // namespace

TEST(TimedResponse, StampsEachChunkWithTheReadThatCompletedIt) {
  const std::string bytes = stream_bytes();
  sb::TimedResponse r;
  // One byte per read, read k at time k: a chunk's time is the index of
  // its last byte, however the bytes were split.
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    r.feed(std::string_view(bytes).substr(k, 1), static_cast<double>(k));
  }
  ASSERT_EQ(r.status(), sb::TimedResponse::Status::kDone);
  ASSERT_EQ(r.chunk_times().size(), 4u);
  std::size_t pos = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    const std::string& payload = r.parser().chunks()[c];
    pos = bytes.find(payload, pos) + payload.size() + 1;  // through "\r\n"
    EXPECT_EQ(r.chunk_times()[c], static_cast<double>(pos)) << "chunk " << c;
  }
  EXPECT_EQ(r.done_s(), static_cast<double>(bytes.size() - 1));

  const sb::GenerateStream s = sb::decode_generate(r);
  EXPECT_EQ(s.tokens, (std::vector<std::int32_t>{11, 12}));
  EXPECT_EQ(s.token_times, (std::vector<double>{r.chunk_times()[1],
                                                r.chunk_times()[2]}));
  EXPECT_TRUE(s.done);
  EXPECT_EQ(s.status, "ok");
  EXPECT_EQ(s.generated, 2);
  EXPECT_DOUBLE_EQ(s.engine_ttft_ms, 1.5);
  EXPECT_DOUBLE_EQ(s.engine_total_ms, 4.25);
}

TEST(TimedResponse, CoalescedChunksShareOneArrivalTime) {
  const std::string bytes = stream_bytes();
  const std::size_t split = bytes.find("{\"done\"");
  sb::TimedResponse r;
  r.feed(std::string_view(bytes).substr(0, split), 1.0);
  EXPECT_EQ(r.status(), sb::TimedResponse::Status::kNeedMore);
  r.feed(std::string_view(bytes).substr(split), 2.0);
  ASSERT_EQ(r.status(), sb::TimedResponse::Status::kDone);
  EXPECT_EQ(r.chunk_times(), (std::vector<double>{1.0, 1.0, 1.0, 2.0}));
}

TEST(TimedResponse, RejectsUnknownChunks) {
  std::string s = net::make_chunked_head(200);
  s += net::make_chunk("{\"id\":7}\n");
  s += net::make_chunk("{\"surprise\":1}\n");
  s += net::make_last_chunk();
  sb::TimedResponse r;
  r.feed(s, 0.0);
  EXPECT_THROW(sb::decode_generate(r), matgpt::Error);
}

TEST(PoissonArrivals, DeterministicInSeed) {
  const auto a = sb::poisson_arrivals(500, 20.0, 42);
  const auto b = sb::poisson_arrivals(500, 20.0, 42);
  const auto c = sb::poisson_arrivals(500, 20.0, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 500u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 20.0);
  // Exponential gaps: the coefficient of variation is near 1 (a fixed
  // grid would give 0).
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    const double g = a[i] - a[i - 1];
    sum += g;
    sq += g * g;
  }
  const double n = static_cast<double>(a.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sq / n - mean * mean) / mean;
  EXPECT_NEAR(mean, 20.0 / 500.0, 0.01);
  EXPECT_NEAR(cv, 1.0, 0.2);
}

TEST(Spans, CoveredIsTheUnionClippedToTheParent) {
  EXPECT_DOUBLE_EQ(sb::covered({}, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(sb::covered({{1, 3}, {2, 5}, {8, 12}}, 0.0, 10.0), 6.0);
  EXPECT_DOUBLE_EQ(sb::covered({{-5, 1}, {4, 4}, {9, 20}}, 0.0, 10.0), 2.0);
  EXPECT_DOUBLE_EQ(sb::covered({{0, 10}, {2, 3}}, 0.0, 10.0), 10.0);
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  sb::Tracer t(true);
  const auto root = t.add("request", 0, 1, 0.0, 10.0, 1);
  const auto a = t.add("queue", root, 1, 1.0, 3.0, 1);
  t.add("prefill", root, 1, 2.0, 5.0, 1);  // overlaps its sibling
  t.add("inner", a, 1, 1.5, 2.5, 1);       // grandchild of the root
  t.add("step", 0, 0, 20.0, 21.0, 2);
  const auto self = sb::self_times(t.spans());
  ASSERT_EQ(self.size(), 5u);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0);  // children cover [1, 5]
  EXPECT_DOUBLE_EQ(self[1], 2.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(Spans, NegativePhasesCountsOnlyChildrenOfTheNamedParent) {
  sb::Tracer t(true);
  const auto r1 = t.add("request", 0, 1, 0.0, 10.0, 1);
  t.add("conn_wait", r1, 1, 0.0, 2.0, 1);
  t.add("decode", r1, 1, 2.0, 10.0, 1);
  const auto r2 = t.add("request", 0, 2, 0.0, 10.0, 1);
  t.add("conn_wait", r2, 2, 0.0, 3.0, 1);
  t.add("decode", r2, 2, 4.0, 3.5, 1);  // ends before it starts
  const auto h = t.add("http_exchange", r2, 2, 3.0, 10.0, 3);
  t.add("net", h, 2, 5.0, 4.0, 3);  // negative, but under http_exchange
  EXPECT_EQ(sb::negative_phases(t.spans(), "request"), 1u);
  EXPECT_EQ(sb::negative_phases(t.spans(), "http_exchange"), 1u);
  EXPECT_EQ(sb::negative_phases(t.spans(), "step"), 0u);
}

TEST(Spans, DisabledTracerRecordsNothing) {
  sb::Tracer t(false);
  EXPECT_EQ(t.add("request", 0, 1, 0.0, 1.0, 1), 0u);
  EXPECT_TRUE(t.spans().empty());
}
