#include <gtest/gtest.h>

#include "measure/campaign.hpp"
#include "measure/loss.hpp"
#include "measure/testbed.hpp"
#include "runner/sweep.hpp"

namespace slp::measure {
namespace {

using namespace slp::literals;

// ------------------------------------------------------------ LossAnalyzer

TEST(LossAnalyzer, NoGapsNoLoss) {
  LossAnalyzer analyzer;
  for (std::uint64_t pn = 0; pn < 100; ++pn) {
    analyzer.note_received(pn, TimePoint::epoch() + Duration::micros(50) * static_cast<double>(pn));
  }
  const auto report = analyzer.analyze();
  EXPECT_EQ(report.packets_received, 100u);
  EXPECT_EQ(report.packets_lost, 0u);
  EXPECT_EQ(report.loss_events, 0u);
  EXPECT_DOUBLE_EQ(report.loss_ratio, 0.0);
}

TEST(LossAnalyzer, SingleGapCountsBurstAndDuration) {
  LossAnalyzer analyzer;
  // pns 0..9, then 13..20: missing 10,11,12 -> one event, burst 3.
  for (std::uint64_t pn = 0; pn <= 9; ++pn) {
    analyzer.note_received(pn, TimePoint::epoch() + Duration::millis(pn));
  }
  for (std::uint64_t pn = 13; pn <= 20; ++pn) {
    analyzer.note_received(pn, TimePoint::epoch() + Duration::millis(pn));
  }
  const auto report = analyzer.analyze();
  EXPECT_EQ(report.packets_lost, 3u);
  EXPECT_EQ(report.loss_events, 1u);
  EXPECT_EQ(report.burst_lengths.count(3), 1u);
  ASSERT_EQ(report.event_durations_ms.size(), 1u);
  // Gap duration: arrival(13) - arrival(9) = 4ms.
  EXPECT_NEAR(report.event_durations_ms.values()[0], 4.0, 1e-9);
  EXPECT_NEAR(report.loss_ratio, 3.0 / 21.0, 1e-12);
}

TEST(LossAnalyzer, LongGapCountsAsOutage) {
  LossAnalyzer analyzer;
  analyzer.note_received(0, TimePoint::epoch());
  analyzer.note_received(200, TimePoint::epoch() + Duration::seconds(2));
  const auto report = analyzer.analyze();
  EXPECT_EQ(report.packets_lost, 199u);
  EXPECT_EQ(report.outage_events, 1u);
}

TEST(LossAnalyzer, CombineAggregatesAcrossTransfers) {
  LossAnalyzer a;
  a.note_received(0, TimePoint::epoch());
  a.note_received(2, TimePoint::epoch() + 1_ms);
  LossAnalyzer b;
  b.note_received(0, TimePoint::epoch());
  b.note_received(1, TimePoint::epoch() + 1_ms);
  const auto combined = LossAnalyzer::combine({a.analyze(), b.analyze()});
  EXPECT_EQ(combined.packets_received, 4u);
  EXPECT_EQ(combined.packets_lost, 1u);
  EXPECT_EQ(combined.loss_events, 1u);
  EXPECT_NEAR(combined.loss_ratio, 0.2, 1e-12);
}

TEST(LossAnalyzer, SeparateConnectionsDoNotCreateFalseGaps) {
  // Two attached connections each starting at pn 0 must not look like a
  // giant gap between them.
  LossAnalyzer analyzer;
  // Simulate two traces via the manual API on separate analyzers and merge.
  LossAnalyzer t1;
  LossAnalyzer t2;
  for (std::uint64_t pn = 0; pn < 50; ++pn) {
    t1.note_received(pn, TimePoint::epoch() + Duration::millis(pn));
    t2.note_received(pn, TimePoint::epoch() + Duration::millis(pn));
  }
  const auto combined = LossAnalyzer::combine({t1.analyze(), t2.analyze()});
  EXPECT_EQ(combined.packets_lost, 0u);
  (void)analyzer;
}

// ------------------------------------------------------------ Testbed

TEST(Testbed, BuildsElevenAnchorsAndAllClients) {
  Testbed bed{};
  EXPECT_EQ(bed.anchors().size(), 11u);
  int european = 0;
  int local = 0;
  for (const auto& anchor : bed.anchors()) {
    if (anchor.european) ++european;
    if (anchor.local) ++local;
  }
  EXPECT_EQ(european, 8);  // 4 BE + 2 AMS + 2 NUE
  EXPECT_EQ(local, 4);
  EXPECT_EQ(bed.client(AccessKind::kStarlink).name(), "pc-starlink");
  EXPECT_EQ(bed.client(AccessKind::kSatCom).name(), "pc-satcom");
  EXPECT_EQ(bed.client(AccessKind::kWired).name(), "pc-wired");
}

TEST(Testbed, WiredClientReachesCampusServerFast) {
  Testbed bed{};
  Duration rtt = Duration::zero();
  sim::Host& client = bed.client(AccessKind::kWired);
  client.bind_echo_reply(5, [&](const sim::Packet&) { rtt = bed.sim().now() - TimePoint::epoch(); });
  sim::Packet ping;
  ping.dst = bed.campus_server().addr();
  ping.proto = sim::Protocol::kIcmp;
  ping.size_bytes = 64;
  ping.icmp = sim::IcmpHeader{sim::IcmpType::kEchoRequest, 5, 0, nullptr};
  client.send(std::move(ping));
  bed.sim().run();
  EXPECT_GT(rtt.to_millis(), 0.0);
  EXPECT_LT(rtt.to_millis(), 3.0);  // same campus
}

TEST(Testbed, AllThreeClientsReachEveryAnchor) {
  Testbed bed{};
  int replies = 0;
  std::uint16_t id = 100;
  for (const AccessKind kind :
       {AccessKind::kStarlink, AccessKind::kSatCom, AccessKind::kWired}) {
    sim::Host& client = bed.client(kind);
    for (const auto& anchor : bed.anchors()) {
      ++id;
      client.bind_echo_reply(id, [&replies](const sim::Packet&) { ++replies; });
      sim::Packet ping;
      ping.dst = anchor.host->addr();
      ping.proto = sim::Protocol::kIcmp;
      ping.size_bytes = 64;
      ping.icmp = sim::IcmpHeader{sim::IcmpType::kEchoRequest, id, 0, nullptr};
      client.send(std::move(ping));
    }
  }
  bed.sim().run();
  EXPECT_EQ(replies, 33);
}

// ------------------------------------------------------------ Campaigns (smoke scale)

TEST(PingCampaignTest, ShortCampaignProducesStarlinkLikeRtts) {
  PingCampaign::Config config;
  config.duration = Duration::hours(2);
  config.cadence = Duration::minutes(5);
  config.epochs = false;
  const auto result = PingCampaign::run(config);
  ASSERT_EQ(result.anchors.size(), 11u);
  EXPECT_GT(result.pings_sent, 700u);
  // Local anchors: median in the tens of ms; far anchors: much higher.
  const auto& brussels = result.anchors[0];
  ASSERT_GT(brussels.rtt_ms.size(), 20u);
  EXPECT_GT(brussels.rtt_ms.median(), 25.0);
  EXPECT_LT(brussels.rtt_ms.median(), 70.0);
  const auto& singapore = result.anchors[10];
  EXPECT_GT(singapore.rtt_ms.median(), 150.0);
  // Loss is rare but the campaign survives it.
  EXPECT_LT(static_cast<double>(result.pings_lost) / result.pings_sent, 0.05);
}

TEST(MessageCampaignTest, ShortUploadSessionCollectsEverything) {
  MessageCampaign::Config config;
  config.sessions = 1;
  config.session_duration = Duration::seconds(30);
  const auto result = MessageCampaign::run(config);
  EXPECT_NEAR(result.messages_sent, 750, 10);
  EXPECT_GT(result.latency_ms.size(), 700u);
  EXPECT_GT(result.rtt_ms.size(), 1000u);
  // Message latencies sit near the path RTT's one-way plus queueing.
  EXPECT_GT(result.latency_ms.median(), 15.0);
  EXPECT_LT(result.latency_ms.median(), 120.0);
}

TEST(MessageCampaignTest, LostServerHandshakeReplyIsResent) {
  // In this cell the server ACKs the client's Initial in an ACK-only packet
  // and its handshake reply is lost: the client has nothing left to probe
  // with, so only the server's PTO can complete the handshake. Without the
  // resend the second session never starts (1500 of 3000 messages).
  MessageCampaign::Config config;
  config.seed = runner::cell_seed(7220676901988789713ull, 4);
  config.sessions = 2;
  config.session_duration = Duration::minutes(1);
  EXPECT_EQ(MessageCampaign::run(config).messages_sent, 3000);
}

TEST(H3CampaignTest, LostMaxDataUpdateIsResent) {
  // In this cell a pure receiver's MAX_DATA update is lost while the sender
  // is blocked on flow control with nothing in flight. Unless the update is
  // tracked and re-sent, transfer 3 stops at exactly 10 MB delivered.
  H3Campaign::Config config;
  config.seed = runner::cell_seed(4242, 6);
  config.transfers = 4;
  config.bytes = 20ull * 1000 * 1000;
  EXPECT_EQ(H3Campaign::run(config).transfers_completed, 4);
}

TEST(SpeedtestCampaignTest, WiredTestsNearGigabit) {
  SpeedtestCampaign::Config config;
  config.access = AccessKind::kWired;
  config.tests = 2;
  config.test_duration = Duration::seconds(6);
  config.gap = Duration::seconds(5);
  const auto result = SpeedtestCampaign::run(config);
  ASSERT_EQ(result.mbps.size(), 2u);
  EXPECT_GT(result.mbps.median(), 500.0);
  EXPECT_LE(result.mbps.median(), 1000.0);
}

TEST(WebCampaignTest, WiredVisitsAreFast) {
  WebCampaign::Config config;
  config.access = AccessKind::kWired;
  config.visits = 4;
  config.catalog_sites = 10;
  const auto result = WebCampaign::run(config);
  EXPECT_EQ(result.visits_completed, 4);
  EXPECT_EQ(result.visits_timed_out, 0);
  EXPECT_GT(result.onload_s.median(), 0.2);
  EXPECT_LT(result.onload_s.median(), 4.0);
  EXPECT_LE(result.speedindex_s.median(), result.onload_s.median() + 1e-9);
  EXPECT_GT(result.mean_connections, 3.0);
}

TEST(MiddleboxAuditTest, StarlinkShowsNatsNoPepNoTd) {
  MiddleboxAudit::Config config;
  config.wehe_repetitions = 2;
  const auto result = MiddleboxAudit::run(config);
  ASSERT_GE(result.traceroute.size(), 3u);
  EXPECT_EQ(result.traceroute[0].reporter, sim::kCpeNatAddr);
  EXPECT_EQ(result.traceroute[1].reporter, sim::kCgnNatAddr);
  EXPECT_TRUE(result.tracebox.nat_detected);
  EXPECT_FALSE(result.tracebox.pep_detected);
  EXPECT_FALSE(result.wehe.differentiation_detected);
}

}  // namespace
}  // namespace slp::measure
