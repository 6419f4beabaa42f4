// video_streaming — can Starlink sustain 4K streams?
//
// §3.3 of the paper: "Netflix's 4K videos require a download bandwidth of
// 15 Mbit/s, while Disney+ recommends 25 Mbit/s." This example streams one
// video session over Starlink at each tested bitrate: measure::AbrCampaign's
// player (qoe::AbrVideoSession: segment downloads over HTTP/3, a client
// buffer) with a one-rung ladder, so the rate cannot adapt, and reports
// startup delay and rebuffering.
//
//   $ ./build/examples/video_streaming [--seed=N] [--minutes=3]
#include <cstdio>

#include "measure/qoe_campaign.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace slp;
  const Flags flags = Flags::parse(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 11));
  const auto minutes = flags.get_int("minutes", 3);

  std::printf("ABR video over Starlink (paper §3.3: 4K needs 15-25 Mbit/s)\n\n");
  for (const double mbps : {15.0, 25.0, 60.0, 120.0}) {
    measure::AbrCampaign::Config config;
    config.seed = seed;
    config.sessions = 1;
    config.session.ladder.rungs_mbps = {mbps};
    config.session.watch = Duration::minutes(minutes);
    const auto result = measure::AbrCampaign::run(config);
    if (result.sessions_completed == 0) {
      std::printf("  %5.0f Mbit/s: the session never finished (unsustainable)\n", mbps);
      continue;
    }
    std::printf("  %5.0f Mbit/s: startup %4.1f s, rebuffers %llu, rebuffer ratio %.3f %s\n",
                mbps, result.startup_s.median(),
                static_cast<unsigned long long>(result.rebuffer_events),
                result.rebuffer_ratio.median(),
                result.rebuffer_events == 0 ? "-> smooth" : "-> degraded");
  }
  std::printf("\nExpected: the 4K rungs (15-25 Mbit/s) play with at most a brief "
              "stall; rebuffering grows as the rung nears the single-connection "
              "QUIC download share (~100 Mbit/s, Figure 5).\n");
  return 0;
}
