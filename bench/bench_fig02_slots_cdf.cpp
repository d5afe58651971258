// Figure 2: CDF of compute slots requested per job across three production
// clusters; 75% / 87% / 95% of jobs fit within one rack (240 slots).
#include <cstdio>

#include "bench_common.h"
#include "workload/slots.h"

using namespace corral;

int main(int argc, char** argv) {
  bench::parse_args(
      argc, argv,
      "Figure 2 - CDF of slots requested per job (3 production clusters)",
      "75%, 87% and 95% of jobs need less than one rack (240 slots)");

  Rng rng(2);
  const auto clusters = fig2_clusters();
  const double expected[] = {0.75, 0.87, 0.95};
  constexpr int kSamples = 50000;

  std::vector<std::vector<double>> demands;
  for (const SlotDemandModel& model : clusters) {
    demands.push_back(sample_slot_demands(model, kSamples, rng));
  }

  std::printf("\n%-12s %10s %10s %10s\n", "slots<=", "cluster-1", "cluster-2",
              "cluster-3");
  for (double slots : {1.0, 3.0, 10.0, 30.0, 100.0, 240.0, 1000.0, 3000.0,
                       10000.0}) {
    std::printf("%-12.0f", slots);
    for (const auto& sample : demands) {
      int below = 0;
      for (double d : sample) {
        if (d <= slots) ++below;
      }
      std::printf(" %9.1f%%", 100.0 * below / kSamples);
    }
    std::printf("\n");
  }

  std::printf("\nFraction under one rack (240 slots):\n");
  for (std::size_t c = 0; c < demands.size(); ++c) {
    int below = 0;
    for (double d : demands[c]) {
      if (d <= 240) ++below;
    }
    std::printf("  cluster-%zu: measured %.1f%%  (paper: %.0f%%)\n", c + 1,
                100.0 * below / kSamples, expected[c] * 100);
  }
  return 0;
}
