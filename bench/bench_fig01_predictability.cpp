// Figure 1 + §2 predictability claim: recurring-job input sizes over a
// ten-day window, and the accuracy of the same-day-kind averaging predictor.
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "workload/recurring.h"

using namespace corral;

int main(int argc, char** argv) {
  bench::parse_args(
      argc, argv, "Figure 1 - input size of six recurring jobs over ten days",
      "sizes span GBs to tens of TBs; input predictable with ~6.5% error");

  Rng rng(1);
  const auto templates = fig1_templates();
  std::vector<std::vector<JobInstance>> histories;
  for (const RecurringJobTemplate& tmpl : templates) {
    histories.push_back(generate_history(tmpl, 30, rng));
  }

  std::printf("\nDaily input size, log10(bytes), days 20..29:\n");
  std::printf("%-6s", "day");
  for (const auto& tmpl : templates) {
    std::printf(" %18s", tmpl.name.substr(0, 18).c_str());
  }
  std::printf("\n");
  for (int day = 20; day < 30; ++day) {
    std::printf("%-6d", day);
    for (std::size_t j = 0; j < templates.size(); ++j) {
      double total = 0;
      int count = 0;
      for (const JobInstance& inst : histories[j]) {
        if (inst.day == day) {
          total += inst.input_bytes;
          ++count;
        }
      }
      std::printf(" %18.2f", std::log10(total / count));
    }
    std::printf("\n");
  }

  std::printf("\nPrediction error (mean absolute %% error, 14-day warmup):\n");
  double total_mape = 0;
  for (std::size_t j = 0; j < templates.size(); ++j) {
    const double mape = prediction_mape(histories[j], 14);
    total_mape += mape;
    std::printf("  %-22s %6.2f%%\n", templates[j].name.c_str(), mape * 100);
  }
  std::printf("  %-22s %6.2f%%   (paper: 6.5%% on average)\n", "AVERAGE",
              total_mape / templates.size() * 100);
  return 0;
}
