// Table 1: characteristics of the Cosmos-derived workload W3.
#include <cstdio>

#include "bench_common.h"
#include "util/stats.h"

using namespace corral;

int main(int argc, char** argv) {
  bench::parse_args(
      argc, argv, "Table 1 - characteristics of workload W3 (Microsoft Cosmos)",
      "tasks 180/2060, input 7.1/162.3 GB, shuffle 6/71.5 GB "
      "(50th/95th percentile)");

  Rng rng(3);
  const auto jobs = bench::w3(rng, 5000);  // large sample for stable tails
  std::vector<double> tasks, input, shuffle;
  for (const JobSpec& job : jobs) {
    tasks.push_back(job.num_tasks());
    input.push_back(job.total_input() / kGB);
    shuffle.push_back(job.total_shuffle() / kGB);
  }

  std::printf("\n%-34s %12s %12s %22s\n", "", "50%-tile", "95%-tile",
              "(paper 50% / 95%)");
  std::printf("%-34s %12.0f %12.0f %22s\n", "Number of tasks",
              percentile(tasks, 50), percentile(tasks, 95), "180 / 2,060");
  std::printf("%-34s %12.1f %12.1f %22s\n", "Input Data Size (GB)",
              percentile(input, 50), percentile(input, 95), "7.1 / 162.3");
  std::printf("%-34s %12.1f %12.1f %22s\n", "Intermediate data size (GB)",
              percentile(shuffle, 50), percentile(shuffle, 95), "6 / 71.5");
  return 0;
}
