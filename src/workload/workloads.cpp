#include "workload/workloads.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace corral {
namespace {

// Log-uniform sample in [lo, hi].
double log_uniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

// Typical Hadoop per-task processing rates (read + user code), sampled per
// job: maps are disk/CPU bound at a few tens of MB/s.
BytesPerSec sample_map_rate(Rng& rng) { return rng.uniform(20, 60) * kMB; }
BytesPerSec sample_reduce_rate(Rng& rng) { return rng.uniform(15, 45) * kMB; }

// Log-normal sigma from a p95/p50 ratio: p95 = p50 * exp(1.645 * sigma).
double sigma_from_tail(double p95_over_p50) {
  return std::log(p95_over_p50) / 1.645;
}

// W1 bytes read per map task, before the per-job factor in [0.5, 2].
constexpr Bytes kW1BytesPerMap = 256 * kMB;

// W2's giant jobs: "two (out of the 400) jobs are relatively large, reading
// nearly 5.5TB each" with "nearly 1.8 times more shuffle data than input".
constexpr int kW2GiantJobs = 2;
constexpr Bytes kW2GiantInput = 5.5 * kTB;
constexpr double kW2GiantShuffleRatio = 1.8;

// with_placement_mix: the constrained share of the jobs and the number of
// anti-affinity sets (see workloads.h).
constexpr double kConstrainedFraction = 0.4;
constexpr int kAntiAffinitySets = 2;

}  // namespace

std::vector<JobSpec> make_w1(const W1Config& config, Rng& rng) {
  require(config.num_jobs > 0, "make_w1: num_jobs must be positive");
  require(config.fraction_small >= 0 && config.fraction_medium >= 0 &&
              config.fraction_small + config.fraction_medium <= 1.0,
          "make_w1: invalid size-class fractions");
  require(config.task_scale > 0, "make_w1: task_scale must be positive");

  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(config.num_jobs));
  for (int i = 0; i < config.num_jobs; ++i) {
    const double pick = rng.uniform(0, 1);
    int maps = 0;
    if (pick < config.fraction_small) {
      maps = rng.uniform_int(5, 50);
    } else if (pick < config.fraction_small + config.fraction_medium) {
      maps = rng.uniform_int(51, 500);
    } else {
      maps = rng.uniform_int(1000, 2500);
    }
    maps = std::max(1, static_cast<int>(std::lround(maps *
                                                    config.task_scale)));

    MapReduceSpec stage;
    stage.num_maps = maps;
    stage.input_bytes = maps * kW1BytesPerMap * rng.uniform(0.5, 2.0);
    // Task selectivities (input:output ratios) between 4:1 and 1:4 (§6.1);
    // shuffle and output sizes are drawn independently relative to input.
    stage.shuffle_bytes = stage.input_bytes * log_uniform(rng, 0.25, 4.0);
    stage.output_bytes =
        stage.input_bytes * log_uniform(rng, config.min_output_selectivity,
                                        config.max_output_selectivity);
    stage.num_reduces = std::clamp(
        static_cast<int>(std::lround(stage.shuffle_bytes / (256 * kMB))), 1,
        maps);
    stage.map_rate = sample_map_rate(rng);
    stage.reduce_rate = sample_reduce_rate(rng);
    jobs.push_back(
        JobSpec::map_reduce(i, "w1-job-" + std::to_string(i), stage));
  }
  return jobs;
}

JobSizeClass classify_w1(const JobSpec& job) {
  const int tasks = job.max_parallelism();
  if (tasks <= 50) return JobSizeClass::kSmall;
  if (tasks <= 500) return JobSizeClass::kMedium;
  return JobSizeClass::kLarge;
}

std::vector<JobSpec> make_w2(const W2Config& config, Rng& rng) {
  require(config.num_jobs > kW2GiantJobs,
          "make_w2: need more jobs than giant jobs");
  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(config.num_jobs));
  for (int i = 0; i < config.num_jobs; ++i) {
    MapReduceSpec stage;
    if (i < kW2GiantJobs) {
      // The two ~5.5TB jobs that determine W2's makespan (§6.2.1).
      stage.input_bytes = kW2GiantInput * rng.uniform(0.95, 1.05);
      stage.shuffle_bytes = stage.input_bytes * kW2GiantShuffleRatio;
      stage.output_bytes = stage.shuffle_bytes * 0.5;
      stage.num_maps =
          static_cast<int>(std::lround(stage.input_bytes / (512 * kMB)));
      stage.num_reduces = stage.num_maps / 4;
    } else if (rng.uniform(0, 1) < 0.89) {
      // ~90% tiny jobs: under 200MB input / 75MB shuffle.
      stage.input_bytes = rng.uniform(10, 200) * kMB;
      stage.shuffle_bytes = rng.uniform(1, 75) * kMB;
      stage.output_bytes = stage.shuffle_bytes * rng.uniform(0.2, 1.0);
      stage.num_maps = rng.uniform_int(1, 4);
      stage.num_reduces = 1;
    } else {
      // A thin band of small/medium jobs to fill out the distribution.
      stage.input_bytes = rng.uniform(0.5, 30) * kGB;
      stage.shuffle_bytes = stage.input_bytes * log_uniform(rng, 0.1, 1.0);
      stage.output_bytes = stage.shuffle_bytes * log_uniform(rng, 0.25, 1.0);
      stage.num_maps = std::max(
          1, static_cast<int>(std::lround(stage.input_bytes / (256 * kMB))));
      stage.num_reduces = std::clamp(stage.num_maps / 2, 1, stage.num_maps);
    }
    stage.num_maps = std::max(stage.num_maps, 1);
    stage.num_reduces = std::max(stage.num_reduces, 1);
    stage.map_rate = sample_map_rate(rng);
    stage.reduce_rate = sample_reduce_rate(rng);
    jobs.push_back(
        JobSpec::map_reduce(i, "w2-job-" + std::to_string(i), stage));
  }
  return jobs;
}

std::vector<JobSpec> make_w3(const W3Config& config, Rng& rng) {
  require(config.num_jobs > 0, "make_w3: num_jobs must be positive");
  // Table 1 percentiles. Medians and the p95/p50 tail ratios determine the
  // log-normal parameters; a shared latent factor correlates task count
  // with input size, as in real traces.
  const double input_mu = std::log(7.1 * kGB);
  const double input_sigma = sigma_from_tail(162.3 / 7.1);
  const double tasks_mu = std::log(180.0);
  const double tasks_sigma = sigma_from_tail(2060.0 / 180.0);
  const double shuffle_mu = std::log(6.0 * kGB);
  const double shuffle_sigma = sigma_from_tail(71.5 / 6.0);

  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(config.num_jobs));
  for (int i = 0; i < config.num_jobs; ++i) {
    // Latent factor shared by all three marginals (correlation ~0.8).
    const double z = rng.normal(0, 1);
    const auto draw = [&](double mu, double sigma) {
      const double own = rng.normal(0, 1);
      return std::exp(mu + sigma * (0.8 * z + 0.6 * own));
    };
    MapReduceSpec stage;
    stage.input_bytes = draw(input_mu, input_sigma);
    stage.shuffle_bytes = draw(shuffle_mu, shuffle_sigma);
    stage.output_bytes = stage.shuffle_bytes * log_uniform(rng, 0.25, 1.0);
    const double tasks = draw(tasks_mu, tasks_sigma);
    // Split total tasks between maps and reduces 2:1, the common ratio.
    stage.num_maps = std::max(1, static_cast<int>(std::lround(tasks * 2 / 3)));
    stage.num_reduces =
        std::max(1, static_cast<int>(std::lround(tasks / 3)));
    stage.map_rate = sample_map_rate(rng);
    stage.reduce_rate = sample_reduce_rate(rng);
    jobs.push_back(
        JobSpec::map_reduce(i, "w3-job-" + std::to_string(i), stage));
  }
  return jobs;
}

void assign_uniform_arrivals(std::vector<JobSpec>& jobs, Seconds window,
                             Rng& rng) {
  require(window >= 0, "assign_uniform_arrivals: negative window");
  for (JobSpec& job : jobs) job.arrival = rng.uniform(0, window);
  std::sort(jobs.begin(), jobs.end(),
            [](const JobSpec& a, const JobSpec& b) {
              return a.arrival < b.arrival;
            });
}

void mark_ad_hoc(std::vector<JobSpec>& jobs) {
  for (JobSpec& job : jobs) job.recurring = false;
}

std::vector<JobSpec> with_placement_mix(std::vector<JobSpec> jobs,
                                        const PlacementMixConfig& config) {
  // Rank by total bytes moved, heaviest first; ties break by index so the
  // decoration is byte-stable across runs.
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Bytes wa =
        jobs[a].total_input() + jobs[a].total_shuffle() + jobs[a].total_output();
    const Bytes wb =
        jobs[b].total_input() + jobs[b].total_shuffle() + jobs[b].total_output();
    if (wa != wb) return wa > wb;
    return a < b;
  });
  const std::size_t constrained = static_cast<std::size_t>(
      std::lround(kConstrainedFraction * static_cast<double>(jobs.size())));
  const std::size_t affinity_jobs =
      std::min(order.size(), std::size_t{2 * kAntiAffinitySets});
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    PlacementSpec& placement = jobs[order[rank]].placement;
    if (rank < constrained && !config.resource_class.empty()) {
      placement.resource_class = config.resource_class;
      placement.resource_units = config.resource_units;
    }
    if (rank < affinity_jobs) {
      placement.anti_affinity = static_cast<int>(rank) % kAntiAffinitySets;
    }
    if (rank == 0) placement.rack_exclusive = true;
    placement.validate();
  }
  return jobs;
}

std::vector<JobSpec> perturb_sizes(const std::vector<JobSpec>& jobs,
                                   double error, Rng& rng) {
  require(error >= 0 && error < 1.0, "perturb_sizes: error must be in [0,1)");
  std::vector<JobSpec> out = jobs;
  for (JobSpec& job : out) {
    for (MapReduceSpec& stage : job.stages) {
      const double f = 1.0 + rng.uniform(-error, error);
      stage.input_bytes *= f;
      stage.shuffle_bytes *= f;
      stage.output_bytes *= f;
    }
  }
  return out;
}

Seconds workload_span(std::span<const JobSpec> jobs) {
  Seconds last = 0;
  for (const JobSpec& job : jobs) last = std::max(last, job.arrival);
  return last;
}

std::vector<JobSpec> perturb_arrivals(const std::vector<JobSpec>& jobs,
                                      double fraction, Seconds t, Rng& rng) {
  require(fraction >= 0 && fraction <= 1.0,
          "perturb_arrivals: fraction must be in [0,1]");
  require(t >= 0, "perturb_arrivals: t must be non-negative");
  std::vector<JobSpec> out = jobs;
  for (JobSpec& job : out) {
    if (rng.chance(fraction)) {
      job.arrival = std::max(0.0, job.arrival + rng.uniform(-t, t));
    }
  }
  return out;
}

}  // namespace corral
