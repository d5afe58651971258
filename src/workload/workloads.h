// Synthetic reconstructions of the paper's evaluation workloads (§6.1).
//
// The original traces are proprietary (Quantcast-derived W1, SWIM Yahoo W2,
// Microsoft Cosmos W3); we synthesize workloads matching every property the
// paper states about them — job-size mix and selectivities for W1, the
// extreme skew of W2 (~90% tiny jobs plus two ~5.5 TB jobs whose shuffle is
// 1.8x their input), and the Table 1 percentiles for W3. See DESIGN.md for
// the substitution rationale.
#ifndef CORRAL_WORKLOAD_WORKLOADS_H_
#define CORRAL_WORKLOAD_WORKLOADS_H_

#include <span>
#include <vector>

#include "jobs/job.h"
#include "util/rng.h"

namespace corral {

// W1: constructed from the Quantcast workloads "to incorporate a wider range
// of job types, by varying the job size, and task selectivities". Job sizes
// are small (<= 50 tasks), medium (<= 500) and large (>= 1000); input:output
// selectivities range over [4:1, 1:4]. Map tasks read 256 MB each, scaled
// by a per-job factor in [0.5, 2].
struct W1Config {
  int num_jobs = 200;
  double fraction_small = 0.50;
  double fraction_medium = 0.35;  // remainder is large
  // Scales task counts uniformly (used to shrink the Fig 14 instance while
  // keeping the workload's shape; 1.0 reproduces the paper's W1).
  double task_scale = 1.0;
  // Output selectivity range (output:input, sampled log-uniformly). The
  // paper quotes [1:4, 4:1]; aggregation-heavy variants narrow this toward
  // small outputs (see bench_fig12_netload for why it matters).
  double min_output_selectivity = 0.25;
  double max_output_selectivity = 4.0;
};
std::vector<JobSpec> make_w1(const W1Config& config, Rng& rng);

// Size classes used by Fig 9 ("binned by the job size").
enum class JobSizeClass { kSmall, kMedium, kLarge };
JobSizeClass classify_w1(const JobSpec& job);

// W2: derived from the SWIM Yahoo workloads; 400 jobs. "Almost 90% of the
// jobs are tiny with less than 200MB (75MB) of input (shuffle) data and two
// (out of the 400) jobs are relatively large, reading nearly 5.5TB each"
// with "nearly 1.8 times more shuffle data than input".
struct W2Config {
  int num_jobs = 400;
};
std::vector<JobSpec> make_w2(const W2Config& config, Rng& rng);

// W3: 200 jobs sampled from a 24-hour Microsoft Cosmos trace. Log-normal
// marginals are fitted to Table 1 (tasks 180/2060, input 7.1/162.3 GB,
// shuffle 6/71.5 GB at the 50th/95th percentile), with task count and data
// sizes correlated through a shared latent factor.
struct W3Config {
  int num_jobs = 200;
};
std::vector<JobSpec> make_w3(const W3Config& config, Rng& rng);

// Assigns arrival times uniformly at random over [0, window] (the online
// scenario draws arrivals from U[0, 60min], §6.2.2), then sorts by arrival.
void assign_uniform_arrivals(std::vector<JobSpec>& jobs, Seconds window,
                             Rng& rng);

// Marks all jobs ad hoc (recurring = false); used by the Fig 11 mix.
void mark_ad_hoc(std::vector<JobSpec>& jobs);

// Placement-constrained variant of a workload (bench_policy_matrix's
// "w1-constrained" cells; docs/coflow.md "Placement constraints"). The
// decoration is a deterministic function of the job sizes, no RNG: the
// heaviest 40% of the jobs — the ones that shape the network schedule — are
// pinned to the racks equipped with `resource_class` (which the cluster must
// declare via ClusterConfig::resource_classes), the four heaviest are split
// into two availability sets demanding pairwise disjoint racks, and the
// single heaviest job claims rack exclusivity. Concentrating the big
// shuffles on a few shared racks is what makes coflow-policy orderings flip
// relative to the unconstrained workload.
struct PlacementMixConfig {
  std::string resource_class = "accel";
  int resource_units = 1;
};
std::vector<JobSpec> with_placement_mix(std::vector<JobSpec> jobs,
                                        const PlacementMixConfig& config);

// Latest arrival time across the workload — a lower bound on the simulated
// horizon, used to size fault timelines (generate_fault_schedule wants an
// explicit horizon). Returns 0 for an empty workload.
Seconds workload_span(std::span<const JobSpec> jobs);

// Perturbs data sizes by a relative error in [-error, +error] (Fig 13a:
// "we varied the amount of data processed by jobs up to 50%"). Returns the
// perturbed copy used as the *actual* execution while the original is what
// the planner saw.
std::vector<JobSpec> perturb_sizes(const std::vector<JobSpec>& jobs,
                                   double error, Rng& rng);

// Delays a fraction of jobs by a random offset in [-t, t], clamping at zero
// (Fig 13b). Returns the perturbed copy.
std::vector<JobSpec> perturb_arrivals(const std::vector<JobSpec>& jobs,
                                      double fraction, Seconds t, Rng& rng);

}  // namespace corral

#endif  // CORRAL_WORKLOAD_WORKLOADS_H_
