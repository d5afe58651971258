#include "workload/recurring.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace corral {
namespace {

bool is_weekend(int day) { return day % 7 == 5 || day % 7 == 6; }

}  // namespace

std::vector<JobInstance> generate_history(const RecurringJobTemplate& tmpl,
                                          int days, Rng& rng) {
  require(days > 0, "generate_history: days must be positive");
  require(tmpl.runs_per_day >= 1,
          "generate_history: runs_per_day must be >= 1");
  require(tmpl.base_input > 0, "generate_history: base input must be > 0");
  require(tmpl.noise >= 0, "generate_history: negative noise");

  std::vector<JobInstance> history;
  history.reserve(static_cast<std::size_t>(days * tmpl.runs_per_day));
  for (int day = 0; day < days; ++day) {
    const double season =
        is_weekend(day) ? tmpl.weekend_factor : tmpl.weekday_factor;
    const double drift = std::pow(1.0 + tmpl.drift_per_day, day);
    for (int run = 0; run < tmpl.runs_per_day; ++run) {
      // Diurnal curve peaking mid-day for multi-run jobs.
      const double phase =
          2.0 * M_PI * (static_cast<double>(run) / tmpl.runs_per_day);
      const double diurnal =
          1.0 + tmpl.hourly_amplitude * std::sin(phase - M_PI / 2.0);
      // Log-normal multiplicative noise with unit median. A unit draw
      // scaled by the noise takes the same engine draws as a draw at that
      // stddev, and stays defined when the noise is zero.
      const double noise = std::exp(rng.normal(0.0, 1.0) * tmpl.noise);
      history.push_back(JobInstance{
          day, run, tmpl.base_input * season * drift * diurnal * noise});
    }
  }
  return history;
}

Bytes predict_input(const std::vector<JobInstance>& history, int day,
                    int run_of_day) {
  const bool weekend = is_weekend(day);
  double total = 0;
  int count = 0;
  for (const JobInstance& instance : history) {
    if (instance.day >= day) continue;  // only the past is usable
    if (instance.run_of_day != run_of_day) continue;
    if (is_weekend(instance.day) != weekend) continue;
    total += instance.input_bytes;
    ++count;
  }
  return count == 0 ? 0 : total / count;
}

double prediction_mape(const std::vector<JobInstance>& history,
                       int warmup_days) {
  require(warmup_days >= 1, "prediction_mape: warmup_days must be >= 1");
  double total_error = 0;
  int count = 0;
  for (const JobInstance& instance : history) {
    if (instance.day < warmup_days) continue;
    const Bytes predicted =
        predict_input(history, instance.day, instance.run_of_day);
    if (predicted <= 0) continue;
    total_error +=
        std::abs(predicted - instance.input_bytes) / instance.input_bytes;
    ++count;
  }
  require(count > 0, "prediction_mape: no predictable instances");
  return total_error / count;
}

JobSpec scale_job_spec(const JobSpec& reference, Bytes target_input,
                       int new_id, Seconds arrival) {
  reference.validate();
  JobSpec job = reference;
  job.id = new_id;
  job.arrival = arrival;
  const Bytes reference_input = reference.total_input();
  if (!std::isfinite(target_input) || target_input <= 0 ||
      reference_input <= 0) {
    return job;  // nothing to scale from (incl. NaN/Inf predictor garbage)
  }
  const double scale = target_input / reference_input;
  for (MapReduceSpec& stage : job.stages) {
    stage.input_bytes *= scale;
    stage.shuffle_bytes *= scale;
    stage.output_bytes *= scale;
    // Keep the split size: the task count grows with the data.
    stage.num_maps = std::max(
        1, static_cast<int>(std::lround(stage.num_maps * scale)));
    stage.num_reduces = std::max(
        stage.num_reduces > 0 ? 1 : 0,
        static_cast<int>(std::lround(stage.num_reduces * scale)));
  }
  return job;
}

JobSpecEstimate estimate_job_spec(const JobSpec& reference,
                                  const std::vector<JobInstance>& history,
                                  int day, int run_of_day, int new_id,
                                  Seconds arrival) {
  JobSpecEstimate estimate;
  estimate.predicted_input = predict_input(history, day, run_of_day);
  estimate.job =
      scale_job_spec(reference, estimate.predicted_input, new_id, arrival);
  return estimate;
}

std::size_t record_instance(std::vector<JobInstance>& history,
                            JobInstance instance) {
  require(instance.day >= 0 && instance.run_of_day >= 0,
          "record_instance: negative day or run_of_day");
  require(std::isfinite(instance.input_bytes) && instance.input_bytes > 0,
          "record_instance: input_bytes must be positive and finite");
  if (!history.empty()) {
    const JobInstance& last = history.back();
    require(instance.day > last.day ||
                (instance.day == last.day &&
                 instance.run_of_day >= last.run_of_day),
            "record_instance: instance precedes recorded history");
  }
  history.push_back(instance);
  return history.size();
}

std::size_t prune_history(std::vector<JobInstance>& history, int keep_days) {
  if (keep_days <= 0 || history.empty()) return 0;
  const int newest = history.back().day;
  const int cutoff = newest - keep_days + 1;
  const std::size_t before = history.size();
  history.erase(std::remove_if(history.begin(), history.end(),
                               [cutoff](const JobInstance& instance) {
                                 return instance.day < cutoff;
                               }),
                history.end());
  return before - history.size();
}

std::vector<RecurringJobTemplate> fig1_templates() {
  // Input sizes "ranging from several gigabytes to tens of terabytes";
  // distinct seasonal shapes like the six series in Fig 1.
  std::vector<RecurringJobTemplate> jobs(6);
  jobs[0] = {"click-log-hourly", 8 * kGB, 1.0, 0.55, 0.065, 0.002, 24, 0.4};
  jobs[1] = {"ad-billing-daily", 120 * kGB, 1.0, 0.85, 0.065, 0.001, 1, 0.0};
  jobs[2] = {"search-index-delta", 900 * kGB, 1.0, 0.70, 0.065, 0.003, 4,
             0.25};
  jobs[3] = {"telemetry-rollup", 3.5 * kTB, 1.0, 0.95, 0.065, 0.002, 1, 0.0};
  jobs[4] = {"ml-feature-build", 11 * kTB, 1.0, 0.40, 0.065, 0.001, 1, 0.0};
  jobs[5] = {"weekly-closing", 30 * kTB, 1.0, 1.60, 0.065, 0.0, 1, 0.0};
  return jobs;
}

}  // namespace corral
