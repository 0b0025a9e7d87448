#pragma once
// Metrics computed from a run, and how they are printed.

#include <string>
#include <vector>

#include "sb/run.h"

namespace servebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// How the value was obtained: sample counts, a ratio's base, or why it
  /// does not apply to this workload.
  std::string basis;
};

/// How a workload's runs are scored; fixed per workload in config.json.
struct Scoring {
  double ttft_limit_ms = 0.0;  // goodput: TTFT limit (embeddings: latency)
  double itl_limit_ms = 0.0;   // goodput: limit on a request's mean token gap
  /// output_tokens_per_s is the upper quartile over this many equal time
  /// segments of the window. A batch's rate follows the host's speed, so
  /// segments keep slow seconds from moving it; an open loop's rate follows
  /// its arrivals, and one segment (the whole window) is steadier.
  int throughput_segments = 1;
};

Scoring scoring_of(const Params& workload);

/// What a user of the system sees.
std::vector<Metric> end_to_end(const RunResult& run, const Scoring& scoring);

/// One metric per layer boundary the benchmark times from outside, from
/// the traced run; `untraced` is the same workload and seed without spans,
/// for the tracing overhead.
std::vector<Metric> per_layer(const RunResult& traced,
                              const RunResult& untraced,
                              const Scoring& scoring);

const Metric& find_metric(const std::vector<Metric>& metrics,
                          const std::string& name);

/// "name  value unit  (basis)" lines.
std::string format_table(const std::vector<Metric>& metrics);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace servebench
