#pragma once
// One timed run of one workload: the per-request records, the engine step
// samples and counter snapshots it produced, and the entry points of the
// three workloads.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sb/setup.h"
#include "sb/spans.h"
#include "nn/sampling.h"

namespace servebench {

enum class Kind {
  kPlain,        // chat_http: /v1/generate, unshared prompt
  kConstrained,  // chat_http: /v1/generate with the "json" grammar
  kSession,      // chat_http: one turn of a /v1/sessions conversation
  kEmbed,        // chat_http: one /v1/embeddings batch
  kLong,         // rag_prefix: shared system prefix + question
  kShort,        // rag_prefix: short high-priority interactive request
  kBatch,        // offline_decode: short prompt, long output
};

const char* kind_name(Kind kind);

/// One request as generated from the seed, and what became of it. Times are
/// seconds from the start of the timed window; -1 = did not happen.
struct Record {
  Kind kind = Kind::kPlain;
  std::uint64_t id = 0;
  std::vector<std::int32_t> prompt;  // sessions: this turn's new tokens
  std::int64_t max_new = 0;
  bool greedy = true;
  std::uint64_t seed = 0;
  bool high_priority = false;
  std::vector<std::vector<std::int32_t>> inputs;  // embeddings
  int conversation = -1;                          // sessions
  int turn = 0;

  bool attempted = false;
  double due = -1.0;
  /// Due, or later if every connection was busy at the due time.
  double ready = -1.0;
  /// Sent (HTTP) or submitted (in-process).
  double sent = -1.0;
  double first = -1.0;
  double done = -1.0;
  std::vector<double> token_times;
  std::vector<std::int32_t> tokens;  // generated tokens
  std::vector<std::vector<float>> embeddings;

  /// The engine's own clock, from RequestResult or the stream's done chunk.
  double engine_ttft_s = -1.0;
  double engine_total_s = -1.0;
  double queue_delay_s = -1.0;  // in-process only

  bool ok = false;
  std::string error;
  bool mismatch = false;

  bool generates() const { return kind != Kind::kEmbed; }
};

/// One engine.step() call made by a caller-driven workload.
struct StepSample {
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t tokens = 0;  // on_token callbacks fired inside the step
};

struct RunResult {
  std::string workload;
  Models models;
  std::vector<Record> records;
  std::vector<StepSample> steps;
  /// chat_http: arrivals fall in [0, window_s). Batches: the whole run.
  double window_s = 0.0;
  /// Flattened engine.stats_json() / GET /v1/stats snapshots taken just
  /// before and after the timed window ("engine.*", "http.*").
  std::map<std::string, double> before;
  std::map<std::string, double> after;
  /// Process-global GEMM calls (all weight formats) inside the window.
  double gemm_calls = 0.0;
  /// Caller-driven only: measured between steps.
  double peak_block_utilization = 0.0;
  double peak_active = 0.0;
  /// Seconds each set-up took (build models, engine, server; warm up).
  std::vector<double> setup_s;
  /// Share of the host's CPU time other guests took during the window.
  double steal_share = 0.0;
  Tracer tracer{false};

  double delta(const std::string& key) const;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
};

/// Complete set-ups (models, engine, server, warm-up) each run times;
/// setup_s is their median.
inline constexpr int kSetupRepeats = 7;

RunResult run_chat_http(const Config& config, const RunOptions& options);
RunResult run_rag_prefix(const Config& config, const RunOptions& options);
RunResult run_offline_decode(const Config& config, const RunOptions& options);

/// GEMM calls the process-global tuner has seen, all weight formats.
double gemm_calls_total();

/// Flatten a stats JSON document into "prefix.key" (nested objects joined
/// with '.') -> number; non-numeric leaves are skipped.
void flatten_numbers(const Json& doc, const std::string& prefix,
                     std::map<std::string, double>& out);

/// Uniform integer in [range.first, range.second].
std::int64_t draw(matgpt::Rng& rng, std::pair<std::int64_t, std::int64_t> range);

/// `n` token ids drawn uniformly above the special ids.
std::vector<std::int32_t> random_tokens(matgpt::Rng& rng, std::int64_t vocab,
                                        std::int64_t n);

/// `n` labels in [0, shares.size()): label i appears round(shares[i] * n)
/// times (the last takes the remainder), shuffled by `rng`. Exact counts
/// keep every seed's mix the same; only the order changes.
std::vector<std::size_t> shuffled_mix(matgpt::Rng& rng, std::size_t n,
                                      const std::vector<double>& shares);

/// Greedy, or temperature 0.8 / top-k 40 from the record's stream seed.
matgpt::nn::SamplingParams sampling_of(const Record& record);

/// Chrome trace lanes.
inline constexpr int kLaneRequests = 1;
inline constexpr int kLaneSteps = 2;
inline constexpr int kLaneHttp = 3;

}  // namespace servebench
