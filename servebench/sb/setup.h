#pragma once
// What every workload shares: the benchmark configuration, the models the
// engine serves, the host description, and process memory.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "net/json.h"
#include "nn/bert.h"
#include "nn/gpt.h"
#include "serve/workloads/grammar.h"

namespace servebench {

using matgpt::net::Json;

/// Typed reads from one object of config.json; a missing or mistyped key
/// throws, naming the key.
class Params {
 public:
  Params(const Json& object, std::string where);
  double num(std::string_view key) const;
  const std::string& text(std::string_view key) const;
  std::int64_t integer(std::string_view key) const;
  /// A two-element [lo, hi] array.
  std::pair<std::int64_t, std::int64_t> range(std::string_view key) const;
  Params child(std::string_view key) const;

 private:
  const Json& get(std::string_view key) const;
  const Json* object_;
  std::string where_;
};

/// config.json, parsed. Holds the document the Params views point into.
struct Config {
  Json doc;
  static Config load(const std::string& path);
  Params root() const { return Params(doc, "config"); }
  Params workload(std::string_view name) const;
};

/// The served models, built from fixed seeds: one random-init LLaMA-family
/// GptModel for every generation request, a BertEncoder for embeddings,
/// and the "json" grammar compiled over a synthetic token byte table.
struct Models {
  std::unique_ptr<matgpt::nn::GptModel> gpt;
  std::shared_ptr<const matgpt::nn::BertEncoder> bert;
  std::shared_ptr<const matgpt::serve::workloads::TokenDfa> json_grammar;
};

Models build_models(const Params& root);

/// Token id the grammar treats as end-of-sequence.
inline constexpr std::int32_t kEos = 3;

/// nproc, ISA flags, build type and commit, one "key: value" per line.
std::string host_block(const std::string& commit);

/// Host-wide CPU time from /proc/stat, in clock ticks: all of it, and the
/// part the hypervisor gave to other guests (steal). On a shared host,
/// steal during a run explains a slow run.
struct CpuTimes {
  double total = 0.0;
  double steal = 0.0;
};
CpuTimes cpu_times();

/// Steal ticks between two readings over all ticks (0 when none passed).
double steal_share(const CpuTimes& before, const CpuTimes& after);

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mb();

}  // namespace servebench
