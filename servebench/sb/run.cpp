#include "sb/run.h"

#include <algorithm>
#include <cmath>

#include "tensor/gemm_tune.h"

namespace servebench {

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kPlain:
      return "plain";
    case Kind::kConstrained:
      return "constrained";
    case Kind::kSession:
      return "session";
    case Kind::kEmbed:
      return "embed";
    case Kind::kBatch:
      return "batch";
    case Kind::kLong:
      return "long";
    case Kind::kShort:
      return "short";
  }
  return "?";
}

double RunResult::delta(const std::string& key) const {
  auto a = after.find(key);
  auto b = before.find(key);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

double gemm_calls_total() {
  const auto s = matgpt::gemm_tune::GemmTuner::instance().stats();
  return static_cast<double>(s.f32_calls + s.bf16_calls + s.int8_calls);
}

void flatten_numbers(const Json& doc, const std::string& prefix,
                     std::map<std::string, double>& out) {
  for (const auto& [key, value] : doc.members()) {
    const std::string name = prefix.empty() ? key : prefix + "." + key;
    if (value.is_object()) {
      flatten_numbers(value, name, out);
    } else if (value.is_number()) {
      out[name] = value.as_number();
    }
  }
}

std::int64_t draw(matgpt::Rng& rng,
                  std::pair<std::int64_t, std::int64_t> range) {
  const auto span = static_cast<std::uint64_t>(range.second - range.first + 1);
  return range.first + static_cast<std::int64_t>(rng.uniform_int(span));
}

std::vector<std::int32_t> random_tokens(matgpt::Rng& rng, std::int64_t vocab,
                                        std::int64_t n) {
  constexpr std::int64_t kFirstPlain = 5;  // ids below are special tokens
  std::vector<std::int32_t> out(static_cast<std::size_t>(n));
  for (auto& t : out) {
    t = static_cast<std::int32_t>(
        kFirstPlain + static_cast<std::int64_t>(rng.uniform_int(
                          static_cast<std::uint64_t>(vocab - kFirstPlain))));
  }
  return out;
}

std::vector<std::size_t> shuffled_mix(matgpt::Rng& rng, std::size_t n,
                                      const std::vector<double>& shares) {
  std::vector<std::size_t> labels;
  labels.reserve(n);
  for (std::size_t i = 0; i + 1 < shares.size(); ++i) {
    const auto count = static_cast<std::size_t>(
        std::lround(shares[i] * static_cast<double>(n)));
    labels.insert(labels.end(), std::min(count, n - labels.size()), i);
  }
  labels.resize(n, shares.size() - 1);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(labels[i - 1], labels[rng.uniform_int(i)]);
  }
  return labels;
}

matgpt::nn::SamplingParams sampling_of(const Record& record) {
  if (record.greedy) {
    return matgpt::nn::SamplingParams::greedy_params(record.seed);
  }
  matgpt::nn::SamplingParams p;
  p.temperature = 0.8f;
  p.top_k = 40;
  p.seed = record.seed;
  return p;
}

}  // namespace servebench
