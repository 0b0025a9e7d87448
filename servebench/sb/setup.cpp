#include "sb/setup.h"

#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {

namespace mt = matgpt;

Params::Params(const Json& object, std::string where)
    : object_(&object), where_(std::move(where)) {
  MGPT_CHECK(object.is_object(), where_ << " must be a JSON object");
}

const Json& Params::get(std::string_view key) const {
  const Json* v = object_->find(key);
  MGPT_CHECK(v != nullptr, where_ << "." << key << " is missing");
  return *v;
}

double Params::num(std::string_view key) const { return get(key).as_number(); }

const std::string& Params::text(std::string_view key) const {
  return get(key).as_string();
}

std::int64_t Params::integer(std::string_view key) const {
  return get(key).as_int();
}

std::pair<std::int64_t, std::int64_t> Params::range(
    std::string_view key) const {
  const Json& v = get(key);
  MGPT_CHECK(v.is_array() && v.items().size() == 2,
             where_ << "." << key << " must be [lo, hi]");
  const auto lo = v.items()[0].as_int();
  const auto hi = v.items()[1].as_int();
  MGPT_CHECK(lo <= hi, where_ << "." << key << " has lo > hi");
  return {lo, hi};
}

Params Params::child(std::string_view key) const {
  return Params(get(key), where_ + "." + std::string(key));
}

Config Config::load(const std::string& path) {
  std::ifstream in(path);
  MGPT_CHECK(in.good(), "cannot read " << path);
  std::stringstream ss;
  ss << in.rdbuf();
  return Config{Json::parse(ss.str())};
}

Params Config::workload(std::string_view name) const {
  return root().child("workloads").child(name);
}

namespace {

// Byte strings for the grammar's token table: ids 0-4 stay empty (special
// tokens, never legal; 3 is EOS) and the rest cycle through JSON fragments,
// so every grammar state has many legal continuations and constrained
// decoding makes progress on a random-init model. Like a byte-level BPE
// vocabulary, the table holds every single character the grammar can need
// next (the letters of true/false/null included), so no reachable state is
// a dead end.
std::vector<std::string> json_token_bytes(std::int64_t vocab) {
  static const char* kFragments[] = {
      "{",    "}",     "[",    "]",  ":",    ",",    "\"",   " ",   "0",
      "1",    "2",     "3",    "4",  "5",    "6",    "7",    "8",   "9",
      "a",    "b",     "c",    "d",  "e",    "f",    "x",    "y",   "z",
      "{\"",  "\":",   ",\"",  "\"}", "\",", "true", "false", "null", "-",
      ".",    "e+",    "{}",   "[]", "1}",   "0]",   "\"a\":", "\"b\":",
      ": [",  ", ",    "]}",   "}}",   "l",    "n",    "r",   "s",
      "t",    "u",     "E",    "+",
  };
  constexpr std::size_t kCount = sizeof(kFragments) / sizeof(kFragments[0]);
  std::vector<std::string> bytes(static_cast<std::size_t>(vocab));
  for (std::size_t id = 5; id < bytes.size(); ++id) {
    bytes[id] = kFragments[(id - 5) % kCount];
  }
  return bytes;
}

bool cpuinfo_has(const std::string& flag) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line);
    std::string w;
    while (words >> w) {
      if (w == flag) return true;
    }
    return false;
  }
  return false;
}

}  // namespace

Models build_models(const Params& root) {
  const Params m = root.child("model");
  mt::nn::GptConfig c;
  c.arch = mt::nn::ArchFamily::kLLaMA;
  c.vocab_size = m.integer("vocab");
  c.hidden = m.integer("hidden");
  c.n_layers = m.integer("layers");
  c.n_heads = m.integer("heads");
  c.n_kv_heads = m.integer("kv_heads");
  c.max_seq = m.integer("max_seq");
  c.seed = static_cast<std::uint64_t>(m.integer("seed"));

  const Params e = root.child("embedder");
  mt::nn::BertConfig bc;
  bc.vocab_size = c.vocab_size;
  bc.hidden = e.integer("hidden");
  bc.n_layers = e.integer("layers");
  bc.n_heads = e.integer("heads");
  bc.max_seq = e.integer("max_seq");
  bc.seed = static_cast<std::uint64_t>(e.integer("seed"));

  Models models;
  models.gpt = std::make_unique<mt::nn::GptModel>(c);
  models.bert = std::make_shared<const mt::nn::BertEncoder>(bc);
  mt::serve::workloads::GrammarSpec spec;  // top-level object, depth 4
  models.json_grammar =
      std::make_shared<const mt::serve::workloads::TokenDfa>(
          mt::serve::workloads::TokenDfa::compile(
              spec, json_token_bytes(c.vocab_size), kEos));
  return models;
}

std::string host_block(const std::string& commit) {
  std::ostringstream os;
  os << "nproc: " << std::thread::hardware_concurrency() << "\n";
  auto flag = [](bool on) { return on ? 1 : 0; };
  os << "isa: avx2=" << flag(__builtin_cpu_supports("avx2"))
     << " fma=" << flag(__builtin_cpu_supports("fma"))
     << " avx512f=" << flag(__builtin_cpu_supports("avx512f"))
     << " avx512_vnni=" << flag(__builtin_cpu_supports("avx512vnni"))
     << " amx=" << flag(cpuinfo_has("amx_tile")) << "\n";
  os << "build_type: " << SERVEBENCH_BUILD_TYPE << "\n";
  os << "commit: " << commit << "\n";
  return os.str();
}

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  CpuTimes t;
  double v = 0.0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  const double ticks = after.total - before.total;
  return ticks > 0.0 ? (after.steal - before.steal) / ticks : 0.0;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream words(line.substr(6));
      double kib = 0.0;
      words >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace servebench
