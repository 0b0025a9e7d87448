// Caller-driven workloads: the generator thread feeds a fixed batch of
// requests through try_submit as the admission queue frees and drives
// InferenceEngine::step() itself, timing each step from outside. A request
// is due when it is submitted, so nothing depends on time and each
// workload's work counts repeat exactly for a seed.
//
//   rag_prefix      long prompts sharing one system prefix, with short
//                   answers, plus short high-priority interactive requests.
//                   Exercises the prefix cache, paged block sharing,
//                   chunked prefill (64-row GEMMs on the thread pool) and
//                   priority admission; prefill chunks share steps with
//                   decode, so ITL interference shows here.
//   offline_decode  short-prompt, long-output requests into an arena
//                   smaller than the batch needs. Exercises small-M decode
//                   GEMMs, lm_head, sampling, KV reservations and swap
//                   preemption into the host tier.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "parallel/thread_pool.h"
#include "sb/run.h"
#include "sb/stats.h"
#include "serve/engine.h"

namespace servebench {

namespace mt = matgpt;
namespace serve = matgpt::serve;

namespace {

std::map<std::string, double> snapshot(const serve::InferenceEngine& engine) {
  std::map<std::string, double> out;
  flatten_numbers(Json::parse(engine.stats_json()), "engine", out);
  return out;
}

serve::EngineConfig rag_engine_config() {
  serve::EngineConfig ec;
  ec.max_batch = 8;
  // Room for eight worst-case sequences beside the prefix cache: admission
  // is bounded by max_batch, not memory.
  ec.kv_slots = 8;
  ec.queue_capacity = 8;
  ec.paged_kv = true;
  // Every question (64 tokens past the cached prefix) prefills in one chunk
  // whose GEMMs are large enough (M >= 64) to run on the thread pool.
  ec.prefill_chunk_tokens = 64;
  ec.scheduler = serve::sched::Policy::kPriority;
  ec.sched_aging_ms = 0.0;  // no aging: admission order depends on no clock
  ec.preempt_mode = serve::sched::PreemptMode::kSwap;
  ec.prefix_cache_bytes = std::size_t{8} << 20;
  return ec;
}

serve::EngineConfig offline_engine_config() {
  serve::EngineConfig ec;
  ec.max_batch = 16;
  // Four worst-case (max_seq) sequences' worth of blocks: about eleven of
  // the batch's requests fit, so admission is memory-bound and the
  // priority jobs preempt bulk requests into the host tier.
  ec.kv_slots = 4;
  ec.queue_capacity = 8;
  ec.paged_kv = true;
  ec.prefill_chunk_tokens = 64;
  ec.scheduler = serve::sched::Policy::kPriority;
  ec.sched_aging_ms = 0.0;  // no aging: admission order depends on no clock
  ec.preempt_mode = serve::sched::PreemptMode::kSwap;
  return ec;
}

/// Warm the engine's code paths with requests unrelated to any seed, so the
/// timed window starts with lazily built state in place.
void warm_up(serve::InferenceEngine& engine, std::int64_t vocab) {
  mt::Rng rng(0x5eedULL);
  std::vector<serve::Request> reqs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    serve::Request r;
    r.id = 900000000 + i;
    r.prompt = random_tokens(rng, vocab, 48 + 16 * static_cast<int>(i));
    r.max_new_tokens = 8;
    r.sampling = mt::nn::SamplingParams::greedy_params(i);
    reqs.push_back(std::move(r));
  }
  engine.run_trace(std::move(reqs));
}

/// Build models + engine + warm-up kSetupRepeats times, timing each; keep
/// the last stack.
std::unique_ptr<serve::InferenceEngine> set_up(
    const Config& config, const serve::EngineConfig& ec, RunResult& out) {
  std::unique_ptr<serve::InferenceEngine> engine;
  for (int r = 0; r < kSetupRepeats; ++r) {
    engine.reset();
    out.models = Models();
    const auto t0 = Clock::now();
    out.models = build_models(config.root());
    engine = std::make_unique<serve::InferenceEngine>(*out.models.gpt, ec);
    warm_up(*engine, out.models.gpt->config().vocab_size);
    out.setup_s.push_back(seconds_since(t0, Clock::now()));
  }
  return engine;
}

/// Drives one engine from the calling thread and records what it sees.
class StepLoop {
 public:
  StepLoop(serve::InferenceEngine& engine, RunResult& out,
           Clock::time_point t0)
      : engine_(engine), out_(out), t0_(t0) {}

  double now() const { return seconds_since(t0_, Clock::now()); }
  std::size_t finished() const { return finished_; }

  /// try_submit record `i`, which falls due now; false when the admission
  /// queue is full.
  bool submit(std::size_t i) {
    Record& rec = out_.records[i];
    serve::Request req;
    req.id = rec.id;
    req.prompt = rec.prompt;
    req.max_new_tokens = rec.max_new;
    req.sampling = sampling_of(rec);
    req.priority =
        rec.high_priority ? serve::Priority::kHigh : serve::Priority::kLow;
    req.on_token = [this, &rec](std::int32_t token) {
      const double t = now();
      if (rec.first < 0.0) rec.first = t;
      rec.tokens.push_back(token);
      rec.token_times.push_back(t);
      step_tokens_ += 1;
    };
    req.on_finish = [this, &rec](const serve::RequestResult& result) {
      finish(rec, result);
    };
    const double t = now();
    if (!engine_.try_submit(std::move(req)).has_value()) return false;
    rec.attempted = true;
    rec.due = t;
    rec.ready = t;
    rec.sent = t;
    return true;
  }

  void step() {
    const double start = now();
    step_tokens_ = 0;
    engine_.step();
    const double end = now();
    out_.steps.push_back({start, end, step_tokens_});
    out_.tracer.add("step", 0, 0, start, end, kLaneSteps);
    const auto& pool = engine_.kv_pool();
    if (pool.total_blocks() > 0) {
      out_.peak_block_utilization = std::max(
          out_.peak_block_utilization,
          static_cast<double>(pool.used_blocks()) /
              static_cast<double>(pool.total_blocks()));
    }
    out_.peak_active = std::max(out_.peak_active,
                                static_cast<double>(engine_.active_count()));
  }

 private:
  void finish(Record& rec, const serve::RequestResult& result) {
    rec.done = now();
    rec.engine_ttft_s = result.ttft_s;
    rec.engine_total_s = result.total_s;
    rec.queue_delay_s = result.queue_delay_s;
    rec.ok = result.status == serve::RequestStatus::kOk;
    if (!rec.ok) rec.error = serve::status_name(result.status);
    if (rec.ok && static_cast<std::int64_t>(rec.tokens.size()) !=
                      result.generated_tokens) {
      rec.ok = false;
      rec.error = "on_token count differs from RequestResult";
    }
    finished_ += 1;
    if (!out_.tracer.enabled() || !rec.ok) return;
    // Phases: waiting for the generator to submit (empty here: a request
    // falls due when it is submitted), the engine queue, prefill up to the
    // first token, and decode. queue_delay_s is the engine's own
    // submit-to-first-prefill clock.
    Tracer& tr = out_.tracer;
    const double admitted = rec.sent + rec.queue_delay_s;
    const std::uint64_t root =
        tr.add("request", 0, rec.id, rec.due, rec.done, kLaneRequests);
    tr.add("conn_wait", root, rec.id, rec.due, rec.sent, kLaneRequests);
    tr.add("queue", root, rec.id, rec.sent, admitted, kLaneRequests);
    tr.add("prefill", root, rec.id, admitted, rec.first, kLaneRequests);
    tr.add("decode", root, rec.id, rec.first, rec.done, kLaneRequests);
  }

  serve::InferenceEngine& engine_;
  RunResult& out_;
  Clock::time_point t0_;
  std::size_t finished_ = 0;
  std::int64_t step_tokens_ = 0;
};

/// Moves the calling thread round-robin over the CPUs the process may use,
/// and gives it all of them back when destroyed. On a shared host the
/// vCPUs run at different speeds (one offline_decode seed, pinned to each
/// of four vCPUs in turn, read ITL p50 4.2 to 6.0 ms), and the thread that
/// drives step() stays on whichever one it started on: without rotation a
/// run measures that draw.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof all_, &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// How long the driving thread stays on one CPU: about ten decode steps,
/// so every time segment of a run visits every CPU many times.
constexpr double kRotateS = 0.05;

/// The timed window: submit out.records in order whenever the admission
/// queue has room, and step until every request has finished.
void run_batch(serve::InferenceEngine& engine, RunResult& out) {
  // Threads inherit their creator's affinity: the GEMM pool must exist
  // before the driving thread is pinned, so its workers keep every CPU.
  matgpt::ThreadPool::global();
  out.before = snapshot(engine);
  out.gemm_calls = -gemm_calls_total();
  const CpuTimes cpu = cpu_times();
  StepLoop loop(engine, out, Clock::now());
  const std::size_t n = out.records.size();
  std::size_t next = 0;
  {
    CpuRotation rotation;
    double moved = -kRotateS;
    while (loop.finished() < n) {
      while (next < n && loop.submit(next)) ++next;
      if (loop.now() - moved >= kRotateS) {
        rotation.next();
        moved = loop.now();
      }
      loop.step();
    }
  }
  out.window_s = loop.now();
  out.steal_share = steal_share(cpu, cpu_times());
  out.after = snapshot(engine);
  out.gemm_calls += gemm_calls_total();
}

std::size_t batch_size(const Params& p, const RunOptions& options) {
  return static_cast<std::size_t>(
      std::lround(p.num("requests_per_second") * options.seconds));
}

}  // namespace

RunResult run_rag_prefix(const Config& config, const RunOptions& options) {
  const Params p = config.workload("rag_prefix");
  RunResult out;
  out.workload = "rag_prefix";
  out.tracer = Tracer(options.traced);
  auto engine = set_up(config, rag_engine_config(), out);
  const std::int64_t vocab = out.models.gpt->config().vocab_size;

  mt::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 2);
  const auto prefix = random_tokens(rng, vocab, p.integer("prefix_tokens"));
  const std::size_t n = batch_size(p, options);
  const auto every = static_cast<std::size_t>(p.integer("short_every"));
  out.records.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Record& r = out.records[i];
    r.id = i + 1;
    r.greedy = rng.uniform() < p.num("greedy_share");
    r.seed = rng.next();
    if (i % every == every - 1) {
      r.kind = Kind::kShort;
      r.high_priority = true;
      r.prompt = random_tokens(rng, vocab, draw(rng, p.range("short_prompt")));
      r.max_new = draw(rng, p.range("short_new"));
    } else {
      r.kind = Kind::kLong;
      r.prompt = prefix;
      const auto question =
          random_tokens(rng, vocab, p.integer("question_tokens"));
      r.prompt.insert(r.prompt.end(), question.begin(), question.end());
      r.max_new = draw(rng, p.range("long_new"));
    }
  }

  // A deployment's system prompt is resident in the prefix cache; one
  // untimed request puts it there, so the window measures the steady state
  // instead of the first request's cold prefill.
  {
    serve::Request warm;
    warm.id = 900000100;
    warm.prompt = prefix;
    warm.prompt.push_back(5);
    warm.max_new_tokens = 1;
    engine->run_trace({std::move(warm)});
  }
  run_batch(*engine, out);
  return out;
}

RunResult run_offline_decode(const Config& config, const RunOptions& options) {
  const Params p = config.workload("offline_decode");
  RunResult out;
  out.workload = "offline_decode";
  out.tracer = Tracer(options.traced);
  auto engine = set_up(config, offline_engine_config(), out);
  const std::int64_t vocab = out.models.gpt->config().vocab_size;

  mt::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 3);
  const std::size_t n = batch_size(p, options);
  const auto every = static_cast<std::size_t>(p.integer("priority_every"));
  out.records.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Record& r = out.records[i];
    r.kind = Kind::kBatch;
    r.id = i + 1;
    r.greedy = true;
    r.seed = rng.next();
    r.high_priority = i % every == every - 1;
    r.prompt = random_tokens(rng, vocab, draw(rng, p.range("prompt_tokens")));
    r.max_new = draw(rng, p.range("new_tokens"));
  }
  run_batch(*engine, out);
  return out;
}

}  // namespace servebench
