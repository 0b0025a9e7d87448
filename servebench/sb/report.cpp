#include "sb/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

#include "common/error.h"
#include "sb/stats.h"
#include "net/json.h"

namespace servebench {

namespace {

using Filter = std::function<bool(const Record&)>;

bool any(const Record&) { return true; }

/// A sample and the time (seconds into the run) that places it in a segment.
struct Timed {
  double at_s;
  double value;
};

/// TTFT from the due time, placed at the due time.
std::vector<Timed> ttfts_ms(const RunResult& run, const Filter& keep) {
  std::vector<Timed> out;
  for (const Record& r : run.records) {
    if (r.ok && r.generates() && keep(r)) {
      out.push_back({r.due, 1e3 * (r.first - r.due)});
    }
  }
  return out;
}

/// Gaps between a request's consecutive tokens, placed at the later token.
std::vector<Timed> itls_ms(const RunResult& run, const Filter& keep) {
  std::vector<Timed> out;
  for (const Record& r : run.records) {
    if (!r.ok || !keep(r)) continue;
    for (std::size_t i = 1; i < r.token_times.size(); ++i) {
      out.push_back({r.token_times[i],
                     1e3 * (r.token_times[i] - r.token_times[i - 1])});
    }
  }
  return out;
}

std::vector<double> values_of(const std::vector<Timed>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Timed& t : samples) out.push_back(t.value);
  return out;
}

/// Segment index of time `t` among `segments` equal slices of [0, span_s);
/// later times fall in the last slice.
std::size_t segment_of(double t, double span_s, int segments) {
  const double k = std::floor(t / span_s * segments);
  return static_cast<std::size_t>(std::clamp(k, 0.0, segments - 1.0));
}

std::string pct_basis(const Percentile& p, const char* what) {
  std::ostringstream os;
  os << "p" << std::lround(p.q * 100) << " of " << p.n << " " << what << ", "
     << p.beyond << " beyond";
  if (!p.supported) os << " (fewer than " << kMinBeyond << " beyond)";
  return os.str();
}

Metric pct_metric(const std::string& name, std::vector<double> values,
                  double q, const char* what) {
  const Percentile p = percentile(std::move(values), q);
  return {name, p.value, "ms", pct_basis(p, what)};
}

Metric pct_metric(const std::string& name, const std::vector<Timed>& samples,
                  double q, const char* what) {
  return pct_metric(name, values_of(samples), q, what);
}

/// Most segments a percentile is split into (about 3 s each in a 30 s run).
constexpr int kMaxSegments = 9;

/// A segment holds this many times the samples the ten-beyond rule needs:
/// its percentile must be steadier than the host's speed it is meant to
/// filter, or splitting adds more noise than it removes.
constexpr double kSegmentSamples = 5.0;

/// The largest odd segment count, up to kMaxSegments, whose even split
/// leaves every segment kSegmentSamples times the ten-beyond minimum, with
/// a fifth more as slack for the uneven split of random times.
int segments_for(std::size_t n, double q) {
  const double need =
      1.2 * kSegmentSamples * static_cast<double>(min_samples_for(q));
  for (int k = kMaxSegments; k > 1; k -= 2) {
    if (static_cast<double>(n) >= k * need) return k;
  }
  return 1;
}

/// Which segment value a run reports: the fastest quarter's. On a shared
/// host the speed changes within seconds; a slow phase covering up to
/// three quarters of the run then leaves the result alone, while a change
/// in the code moves every segment.
constexpr double kFastQuarter = 0.25;

/// The lower quartile over time segments of [0, span_s) of each segment's
/// q-percentile, with as many segments as the sample supports.
Metric segmented_pct(const std::string& name,
                     const std::vector<Timed>& samples, double span_s,
                     double q, const char* what) {
  const int segments = segments_for(samples.size(), q);
  if (segments <= 1) return pct_metric(name, samples, q, what);
  std::vector<std::vector<double>> slices(static_cast<std::size_t>(segments));
  for (const Timed& t : samples) {
    slices[segment_of(t.at_s, span_s, segments)].push_back(t.value);
  }
  std::vector<double> per_slice;
  std::ostringstream os;
  os << "lower quartile over " << segments << " segments of p"
     << std::lround(q * 100)
     << " of " << what << " (n, beyond:";
  bool supported = true;
  for (auto& slice : slices) {
    const Percentile p = percentile(std::move(slice), q);
    per_slice.push_back(p.value);
    supported = supported && p.supported;
    os << " " << p.n << "/" << p.beyond;
  }
  os << ")";
  if (!supported) os << " (a segment has fewer than " << kMinBeyond << " beyond)";
  return {name, percentile(per_slice, kFastQuarter).value, "ms", os.str()};
}

std::string ratio_basis(double num, double den, const char* num_name,
                        const char* den_name) {
  std::ostringstream os;
  os << num_name << " / " << den_name << " = " << num << " / " << den;
  return os.str();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double last_done(const RunResult& run) {
  double end = 0.0;
  for (const Record& r : run.records) end = std::max(end, r.done);
  return end;
}

std::size_t count_generated(const RunResult& run) {
  std::size_t n = 0;
  for (const Record& r : run.records) n += r.tokens.size();
  return n;
}

/// Linear-layer shapes of a module: weights are the rank-2 parameters named
/// "*weight"; `head` names the output projection counted separately.
struct Linears {
  double count = 0.0;
  double elements = 0.0;       // excluding the head
  double head_elements = 0.0;
};

Linears linears_of(const matgpt::nn::Module& m, const std::string& head,
                   const std::string& skip) {
  Linears l;
  for (const auto& p : m.parameters()) {
    const auto& t = p.var.value();
    const bool weight = p.name.size() >= 6 &&
                        p.name.compare(p.name.size() - 6, 6, "weight") == 0;
    if (!weight || t.ndim() != 2) continue;
    if (!skip.empty() && p.name.find(skip) != std::string::npos) continue;
    l.count += 1;
    const double e = static_cast<double>(t.numel());
    if (!head.empty() && p.name.find(head) != std::string::npos) {
      l.head_elements += e;
    } else {
      l.elements += e;
    }
  }
  return l;
}

const char* kNotHere = "does not apply to this workload";

/// Rounding slack when an engine duration is compared with the client's.
constexpr double kClockSlackS = 1e-6;

}  // namespace

Scoring scoring_of(const Params& workload) {
  Scoring s;
  s.ttft_limit_ms = workload.num("slo_ttft_ms");
  s.itl_limit_ms = workload.num("slo_itl_ms");
  s.throughput_segments =
      static_cast<int>(workload.integer("throughput_segments"));
  MGPT_CHECK(s.throughput_segments >= 1, "throughput_segments must be >= 1");
  return s;
}

std::vector<Metric> end_to_end(const RunResult& run, const Scoring& scoring) {
  std::vector<Metric> m;
  const double span = run.window_s;
  const auto ttft = ttfts_ms(run, any);
  const auto itl = itls_ms(run, any);
  m.push_back(segmented_pct("ttft_p50_ms", ttft, span, 0.5, "TTFTs"));
  m.push_back(segmented_pct("ttft_p90_ms", ttft, span, 0.9, "TTFTs"));
  m.push_back(segmented_pct("itl_p50_ms", itl, span, 0.5, "token gaps"));
  m.push_back(segmented_pct("itl_p99_ms", itl, span, 0.99, "token gaps"));

  std::size_t good = 0;
  std::size_t attempted = 0;
  for (const Record& r : run.records) {
    if (!r.attempted) continue;
    attempted += 1;
    if (!r.ok) continue;
    if (!r.generates()) {
      good += 1e3 * (r.done - r.due) <= scoring.ttft_limit_ms ? 1 : 0;
      continue;
    }
    const double ttft = 1e3 * (r.first - r.due);
    const double mean_itl =
        r.token_times.size() < 2
            ? 0.0
            : 1e3 * (r.token_times.back() - r.token_times.front()) /
                  static_cast<double>(r.token_times.size() - 1);
    good += ttft <= scoring.ttft_limit_ms && mean_itl <= scoring.itl_limit_ms ? 1 : 0;
  }
  // Tokens per second in each segment of the window (for chat_http, the
  // arrival window: the drain after it is not counted).
  const int k = scoring.throughput_segments;
  std::vector<double> rates(static_cast<std::size_t>(k), 0.0);
  double tokens = 0.0;
  for (const Record& r : run.records) {
    for (const double t : r.token_times) {
      if (t < span) rates[segment_of(t, span, k)] += 1.0;
    }
  }
  std::ostringstream tok;
  tok << "upper quartile over " << k << " segments of tokens / " << span / k
      << " s (tokens:";
  for (double& x : rates) {
    tok << " " << x;
    tokens += x;
    x /= span / k;
  }
  tok << ")";
  const double tokens_per_s = percentile(rates, 1.0 - kFastQuarter).value;
  // A batch's goodput follows the host's speed like its token rate does, so
  // it is taken at the same fast quarter: the run's good requests per
  // second, scaled by that quarter's token rate over the whole run's.
  const double speed = k == 1 ? 1.0 : ratio(tokens_per_s, tokens / span);
  {
    std::ostringstream os;
    os << good << " of " << attempted << " requests within TTFT "
       << scoring.ttft_limit_ms << " ms and mean ITL " << scoring.itl_limit_ms
       << " ms, over a " << run.window_s << " s window";
    if (k > 1) os << ", at the token rate's upper quartile (x " << speed << ")";
    m.push_back({"goodput_rps",
                 speed * ratio(static_cast<double>(good), run.window_s), "1/s",
                 os.str()});
  }
  m.push_back({"output_tokens_per_s", tokens_per_s, "1/s", tok.str()});
  std::ostringstream setup;
  setup << "median of " << run.setup_s.size() << " set-ups";
  m.push_back({"setup_s", median(run.setup_s), "s", setup.str()});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM of the process"});
  return m;
}

std::vector<Metric> per_layer(const RunResult& tr, const RunResult& untraced,
                              const Scoring& scoring) {
  std::vector<Metric> m;
  const bool http = tr.workload == "chat_http";
  const bool caller_driven = !tr.steps.empty();

  // loadgen: validity of the offered load.
  std::vector<double> late, wait;
  for (const Record& r : tr.records) {
    if (!r.attempted || r.sent < 0.0) continue;
    late.push_back(1e3 * (r.sent - r.ready));
    wait.push_back(1e3 * (r.ready - r.due));
  }
  m.push_back(pct_metric("loadgen.late_p99_ms", late, 0.99, "sends"));
  m.back().basis += "; limit " + std::to_string(kLateLimitMs) + " ms";
  m.push_back(pct_metric("loadgen.conn_wait_p90_ms", wait, 0.9, "sends"));

  // net: client view minus the engine's own clock.
  std::vector<double> ttft_ovh, total_ovh;
  for (const Record& r : tr.records) {
    if (!http || !r.ok || !r.generates()) continue;
    ttft_ovh.push_back(1e3 * ((r.first - r.sent) - r.engine_ttft_s));
    total_ovh.push_back(1e3 * ((r.done - r.sent) - r.engine_total_s));
  }
  m.push_back(pct_metric("net.ttft_overhead_p50_ms", ttft_ovh, 0.5,
                         "streams (client TTFT - engine ttft_ms)"));
  m.push_back(pct_metric("net.total_overhead_p50_ms", total_ovh, 0.5,
                         "streams (client total - engine total_ms)"));
  double http_errors = 0.0;
  for (const char* k :
       {"http.protocol_errors", "http.shed_429", "http.timeout_504",
        "http.bad_request_400", "http.client_aborts",
        "http.connections_rejected"}) {
    http_errors += tr.delta(k);
  }
  m.push_back({"net.http_errors", http_errors, "count",
               http ? "delta of /v1/stats HTTP error counters" : kNotHere});

  // serve/sched.
  std::vector<double> queue;
  for (const Record& r : tr.records) {
    if (r.ok && r.queue_delay_s >= 0.0) queue.push_back(1e3 * r.queue_delay_s);
  }
  m.push_back(pct_metric("sched.queue_wait_p50_ms", queue, 0.5,
                         "RequestResult::queue_delay_s"));
  m.push_back(pct_metric("sched.queue_wait_p90_ms", queue, 0.9,
                         "RequestResult::queue_delay_s"));
  if (http) {
    m[m.size() - 2].basis = m.back().basis =
        "not observable per request over HTTP";
  }
  m.push_back({"sched.preemptions", tr.delta("engine.preemptions"), "count",
               "delta of engine preemptions"});

  // serve/engine: step timing where the benchmark drives step() itself.
  std::vector<double> step_ms;
  double busy = 0.0;
  double step_tokens = 0.0;
  double working_steps = 0.0;
  for (const StepSample& s : tr.steps) {
    step_ms.push_back(1e3 * (s.end_s - s.start_s));
    busy += s.end_s - s.start_s;
    if (s.tokens > 0) {
      step_tokens += static_cast<double>(s.tokens);
      working_steps += 1.0;
    }
  }
  m.push_back(pct_metric("engine.step_ms_p50", step_ms, 0.5, "steps"));
  m.push_back(pct_metric("engine.step_ms_p99", step_ms, 0.99, "steps"));
  const double wall = last_done(tr);
  m.push_back({"engine.busy_share", ratio(busy, wall), "share",
               caller_driven
                   ? ratio_basis(busy, wall, "summed step s", "wall s")
                   : "engine worker thread is not timed from outside"});
  m.push_back({"engine.tokens_per_step", ratio(step_tokens, working_steps),
               "count",
               caller_driven ? ratio_basis(step_tokens, working_steps,
                                           "tokens", "steps emitting tokens")
                             : kNotHere});
  m.push_back({"engine.steps", static_cast<double>(tr.steps.size()), "count",
               caller_driven ? "step() calls" : kNotHere});
  std::vector<double> prefill;
  for (const Record& r : tr.records) {
    if (r.ok && r.generates() && r.queue_delay_s >= 0.0) {
      prefill.push_back(1e3 * (r.engine_ttft_s - r.queue_delay_s));
    }
  }
  m.push_back(pct_metric("engine.prefill_ms_p50", prefill, 0.5,
                         "requests (engine TTFT - queue wait)"));

  // serve/kv_pool + nn/paged_kv.
  const double util = caller_driven
                          ? tr.peak_block_utilization
                          : tr.after.count("engine.peak_block_utilization")
                                ? tr.after.at("engine.peak_block_utilization")
                                : 0.0;
  const double active = caller_driven
                            ? tr.peak_active
                            : tr.after.count("engine.peak_active")
                                  ? tr.after.at("engine.peak_active")
                                  : 0.0;
  const char* kv_basis = caller_driven
                             ? "measured between steps in the window"
                             : "engine lifetime peak (includes warm-up)";
  m.push_back({"kv_pool.peak_block_utilization", util, "share", kv_basis});
  m.push_back({"kv_pool.peak_active", active, "count", kv_basis});

  // serve/prefix_cache.
  const double hits = tr.delta("engine.prefix_hits");
  const double lookups = hits + tr.delta("engine.prefix_misses");
  const double reused = tr.delta("engine.prefix_tokens_reused");
  const double prompt = tr.delta("engine.prefix_prompt_tokens");
  m.push_back({"prefix_cache.hit_rate", ratio(hits, lookups), "share",
               ratio_basis(hits, lookups, "prefix_hits", "lookups")});
  m.push_back({"prefix_cache.reused_token_share", ratio(reused, prompt),
               "share",
               ratio_basis(reused, prompt, "prefix_tokens_reused",
                           "prefix_prompt_tokens")});

  // serve/kv_tier.
  const double takes = tr.delta("engine.kv_tier_takes");
  const double host_hits = tr.delta("engine.kv_tier_host_hits");
  m.push_back({"kv_tier.stores", tr.delta("engine.kv_tier_stores"), "count",
               "delta of kv_tier_stores"});
  m.push_back({"kv_tier.takes", takes, "count", "delta of kv_tier_takes"});
  m.push_back({"kv_tier.host_hit_share", ratio(host_hits, takes), "share",
               ratio_basis(host_hits, takes, "kv_tier_host_hits",
                           "kv_tier_takes")});
  m.push_back({"kv_tier.resume_recomputes",
               tr.delta("engine.session_resume_recomputes"), "count",
               "delta of session_resume_recomputes"});
  m.push_back(pct_metric(
      "kv_tier.resume_ttft_p50_ms",
      ttfts_ms(tr, [](const Record& r) {
        return r.kind == Kind::kSession && r.turn >= 1;
      }),
      0.5, "session turns >= 2"));

  // serve/workloads.
  const double forwards = tr.delta("engine.embed_forwards");
  auto batched = [](const std::map<std::string, double>& s) {
    auto f = s.find("engine.embed_forwards");
    auto b = s.find("engine.embed_mean_batch");
    return f == s.end() || b == s.end() ? 0.0 : f->second * b->second;
  };
  const double seqs = batched(tr.after) - batched(tr.before);
  m.push_back({"workloads.embed_mean_batch", ratio(seqs, forwards), "count",
               ratio_basis(seqs, forwards, "embedded sequences",
                           "embed_forwards")});
  m.push_back({"workloads.embed_forwards", forwards, "count",
               "delta of embed_forwards"});
  std::vector<double> embed_latency;
  for (const Record& r : tr.records) {
    if (r.ok && r.kind == Kind::kEmbed) {
      embed_latency.push_back(1e3 * (r.done - r.due));
    }
  }
  m.push_back(pct_metric("workloads.embed_latency_p50_ms", embed_latency, 0.5,
                         "embedding batches"));
  m.push_back(pct_metric("workloads.embed_latency_p90_ms", embed_latency, 0.9,
                         "embedding batches"));
  m.push_back(pct_metric(
      "workloads.constrained_itl_p50_ms",
      itls_ms(tr, [](const Record& r) { return r.kind == Kind::kConstrained; }),
      0.5, "constrained token gaps"));
  m.push_back(pct_metric(
      "workloads.plain_itl_p50_ms",
      itls_ms(tr, [](const Record& r) { return r.kind == Kind::kPlain; }),
      0.5, "plain token gaps"));
  m.push_back({"workloads.grammar_dead", tr.delta("engine.grammar_dead"),
               "count", "delta of grammar_dead"});

  // nn + tensor: counts from the run, flops and bytes computed from shapes.
  const auto& gc = tr.models.gpt->config();
  const Linears gpt = linears_of(*tr.models.gpt, "lm_head", "");
  const Linears bert = linears_of(*tr.models.bert, "", "mlm_head");
  double prompt_tokens = 0.0;
  double attention_positions = 0.0;
  for (const Record& r : tr.records) {
    if (!r.attempted || !r.generates()) continue;
    prompt_tokens += static_cast<double>(r.prompt.size());
    const double len = static_cast<double>(r.prompt.size() + r.tokens.size());
    attention_positions += len * (len + 1.0) / 2.0;
  }
  prompt_tokens -= reused;
  const double decode_tokens = static_cast<double>(count_generated(tr));
  const double embed_tokens = tr.delta("engine.embed_tokens");
  m.push_back({"tensor.gemm_calls", tr.gemm_calls, "count",
               "GemmTuner calls in the window (all weight formats)"});
  m.push_back({"nn.prompt_tokens", prompt_tokens, "count",
               "prompt tokens submitted - prefix tokens reused"});
  m.push_back({"nn.decode_tokens", decode_tokens, "count",
               "tokens generated"});
  const double gflop =
      2e-9 * (gpt.elements * (prompt_tokens + decode_tokens) +
              gpt.head_elements * decode_tokens +
              bert.elements * embed_tokens) +
      4e-9 * static_cast<double>(gc.n_layers * gc.n_heads * gc.head_dim()) *
          attention_positions;
  m.push_back({"tensor.gflop", gflop, "GFLOP",
               "computed: 2 x linear weights x rows + attention, from model "
               "shapes and token counts"});
  const double gpt_forwards =
      std::max(0.0, tr.gemm_calls - forwards * bert.count) / gpt.count;
  const double weight_gb =
      4e-9 * (gpt_forwards * (gpt.elements + gpt.head_elements) +
              forwards * bert.elements);
  m.push_back({"tensor.weight_gb_read", weight_gb, "GB",
               "computed: fp32 linear weights x forwards (forwards = GEMM "
               "calls / linears per forward)"});
  m.push_back({"tensor.achieved_gflops", ratio(gflop, busy), "GFLOP/s",
               caller_driven ? ratio_basis(gflop, busy, "computed GFLOP",
                                           "summed step s")
                             : "engine worker thread is not timed from outside"});

  // The trace itself: phase order, self time, and what recording cost.
  // Phases are cut at shared time points, so they sum to the request span
  // by construction. What can fail is the order of those points: the
  // engine's own clock (queue wait, TTFT, total) must fit inside the
  // client's interval from send to first token or to done.
  std::size_t negative = 0;
  for (const char* parent : {"request", "http_exchange"}) {
    negative += negative_phases(tr.tracer.spans(), parent);
  }
  m.push_back({"trace.negative_phases", static_cast<double>(negative),
               "count",
               "phase spans ending before they start (engine TTFT or queue "
               "wait longer than the client saw)"});
  std::size_t outside = 0;
  std::size_t timed = 0;
  for (const Record& r : tr.records) {
    if (!r.ok || !r.generates()) continue;
    timed += 1;
    outside += r.engine_total_s > r.done - r.sent + kClockSlackS ? 1 : 0;
  }
  m.push_back({"trace.engine_clock_outside", static_cast<double>(outside),
               "count",
               std::to_string(outside) + " of " + std::to_string(timed) +
                   " requests whose engine total_s exceeds the client's "
                   "send-to-done time"});
  const auto self = self_times(tr.tracer.spans());
  double req_self = 0.0;
  double req_total = 0.0;
  double step_total = 0.0;
  for (std::size_t i = 0; i < self.size(); ++i) {
    const Span& s = tr.tracer.spans()[i];
    if (s.name == "request") {
      req_self += self[i];
      req_total += s.duration();
    } else if (s.name == "step") {
      step_total += s.duration();
    }
  }
  m.push_back({"trace.request_self_share", ratio(req_self, req_total),
               "share",
               ratio_basis(req_self, req_total, "request self s",
                           "request s")});
  m.push_back({"trace.step_cover_share", ratio(step_total, wall), "share",
               ratio_basis(step_total, wall, "step span s", "wall s")});
  m.push_back({"trace.spans", static_cast<double>(tr.tracer.spans().size()),
               "count", "spans recorded"});
  const auto e_tr = end_to_end(tr, scoring);
  const auto e_un = end_to_end(untraced, scoring);
  for (const char* name : {"ttft_p50_ms", "output_tokens_per_s"}) {
    const double a = find_metric(e_un, name).value;
    const double b = find_metric(e_tr, name).value;
    std::ostringstream os;
    os << "traced " << b << " vs untraced " << a;
    m.push_back({std::string("trace.overhead_") + name + "_pct",
                 100.0 * ratio(b - a, a), "%", os.str()});
  }
  return m;
}

const Metric& find_metric(const std::vector<Metric>& metrics,
                          const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m;
  }
  MGPT_CHECK(false, "no metric " << name);
  return metrics.front();
}

std::string format_table(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  for (const Metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-34s %14.6g %-8s ", m.name.c_str(),
                  m.value, m.unit.c_str());
    os << line << m.basis << "\n";
  }
  return os.str();
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics) {
  using matgpt::net::Json;
  Json ms = Json::object();
  for (const Metric& m : metrics) {
    Json v = Json::object();
    v.set("value", Json::number(m.value));
    v.set("unit", Json::string(m.unit));
    ms.set(m.name, std::move(v));
  }
  Json doc = Json::object();
  doc.set("correct", Json::boolean(correct));
  doc.set("attempted", Json::number(static_cast<std::int64_t>(attempted)));
  doc.set("failed", Json::number(static_cast<std::int64_t>(failed)));
  doc.set("metrics", std::move(ms));
  return doc.dump();
}

}  // namespace servebench
