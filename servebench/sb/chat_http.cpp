// chat_http: the canonical mixed trace over the HTTP front end.
//
// The server runs in this process with the engine's worker thread on. One
// client thread holds a fixed set of keep-alive loopback connections and
// sends open-loop Poisson arrivals of four request kinds: plain
// /v1/generate, generate constrained by the "json" grammar, multi-turn
// /v1/sessions conversations (each next turn due a fixed think time after
// the previous one finished), and /v1/embeddings batches. A request due
// while every connection is busy waits client-side, and its clock starts at
// its due time. Prompts are short and unshared, so the prefix cache and
// large-M prefill stay idle; per-token chunking, grammar masking, embedding
// batching and session park/resume do most of the work.

#include <algorithm>
#include <cmath>
#include <queue>
#include <thread>

#include "common/error.h"
#include "sb/http_client.h"
#include "sb/run.h"
#include "sb/stats.h"
#include "net/server.h"
#include "serve/engine.h"

namespace servebench {

namespace mt = matgpt;
namespace serve = matgpt::serve;
namespace net = matgpt::net;

namespace {

serve::EngineConfig chat_engine_config(const Models& models) {
  serve::EngineConfig ec;
  ec.max_batch = 8;
  ec.kv_slots = 8;
  ec.queue_capacity = 64;
  ec.paged_kv = true;
  ec.prefill_chunk_tokens = 64;
  ec.scheduler = serve::sched::Policy::kPriority;
  ec.preempt_mode = serve::sched::PreemptMode::kSwap;
  ec.prefix_cache_bytes = std::size_t{4} << 20;
  ec.workloads.grammar = true;
  ec.workloads.embedder = models.bert;
  ec.workloads.max_embed_batch = 8;
  ec.workloads.map_classes = true;
  return ec;
}

/// How long after the window the client waits for responses still open.
constexpr double kDrainTimeoutS = 60.0;

/// The served stack. The server holds a reference to the engine, so it
/// must go first: the destructor and reset() stop and free the server
/// before the engine.
struct HttpStack {
  std::unique_ptr<serve::InferenceEngine> engine;
  std::unique_ptr<net::HttpServer> server;

  void reset() {
    server.reset();
    engine.reset();
  }
};

Json token_array(const std::vector<std::int32_t>& tokens) {
  Json a = Json::array();
  for (const std::int32_t t : tokens) {
    a.push_back(Json::number(static_cast<std::int64_t>(t)));
  }
  return a;
}

std::string generate_body(const Record& r) {
  // No "id": the server assigns request ids, and its embedding
  // sub-requests draw from the same counter, so a client-chosen id could
  // collide with one of them.
  Json b = Json::object();
  b.set("prompt", token_array(r.prompt));
  b.set("max_new_tokens", Json::number(r.max_new));
  const auto sp = sampling_of(r);
  b.set("temperature", Json::number(static_cast<double>(sp.temperature)));
  b.set("top_k", Json::number(static_cast<std::int64_t>(sp.top_k)));
  b.set("seed", Json::number(static_cast<std::int64_t>(r.seed)));
  if (r.kind == Kind::kConstrained) b.set("grammar", Json::string("json"));
  b.set("stream", Json::boolean(true));
  return b.dump();
}

std::string embed_body(const Record& r) {
  Json inputs = Json::array();
  for (const auto& in : r.inputs) inputs.push_back(token_array(in));
  Json b = Json::object();
  b.set("inputs", std::move(inputs));
  b.set("reduce", Json::string("mean"));
  return b.dump();
}

std::uint64_t create_session(BlockingConnection& conn) {
  const TimedResponse r = conn.exchange("POST", "/v1/sessions", "");
  MGPT_CHECK(r.parser().status_code() == 201,
             "session create answered " << r.parser().status_code());
  return static_cast<std::uint64_t>(
      Json::parse(r.parser().body()).find("session_id")->as_int());
}

/// One request of each kind, unrelated to any seed.
void warm_up(std::uint16_t port, std::int64_t vocab) {
  BlockingConnection conn(port);
  mt::Rng rng(0x5eedULL);
  Record r;
  r.id = 900000001;
  r.prompt = random_tokens(rng, vocab, 16);
  r.max_new = 8;
  for (const Kind kind : {Kind::kPlain, Kind::kConstrained}) {
    r.kind = kind;
    r.id += 1;
    const auto resp = conn.exchange("POST", "/v1/generate", generate_body(r));
    MGPT_CHECK(resp.parser().status_code() == 200, "warm-up generate failed");
  }
  Record e;
  e.inputs.assign(4, random_tokens(rng, vocab, 16));
  const auto resp = conn.exchange("POST", "/v1/embeddings", embed_body(e));
  MGPT_CHECK(resp.parser().status_code() == 200, "warm-up embeddings failed");
  const std::uint64_t sid = create_session(conn);
  const std::string target = "/v1/sessions/" + std::to_string(sid);
  for (int turn = 0; turn < 2; ++turn) {
    r.kind = Kind::kSession;
    r.id += 1;
    const auto t =
        conn.exchange("POST", target + "/generate", generate_body(r));
    MGPT_CHECK(t.parser().status_code() == 200, "warm-up session failed");
  }
  conn.exchange("DELETE", target, "");
}

HttpStack set_up(const Config& config, RunResult& out) {
  HttpStack stack;
  for (int r = 0; r < kSetupRepeats; ++r) {
    stack.reset();
    out.models = Models();
    const auto t0 = Clock::now();
    out.models = build_models(config.root());
    stack.engine = std::make_unique<serve::InferenceEngine>(
        *out.models.gpt, chat_engine_config(out.models));
    stack.engine->start();
    net::HttpServerConfig sc;
    sc.grammars["json"] = out.models.json_grammar;
    stack.server = std::make_unique<net::HttpServer>(*stack.engine, sc);
    stack.server->start();
    warm_up(stack.server->port(), out.models.gpt->config().vocab_size);
    out.setup_s.push_back(seconds_since(t0, Clock::now()));
  }
  return stack;
}

std::map<std::string, double> snapshot(BlockingConnection& conn) {
  const TimedResponse r = conn.exchange("GET", "/v1/stats", "");
  std::map<std::string, double> out;
  flatten_numbers(Json::parse(r.parser().body()), "", out);
  return out;
}

/// Fill `rec` from its finished exchange and record its spans.
void complete(Record& rec, const ConnectionPool::Completion& c,
              Tracer& tracer) {
  rec.done = c.response.done_s() >= 0.0 ? c.response.done_s() : rec.sent;
  const int code = c.response.parser().status_code();
  if (!c.error.empty()) {
    rec.error = c.error;
  } else if (code != 200) {
    rec.error = "HTTP " + std::to_string(code);
  } else {
    try {
      if (rec.kind == Kind::kEmbed) {
        const Json body = Json::parse(c.response.parser().body());
        const Json* rows = body.find("embeddings");
        MGPT_CHECK(rows != nullptr && rows->is_array(), "no embeddings");
        for (const Json& row : rows->items()) {
          std::vector<float> v;
          for (const Json& x : row.items()) {
            v.push_back(static_cast<float>(x.as_number()));
          }
          rec.embeddings.push_back(std::move(v));
        }
        rec.ok = rec.embeddings.size() == rec.inputs.size();
        if (!rec.ok) rec.error = "wrong embedding count";
      } else {
        GenerateStream s = decode_generate(c.response);
        rec.tokens = std::move(s.tokens);
        rec.token_times = std::move(s.token_times);
        rec.engine_ttft_s = s.engine_ttft_ms / 1e3;
        rec.engine_total_s = s.engine_total_ms / 1e3;
        if (!rec.token_times.empty()) rec.first = rec.token_times.front();
        rec.ok = s.done && s.status == "ok" && !rec.tokens.empty() &&
                 static_cast<std::int64_t>(rec.tokens.size()) == s.generated;
        if (!rec.ok) {
          rec.error = "stream ended with status " + s.status + " after " +
                      std::to_string(rec.tokens.size()) + " of " +
                      std::to_string(s.generated) + " tokens";
        }
      }
    } catch (const mt::Error& e) {
      rec.ok = false;
      rec.error = std::string("bad response body: ") + e.what();
    }
  }
  if (!tracer.enabled()) return;
  const std::uint64_t root =
      tracer.add("request", 0, rec.id, rec.due, rec.done, kLaneRequests);
  tracer.add("conn_wait", root, rec.id, rec.due, rec.sent, kLaneRequests);
  const std::uint64_t http =
      tracer.add("http_exchange", root, rec.id, rec.sent, rec.done, kLaneHttp);
  if (!rec.ok || !rec.generates()) return;
  // The engine's TTFT runs from its submit to the first token; the rest of
  // the client's time-to-first-token is the front end's (parse, event
  // queue, socket).
  const double net_end = rec.first - rec.engine_ttft_s;
  tracer.add("net", http, rec.id, rec.sent, net_end, kLaneHttp);
  tracer.add("engine_ttft", http, rec.id, net_end, rec.first, kLaneHttp);
  tracer.add("decode", http, rec.id, rec.first, rec.done, kLaneHttp);
}

}  // namespace

RunResult run_chat_http(const Config& config, const RunOptions& options) {
  const Params p = config.workload("chat_http");
  RunResult out;
  out.workload = "chat_http";
  out.tracer = Tracer(options.traced);
  HttpStack stack = set_up(config, out);
  const std::uint16_t port = stack.server->port();
  const std::int64_t vocab = out.models.gpt->config().vocab_size;

  // --- inputs from the seed ---------------------------------------------
  mt::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 1);
  const auto n = static_cast<std::size_t>(
      std::lround(p.num("rate_rps") * options.seconds));
  const auto arrivals = poisson_arrivals(n, options.seconds, rng.next());
  const Params share = p.child("share");
  enum Mix : std::size_t { kPlainMix, kConstrainedMix, kSessionMix, kEmbedMix };
  const auto mix = shuffled_mix(
      rng, n,
      {share.num("plain"), share.num("constrained"), share.num("session"),
       share.num("embed")});
  const auto turns = static_cast<int>(p.integer("session_turns"));
  const double think_s = p.num("think_ms") / 1e3;
  int conversations = 0;
  std::uint64_t next_id = 1;
  for (std::size_t a = 0; a < n; ++a) {
    Record r;
    r.due = arrivals[a];
    r.id = next_id++;
    r.seed = rng.next() >> 12;
    if (mix[a] == kPlainMix) {
      r.kind = Kind::kPlain;
      r.greedy = rng.uniform() < p.num("greedy_share");
      r.prompt = random_tokens(rng, vocab, draw(rng, p.range("plain_prompt")));
      r.max_new = draw(rng, p.range("plain_new"));
      out.records.push_back(std::move(r));
    } else if (mix[a] == kConstrainedMix) {
      r.kind = Kind::kConstrained;
      r.greedy = false;
      r.prompt =
          random_tokens(rng, vocab, draw(rng, p.range("constrained_prompt")));
      r.max_new = draw(rng, p.range("constrained_new"));
      out.records.push_back(std::move(r));
    } else if (mix[a] == kSessionMix) {
      for (int t = 0; t < turns; ++t) {
        Record turn;
        turn.kind = Kind::kSession;
        turn.id = t == 0 ? r.id : next_id++;
        turn.seed = rng.next() >> 12;
        turn.due = t == 0 ? r.due : -1.0;
        turn.conversation = conversations;
        turn.turn = t;
        turn.greedy = true;  // byte-identity to the full-history request
        turn.prompt =
            random_tokens(rng, vocab, draw(rng, p.range("session_prompt")));
        turn.max_new = draw(rng, p.range("session_new"));
        out.records.push_back(std::move(turn));
      }
      conversations += 1;
    } else {
      r.kind = Kind::kEmbed;
      const auto len = draw(rng, p.range("embed_tokens"));
      const auto batch = draw(rng, p.range("embed_batch"));
      for (std::int64_t i = 0; i < batch; ++i) {
        r.inputs.push_back(random_tokens(rng, vocab, len));
      }
      out.records.push_back(std::move(r));
    }
  }
  out.window_s = options.seconds;

  // Sessions, request bytes and connections are ready before the window.
  BlockingConnection control(port);
  std::vector<std::uint64_t> session_ids;
  for (int c = 0; c < conversations; ++c) {
    session_ids.push_back(create_session(control));
  }
  std::vector<std::string> wire(out.records.size());
  // Index of each session turn's successor within out.records.
  std::vector<std::size_t> next_turn(out.records.size(), out.records.size());
  for (std::size_t i = 0; i < out.records.size(); ++i) {
    const Record& r = out.records[i];
    if (r.kind == Kind::kEmbed) {
      wire[i] = http_request("POST", "/v1/embeddings", embed_body(r));
    } else if (r.kind == Kind::kSession) {
      wire[i] = http_request(
          "POST",
          "/v1/sessions/" + std::to_string(session_ids[r.conversation]) +
              "/generate",
          generate_body(r));
      if (r.turn + 1 < turns) next_turn[i] = i + 1;
    } else {
      wire[i] = http_request("POST", "/v1/generate", generate_body(r));
    }
  }
  const auto connections = static_cast<std::size_t>(std::min<std::int64_t>(
      p.integer("connections"),
      std::max(1u, std::thread::hardware_concurrency())));
  ConnectionPool pool(port, connections);
  std::vector<std::size_t> on_conn(connections, out.records.size());

  // --- timed window ------------------------------------------------------
  out.before = snapshot(control);
  out.gemm_calls = -gemm_calls_total();
  const CpuTimes cpu = cpu_times();
  const auto t0 = Clock::now();
  pool.set_origin(t0);
  using Due = std::pair<double, std::size_t>;
  std::priority_queue<Due, std::vector<Due>, std::greater<>> due;
  for (std::size_t i = 0; i < out.records.size(); ++i) {
    if (out.records[i].due >= 0.0) due.emplace(out.records[i].due, i);
  }
  const double deadline = options.seconds + kDrainTimeoutS;
  while (true) {
    const double now = seconds_since(t0, Clock::now());
    while (!due.empty() && due.top().first <= now) {
      const std::size_t c = pool.idle_connection();
      if (c == pool.size()) break;
      const std::size_t i = due.top().second;
      due.pop();
      Record& r = out.records[i];
      r.attempted = true;
      r.ready = std::max(r.due, pool.idle_since(c));
      r.sent = seconds_since(t0, Clock::now());
      on_conn[c] = i;
      pool.send(c, std::move(wire[i]));
    }
    if (due.empty() && pool.busy_count() == 0) break;
    if (now > deadline) {
      for (std::size_t c = 0; c < connections; ++c) {
        if (on_conn[c] == out.records.size()) continue;
        out.records[on_conn[c]].error = "no response before the drain deadline";
        out.records[on_conn[c]].done = now;
      }
      break;
    }
    double wake = deadline;
    if (!due.empty() && pool.idle_connection() < pool.size()) {
      wake = std::min(wake, due.top().first);
    }
    for (auto& c : pool.poll(wake)) {
      const std::size_t i = on_conn[c.conn];
      on_conn[c.conn] = out.records.size();
      Record& r = out.records[i];
      complete(r, c, out.tracer);
      const std::size_t nt = next_turn[i];
      if (nt == out.records.size()) continue;
      // The conversation's next turn is due a think time after this one;
      // turns that would fall after the window, or follow a failed turn,
      // are not sent.
      const double next_due = r.done + think_s;
      if (r.ok && next_due < options.seconds) {
        out.records[nt].due = next_due;
        due.emplace(next_due, nt);
      }
    }
  }
  out.steal_share = steal_share(cpu, cpu_times());
  out.gemm_calls += gemm_calls_total();
  out.after = snapshot(control);
  for (const std::uint64_t sid : session_ids) {
    control.exchange("DELETE", "/v1/sessions/" + std::to_string(sid), "");
  }
  stack.server->stop();
  stack.engine->drain();
  return out;
}

}  // namespace servebench
