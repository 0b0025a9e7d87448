// servebench: the repository's serving benchmark.
//
//   servebench --workload chat_http|rag_prefix|offline_decode --seed N
//              --seconds S --trace 0|1 [--config servebench/config.json]
//              [--commit SHA] [--trace-dir .bench_build/traces]
//
// --trace 0 runs the workload once with no spans and prints the end-to-end
// metrics. --trace 1 runs it twice with the same seed, without and then
// with spans, prints the per-layer metrics of the traced run with the
// tracing overhead, and writes its spans as Chrome trace-event JSON. Every
// run checks its outputs (see verify.h); the last line of standard output
// is one JSON object {"correct", "attempted", "failed", "metrics"}. The exit
// code is non-zero when a request failed or returned a wrong output, or the
// run is invalid.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "common/error.h"
#include "sb/report.h"
#include "sb/run.h"
#include "sb/stats.h"
#include "sb/verify.h"

namespace sb = servebench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string config = "servebench/config.json";
  std::string commit = "unknown";
  std::string trace_dir = ".bench_build/traces";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "servebench: " << why
            << "\nusage: servebench --workload chat_http|rag_prefix|"
               "offline_decode --seed N --seconds S --trace 0|1 [--config "
               "PATH] [--commit SHA] [--trace-dir DIR]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value);
      } else if (key == "--config") {
        a.config = value;
      } else if (key == "--commit") {
        a.commit = value;
      } else if (key == "--trace-dir") {
        a.trace_dir = value;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

sb::RunResult run(const Args& a, const sb::Config& config, bool traced) {
  sb::RunOptions o;
  o.seed = a.seed;
  o.seconds = a.seconds;
  o.traced = traced;
  if (a.workload == "chat_http") return sb::run_chat_http(config, o);
  if (a.workload == "rag_prefix") return sb::run_rag_prefix(config, o);
  if (a.workload == "offline_decode") return sb::run_offline_decode(config, o);
  usage("unknown workload " + a.workload);
}

/// Check outputs and print what was checked; true when every attempted
/// request succeeded with the right output.
bool check(sb::RunResult& r, const char* label, std::size_t& attempted,
           std::size_t& failed) {
  const sb::Verdict v = sb::verify(r.models, r.records);
  std::size_t refused = 0;
  attempted = 0;
  failed = 0;
  for (const sb::Record& rec : r.records) {
    if (!rec.attempted) continue;
    attempted += 1;
    if (!rec.ok || rec.mismatch) failed += 1;
    if (!rec.ok) refused += 1;
  }
  std::printf("%s: %zu requests attempted, %zu failed (%zu not ok, %zu wrong "
              "output); error_rate = %zu / %zu\n",
              label, attempted, failed, refused, v.mismatches, failed,
              attempted);
  std::printf("  checked: %zu greedy vs generate_cached, %zu session turns vs "
              "full history, %zu constrained vs TokenDfa, %zu embedding "
              "batches vs BertEncoder::embed\n",
              v.greedy, v.session_turns, v.constrained, v.embeddings);
  std::size_t shown = 0;
  for (const sb::Record& rec : r.records) {
    if (rec.attempted && !rec.ok && shown++ < 5) {
      std::printf("  not ok: %s request %llu: %s\n", sb::kind_name(rec.kind),
                  static_cast<unsigned long long>(rec.id), rec.error.c_str());
    }
  }
  for (const std::string& e : v.examples) {
    std::printf("  MISMATCH: %s\n", e.c_str());
  }
  return v.mismatches == 0 && failed == 0;
}

/// On a shared host, other guests' CPU time (steal) during the window
/// explains a slow run; run.py repeats an untraced run whose window saw
/// too much of it.
void print_steal(const sb::RunResult& r, const char* what) {
  std::printf("host steal during the %s: %.2f%% of CPU time\n", what,
              100.0 * r.steal_share);
}

bool lateness_ok(const std::vector<sb::Metric>& layer) {
  const double late = sb::find_metric(layer, "loadgen.late_p99_ms").value;
  if (late <= sb::kLateLimitMs) return true;
  std::printf("INVALID RUN: generator p99 lateness %.3f ms exceeds the %.3f ms "
              "limit\n",
              late, sb::kLateLimitMs);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    const sb::Config config = sb::Config::load(a.config);
    const sb::Params wp = config.workload(a.workload);
    const sb::Scoring scoring = sb::scoring_of(wp);
    std::printf("== servebench %s seed=%llu seconds=%g trace=%d\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace);
    std::printf("%s", sb::host_block(a.commit).c_str());
    std::printf("why: %s\nrate: %s\nlimits: %s\n", wp.text("why").c_str(),
                wp.text("rate_why").c_str(), wp.text("slo_why").c_str());

    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool correct = true;
    std::vector<sb::Metric> reported;
    if (a.trace == 0) {
      sb::RunResult r = run(a, config, false);
      print_steal(r, "window");
      correct = check(r, "run", attempted, failed);
      reported = sb::end_to_end(r, scoring);
      // Lateness is judged on the same records, without spans.
      correct = lateness_ok(sb::per_layer(r, r, scoring)) && correct;
      std::printf("end-to-end metrics:\n%s",
                  sb::format_table(reported).c_str());
    } else {
      // Both passes set up alike, so the process is equally warm for each
      // and their difference is the tracing overhead.
      sb::RunResult plain = run(a, config, false);
      sb::RunResult traced = run(a, config, true);
      print_steal(plain, "untraced window");
      print_steal(traced, "traced window");
      std::size_t unused_a = 0;
      std::size_t unused_f = 0;
      correct = check(plain, "untraced run", unused_a, unused_f);
      correct = check(traced, "traced run", attempted, failed) && correct;
      reported = sb::per_layer(traced, plain, scoring);
      correct = lateness_ok(reported) && correct;
      const double negative =
          sb::find_metric(reported, "trace.negative_phases").value;
      const double outside =
          sb::find_metric(reported, "trace.engine_clock_outside").value;
      if (negative > 0 || outside > 0) {
        std::printf("PHASES DO NOT CLOSE: %g negative phases, %g requests "
                    "whose engine time exceeds the client's\n",
                    negative, outside);
        correct = false;
      }
      std::printf("end-to-end metrics, untraced / traced:\n%s%s",
                  sb::format_table(sb::end_to_end(plain, scoring)).c_str(),
                  sb::format_table(sb::end_to_end(traced, scoring)).c_str());
      std::printf("per-layer metrics (traced run):\n%s",
                  sb::format_table(reported).c_str());
      std::filesystem::create_directories(a.trace_dir);
      const std::string path = a.trace_dir + "/" + a.workload + "-seed" +
                               std::to_string(a.seed) + ".json";
      std::ofstream(path) << sb::chrome_trace_json(traced.tracer.spans());
      std::printf("trace: %zu spans written to %s\n",
                  traced.tracer.spans().size(), path.c_str());
    }
    std::printf("%s\n",
                sb::result_json(correct, attempted, failed, reported).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "servebench: " << e.what() << "\n";
    return 1;
  }
}
