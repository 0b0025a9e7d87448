#pragma once
// In-memory spans recorded by the benchmark around its calls into each
// layer, and the arithmetic the traced run reports from them.
//
// Spans are kept in a vector during the run and written as Chrome
// trace-event JSON at the end, so recording costs one push_back. Times are
// seconds from the start of the timed window.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace servebench {

struct Span {
  std::string name;
  std::uint64_t id = 0;
  /// Id of the span that caused this one; 0 for a root.
  std::uint64_t parent = 0;
  /// Shared by every span of one request; 0 for spans of no request.
  std::uint64_t request = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  /// Chrome trace thread lane (which side of the system recorded it).
  int lane = 0;

  double duration() const { return end_s - start_s; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Record a finished span and return its id; 0 (and nothing recorded)
  /// when tracing is off.
  std::uint64_t add(std::string_view name, std::uint64_t parent,
                    std::uint64_t request, double start_s, double end_s,
                    int lane);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Length of the union of `intervals`, each clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi);

/// Self time of every span (parallel to `spans`): its duration minus the
/// part of its interval that its children cover.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Children of spans named `parent_name` (their phases) that end before
/// they start.
std::size_t negative_phases(const std::vector<Span>& spans,
                            std::string_view parent_name);

/// Chrome trace-event JSON ("X" complete events, microseconds).
std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace servebench
