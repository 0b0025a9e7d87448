#include "sb/spans.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "net/json.h"

namespace servebench {

using matgpt::net::Json;

std::uint64_t Tracer::add(std::string_view name, std::uint64_t parent,
                          std::uint64_t request, double start_s, double end_s,
                          int lane) {
  if (!enabled_) return 0;
  Span s;
  s.name = std::string(name);
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.request = request;
  s.start_s = start_s;
  s.end_s = end_s;
  s.lane = lane;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double run_start = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (open && a <= run_end) {
      run_end = std::max(run_end, b);
      continue;
    }
    if (open) total += run_end - run_start;
    run_start = a;
    run_end = b;
    open = true;
  }
  if (open) total += run_end - run_start;
  return total;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      children[it->second].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration() -
              covered(children[i], spans[i].start_s, spans[i].end_s);
  }
  return self;
}

std::size_t negative_phases(const std::vector<Span>& spans,
                            std::string_view parent_name) {
  std::unordered_set<std::uint64_t> parents;
  for (const Span& s : spans) {
    if (s.name == parent_name) parents.insert(s.id);
  }
  std::size_t negative = 0;
  for (const Span& s : spans) {
    if (parents.count(s.parent) != 0 && s.end_s < s.start_s) negative += 1;
  }
  return negative;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  Json events = Json::array();
  for (const Span& s : spans) {
    Json e = Json::object();
    e.set("name", Json::string(s.name));
    e.set("ph", Json::string("X"));
    e.set("pid", Json::number(std::int64_t{1}));
    e.set("tid", Json::number(static_cast<std::int64_t>(s.lane)));
    e.set("ts", Json::number(s.start_s * 1e6));
    e.set("dur", Json::number(s.duration() * 1e6));
    Json args = Json::object();
    args.set("id", Json::number(static_cast<std::int64_t>(s.id)));
    args.set("parent", Json::number(static_cast<std::int64_t>(s.parent)));
    args.set("request", Json::number(static_cast<std::int64_t>(s.request)));
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", Json::string("ms"));
  return doc.dump();
}

}  // namespace servebench
