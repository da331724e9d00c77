// In-memory span tracer for the benchmark driver.
//
// A span is recorded around each call the driver makes into a library layer:
// name ("<layer>.<function>"), start, end, parent span, the table or request
// it served, and the phase of the run (setup / round / probe / oracle).
// Spans stay in memory and are written out once, at exit. With tracing off,
// Scope still reads the clock (the driver needs the durations for its
// end-to-end figures) but records nothing.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  std::string ref;  // table id or request index
  const char* phase = "";
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  std::uint64_t work = 0;  // fault sets (or other items) the call processed
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  bool on = false;
  const char* phase = "setup";

  int open(std::string name, std::string ref, Clock::time_point start) {
    if (!on) return -1;
    Span s;
    s.name = std::move(name);
    s.ref = std::move(ref);
    s.phase = phase;
    s.start = start;
    s.end = start;
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id, Clock::time_point end) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = end;
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  void set_work(int id, std::uint64_t work) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].work = work;
  }

  // A span with known bounds that nests under the current open span but
  // does not itself become a parent (per-request latency spans, which
  // overlap one another).
  void record(std::string name, std::string ref, Clock::time_point start,
              Clock::time_point end) {
    if (!on) return;
    Span s;
    s.name = std::move(name);
    s.ref = std::move(ref);
    s.phase = phase;
    s.start = start;
    s.end = end;
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Durations of every span named `name` (optionally only those serving
  // `ref`), in recording order.
  std::vector<double> durations(const std::string& name,
                                const std::string& ref = "") const {
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (s.name == name && (ref.empty() || s.ref == ref)) {
        out.push_back(seconds_between(s.start, s.end));
      }
    }
    return out;
  }

  bool has(const std::string& name, const std::string& ref = "") const {
    for (const auto& s : spans_) {
      if (s.name == name && (ref.empty() || s.ref == ref)) return true;
    }
    return false;
  }

  struct SelfTime {
    std::uint64_t calls = 0;
    double total = 0.0;
    double self = 0.0;
  };

  // Per span name: call count, total time and self time. Self time is a
  // span's duration minus the union of the intervals its children cover.
  std::map<std::string, SelfTime> self_times() const {
    std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
        kids(spans_.size());
    for (const auto& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
      }
    }
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double total = seconds_between(s.start, s.end);
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      Clock::time_point cur_a{}, cur_b{};
      bool open = false;
      for (const auto& [a0, b0] : iv) {
        const auto a = std::max(a0, s.start);
        const auto b = std::min(b0, s.end);
        if (b <= a) continue;
        if (open && a <= cur_b) {
          cur_b = std::max(cur_b, b);
        } else {
          if (open) covered += seconds_between(cur_a, cur_b);
          cur_a = a;
          cur_b = b;
          open = true;
        }
      }
      if (open) covered += seconds_between(cur_a, cur_b);
      SelfTime& st = out[s.name];
      ++st.calls;
      st.total += total;
      st.self += std::max(0.0, total - covered);
    }
    return out;
  }

  // One span per line: id, parent, phase, name, ref, work, start and end in
  // seconds since the driver started.
  bool write_tsv(const std::string& path) const {
    std::ofstream os(path);
    os << "id\tparent\tphase\tname\tref\twork\tstart_s\tend_s\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << i << '\t' << s.parent << '\t' << s.phase << '\t' << s.name << '\t'
         << s.ref << '\t' << s.work << '\t'
         << seconds_between(origin_, s.start) << '\t'
         << seconds_between(origin_, s.end) << '\n';
    }
    return static_cast<bool>(os);
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Times one layer call; records it as a span when tracing is on.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::string ref = "")
      : tracer_(tracer), start_(Clock::now()) {
    id_ = tracer_.open(std::move(name), std::move(ref), start_);
  }
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // Attaches the count of items the call processed to the span.
  void set_work(std::uint64_t work) { tracer_.set_work(id_, work); }

  // Ends the span (idempotent) and returns its duration in seconds.
  double stop() {
    if (!stopped_) {
      end_ = Clock::now();
      tracer_.close(id_, end_);
      stopped_ = true;
    }
    return seconds_between(start_, end_);
  }

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  Clock::time_point end_{};
  int id_ = -1;
  bool stopped_ = false;
};

}  // namespace perfbench
