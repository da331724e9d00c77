// Shared state of one benchmark driver run: the tracer, the workload spec,
// correctness accounting, and the small helpers every workload uses.
#pragma once

#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/fault_sweep.hpp"
#include "dist/coordinator.hpp"
#include "fault/tolerance_check.hpp"
#include "serve/request_router.hpp"
#include "spec.hpp"
#include "trace.hpp"

namespace perfbench {

struct Ctx {
  explicit Ctx(Clock::time_point origin) : tracer(origin) {}

  Tracer tracer;
  WorkloadSpec spec;
  unsigned nproc = 1;
  // Threads (dist_sweep: worker processes) the workload's calls run at:
  // half of nproc, at least one (see "Threads" under "Workloads" in
  // README.md).
  unsigned threads = 1;
  // The layers the workload calls (its layer map, from run.py).
  std::vector<std::string> layers;

  // Correctness accounting. attempted counts answered operations and
  // oracle re-evaluations; failed counts error responses, oracle
  // mismatches and answers that differ between rounds.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t oracle_checks = 0;
  std::uint64_t oracle_mismatches = 0;

  // Distributed-pool telemetry summed over every pool the run started.
  ftr::DistStats dist;
  double dist_busy_s = 0.0;
  double dist_wall_s = 0.0;
  std::uint64_t dist_worker_peak_kb = 0;
  std::uint64_t dist_passes = 0;  // rounds the pools served

  // serve_mix: the request stream and the registry's counters of the
  // latest round.
  std::vector<ftr::ServeRequest> serve_stream;
  std::optional<ftr::TableRegistryStats> serve_stats;

  void fail(const std::string& what) {
    ++failed;
    if (failed <= 20) std::cout << "FAIL " << what << '\n';
  }
  // One oracle comparison: counts it, and a mismatch as a failure.
  void oracle(bool ok, const std::string& what) {
    ++attempted;
    ++oracle_checks;
    if (!ok) {
      ++oracle_mismatches;
      fail("oracle mismatch: " + what);
    }
  }
};

// One pass over the workload's fixed work.
struct Round {
  double wall = 0.0;
  std::uint64_t sets = 0;             // fault sets, from the library's reports
  std::vector<double> latency_ms;     // per verdict / per request
  std::vector<std::string> answers;   // canonical answers, in order
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds all state the timed phase needs, replacing any earlier state.
  virtual void setup(Ctx& ctx) = 0;
  virtual Round round(Ctx& ctx) = 0;
  // Oracle checks on the answers of one round.
  virtual void verify(Ctx& ctx, const Round& first) = 0;
  // One line per table: n, routes, pairs, resolved kernel.
  virtual void describe(Ctx& ctx) = 0;
  // Releases what setup built (pools included).
  virtual void teardown(Ctx& ctx) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name);

// Per-layer metrics from the traced run's spans, plus the probes that
// isolate single calls within the layers the workload reaches.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
std::vector<Metric> layer_metrics(Ctx& ctx, double trace_overhead);

// ---- helpers shared by workloads and probes ---------------------------------

std::string fmt_nodes(const std::vector<ftr::Node>& v);
std::string sweep_answer(const std::string& id,
                         const ftr::SweepPartial& partial);
std::string check_answer(const std::string& id,
                         const ftr::ToleranceReport& report);
// Oracle: the one-shot surviving diameter of `faults`.
std::uint32_t oracle_diameter(const ftr::RoutingTable& table,
                              const std::vector<ftr::Node>& faults);
ftr::SweepPartial partial_of(const ftr::FaultSweepSummary& s);
std::uint64_t fnv1a(const std::string& s, std::uint64_t h);
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
// VmHWM of a process in kB (0 when unreadable).
std::uint64_t peak_rss_kb(const std::string& pid);
// Sum of VmHWM over this process's live children.
std::uint64_t children_peak_rss_kb();
// Adds a pool's telemetry to ctx.dist and samples its workers' memory.
void absorb_pool(Ctx& ctx, const ftr::DistSweepPool& pool, double wall_s);

}  // namespace perfbench
