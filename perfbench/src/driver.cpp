// perfbench_driver: runs one generated workload and reports its metrics.
//
//   perfbench_driver --dir <inputs> --seconds <S> --trace <0|1>
//                    [--layers <layer,layer,...>]
//
// 1. Set-up, repeated (at least seven times, and for at least two
//    seconds); setup_s is the median. The first, cold set-up is also
//    reported from process start (`setups … cold_from_start_s=`).
// 2. Timed phase: a warm-up round, then rounds of the workload's fixed
//    work until the rounds have taken --seconds (at least two measured).
//    The warm-up round's answers are checked by the oracles; every later
//    round must reproduce them exactly. Times and rates are medians over
//    the measured rounds; latencies pool them.
// 3. --trace 0 prints the end-to-end metrics. --trace 1 alternates
//    untraced and traced rounds (trace.overhead compares them), runs the
//    layer probes (see probe.cpp), checks the spans against the workload's
//    layer map (--layers), and prints the per-layer metrics derived from
//    the spans, which it also writes to spans.tsv.
//
// Every result carries the host context: nproc, the workload's thread
// count (half of nproc), ISA, build type, and the kernel and lane width
// `auto` resolves to. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench.hpp"
#include "common/cpu_features.hpp"
#include "common/exec_policy.hpp"
#include "common/parallel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Set-up runs at least kMinSetups times, and more until it has taken
// kSetupSeconds (at most kMaxSetups times); setup_s is the median.
constexpr int kMinSetups = 7;
constexpr int kMaxSetups = 101;
constexpr double kSetupSeconds = 2.0;
constexpr int kMinRounds = 2;
constexpr std::size_t kBlockSamples = 1000;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Args {
  std::string dir;
  double seconds = 10.0;
  bool trace = false;
  std::vector<std::string> layers;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--dir") {
      a.dir = v;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--layers") {
      std::istringstream in(v);
      std::string layer;
      while (std::getline(in, layer, ',')) a.layers.push_back(layer);
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  if (a.dir.empty() || (a.trace && a.layers.empty())) {
    throw std::runtime_error(
        "usage: perfbench_driver --dir DIR --seconds S --trace 0|1 "
        "[--layers L,L,...] (required with --trace 1)");
  }
  return a;
}

std::uint64_t digest_of(const std::vector<std::string>& answers) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& a : answers) h = fnv1a(a + "\n", h);
  return h;
}

int run(int argc, char** argv, Clock::time_point origin) {
  const Args args = parse_args(argc, argv);
  if (chdir(args.dir.c_str()) != 0) {
    throw std::runtime_error("cannot enter " + args.dir);
  }
  Ctx ctx(origin);
  ctx.spec = read_spec("workload.txt");
  ctx.nproc = ftr::hardware_threads();
  ctx.threads = std::max(1u, ctx.nproc / 2);
  ctx.layers = args.layers;
  auto wl = make_workload(ctx.spec.name);
  if (!wl) throw std::runtime_error("unknown workload " + ctx.spec.name);

  const ftr::ExecPolicy auto_policy;
  std::cout << "host nproc=" << ctx.nproc << " threads=" << ctx.threads
            << " avx2=" << ftr::cpu_features().avx2
            << " avx512f=" << ftr::cpu_features().avx512f
            << " build_type=" << PERFBENCH_BUILD_TYPE
            << " auto_gray_kernel="
            << ftr::srg_kernel_name(auto_policy.resolved_kernel(true))
            << " auto_single_kernel="
            << ftr::srg_kernel_name(auto_policy.resolved_kernel(false))
            << " lanes=" << auto_policy.resolved_lanes() << '\n';
  std::cout << "workload " << ctx.spec.name << " seed=" << ctx.spec.seed
            << " tiny=" << ctx.spec.tiny << " seconds=" << args.seconds
            << " trace=" << args.trace << '\n';

  // ---- set-up -------------------------------------------------------------
  ctx.tracer.on = args.trace;
  ctx.tracer.phase = "setup";
  std::vector<double> setups;
  double setup_total = 0.0;
  double cold_from_start = 0.0;
  for (int k = 0; k < kMaxSetups; ++k) {
    if (k >= kMinSetups && setup_total >= kSetupSeconds) break;
    if (k > 0) wl->teardown(ctx);
    const auto t0 = Clock::now();
    wl->setup(ctx);
    const auto t1 = Clock::now();
    if (k == 0) cold_from_start = seconds_between(origin, t1);
    setups.push_back(seconds_between(t0, t1));
    setup_total += setups.back();
  }
  std::cout << "setups count=" << setups.size() << " cold_from_start_s="
            << cold_from_start << '\n';
  wl->describe(ctx);

  // ---- timed phase --------------------------------------------------------
  std::vector<double> walls, traced_walls;
  std::vector<std::vector<double>> latency_ms;  // per measured round
  // Per-round rates; the reported rates are their medians, so one round
  // slowed by a co-tenant does not move them.
  std::vector<double> set_rates, answer_rates;
  std::uint64_t digest = 0;
  std::size_t first_size = 0;
  double timed = 0.0;
  for (int k = 0;; ++k) {
    const bool traced_round = args.trace && k % 2 == 0;
    const int done = static_cast<int>(walls.size());
    const int done_traced = static_cast<int>(traced_walls.size());
    if (timed >= args.seconds && done >= kMinRounds &&
        (!args.trace || done_traced >= kMinRounds)) {
      break;
    }
    ctx.tracer.on = traced_round;
    ctx.tracer.phase = "round";
    const auto t0 = Clock::now();
    Round r = wl->round(ctx);
    r.wall = seconds_between(t0, Clock::now());
    timed += r.wall;
    ctx.attempted += r.answers.size();
    const std::uint64_t d = digest_of(r.answers);
    if (k == 0) {
      digest = d;
      first_size = r.answers.size();
      ctx.tracer.on = args.trace;
      ctx.tracer.phase = "oracle";
      wl->verify(ctx, r);
    } else if (d != digest || r.answers.size() != first_size) {
      ctx.fail("round " + std::to_string(k) + " answers differ from round 0");
    }
    if (k == 0) continue;  // warm-up: caches, lazy state, thread start-up
    if (traced_round) {
      traced_walls.push_back(r.wall);
      continue;
    }
    walls.push_back(r.wall);
    set_rates.push_back(static_cast<double>(r.sets) / r.wall);
    answer_rates.push_back(static_cast<double>(r.answers.size()) / r.wall);
    latency_ms.push_back(std::move(r.latency_ms));
  }
  wl->teardown(ctx);

  const double rss_mb =
      static_cast<double>(peak_rss_kb("self") + ctx.dist_worker_peak_kb) /
      1024.0;
  std::cout << "answers digest=" << std::hex << std::setw(16)
            << std::setfill('0') << digest << std::dec << std::setfill(' ')
            << " per_round=" << first_size << " rounds=" << walls.size()
            << " traced_rounds=" << traced_walls.size() << '\n';
  std::cout << "round_s";
  for (const double w : walls) std::cout << ' ' << w;
  std::cout << '\n';

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Consecutive rounds pool into blocks of at least kBlockSamples
    // latencies (a short tail joins the last block); p50 and p99 are the
    // medians of the blocks' percentiles. A block that size has at least
    // ten samples beyond its p99, and one slow burst moves one block only.
    // A run with fewer samples in all (a few dozen verdicts) makes each
    // round a block, so its p99 is the median round's slowest verdict.
    std::size_t total = 0;
    for (const auto& round : latency_ms) total += round.size();
    const std::size_t block_min = total < kBlockSamples ? 1 : kBlockSamples;
    std::vector<std::vector<double>> blocks(1);
    for (const auto& round : latency_ms) {
      if (blocks.back().size() >= block_min) blocks.emplace_back();
      blocks.back().insert(blocks.back().end(), round.begin(), round.end());
    }
    if (blocks.size() > 1 && blocks.back().size() < block_min) {
      auto tail = std::move(blocks.back());
      blocks.pop_back();
      blocks.back().insert(blocks.back().end(), tail.begin(), tail.end());
    }
    std::vector<double> p50s, p99s;
    std::size_t samples = 0, min_beyond = SIZE_MAX;
    for (const auto& b : blocks) {
      p50s.push_back(percentile(b, 0.5));
      p99s.push_back(percentile(b, 0.99));
      std::size_t beyond = 0;
      for (const double x : b) beyond += x > p99s.back() ? 1 : 0;
      min_beyond = std::min(min_beyond, beyond);
      samples += b.size();
    }
    std::cout << "latency samples=" << samples << " blocks=" << blocks.size()
              << " min_beyond_p99=" << min_beyond << " unit="
              << (ctx.spec.name == "serve_mix" ? "request" : "verdict")
              << '\n';
    if (ctx.spec.name == "serve_mix" && !ctx.spec.tiny && min_beyond < 10) {
      ctx.fail("fewer than 10 latency samples beyond p99");
    }
    metrics = {
        {"setup_s", median(setups), "s"},
        {"run_s", median(walls), "s"},
        {"sets_per_s", median(set_rates), "1/s"},
        {"req_per_s", median(answer_rates), "1/s"},
        {"req_p50_ms", median(p50s), "ms"},
        {"req_p99_ms", median(p99s), "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    const double overhead = median(traced_walls) / median(walls) - 1.0;
    metrics = layer_metrics(ctx, overhead);
    for (const auto& [name, st] : ctx.tracer.self_times()) {
      std::cout << "span name=" << name << " calls=" << st.calls
                << " total_s=" << st.total << " self_s=" << st.self << '\n';
    }
    if (!ctx.tracer.write_tsv("spans.tsv")) {
      ctx.fail("cannot write spans.tsv");
    }
    std::cout << "spans file=" << args.dir << "/spans.tsv count="
              << ctx.tracer.spans().size() << '\n';
  }
  const double error_rate =
      ctx.attempted ? static_cast<double>(ctx.failed) /
                          static_cast<double>(ctx.attempted)
                    : 1.0;
  if (args.trace) metrics.push_back({"error_rate", error_rate, "ratio"});

  std::cout << "correctness attempted=" << ctx.attempted
            << " failed=" << ctx.failed
            << " oracle_checks=" << ctx.oracle_checks
            << " oracle_mismatches=" << ctx.oracle_mismatches
            << " error_rate=" << error_rate << '\n';
  for (const auto& m : metrics) {
    std::cout << "metric " << m.name << ' ' << json_number(m.value) << ' '
              << m.unit << '\n';
  }
  std::ostringstream js;
  js << "{\"correct\": " << (ctx.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << ctx.attempted << ", \"failed\": " << ctx.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto origin = perfbench::Clock::now();
  try {
    return perfbench::run(argc, argv, origin);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 1;
  }
}
