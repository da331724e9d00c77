// Experiment E24: SRG evaluation at memory speed. The two evaluation
// kernels (fault/srg_engine.hpp) on the exhaustive Gray certification
// workload — the f <= 3 fast path behind check_tolerance and the CLI's
// `sweep --exhaustive`:
//   * bitset — word-packed frontier/visited bitmaps with a direction-
//     optimizing top-down/bottom-up switch, over adjacency bitmaps the
//     fault-set state maintains by one-element deltas;
//   * packed — Gray-adjacent fault sets evaluated lane-parallel in
//     width-parameterized blocks (64/128/256/512 lanes = 1/2/4/8 words per
//     route/pair/node; route liveness, arc counts, and reachability as
//     AND/OR/popcount word loops with runtime AVX2/AVX-512 dispatch).
// BENCH_srg_kernels.json records the cases below; its kernel:0 rows are
// from the removed scalar kernel and stay only as history. The widest
// supported lane count must beat lanes:64. All kernels and widths produce
// bit-identical sweeps (tests/test_srg_kernels pins that); only throughput
// may differ.
// Single-threaded and CPU-time based, so the ratios are meaningful on the
// 1-core CI runner.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "common/cpu_features.hpp"
#include "core/ftroute.hpp"

namespace {

using namespace ftr;

// Arg 1 = bitset, 2 = packed (0 was the removed scalar kernel; the numbers
// are kept so case names match the recorded history).
SrgKernel kernel_from_range(std::int64_t r) {
  return r == 1 ? SrgKernel::kBitset : SrgKernel::kPacked;
}

// "bitset" / "packed512"; lanes only matters for packed, where
// 0 (auto) is annotated with the width it resolved to on this host.
std::string kernel_lanes_label(SrgKernel kernel, unsigned lanes) {
  if (kernel != SrgKernel::kPacked) return srg_kernel_name(kernel);
  return std::string(srg_kernel_name(kernel)) +
         std::to_string(resolve_lane_width(lanes));
}

// Wall-clock overview across kernels and fault budgets, plus the cross-
// kernel checksum that makes the speedups honest: every kernel must report
// the same worst diameter, histogram mass, and disconnect count.
void table_kernel_throughput() {
  std::cout << "-- Exhaustive Gray sweep throughput by kernel --\n";
  const unsigned auto_width = resolve_lane_width(0);
  Table table({"graph", "f", "sets", "bitset sets/s", "packed64 sets/s",
               "packed" + std::to_string(auto_width) + " sets/s",
               "packed/bitset"});
  using clock = std::chrono::steady_clock;
  struct Entry {
    std::string graph;
    Graph g;
    RoutingTable rt;
  };
  std::vector<Entry> entries;
  {
    const auto gg = torus_graph(6, 6);
    entries.push_back({gg.name, gg.graph,
                       build_kernel_routing(gg.graph, 3).table});
  }
  {
    const auto gg = cube_connected_cycles(4);
    entries.push_back({gg.name, gg.graph,
                       build_kernel_routing(gg.graph, 2).table});
  }
  for (const auto& e : entries) {
    const SrgIndex index(e.rt);
    for (std::size_t f : {2u, 3u}) {
      const auto count = binomial(e.g.num_nodes(), f);
      // bitset, packed at 64 lanes, packed at the auto width.
      constexpr int kConfigs = 3;
      const SrgKernel kernels[kConfigs] = {
          SrgKernel::kBitset, SrgKernel::kPacked, SrgKernel::kPacked};
      const unsigned widths[kConfigs] = {0, 64, 0};
      double rate[kConfigs] = {};
      std::uint32_t worst[kConfigs] = {};
      std::uint64_t disconnected[kConfigs] = {};
      for (int k = 0; k < kConfigs; ++k) {
        FaultSweepOptions opts;
        opts.exec.kernel = kernels[k];
        opts.exec.lanes = widths[k];
        const auto t0 = clock::now();
        const auto summary = sweep_exhaustive_gray(e.rt, index, f, opts);
        const auto t1 = clock::now();
        const double secs =
            std::chrono::duration<double>(t1 - t0).count();
        rate[k] = secs > 0 ? static_cast<double>(summary.total_sets) / secs
                           : 0.0;
        worst[k] = summary.worst_diameter;
        disconnected[k] = summary.disconnected;
        FTR_ASSERT_MSG(worst[k] == worst[0] &&
                           disconnected[k] == disconnected[0],
                       "kernels disagree on the exhaustive sweep");
      }
      table.add_row({e.graph, Table::cell(f), Table::cell(count),
                     Table::cell(rate[0], 0), Table::cell(rate[1], 0),
                     Table::cell(rate[2], 0),
                     Table::cell(rate[2] / rate[0], 1)});
    }
  }
  table.print(std::cout);
  std::cout << "(same sweeps, same answers — the ratio columns are pure"
            << " kernel speedup; timings here are one-shot, the registered"
            << " benchmarks below are the recorded numbers)\n\n";
}

// THE acceptance benchmark: exhaustive f=2 sweep of the kernel/torus table,
// one registered case per kernel, plus one per packed lane width (lanes:0
// is the auto pick). items_per_second is fault-sets/sec; the wider-lane
// cases vs lanes:64 are the width-scaling record.
void bench_srg_kernels_exhaustive(benchmark::State& state) {
  const auto gg = torus_graph(6, 6);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  const auto count = binomial(gg.graph.num_nodes(), 2);
  FaultSweepOptions opts;
  opts.exec.kernel = kernel_from_range(state.range(0));
  opts.exec.lanes = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_exhaustive_gray(kr.table, index, 2, opts));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * count));
  state.SetLabel(kernel_lanes_label(opts.exec.kernel, opts.exec.lanes));
}
BENCHMARK(bench_srg_kernels_exhaustive)
    ->ArgNames({"kernel", "lanes"})
    ->Args({1, 0})
    ->Args({2, 64})
    ->Args({2, 128})
    ->Args({2, 256})
    ->Args({2, 512})
    ->Args({2, 0});

// The f=3 budget (7140 sets): deeper Gray blocks amortize the packed
// kernel's per-block setup better, so this is its best case on 36 nodes.
void bench_srg_kernels_exhaustive_f3(benchmark::State& state) {
  const auto gg = torus_graph(6, 6);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  const auto count = binomial(gg.graph.num_nodes(), 3);
  FaultSweepOptions opts;
  opts.exec.kernel = kernel_from_range(state.range(0));
  opts.exec.lanes = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_exhaustive_gray(kr.table, index, 3, opts));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * count));
  state.SetLabel(kernel_lanes_label(opts.exec.kernel, opts.exec.lanes));
}
BENCHMARK(bench_srg_kernels_exhaustive_f3)
    ->ArgNames({"kernel", "lanes"})
    ->Args({1, 0})
    ->Args({2, 64})
    ->Args({2, 128})
    ->Args({2, 256})
    ->Args({2, 512})
    ->Args({2, 0});

// Streamed (non-Gray) sweeps cannot use the packed kernel; they run the
// bitset BFS. The sampled stream the CLI's default `sweep` runs.
void bench_srg_kernels_stream(benchmark::State& state) {
  const auto gg = torus_graph(6, 6);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  constexpr std::uint64_t kSets = 512;
  FaultSweepOptions opts;
  opts.exec.kernel = kernel_from_range(state.range(0));
  for (auto _ : state) {
    SampledStreamSource source(gg.graph.num_nodes(), 3, kSets, 7);
    benchmark::DoNotOptimize(
        sweep_fault_source(kr.table, index, source, opts));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kSets));
  state.SetLabel(srg_kernel_name(opts.exec.kernel));
}
BENCHMARK(bench_srg_kernels_stream)->ArgName("kernel")->Arg(1);

// Single-set evaluation latency (the serving layer's per-request shape):
// one evaluate() against reused scratch, a delta from the previous set.
void bench_srg_kernels_single_set(benchmark::State& state) {
  const auto gg = torus_graph(6, 6);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  SrgScratch scratch(index);
  Rng rng(9);
  const auto sets = random_fault_sets(gg.graph.num_nodes(), 3, 64, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scratch.evaluate(sets[i++ % sets.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(srg_kernel_name(kernel_from_range(state.range(0))));
}
BENCHMARK(bench_srg_kernels_single_set)->ArgName("kernel")->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  ftr::bench::banner("E24", "SRG evaluation kernels",
                     "bitset BFS + wide-lane packed Gray evaluation "
                     "(64-512 sets/block, runtime SIMD dispatch)");
  table_kernel_throughput();
  return ftr::bench::run_registered_benchmarks(argc, argv);
}
