// Experiments E4 + E5: the tri-circular routing (Theorem 13, Fig. 2) and its
// compact variant (Remark 14). Full: K = 6t+9 -> (4, t). Compact: K = 3t+3 /
// 3t+6 -> (5, t). The ablation table shows the concentrator-size/diameter
// trade the paper describes.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"
#include "core/ftroute.hpp"

namespace {

using namespace ftr;

std::vector<Node> nset(const Graph& g, std::size_t want, std::uint64_t seed) {
  Rng rng(seed);
  return neighborhood_set_of_size(g, want, rng, 32);
}

void table_theorem13() {
  std::cout << "-- Theorem 13: tri-circular (full, K = 6t+9) is (4, t) --\n";
  auto table = bench::tolerance_table();
  struct Case {
    GeneratedGraph gg;
    std::uint32_t t;
  };
  std::vector<Case> cases;
  cases.push_back({cycle_graph(48), 1});
  cases.push_back({cycle_graph(64), 1});
  cases.push_back({cube_connected_cycles(5), 2});  // K = 21, n = 160
  cases.push_back({torus_graph(13, 13), 3});       // K = 27, n = 169
  for (const auto& [gg, t] : cases) {
    const std::uint32_t k = tricircular_required_k(t);
    const auto m = nset(gg.graph, k, 21);
    if (m.size() < k) {
      std::cout << "   (skipping " << gg.name << ": neighborhood set only "
                << m.size() << " < " << k << ")\n";
      continue;
    }
    const auto tr =
        build_tricircular_routing(gg.graph, t, m, TriCircularVariant::kFull);
    for (std::uint32_t f = 0; f <= t; ++f) {
      bench::add_tolerance_row(table, gg.name, "tri-circular", t, f, 4,
                               tr.table, 511 + f);
    }
  }
  table.print(std::cout);
  std::cout << "\n";
}

void table_remark14() {
  std::cout << "-- Remark 14: compact tri-circular (K = 3t+3 / 3t+6) is"
            << " (5, t) --\n";
  auto table = bench::tolerance_table();
  struct Case {
    GeneratedGraph gg;
    std::uint32_t t;
  };
  std::vector<Case> cases;
  cases.push_back({cycle_graph(30), 1});
  cases.push_back({cube_connected_cycles(4), 2});  // K = 9, n = 64
  cases.push_back({torus_graph(10, 10), 3});       // K = 15
  for (const auto& [gg, t] : cases) {
    const std::uint32_t k = tricircular_compact_required_k(t);
    const auto m = nset(gg.graph, k, 23);
    if (m.size() < k) {
      std::cout << "   (skipping " << gg.name << ")\n";
      continue;
    }
    const auto tr = build_tricircular_routing(gg.graph, t, m,
                                              TriCircularVariant::kCompact);
    bench::add_tolerance_row(table, gg.name, "tri-circ compact", t, t, 5,
                             tr.table, 613);
  }
  table.print(std::cout);
  std::cout << "\n";
}

void table_variant_ablation() {
  std::cout << "-- Ablation: full (bound 4, K = 15) vs compact (bound 5,"
            << " K = 9) at t = 1 on C(48) --\n";
  auto table = bench::tolerance_table();
  const auto gg = cycle_graph(48);
  const auto full = build_tricircular_routing(gg.graph, 1,
                                              nset(gg.graph, 15, 25),
                                              TriCircularVariant::kFull);
  const auto compact = build_tricircular_routing(gg.graph, 1,
                                                 nset(gg.graph, 9, 25),
                                                 TriCircularVariant::kCompact);
  bench::add_tolerance_row(table, gg.name, "tri-circ full", 1, 1, 4,
                           full.table, 711);
  bench::add_tolerance_row(table, gg.name, "tri-circ compact", 1, 1, 5,
                           compact.table, 712);
  std::cout << "routes: full=" << full.table.num_routes()
            << " compact=" << compact.table.num_routes() << "\n";
  table.print(std::cout);
  std::cout << "\n";
}

void bench_build_tricircular(benchmark::State& state) {
  const auto gg = cycle_graph(state.range(0));
  const auto m = nset(gg.graph, 15, 27);
  for (auto _ : state) {
    auto tr =
        build_tricircular_routing(gg.graph, 1, m, TriCircularVariant::kFull);
    benchmark::DoNotOptimize(tr.table.num_routes());
  }
  state.SetLabel(gg.name);
}
BENCHMARK(bench_build_tricircular)->Arg(48)->Arg(96)->Arg(144);

// Planning at perfbench scale: the full variant at t = 3 (K = 27) on a
// square torus, ~8.5k tree-routing queries at 20x20 on one split-network
// solver.
void bench_build_tricircular_torus(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto gg = torus_graph(side, side);
  const auto m = nset(gg.graph, tricircular_required_k(3), 29);
  if (m.size() < tricircular_required_k(3)) {
    state.SkipWithError("neighborhood set too small");
    return;
  }
  for (auto _ : state) {
    auto tr =
        build_tricircular_routing(gg.graph, 3, m, TriCircularVariant::kFull);
    benchmark::DoNotOptimize(tr.table.num_routes());
  }
  state.SetLabel(gg.name);
}
BENCHMARK(bench_build_tricircular_torus)
    ->Arg(16)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ftr::bench::banner("E4/E5", "tri-circular routing tolerance (Fig. 2)",
                     "Theorem 13: (4, t) with K = 6t+9; Remark 14: (5, t)");
  table_theorem13();
  table_remark14();
  table_variant_ablation();
  return ftr::bench::run_registered_benchmarks(argc, argv);
}
