// Experiment E18: construction-cost scaling — the systems-facing view. How
// long does each construction take to build, and how big are the resulting
// route tables, as the network grows? (The paper notes the routing table is
// computed once, so heavy preprocessing is acceptable; this bench quantifies
// "heavy".)
#include <benchmark/benchmark.h>

#include <iostream>

#include "analysis/stretch.hpp"
#include "bench_util.hpp"
#include "core/ftroute.hpp"

namespace {

using namespace ftr;

void table_route_table_sizes() {
  std::cout << "-- Route-table footprint by construction --\n";
  Table table({"graph", "n", "construction", "ordered pairs", "max hops",
               "avg hops"});
  Rng rng(88);
  struct Case {
    GeneratedGraph gg;
    std::uint32_t t;
  };
  std::vector<Case> cases;
  cases.push_back({cube_connected_cycles(4), 2});
  cases.push_back({torus_graph(8, 8), 3});
  cases.push_back({cycle_graph(96), 1});
  for (const auto& [gg, t] : cases) {
    auto add = [&](const std::string& name, const RoutingTable& rt) {
      const auto s = rt.stats();
      table.add_row({gg.name, Table::cell(gg.graph.num_nodes()), name,
                     Table::cell(s.ordered_pairs), Table::cell(s.max_hops),
                     Table::cell(s.avg_hops, 2)});
    };
    add("kernel", build_kernel_routing(gg.graph, t).table);
    const auto m = randomized_neighborhood_set(gg.graph, rng, 16);
    if (m.size() >= circular_required_k(t)) {
      add("circular", build_circular_routing(gg.graph, t, m).table);
    }
    if (m.size() >= tricircular_required_k(t)) {
      add("tri-circular",
          build_tricircular_routing(gg.graph, t, m, TriCircularVariant::kFull)
              .table);
    }
    if (const auto w = find_two_trees(gg.graph)) {
      add("bipolar-uni", build_bipolar_unidirectional(gg.graph, t, *w).table);
    }
  }
  table.print(std::cout);
  std::cout << "\n";
}

void table_stretch() {
  std::cout << "-- Route stretch vs shortest paths (the link-level price of"
            << " fault tolerance) --\n";
  Table table({"graph", "construction", "avg stretch", "max stretch",
               "shortest routes", "max detour"});
  Rng rng(90);
  const auto gg = torus_graph(7, 7);
  const std::uint32_t t = 3;
  auto add = [&](const std::string& name, const RoutingTable& rt) {
    const auto s = measure_stretch(gg.graph, rt);
    table.add_row({gg.name, name, Table::cell(s.avg_stretch, 2),
                   Table::cell(s.max_stretch, 2),
                   Table::cell(s.shortest_routes) + "/" +
                       Table::cell(s.routes),
                   Table::cell(s.max_detour)});
  };
  add("kernel", build_kernel_routing(gg.graph, t).table);
  const auto m = neighborhood_set_of_size(gg.graph, 5, rng, 16);
  add("circular", build_circular_routing(gg.graph, t, m).table);
  table.print(std::cout);
  std::cout << "(routes detour through concentrators by design; the paper's"
            << " cost model charges per route, not per link)\n\n";
}

// --- Scaling timings (google-benchmark) ---

void bench_kernel_scaling(benchmark::State& state) {
  const auto gg = torus_graph(state.range(0), state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_kernel_routing(gg.graph, 3).table.stats());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(
      gg.graph.num_nodes()));
}
BENCHMARK(bench_kernel_scaling)->Arg(4)->Arg(6)->Arg(8)->Arg(12)->Arg(16)
    ->Complexity();

void bench_circular_scaling(benchmark::State& state) {
  const auto gg = torus_graph(state.range(0), state.range(0));
  Rng rng(89);
  const auto m = neighborhood_set_of_size(gg.graph, 5, rng, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build_circular_routing(gg.graph, 3, m).table.stats());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(
      gg.graph.num_nodes()));
}
BENCHMARK(bench_circular_scaling)->Arg(5)->Arg(7)->Arg(9)->Arg(12)
    ->Complexity();

void bench_min_vertex_cut_scaling(benchmark::State& state) {
  const auto gg = cube_connected_cycles(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_vertex_cut(gg.graph).size());
  }
  state.SetLabel(gg.name);
}
BENCHMARK(bench_min_vertex_cut_scaling)->Arg(3)->Arg(4)->Arg(5);

void bench_node_connectivity_scaling(benchmark::State& state) {
  const auto gg = torus_graph(state.range(0), state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(node_connectivity(gg.graph));
  }
}
BENCHMARK(bench_node_connectivity_scaling)->Arg(4)->Arg(6)->Arg(8);

void bench_tree_routing_single(benchmark::State& state) {
  const auto gg = torus_graph(state.range(0), state.range(0));
  const auto cut = min_vertex_cut(gg.graph);
  for (auto _ : state) {
    // The solver is part of the measured work, as a one-off query pays it.
    SplitFlowSolver solver(gg.graph);
    benchmark::DoNotOptimize(
        build_tree_routing(solver, 0, cut, 4).paths.size());
  }
}
BENCHMARK(bench_tree_routing_single)->Arg(6)->Arg(10)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  ftr::bench::banner("E18", "construction cost scaling",
                     "systems view: one-time routing-table computation");
  table_route_table_sizes();
  table_stretch();
  return ftr::bench::run_registered_benchmarks(argc, argv);
}
