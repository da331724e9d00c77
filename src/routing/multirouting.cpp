#include "routing/multirouting.hpp"

#include <unordered_set>

#include "common/contracts.hpp"
#include "graph/connectivity.hpp"
#include "routing/tree_routing.hpp"

namespace ftr {

MultiRouteTable build_full_multirouting(const Graph& g, std::uint32_t t) {
  MultiRouteTable table(g.num_nodes(), t + 1, /*bidirectional=*/true);
  SplitFlowSolver solver(g);
  for (Node x = 0; x < g.num_nodes(); ++x) {
    for (Node y = x + 1; y < g.num_nodes(); ++y) {
      const auto paths = solver.disjoint_paths(x, y, t + 1);
      FTR_EXPECTS_MSG(paths.size() >= t + 1,
                      "only " << paths.size() << " disjoint paths between "
                              << x << " and " << y
                              << "; graph is not (t+1)-connected");
      for (const Path& p : paths) table.add_route(p);
    }
  }
  return table;
}

namespace {

std::vector<Node> concentrator_or_min_cut(SplitFlowSolver& solver,
                                          std::uint32_t t,
                                          std::optional<std::vector<Node>>& m) {
  std::vector<Node> set = m ? std::move(*m) : solver.min_vertex_cut();
  FTR_EXPECTS_MSG(set.size() >= t + 1,
                  "separating set of size " << set.size()
                                            << " cannot host width " << t + 1);
  FTR_EXPECTS_MSG(is_separating_set(solver.graph(), set),
                  "M does not separate the graph");
  return set;
}

}  // namespace

ConcentratorMultirouting build_kernel_multirouting(
    const Graph& g, std::uint32_t t, std::optional<std::vector<Node>> m) {
  SplitFlowSolver solver(g);
  std::vector<Node> set = concentrator_or_min_cut(solver, t, m);
  MultiRouteTable table(g.num_nodes(), t + 1, /*bidirectional=*/true);

  // Kernel components, single-routed: direct edges and tree routings to M.
  g.for_each_edge([&table](Node u, Node v) { table.add_route(Path{u, v}); });
  const std::unordered_set<Node> in_m(set.begin(), set.end());
  for (Node x = 0; x < g.num_nodes(); ++x) {
    if (in_m.count(x)) continue;
    const TreeRouting tr = build_tree_routing(solver, x, set, t + 1);
    for (const Path& p : tr.paths) table.add_route(p);
  }

  // The Section 6 augmentation: t+1 parallel routes between concentrator
  // members (the direct edge, if present, dedups against the edge route).
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      const auto paths = solver.disjoint_paths(set[i], set[j], t + 1);
      FTR_EXPECTS_MSG(paths.size() >= t + 1,
                      "concentrator pair lacks t+1 disjoint paths");
      for (const Path& p : paths) table.add_route(p);
    }
  }
  return ConcentratorMultirouting{std::move(table), std::move(set), t};
}

ConcentratorMultirouting build_mult_routing(
    const Graph& g, std::uint32_t t, std::optional<std::vector<Node>> m) {
  SplitFlowSolver solver(g);
  std::vector<Node> set = concentrator_or_min_cut(solver, t, m);
  MultiRouteTable table(g.num_nodes(), 2, /*bidirectional=*/true);

  // Component MULT 1 first (tree routings carry the Lemma 1 guarantee and
  // must not be crowded out by the cap), then MULT 3 edges, then MULT 2.
  const std::unordered_set<Node> in_m(set.begin(), set.end());
  for (Node x = 0; x < g.num_nodes(); ++x) {
    if (in_m.count(x)) continue;
    const TreeRouting tr = build_tree_routing(solver, x, set, t + 1);
    for (const Path& p : tr.paths) {
      const bool kept = table.try_add_route(p);
      FTR_ASSERT_MSG(kept, "MULT 1 route dropped; cap misconfigured");
    }
  }
  g.for_each_edge([&table](Node u, Node v) { table.try_add_route(Path{u, v}); });

  // Component MULT 2: every member routes to every member's shell. Members
  // may be adjacent (M is only a separating set), in which case the shell
  // contains the source and the pair is already covered by its edge route.
  for (Node mi : set) {
    for (Node mj : set) {
      if (mi == mj || g.has_edge(mi, mj)) continue;
      const auto nbrs = g.neighbors(mj);
      const std::vector<Node> shell(nbrs.begin(), nbrs.end());
      const TreeRouting tr = build_tree_routing(solver, mi, shell, t + 1);
      for (const Path& p : tr.paths) table.try_add_route(p);
    }
  }
  return ConcentratorMultirouting{std::move(table), std::move(set), t};
}

}  // namespace ftr
