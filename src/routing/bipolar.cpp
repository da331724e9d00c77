#include "routing/bipolar.hpp"

#include <vector>

#include "common/contracts.hpp"
#include "routing/tree_routing.hpp"

namespace ftr {

namespace {

struct BipolarSets {
  std::vector<Node> m1, m2;
  std::vector<char> in_m1, in_m2;        // membership flags
  std::vector<char> in_gamma1, in_gamma2;  // union-of-shells flags
  std::vector<std::vector<Node>> gamma1, gamma2;  // per-member shells
};

BipolarSets make_sets(const Graph& g, std::uint32_t t,
                      const TwoTreesWitness& roots) {
  FTR_EXPECTS_MSG(two_trees_valid(g, roots.r1, roots.r2),
                  "(" << roots.r1 << "," << roots.r2
                      << ") is not a two-trees witness");
  BipolarSets s;
  const std::size_t n = g.num_nodes();
  s.in_m1.assign(n, 0);
  s.in_m2.assign(n, 0);
  s.in_gamma1.assign(n, 0);
  s.in_gamma2.assign(n, 0);

  const auto n1 = g.neighbors(roots.r1);
  const auto n2 = g.neighbors(roots.r2);
  s.m1.assign(n1.begin(), n1.end());
  s.m2.assign(n2.begin(), n2.end());
  FTR_EXPECTS_MSG(s.m1.size() >= t + 1 && s.m2.size() >= t + 1,
                  "root degree below t+1; graph cannot be (t+1)-connected");
  for (Node v : s.m1) s.in_m1[v] = 1;
  for (Node v : s.m2) s.in_m2[v] = 1;

  s.gamma1.reserve(s.m1.size());
  for (Node m : s.m1) {
    const auto nbrs = g.neighbors(m);
    s.gamma1.emplace_back(nbrs.begin(), nbrs.end());
    for (Node v : nbrs) s.in_gamma1[v] = 1;
  }
  s.gamma2.reserve(s.m2.size());
  for (Node m : s.m2) {
    const auto nbrs = g.neighbors(m);
    s.gamma2.emplace_back(nbrs.begin(), nbrs.end());
    for (Node v : nbrs) s.in_gamma2[v] = 1;
  }
  return s;
}

// Components B-POL 3/4 and 2B-POL 3/4: tree routings from every member of a
// concentrator side to every shell of that side. The shared node r (the
// root) is adjacent to every member, so each routing re-derives the same
// direct edge (m, r) — an allowed identical re-assignment.
void install_member_to_shell_routings(RoutingTable& table,
                                      SplitFlowSolver& solver, std::uint32_t t,
                                      const std::vector<Node>& members,
                                      const std::vector<std::vector<Node>>& shells) {
  for (Node m : members) {
    for (std::size_t j = 0; j < shells.size(); ++j) {
      if (members[j] == m) {
        // A member's routing to its own shell is all direct edges.
        for (Node y : shells[j]) table.set_route(Path{m, y});
        continue;
      }
      const TreeRouting tr = build_tree_routing(solver, m, shells[j], t + 1);
      install_tree_routing(table, tr);
    }
  }
}

}  // namespace

BipolarRouting build_bipolar_unidirectional(const Graph& g, std::uint32_t t,
                                            const TwoTreesWitness& roots) {
  BipolarSets s = make_sets(g, t, roots);
  RoutingTable table(g.num_nodes(), RoutingMode::kUnidirectional);
  SplitFlowSolver solver(g);

  // Component B-POL 6: direct edges, both directions.
  install_edge_routes(table, g);

  // Components B-POL 1 and B-POL 2: directed tree routings into M1 and M2.
  for (Node x = 0; x < g.num_nodes(); ++x) {
    if (!s.in_m1[x]) {
      install_tree_routing(table, build_tree_routing(solver, x, s.m1, t + 1));
    }
    if (!s.in_m2[x]) {
      install_tree_routing(table, build_tree_routing(solver, x, s.m2, t + 1));
    }
  }

  // Components B-POL 3 and B-POL 4: members route out to their shells.
  install_member_to_shell_routings(table, solver, t, s.m1, s.gamma1);
  install_member_to_shell_routings(table, solver, t, s.m2, s.gamma2);

  // Component B-POL 5: mirror every one-directional route. Snapshot first;
  // set_route_if_absent keeps already-defined directions intact.
  std::vector<Path> to_mirror;
  table.for_each_view([&](Node x, Node y, PathView path) {
    if (!table.has_route(y, x)) {
      (void)x;
      to_mirror.emplace_back(path.rbegin(), path.rend());
    }
  });
  for (const Path& p : to_mirror) table.set_route_if_absent(p);

  return BipolarRouting{std::move(table), roots, std::move(s.m1),
                        std::move(s.m2), t};
}

BipolarRouting build_bipolar_bidirectional(const Graph& g, std::uint32_t t,
                                           const TwoTreesWitness& roots) {
  BipolarSets s = make_sets(g, t, roots);
  RoutingTable table(g.num_nodes(), RoutingMode::kBidirectional);
  SplitFlowSolver solver(g);

  // Component 2B-POL 5: direct edges.
  install_edge_routes(table, g);

  // Component 2B-POL 1: x outside M u Gamma^1 routes to M1.
  // Component 2B-POL 2: x outside M2 u Gamma^2 routes to M2. The domain
  // exclusions are what keep the bidirectional closure conflict-free.
  for (Node x = 0; x < g.num_nodes(); ++x) {
    if (!s.in_m1[x] && !s.in_m2[x] && !s.in_gamma1[x]) {
      install_tree_routing(table, build_tree_routing(solver, x, s.m1, t + 1));
    }
    if (!s.in_m2[x] && !s.in_gamma2[x]) {
      install_tree_routing(table, build_tree_routing(solver, x, s.m2, t + 1));
    }
  }

  // Components 2B-POL 3 and 2B-POL 4.
  install_member_to_shell_routings(table, solver, t, s.m1, s.gamma1);
  install_member_to_shell_routings(table, solver, t, s.m2, s.gamma2);

  return BipolarRouting{std::move(table), roots, std::move(s.m1),
                        std::move(s.m2), t};
}

}  // namespace ftr
