#include "routing/kernel.hpp"

#include <unordered_set>

#include "common/contracts.hpp"
#include "graph/connectivity.hpp"
#include "routing/tree_routing.hpp"

namespace ftr {

KernelRouting build_kernel_routing(
    const Graph& g, std::uint32_t t,
    std::optional<std::vector<Node>> separating_set) {
  FTR_EXPECTS(g.num_nodes() >= 3);

  SplitFlowSolver solver(g);
  std::vector<Node> m =
      separating_set ? std::move(*separating_set) : solver.min_vertex_cut();
  FTR_EXPECTS_MSG(m.size() >= t + 1,
                  "separating set of size " << m.size()
                                            << " cannot host width " << t + 1);
  FTR_EXPECTS_MSG(is_separating_set(g, m), "M does not separate the graph");

  RoutingTable table(g.num_nodes(), RoutingMode::kBidirectional);

  // Component KERNEL 2 first: the direct edge routes. Tree routings then
  // re-derive identical length-1 paths for adjacent (x, m) pairs, which the
  // table accepts as consistent.
  install_edge_routes(table, g);

  // Component KERNEL 1: a width-(t+1) tree routing from every x outside M.
  const std::unordered_set<Node> in_m(m.begin(), m.end());
  for (Node x = 0; x < g.num_nodes(); ++x) {
    if (in_m.count(x)) continue;
    const TreeRouting tr = build_tree_routing(solver, x, m, t + 1);
    install_tree_routing(table, tr);
  }

  return KernelRouting{std::move(table), std::move(m), t};
}

}  // namespace ftr
