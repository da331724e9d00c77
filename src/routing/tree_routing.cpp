#include "routing/tree_routing.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "graph/connectivity.hpp"

namespace ftr {

std::vector<Node> TreeRouting::endpoints() const {
  std::vector<Node> out;
  out.reserve(paths.size());
  for (const Path& p : paths) out.push_back(p.back());
  return out;
}

TreeRouting build_tree_routing(SplitFlowSolver& solver, Node x,
                               const std::vector<Node>& target_set,
                               std::uint32_t width) {
  FTR_EXPECTS(width >= 1);
  auto paths = solver.disjoint_paths_to_set(x, target_set);
  FTR_EXPECTS_MSG(paths.size() >= width,
                  "only " << paths.size() << " disjoint paths from " << x
                          << " to the target set; " << width << " required");

  // disjoint_paths_to_set returns direct-edge paths first; keep that prefix
  // and order the rest shortest-first, then trim to the requested width.
  const auto direct_end = std::find_if(
      paths.begin(), paths.end(), [](const Path& p) { return p.size() != 2; });
  std::sort(direct_end, paths.end(), [](const Path& a, const Path& b) {
    return a.size() < b.size();
  });
  paths.resize(width);

  TreeRouting tr{x, std::move(paths)};
  FTR_ENSURES(validate_tree_routing(solver.graph(), tr, target_set));
  return tr;
}

bool validate_tree_routing(const Graph& g, const TreeRouting& tr,
                           const std::vector<Node>& target_set) {
  // Flat per-node marks: a target, an endpoint already used, a node already
  // used inside some path.
  constexpr std::uint8_t kTarget = 1;
  constexpr std::uint8_t kEndpoint = 2;
  constexpr std::uint8_t kInternal = 4;
  if (!g.valid_node(tr.source)) return false;
  std::vector<std::uint8_t> mark(g.num_nodes(), 0);
  for (Node m : target_set) {
    if (!g.valid_node(m)) return false;
    mark[m] |= kTarget;
  }
  if (mark[tr.source] & kTarget) return false;

  for (const Path& p : tr.paths) {
    if (p.size() < 2) return false;
    if (p.front() != tr.source) return false;
    if (!g.is_simple_path(p)) return false;
    std::uint8_t& end = mark[p.back()];
    if (!(end & kTarget)) return false;
    if (end & kEndpoint) return false;  // dup target
    end |= kEndpoint;
    for (std::size_t i = 1; i + 1 < p.size(); ++i) {
      std::uint8_t& inner = mark[p[i]];
      if (inner & kTarget) return false;    // must stop at first M node
      if (inner & kInternal) return false;  // not disjoint
      inner |= kInternal;
    }
    // Direct-edge rule: a chosen endpoint adjacent to x is reached by the
    // edge itself.
    if (g.has_edge(tr.source, p.back()) && p.size() != 2) return false;
  }
  // Endpoints are targets and no target is internal, so no endpoint lies
  // inside another path.
  return true;
}

void install_tree_routing(RoutingTable& table, const TreeRouting& tr) {
  for (const Path& p : tr.paths) table.set_route(p);
}

}  // namespace ftr
