#include "routing/tricircular.hpp"

#include <vector>

#include "analysis/neighborhood.hpp"
#include "analysis/properties.hpp"
#include "common/contracts.hpp"
#include "routing/tree_routing.hpp"

namespace ftr {

TriCircularRouting build_tricircular_routing(
    const Graph& g, std::uint32_t t, const std::vector<Node>& neighborhood_set,
    TriCircularVariant variant) {
  const std::uint32_t k_total = variant == TriCircularVariant::kFull
                                    ? tricircular_required_k(t)
                                    : tricircular_compact_required_k(t);
  FTR_ASSERT(k_total % 3 == 0);
  const std::uint32_t k = k_total / 3;  // component size; odd in both variants
  FTR_ASSERT_MSG(k % 2 == 1, "component size must be odd for conflict-freedom");
  FTR_EXPECTS_MSG(neighborhood_set.size() >= k_total,
                  "neighborhood set of size " << neighborhood_set.size()
                                              << " cannot provide K = "
                                              << k_total);

  std::vector<Node> m(neighborhood_set.begin(),
                      neighborhood_set.begin() + k_total);
  FTR_EXPECTS_MSG(is_neighborhood_set(g, m), "M is not a neighborhood set");

  // Member (j, i) = m[j*k + i]; shell (j, i) = Gamma(m[j*k + i]).
  std::vector<std::vector<Node>> gamma(k_total);
  // shell_of[v] = 3k-encoded (j*k + i) + 1, or 0 if v outside Gamma.
  std::vector<std::uint32_t> shell_of(g.num_nodes(), 0);
  for (std::uint32_t s = 0; s < k_total; ++s) {
    const auto nbrs = g.neighbors(m[s]);
    gamma[s].assign(nbrs.begin(), nbrs.end());
    FTR_EXPECTS_MSG(gamma[s].size() >= t + 1,
                    "deg(m_" << s << ") < t+1; graph cannot be (t+1)-connected");
    for (Node v : gamma[s]) shell_of[v] = s + 1;
  }

  RoutingTable table(g.num_nodes(), RoutingMode::kBidirectional);
  install_edge_routes(table, g);  // Component T-CIRC 4

  // Forward window within a component: t+1 for the full variant (= ceil(k/2)-1
  // with k = 2t+3); ceil(k/2)-1 for the compact variant.
  const std::uint32_t window = variant == TriCircularVariant::kFull
                                   ? t + 1
                                   : (k + 1) / 2 - 1;
  FTR_ASSERT(window <= (k + 1) / 2 - 1);  // conflict-freedom needs <= half

  SplitFlowSolver solver(g);
  auto route_to_shell = [&](Node x, std::uint32_t s) {
    if (x == m[s]) {
      for (Node y : gamma[s]) table.set_route(Path{x, y});
      return;
    }
    const TreeRouting tr = build_tree_routing(solver, x, gamma[s], t + 1);
    install_tree_routing(table, tr);
  };

  for (Node x = 0; x < g.num_nodes(); ++x) {
    if (shell_of[x] == 0) {
      // Component T-CIRC 1: outside Gamma, route to every shell.
      for (std::uint32_t s = 0; s < k_total; ++s) route_to_shell(x, s);
    } else {
      const std::uint32_t s = shell_of[x] - 1;
      const std::uint32_t j = s / k;  // component index
      const std::uint32_t i = s % k;  // position within component
      // Component T-CIRC 2: forward within the same component.
      for (std::uint32_t l = 1; l <= window; ++l) {
        route_to_shell(x, j * k + (i + l) % k);
      }
      // Component T-CIRC 3: every shell of the next component.
      const std::uint32_t jn = (j + 1) % 3;
      for (std::uint32_t l = 0; l < k; ++l) {
        route_to_shell(x, jn * k + l);
      }
    }
  }

  return TriCircularRouting{std::move(table), std::move(m), t, k, variant};
}

}  // namespace ftr
