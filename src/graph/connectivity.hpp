// Node connectivity, minimum vertex cuts, and internally node-disjoint path
// systems, all via vertex-split max-flow (Menger's theorem).
//
// Conventions:
//  * local_node_connectivity(g, x, y) counts the maximum number of
//    internally node-disjoint x-y paths. If {x,y} is an edge, the direct
//    edge counts as one of those paths.
//  * node_connectivity(g) is kappa(G); the paper's graphs have
//    kappa = t + 1. Complete graphs have kappa = n - 1 by convention.
//  * disjoint_paths_to_set(g, x, M) implements the flow formulation of
//    Lemma 2's tree routings: a maximum family of paths from x to distinct
//    nodes of M that are internally node-disjoint AND contain no node of M
//    except their final endpoint ("stop at the first occurrence of a node
//    from M"). Direct edges from x into M are always included first.
//
// SplitFlowSolver answers every one of these queries on ONE vertex-split
// network per graph: in(v) = 2v, out(v) = 2v + 1, a super-sink 2n, and a
// fixed arc template built once from the graph:
//  * per node v, in order: in(v) -> out(v), then in(v) -> sink;
//  * per edge {u, v} in for_each_edge order: out(u) -> in(v), then
//    out(v) -> in(u).
// The network is frozen into CSR (graph/maxflow.hpp) and each query re-arms
// every arc's capacity instead of building a network:
//  * set flows (x to a target set M): split arcs 1 (x: infinite), targets
//    absorb through in(m) -> sink at 1 and have no split arc and no arcs
//    leaving out(m), edge arcs 1;
//  * pair flows and cuts (x to y): split arcs 1 (x and y: infinite), edge
//    arcs infinite so every minimum cut crosses split arcs only, sink arcs 0.
// An arc that the classical per-query construction would omit (an avoided
// or seeded node's arcs, arcs out of a target, the direct x-y edge of a pair
// flow) stays in its slot at capacity 0. Zero-capacity arcs are skipped by
// the level BFS, the augmenting DFS and path extraction alike, and the live
// arcs keep the relative order a fresh construction gives them, so every
// path, cut and connectivity value equals that of a network built per
// query, bit for bit.
//
// Lifetime rule: a solver holds a reference to its graph and must not
// outlive it. Construct one per construction call (a routing build, a
// connectivity or cut computation), run all of that call's queries on it,
// and drop it on return; never keep one across graphs. A query checks its
// preconditions before it touches the network or the marks, and every query
// re-arms all arcs and marks from scratch, so a query rejected with
// ContractViolation leaves the solver fully usable.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/maxflow.hpp"

namespace ftr {

/// Menger queries on one reusable vertex-split network of a graph (see the
/// file comment for the layout and the lifetime rule).
class SplitFlowSolver {
 public:
  explicit SplitFlowSolver(const Graph& g);
  /// The solver keeps a reference to its graph: refuse temporaries.
  explicit SplitFlowSolver(const Graph&& g) = delete;

  const Graph& graph() const { return g_; }

  /// Maximum number of internally node-disjoint x-y paths.
  std::uint32_t local_connectivity(Node x, Node y);

  /// kappa(G) by Esfahanian–Hakimi, every pair on this solver.
  std::uint32_t node_connectivity();

  /// A minimum vertex cut of G (see ::ftr::min_vertex_cut).
  std::vector<Node> min_vertex_cut();

  /// A minimum x-y vertex cut (see ::ftr::min_vertex_cut_between).
  std::vector<Node> min_vertex_cut_between(Node x, Node y);

  /// Internally node-disjoint x-y paths (see ::ftr::disjoint_paths).
  std::vector<Path> disjoint_paths(Node x, Node y,
                                   std::optional<std::uint32_t> want = {});

  /// Paths from x to distinct target nodes (see ::ftr::disjoint_paths_to_set).
  std::vector<Path> disjoint_paths_to_set(Node x,
                                          const std::vector<Node>& target_set,
                                          const std::vector<Node>& avoid = {});

 private:
  void arm_pair(Node x, Node y);
  void arm_set(Node x);
  Path extract_unit_path(Node x, std::uint32_t sink);

  const Graph& g_;
  FlowNetwork net_;
  // Per-node query marks (kTarget / kAvoid / kSeeded bits), reset by every
  // set query.
  std::vector<std::uint8_t> role_;
};

/// Maximum number of internally node-disjoint x-y paths (Menger).
std::uint32_t local_node_connectivity(const Graph& g, Node x, Node y);

/// kappa(G). Returns 0 for disconnected graphs and n-1 for complete graphs.
/// Exact but O(n^2) max-flows in the worst case; intended for graphs up to
/// a few thousand nodes (the paper's constructions are all laptop-scale).
std::uint32_t node_connectivity(const Graph& g);

/// A minimum vertex cut of G: a set of kappa(G) nodes whose removal
/// disconnects G. Requires G connected and not complete.
std::vector<Node> min_vertex_cut(const Graph& g);

/// A minimum x-y vertex cut (nodes, excluding x and y). Requires x and y
/// non-adjacent and distinct.
std::vector<Node> min_vertex_cut_between(const Graph& g, Node x, Node y);

/// Maximum family of internally node-disjoint x-y paths. If `want` is set,
/// stops after that many paths. Each returned path starts at x and ends at
/// y; if {x,y} in E the direct edge is one of the paths.
std::vector<Path> disjoint_paths(const Graph& g, Node x, Node y,
                                 std::optional<std::uint32_t> want = {});

/// Maximum family of paths from x to distinct nodes of M, internally
/// node-disjoint, each containing exactly one node of M (its endpoint).
/// Any direct edge from x to a node of M is always used as a length-1 path
/// (this realizes the direct-edge rule in the paper's tree routing
/// definition and is never suboptimal). `avoid` nodes are treated as deleted.
/// x must not be in M; every id in M and `avoid` must be a node of g.
/// Paths are returned direct-edge paths first.
std::vector<Path> disjoint_paths_to_set(const Graph& g, Node x,
                                        const std::vector<Node>& target_set,
                                        const std::vector<Node>& avoid = {});

/// True if removing `cut` disconnects g (at least two nonempty components
/// among the remaining nodes). Used to validate separating sets.
bool is_separating_set(const Graph& g, const std::vector<Node>& cut);

}  // namespace ftr
