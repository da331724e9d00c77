#include "graph/connectivity.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/contracts.hpp"
#include "graph/bfs.hpp"

namespace ftr {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

// Vertex-split network layout: in(v) = 2v, out(v) = 2v + 1.
std::uint32_t in_node(Node v) { return 2 * v; }
std::uint32_t out_node(Node v) { return 2 * v + 1; }

// Arc ids of the template (forward arcs are even; each is followed by its
// reverse): node v owns 4v (in(v) -> out(v)) and 4v + 2 (in(v) -> sink);
// the edges follow from 4n on, four ids per edge in for_each_edge order.
std::size_t split_arc(Node v) { return 4 * static_cast<std::size_t>(v); }
std::size_t sink_arc(Node v) { return split_arc(v) + 2; }

// Set-query node marks.
constexpr std::uint8_t kTarget = 1;
constexpr std::uint8_t kAvoid = 2;
constexpr std::uint8_t kSeeded = 4;  // reached by a direct edge from x

bool is_complete(const Graph& g) {
  const std::size_t n = g.num_nodes();
  return g.num_edges() == n * (n - 1) / 2;
}

Node min_degree_node(const Graph& g) {
  Node v = 0;
  for (Node u = 1; u < g.num_nodes(); ++u) {
    if (g.degree(u) < g.degree(v)) v = u;
  }
  return v;
}

// Esfahanian–Hakimi: with v a minimum-degree vertex, kappa is attained by
// a flow between v and a non-neighbor, or between two non-adjacent
// neighbors of v. Calls visit(a, b) for each such pair, in a fixed order.
template <typename Visit>
void for_each_eh_pair(const Graph& g, Node v, Visit&& visit) {
  for (Node u = 0; u < g.num_nodes(); ++u) {
    if (u != v && !g.has_edge(u, v)) visit(v, u);
  }
  const auto nbrs = g.neighbors(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      if (!g.has_edge(nbrs[i], nbrs[j])) visit(nbrs[i], nbrs[j]);
    }
  }
}

}  // namespace

SplitFlowSolver::SplitFlowSolver(const Graph& g)
    : g_(g), net_(2 * g.num_nodes() + 1), role_(g.num_nodes(), 0) {
  const auto sink = static_cast<std::uint32_t>(2 * g.num_nodes());
  for (Node v = 0; v < g.num_nodes(); ++v) {
    net_.add_edge(in_node(v), out_node(v), 0);
    net_.add_edge(in_node(v), sink, 0);
  }
  g.for_each_edge([&](Node u, Node v) {
    net_.add_edge(out_node(u), in_node(v), 0);
    net_.add_edge(out_node(v), in_node(u), 0);
  });
  net_.freeze();
}

// Pair flows: x and y get infinite self-capacity, every other node 1. Edge
// arcs carry infinite capacity so that every minimum cut crosses only split
// arcs — that is what makes the residual cut a *vertex* cut. (Flow on an
// edge arc still never exceeds 1: the adjacent split arcs bottleneck it.)
// The {x,y} edge, if any, is disarmed so callers count the direct edge
// separately (cut queries require x, y non-adjacent anyway).
void SplitFlowSolver::arm_pair(Node x, Node y) {
  for (Node v = 0; v < g_.num_nodes(); ++v) {
    net_.set_capacity(split_arc(v), (v == x || v == y) ? kInf : 1);
    net_.set_capacity(sink_arc(v), 0);
  }
  std::size_t id = split_arc(static_cast<Node>(g_.num_nodes()));
  g_.for_each_edge([&](Node u, Node v) {
    const bool direct = (u == x && v == y) || (u == y && v == x);
    net_.set_capacity(id, direct ? 0 : kInf);
    net_.set_capacity(id + 2, direct ? 0 : kInf);
    id += 4;
  });
}

// Set flows: target nodes can only absorb (in(m) -> sink, no split arc, no
// arcs out of out(m)), which encodes "stop at the first occurrence of a node
// from M"; avoided and seeded nodes lose every arc.
void SplitFlowSolver::arm_set(Node x) {
  auto blocked = [&](Node v) { return (role_[v] & (kAvoid | kSeeded)) != 0; };
  auto target = [&](Node v) { return (role_[v] & kTarget) != 0; };
  for (Node v = 0; v < g_.num_nodes(); ++v) {
    const bool live = !blocked(v);
    std::int64_t split = 0;
    if (live && !target(v)) split = v == x ? kInf : 1;
    net_.set_capacity(split_arc(v), split);
    net_.set_capacity(sink_arc(v), live && target(v) ? 1 : 0);
  }
  std::size_t id = split_arc(static_cast<Node>(g_.num_nodes()));
  g_.for_each_edge([&](Node u, Node v) {
    const bool live = !blocked(u) && !blocked(v);
    net_.set_capacity(id, live && !target(u) ? 1 : 0);
    net_.set_capacity(id + 2, live && !target(v) ? 1 : 0);
    id += 4;
  });
}

// Walks one unit of s-t flow out of the network, consuming it, and returns
// the sequence of original graph nodes visited. `sink` is in(y) for pair
// flows or the dedicated super-sink for set flows.
Path SplitFlowSolver::extract_unit_path(Node x, std::uint32_t sink) {
  // Consumes one unit on the first forward arc out of u that carries flow
  // (reverse arcs never carry forward flow) and returns its head.
  auto take_unit = [&](std::uint32_t u) {
    for (std::size_t id : net_.out_edges(u)) {
      if ((id & 1) == 0 && net_.flow_on(id) >= 1) {
        net_.consume_unit(id);
        return net_.edge_to(id);
      }
    }
    FTR_ASSERT_MSG(false, "flow decomposition stalled at network node " << u);
    return u;
  };
  Path path{x};
  std::uint32_t cur = take_unit(out_node(x));
  while (cur != sink) {
    // cur is in(v) for some graph node v: record v, hop its split arc (or
    // a target's arc into the sink), then the next edge arc.
    path.push_back(static_cast<Node>(cur / 2));
    cur = take_unit(cur);
    if (cur != sink) cur = take_unit(cur);
  }
  return path;
}

std::uint32_t SplitFlowSolver::local_connectivity(Node x, Node y) {
  FTR_EXPECTS(g_.valid_node(x) && g_.valid_node(y));
  FTR_EXPECTS(x != y);
  const bool direct = g_.has_edge(x, y);
  arm_pair(x, y);
  const std::int64_t flow = net_.max_flow(out_node(x), in_node(y));
  return static_cast<std::uint32_t>(flow) + (direct ? 1 : 0);
}

std::uint32_t SplitFlowSolver::node_connectivity() {
  const std::size_t n = g_.num_nodes();
  if (n <= 1) return 0;
  if (is_complete(g_)) return static_cast<std::uint32_t>(n - 1);
  if (!is_connected(g_)) return 0;

  const Node v = min_degree_node(g_);
  auto best = static_cast<std::uint32_t>(g_.degree(v));
  for_each_eh_pair(g_, v, [&](Node a, Node b) {
    best = std::min(best, local_connectivity(a, b));
  });
  return best;
}

std::vector<Node> SplitFlowSolver::min_vertex_cut_between(Node x, Node y) {
  FTR_EXPECTS(g_.valid_node(x) && g_.valid_node(y));
  FTR_EXPECTS(x != y);
  FTR_EXPECTS_MSG(!g_.has_edge(x, y),
                  "no vertex cut separates adjacent nodes " << x << "," << y);
  arm_pair(x, y);
  net_.max_flow(out_node(x), in_node(y));
  const auto reach = net_.residual_reachable(out_node(x));
  std::vector<Node> cut;
  for (Node v = 0; v < g_.num_nodes(); ++v) {
    if (v == x || v == y) continue;
    // A node is in the cut iff the min cut crosses its split edge.
    if (reach[in_node(v)] && !reach[out_node(v)]) cut.push_back(v);
  }
  return cut;
}

std::vector<Node> SplitFlowSolver::min_vertex_cut() {
  const std::size_t n = g_.num_nodes();
  FTR_EXPECTS_MSG(n >= 2, "cut undefined on trivial graph");
  FTR_EXPECTS_MSG(!is_complete(g_), "complete graphs have no vertex cut");
  FTR_EXPECTS_MSG(is_connected(g_), "graph must be connected");

  const Node v = min_degree_node(g_);
  std::uint32_t best = kUnreachable;
  std::pair<Node, Node> argmin{0, 0};
  auto consider = [&](Node a, Node b) {
    const std::uint32_t k = local_connectivity(a, b);
    if (k < best) {
      best = k;
      argmin = {a, b};
    }
  };
  for_each_eh_pair(g_, v, consider);
  FTR_ASSERT_MSG(best != kUnreachable, "no non-adjacent pair in non-complete graph");
  auto cut = min_vertex_cut_between(argmin.first, argmin.second);
  FTR_ENSURES(cut.size() == best);
  FTR_ENSURES(is_separating_set(g_, cut));
  return cut;
}

std::vector<Path> SplitFlowSolver::disjoint_paths(
    Node x, Node y, std::optional<std::uint32_t> want) {
  FTR_EXPECTS(g_.valid_node(x) && g_.valid_node(y));
  FTR_EXPECTS(x != y);
  std::vector<Path> paths;
  std::uint32_t remaining = want.value_or(kUnreachable);
  if (remaining == 0) return paths;
  if (g_.has_edge(x, y)) {
    paths.push_back(Path{x, y});
    --remaining;
  }
  if (remaining == 0) return paths;
  arm_pair(x, y);
  const std::int64_t flow =
      net_.max_flow(out_node(x), in_node(y),
                    remaining == kUnreachable ? FlowNetwork::kNoLimit
                                              : static_cast<std::int64_t>(remaining));
  for (std::int64_t i = 0; i < flow; ++i) {
    Path p = extract_unit_path(x, in_node(y));
    p.push_back(y);
    FTR_ASSERT(g_.is_simple_path(p));
    paths.push_back(std::move(p));
  }
  return paths;
}

std::vector<Path> SplitFlowSolver::disjoint_paths_to_set(
    Node x, const std::vector<Node>& target_set,
    const std::vector<Node>& avoid) {
  const std::size_t n = g_.num_nodes();
  FTR_EXPECTS(g_.valid_node(x));
  for (Node m : target_set) {
    FTR_EXPECTS_MSG(g_.valid_node(m),
                    "target id " << m << " is not a node (n = " << n << ")");
    FTR_EXPECTS_MSG(m != x, "source " << x << " lies inside target set");
  }
  for (Node a : avoid) {
    FTR_EXPECTS_MSG(g_.valid_node(a),
                    "avoid id " << a << " is not a node (n = " << n << ")");
    FTR_EXPECTS_MSG(a != x, "source " << x << " is in the avoid set");
  }
  std::fill(role_.begin(), role_.end(), 0);
  for (Node m : target_set) role_[m] |= kTarget;
  for (Node a : avoid) role_[a] |= kAvoid;

  std::vector<Path> paths;

  // The direct-edge rule of the paper's tree routings: whenever x has an
  // edge into the target set, the route to that target is the edge itself.
  // Including all such edges first is never suboptimal (each uses only the
  // target node, which can carry at most one path anyway).
  for (Node m : g_.neighbors(x)) {
    if (role_[m] == kTarget) {
      paths.push_back(Path{x, m});
      role_[m] |= kSeeded;
    }
  }

  // Remaining targets are reached by max-flow on the set-armed network.
  const auto sink = static_cast<std::uint32_t>(2 * n);
  arm_set(x);
  const std::int64_t flow = net_.max_flow(out_node(x), sink);
  for (std::int64_t i = 0; i < flow; ++i) {
    Path p = extract_unit_path(x, sink);
    FTR_ASSERT_MSG(p.size() >= 2, "set path must leave the source");
    FTR_ASSERT(g_.is_simple_path(p));
    FTR_ASSERT((role_[p.back()] & kTarget) != 0);
    paths.push_back(std::move(p));
  }
  return paths;
}

std::uint32_t local_node_connectivity(const Graph& g, Node x, Node y) {
  return SplitFlowSolver(g).local_connectivity(x, y);
}

std::uint32_t node_connectivity(const Graph& g) {
  return SplitFlowSolver(g).node_connectivity();
}

std::vector<Node> min_vertex_cut_between(const Graph& g, Node x, Node y) {
  return SplitFlowSolver(g).min_vertex_cut_between(x, y);
}

std::vector<Node> min_vertex_cut(const Graph& g) {
  return SplitFlowSolver(g).min_vertex_cut();
}

std::vector<Path> disjoint_paths(const Graph& g, Node x, Node y,
                                 std::optional<std::uint32_t> want) {
  return SplitFlowSolver(g).disjoint_paths(x, y, want);
}

std::vector<Path> disjoint_paths_to_set(const Graph& g, Node x,
                                        const std::vector<Node>& target_set,
                                        const std::vector<Node>& avoid) {
  return SplitFlowSolver(g).disjoint_paths_to_set(x, target_set, avoid);
}

bool is_separating_set(const Graph& g, const std::vector<Node>& cut) {
  const Graph reduced = g.without_nodes(cut);
  std::unordered_set<Node> cut_set(cut.begin(), cut.end());
  const auto comp = connected_components(reduced);
  std::unordered_set<std::uint32_t> comp_ids;
  for (Node v = 0; v < g.num_nodes(); ++v) {
    if (!cut_set.count(v)) comp_ids.insert(comp[v]);
  }
  return comp_ids.size() >= 2;
}

}  // namespace ftr
