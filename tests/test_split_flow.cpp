// Differential suite for SplitFlowSolver: every query answered on the
// solver's one reusable split network must equal, bit for bit, the answer
// of a network built fresh for that query. The reference below is the
// classical construction: a per-query vertex-split network holding only the
// arcs the query uses, solved by a plain Dinic (adjacency lists, full level
// BFS). Queries of all kinds are interleaved on one solver per graph, so
// state leaking from one query into the next would show as a mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <unordered_set>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"

namespace ftr {
namespace {

// ---------------------------------------------------------------------------
// Reference: a fresh network per query.

namespace ref {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
constexpr std::int64_t kNoLimit = std::numeric_limits<std::int64_t>::max();
constexpr std::uint32_t kNoLevel = std::numeric_limits<std::uint32_t>::max();

class Network {
 public:
  explicit Network(std::size_t n) : head_(n) {}

  void add_edge(std::uint32_t u, std::uint32_t v, std::int64_t cap) {
    const std::size_t id = to_.size();
    to_.push_back(v);
    cap_.push_back(cap);
    init_.push_back(cap);
    head_[u].push_back(id);
    to_.push_back(u);
    cap_.push_back(0);
    init_.push_back(0);
    head_[v].push_back(id + 1);
  }

  std::int64_t max_flow(std::uint32_t s, std::uint32_t t,
                        std::int64_t limit = kNoLimit) {
    std::int64_t flow = 0;
    while (flow < limit && bfs(s, t)) {
      iter_.assign(head_.size(), 0);
      while (flow < limit) {
        const std::int64_t got = dfs(s, t, limit - flow);
        if (got == 0) break;
        flow += got;
      }
    }
    return flow;
  }

  std::vector<char> reachable(std::uint32_t s) const {
    std::vector<char> seen(head_.size(), 0);
    std::deque<std::uint32_t> queue{s};
    seen[s] = 1;
    while (!queue.empty()) {
      const std::uint32_t u = queue.front();
      queue.pop_front();
      for (std::size_t id : head_[u]) {
        if (cap_[id] > 0 && !seen[to_[id]]) {
          seen[to_[id]] = 1;
          queue.push_back(to_[id]);
        }
      }
    }
    return seen;
  }

  // Follows and consumes one forward arc with flow out of u.
  std::uint32_t take_unit(std::uint32_t u) {
    for (std::size_t id : head_[u]) {
      if ((id & 1) != 0 || init_[id] - cap_[id] < 1) continue;
      cap_[id] += 1;
      cap_[id ^ 1] -= 1;
      return to_[id];
    }
    ADD_FAILURE() << "reference flow decomposition stalled at " << u;
    return u;
  }

 private:
  bool bfs(std::uint32_t s, std::uint32_t t) {
    level_.assign(head_.size(), kNoLevel);
    std::deque<std::uint32_t> queue{s};
    level_[s] = 0;
    while (!queue.empty()) {
      const std::uint32_t u = queue.front();
      queue.pop_front();
      for (std::size_t id : head_[u]) {
        if (cap_[id] > 0 && level_[to_[id]] == kNoLevel) {
          level_[to_[id]] = level_[u] + 1;
          queue.push_back(to_[id]);
        }
      }
    }
    return level_[t] != kNoLevel;
  }

  std::int64_t dfs(std::uint32_t u, std::uint32_t t, std::int64_t pushed) {
    if (u == t) return pushed;
    for (std::size_t& i = iter_[u]; i < head_[u].size(); ++i) {
      const std::size_t id = head_[u][i];
      const std::uint32_t v = to_[id];
      if (cap_[id] > 0 && level_[v] == level_[u] + 1) {
        const std::int64_t got = dfs(v, t, std::min(pushed, cap_[id]));
        if (got > 0) {
          cap_[id] -= got;
          cap_[id ^ 1] += got;
          return got;
        }
      }
    }
    return 0;
  }

  std::vector<std::vector<std::size_t>> head_;
  std::vector<std::uint32_t> to_;
  std::vector<std::int64_t> cap_, init_;
  std::vector<std::uint32_t> level_;
  std::vector<std::size_t> iter_;
};

std::uint32_t in_node(Node v) { return 2 * v; }
std::uint32_t out_node(Node v) { return 2 * v + 1; }

Network pair_network(const Graph& g, Node x, Node y, bool skip_direct_edge) {
  Network net(2 * g.num_nodes());
  for (Node v = 0; v < g.num_nodes(); ++v) {
    net.add_edge(in_node(v), out_node(v), (v == x || v == y) ? kInf : 1);
  }
  g.for_each_edge([&](Node u, Node v) {
    if (skip_direct_edge && ((u == x && v == y) || (u == y && v == x))) return;
    net.add_edge(out_node(u), in_node(v), kInf);
    net.add_edge(out_node(v), in_node(u), kInf);
  });
  return net;
}

Path unit_path(Network& net, Node x, std::uint32_t sink) {
  Path path{x};
  std::uint32_t cur = net.take_unit(out_node(x));
  while (cur != sink) {
    path.push_back(static_cast<Node>(cur / 2));
    cur = net.take_unit(cur);  // split arc (or into the sink)
    if (cur == sink) break;
    cur = net.take_unit(cur);  // edge arc
  }
  return path;
}

std::uint32_t local_connectivity(const Graph& g, Node x, Node y) {
  Network net = pair_network(g, x, y, true);
  return static_cast<std::uint32_t>(net.max_flow(out_node(x), in_node(y))) +
         (g.has_edge(x, y) ? 1 : 0);
}

std::vector<Path> disjoint_paths(const Graph& g, Node x, Node y,
                                 std::optional<std::uint32_t> want) {
  std::vector<Path> paths;
  std::uint32_t remaining = want.value_or(kUnreachable);
  if (remaining == 0) return paths;
  if (g.has_edge(x, y)) {
    paths.push_back(Path{x, y});
    --remaining;
  }
  if (remaining == 0) return paths;
  Network net = pair_network(g, x, y, true);
  const std::int64_t flow = net.max_flow(
      out_node(x), in_node(y),
      remaining == kUnreachable ? kNoLimit
                                : static_cast<std::int64_t>(remaining));
  for (std::int64_t i = 0; i < flow; ++i) {
    Path p = unit_path(net, x, in_node(y));
    p.push_back(y);
    paths.push_back(std::move(p));
  }
  return paths;
}

std::vector<Node> min_vertex_cut_between(const Graph& g, Node x, Node y) {
  Network net = pair_network(g, x, y, false);
  net.max_flow(out_node(x), in_node(y));
  const auto reach = net.reachable(out_node(x));
  std::vector<Node> cut;
  for (Node v = 0; v < g.num_nodes(); ++v) {
    if (v != x && v != y && reach[in_node(v)] && !reach[out_node(v)]) {
      cut.push_back(v);
    }
  }
  return cut;
}

// Esfahanian–Hakimi pairs, in the library's order; returns (kappa, argmin).
std::pair<std::uint32_t, std::pair<Node, Node>> eh_minimum(const Graph& g) {
  Node v = 0;
  for (Node u = 1; u < g.num_nodes(); ++u) {
    if (g.degree(u) < g.degree(v)) v = u;
  }
  std::uint32_t best = kUnreachable;
  std::pair<Node, Node> argmin{0, 0};
  auto consider = [&](Node a, Node b) {
    const std::uint32_t k = local_connectivity(g, a, b);
    if (k < best) {
      best = k;
      argmin = {a, b};
    }
  };
  for (Node u = 0; u < g.num_nodes(); ++u) {
    if (u != v && !g.has_edge(u, v)) consider(v, u);
  }
  const auto nbrs = g.neighbors(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      if (!g.has_edge(nbrs[i], nbrs[j])) consider(nbrs[i], nbrs[j]);
    }
  }
  const auto degree = static_cast<std::uint32_t>(g.degree(v));
  return {std::min(best, degree), argmin};
}

bool complete(const Graph& g) {
  const std::size_t n = g.num_nodes();
  return g.num_edges() == n * (n - 1) / 2;
}

std::uint32_t node_connectivity(const Graph& g) {
  const std::size_t n = g.num_nodes();
  if (n <= 1) return 0;
  if (complete(g)) return static_cast<std::uint32_t>(n - 1);
  if (!is_connected(g)) return 0;
  return eh_minimum(g).first;
}

std::vector<Node> min_vertex_cut(const Graph& g) {
  const auto argmin = eh_minimum(g).second;
  return ref::min_vertex_cut_between(g, argmin.first, argmin.second);
}

std::vector<Path> disjoint_paths_to_set(const Graph& g, Node x,
                                        const std::vector<Node>& target_set,
                                        const std::vector<Node>& avoid) {
  const std::unordered_set<Node> m_set(target_set.begin(), target_set.end());
  const std::unordered_set<Node> avoid_set(avoid.begin(), avoid.end());
  std::vector<Path> paths;
  std::unordered_set<Node> seeded;
  for (Node m : g.neighbors(x)) {
    if (m_set.count(m) && !avoid_set.count(m)) {
      paths.push_back(Path{x, m});
      seeded.insert(m);
    }
  }
  const auto n = static_cast<std::uint32_t>(g.num_nodes());
  const std::uint32_t sink = 2 * n;
  Network net(2 * n + 1);
  auto blocked = [&](Node v) {
    return avoid_set.count(v) != 0 || seeded.count(v) != 0;
  };
  for (Node v = 0; v < n; ++v) {
    if (blocked(v)) continue;
    if (m_set.count(v)) {
      net.add_edge(in_node(v), sink, 1);
    } else {
      net.add_edge(in_node(v), out_node(v), v == x ? kInf : 1);
    }
  }
  g.for_each_edge([&](Node u, Node v) {
    if (blocked(u) || blocked(v)) return;
    const bool u_target = m_set.count(u) != 0;
    const bool v_target = m_set.count(v) != 0;
    if (u_target && v_target) return;
    if (!u_target) net.add_edge(out_node(u), in_node(v), 1);
    if (!v_target) net.add_edge(out_node(v), in_node(u), 1);
  });
  const std::int64_t flow = net.max_flow(out_node(x), sink);
  for (std::int64_t i = 0; i < flow; ++i) {
    paths.push_back(unit_path(net, x, sink));
  }
  return paths;
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Random queries, interleaved on one solver.

Node random_node(const Graph& g, Rng& rng) {
  return static_cast<Node>(rng.below(g.num_nodes()));
}

// A target set for a set query from x: a random subset, a neighborhood
// shell, or a set that includes neighbors of x (the seeded direct edges).
std::vector<Node> random_targets(const Graph& g, Node x, Rng& rng) {
  std::vector<Node> targets;
  const std::uint64_t mode = rng.below(3);
  if (mode == 1) {
    const Node m = random_node(g, rng);
    for (Node v : g.neighbors(m)) {
      if (v != x) targets.push_back(v);
    }
  } else if (mode == 2) {
    for (Node v : g.neighbors(x)) {
      if (rng.chance(0.6)) targets.push_back(v);
    }
  }
  const std::size_t extra =
      1 + rng.below(std::min<std::size_t>(6, g.num_nodes()));
  for (std::size_t i = 0; i < extra; ++i) {
    const Node v = random_node(g, rng);
    if (v != x) targets.push_back(v);  // duplicates allowed
  }
  return targets;
}

std::vector<Node> random_avoid(const Graph& g, Node x, Rng& rng) {
  std::vector<Node> avoid;
  if (!rng.chance(0.5)) return avoid;
  const std::size_t count = rng.below(4);
  for (std::size_t i = 0; i < count; ++i) {
    const Node v = random_node(g, rng);
    if (v != x) avoid.push_back(v);  // may overlap the targets
  }
  return avoid;
}

// Runs `queries` random queries of every kind on one solver and compares
// each with the reference. Returns the number of queries compared.
std::size_t run_interleaved(const Graph& g, const std::string& label,
                            std::uint64_t seed, int queries) {
  SplitFlowSolver solver(g);
  Rng rng(seed);
  std::size_t compared = 0;
  EXPECT_EQ(solver.node_connectivity(), ref::node_connectivity(g)) << label;
  ++compared;
  if (g.num_nodes() < 2) return compared;
  for (int q = 0; q < queries; ++q) {
    const Node x = random_node(g, rng);
    Node y = random_node(g, rng);
    if (y == x) y = static_cast<Node>((x + 1) % g.num_nodes());
    const std::string at = label + " query " + std::to_string(q);
    switch (rng.below(5)) {
      case 0:
      case 1: {
        const auto targets = random_targets(g, x, rng);
        const auto avoid = random_avoid(g, x, rng);
        EXPECT_EQ(solver.disjoint_paths_to_set(x, targets, avoid),
                  ref::disjoint_paths_to_set(g, x, targets, avoid))
            << at << " (set from " << x << ")";
        break;
      }
      case 2: {
        std::optional<std::uint32_t> want;
        if (rng.chance(0.5)) want = static_cast<std::uint32_t>(rng.below(4));
        EXPECT_EQ(solver.disjoint_paths(x, y, want),
                  ref::disjoint_paths(g, x, y, want))
            << at << " (pair " << x << "," << y << ")";
        break;
      }
      case 3:
        EXPECT_EQ(solver.local_connectivity(x, y),
                  ref::local_connectivity(g, x, y))
            << at << " (kappa " << x << "," << y << ")";
        break;
      default:
        if (g.has_edge(x, y)) continue;
        EXPECT_EQ(solver.min_vertex_cut_between(x, y),
                  ref::min_vertex_cut_between(g, x, y))
            << at << " (cut " << x << "," << y << ")";
        break;
    }
    ++compared;
  }
  if (g.num_nodes() >= 2 && !ref::complete(g) && is_connected(g)) {
    EXPECT_EQ(solver.min_vertex_cut(), ref::min_vertex_cut(g)) << label;
    ++compared;
  }
  return compared;
}

TEST(SplitFlowDifferential, GeneratorFamilies) {
  Rng rng(31);
  GraphBuilder split(9);  // two components plus an isolated node
  for (Node v = 0; v < 4; ++v) split.add_edge(v, (v + 1) % 4);
  split.add_edge(4, 5);
  split.add_edge(5, 6);
  split.add_edge(6, 4);
  split.add_edge(6, 7);
  const GeneratedGraph families[] = {
      complete_graph(5),          cycle_graph(7),
      path_graph(6),              star_graph(5),
      complete_bipartite(3, 4),   grid_graph(3, 4),
      torus_graph(4, 5),          petersen_graph(),
      generalized_petersen(7, 2), dodecahedron(),
      desargues_graph(),          moebius_kantor_graph(),
      nauru_graph(),              circulant_graph(12, {1, 3}),
      hypercube(4),               cube_connected_cycles(3),
      butterfly(3),               wrapped_butterfly(3),
      de_bruijn(4),               shuffle_exchange(4),
      gnp(16, 0.3, rng),          gnp_connected(18, 0.25, rng),
      random_regular(20, 3, rng), {split.build(), "split", {}},
  };
  std::uint64_t seed = 100;
  std::size_t compared = 0;
  for (const auto& gg : families) {
    compared += run_interleaved(gg.graph, gg.name, seed++, 60);
  }
  EXPECT_GE(compared, 1000u);
}

TEST(SplitFlowDifferential, FuzzPlannerRandomModels) {
  // The random-graph models (and seed) of the planner fuzz suite.
  Rng rng(20260611);
  std::vector<GeneratedGraph> graphs;
  for (std::size_t d : {3u, 4u, 5u}) {
    for (int i = 0; i < 3; ++i) {
      graphs.push_back(random_regular(30 + 2 * d, d, rng));
    }
  }
  for (double mult : {1.6, 2.5, 4.0}) {
    for (int i = 0; i < 3; ++i) {
      const std::size_t n = 40;
      graphs.push_back(gnp(n, mult * std::log(double(n)) / double(n), rng));
    }
  }
  graphs.push_back(circulant_graph(26, {1, 5}));
  graphs.push_back(circulant_graph(30, {2, 3}));
  std::uint64_t seed = 500;
  for (const auto& gg : graphs) {
    run_interleaved(gg.graph, gg.name, seed++, 80);
  }
}

TEST(SplitFlowDifferential, ShellQueriesFromEverySource) {
  // The tree-routing workload: every source to one shell, then to a
  // minimum cut, on one solver.
  const Graph g = torus_graph(6, 7).graph;
  SplitFlowSolver solver(g);
  const auto shell_row = g.neighbors(20);
  const std::vector<Node> shell(shell_row.begin(), shell_row.end());
  const std::vector<Node> cut = ref::min_vertex_cut(g);
  for (Node x = 0; x < g.num_nodes(); ++x) {
    if (std::find(shell.begin(), shell.end(), x) == shell.end()) {
      EXPECT_EQ(solver.disjoint_paths_to_set(x, shell),
                ref::disjoint_paths_to_set(g, x, shell, {}))
          << "shell from " << x;
    }
    if (std::find(cut.begin(), cut.end(), x) == cut.end()) {
      EXPECT_EQ(solver.disjoint_paths_to_set(x, cut),
                ref::disjoint_paths_to_set(g, x, cut, {}))
          << "cut from " << x;
    }
  }
}

TEST(SplitFlowDifferential, RejectedQueryLeavesSolverUsable) {
  const Graph g = torus_graph(4, 4).graph;
  SplitFlowSolver solver(g);
  const std::vector<Node> targets = {5, 10, 15, 3};
  const auto expected = ref::disjoint_paths_to_set(g, 0, targets, {});
  const auto expected_pair = ref::disjoint_paths(g, 0, 10, std::nullopt);
  const auto expected_cut = ref::min_vertex_cut_between(g, 0, 10);

  auto check_still_exact = [&](const char* after) {
    EXPECT_EQ(solver.disjoint_paths_to_set(0, targets), expected) << after;
    EXPECT_EQ(solver.disjoint_paths(0, 10), expected_pair) << after;
    EXPECT_EQ(solver.min_vertex_cut_between(0, 10), expected_cut) << after;
  };

  check_still_exact("first use");
  EXPECT_THROW(solver.disjoint_paths_to_set(0, {5, 10, 9999}),
               ContractViolation);
  check_still_exact("out-of-range target");
  EXPECT_THROW(solver.disjoint_paths_to_set(0, targets, {4242}),
               ContractViolation);
  check_still_exact("out-of-range avoid");
  EXPECT_THROW(solver.disjoint_paths_to_set(5, targets), ContractViolation);
  check_still_exact("source in target set");
  EXPECT_THROW(solver.disjoint_paths_to_set(0, targets, {0}),
               ContractViolation);
  check_still_exact("source avoided");
  EXPECT_THROW(solver.min_vertex_cut_between(0, 1), ContractViolation);
  check_still_exact("adjacent cut");
  EXPECT_THROW(solver.disjoint_paths(3, 3), ContractViolation);
  check_still_exact("x == y");
  EXPECT_THROW(solver.local_connectivity(0, 16), ContractViolation);
  check_still_exact("out-of-range pair");
}

}  // namespace
}  // namespace ftr
