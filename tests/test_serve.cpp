// The batched query-serving layer. The central contracts:
//
//  * DIFFERENTIAL: every response the router emits equals the one computed
//    by issuing the same request one-at-a-time through the existing
//    single-table paths (check_tolerance / sweep_fault_source /
//    sweep_exhaustive_gray / measure_delivery_on), formatted per the
//    documented response grammar;
//  * INVARIANCE: serving output is bit-identical for any thread count, any
//    batch size, and any registry byte budget (eviction churn never leaks
//    into stdout);
//  * WARM REGISTRY: a request stream touching T tables costs exactly T
//    SrgIndex constructions, however many requests it carries (the
//    preprocessing-count probe);
//  * request-level failures become deterministic error responses, and the
//    request parser rejects malformed lines with 1-based line numbers.
#include "serve/request_router.hpp"

#include <gtest/gtest.h>

#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/fault_sweep.hpp"
#include "analysis/neighborhood.hpp"
#include "common/contracts.hpp"
#include "core/planner.hpp"
#include "fault/tolerance_check.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/circular.hpp"
#include "routing/kernel.hpp"
#include "routing/tricircular.hpp"
#include "sim/network_sim.hpp"

namespace ftr {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

struct NamedTable {
  std::string name;
  Graph g;
  RoutingTable table;
  std::uint32_t t;
};

// Kernel, circular, and tri-circular tables — the three construction
// families the sweep determinism suites pin; the serving layer is tested
// over the same spread.
std::vector<NamedTable> construction_tables() {
  std::vector<NamedTable> out;
  Rng rng(555);
  {
    const auto gg = torus_graph(5, 5);
    out.push_back({"ker", gg.graph,
                   build_kernel_routing(gg.graph, 3).table, 3});
    const auto m = neighborhood_set_of_size(gg.graph, 5, rng, 32);
    out.push_back({"cir", gg.graph,
                   build_circular_routing(gg.graph, 3, m).table, 3});
  }
  {
    const auto gg = cycle_graph(45);
    const auto m = neighborhood_set_of_size(gg.graph, 15, rng, 32);
    out.push_back({"tri", gg.graph,
                   build_tricircular_routing(gg.graph, 1, m,
                                             TriCircularVariant::kFull)
                       .table,
                   1});
  }
  return out;
}

void define_construction_tables(TableRegistry& registry) {
  for (const auto& entry : construction_tables()) {
    registry.define_prebuilt(entry.name, entry.g, entry.table);
  }
}

// The request mix the invariance tests replay: all four kinds, all three
// tables, interleaved so table groups straddle window boundaries.
std::vector<ServeRequest> mixed_requests() {
  std::vector<std::string> lines;
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t seed = 100 + round;
    lines.push_back("check ker f=2 claimed=6 seed=" + std::to_string(seed));
    lines.push_back("sweep cir f=3 sets=20 seed=" + std::to_string(seed));
    lines.push_back("delivery tri faults=1,5,9 pairs=4 seed=" +
                    std::to_string(seed));
    lines.push_back("sweep ker f=2 exhaustive seed=" + std::to_string(seed));
    lines.push_back("certify cir f=2 claimed=6 seed=" + std::to_string(seed));
    lines.push_back("delivery ker faults=0,12 pairs=6 seed=" +
                    std::to_string(seed));
  }
  std::vector<ServeRequest> out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out.push_back(parse_request_line(lines[i], i + 1));
  }
  return out;
}

std::string serve_to_string(TableRegistry& registry,
                            const std::vector<ServeRequest>& requests,
                            const ServeOptions& options,
                            ServeSummary* summary_out = nullptr) {
  ExplicitRequestSource source(requests);
  std::ostringstream out;
  const auto summary = serve_requests(registry, source, out, options);
  if (summary_out != nullptr) *summary_out = summary;
  return out.str();
}

std::string join_nodes(const std::vector<Node>& nodes) {
  if (nodes.empty()) return "-";
  std::string out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(nodes[i]);
  }
  return out;
}

std::string fmt_diameter(std::uint32_t d) {
  return d == kUnreachable ? "disconnected" : std::to_string(d);
}

TEST(Serve, DifferentialAgainstSingleTablePaths) {
  const auto tables = construction_tables();
  const auto& ker = tables[0];
  const auto& cir = tables[1];

  TableRegistry registry;
  define_construction_tables(registry);

  const std::vector<std::string> lines = {
      "check ker f=2 claimed=6 seed=5",
      "sweep cir f=3 sets=30 seed=9 pairs=4",
      "delivery ker faults=3,7 pairs=5 seed=11",
      "certify cir f=2 claimed=6 seed=13",
      "sweep ker f=2 exhaustive seed=1",
  };
  std::vector<ServeRequest> requests;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    requests.push_back(parse_request_line(lines[i], i + 1));
  }
  const std::string served = serve_to_string(registry, requests, {});

  // The same requests, one at a time, through the single-table layers.
  std::vector<std::string> expected;
  {
    ToleranceCheckOptions opts;
    opts.exec.threads = 1;
    Rng rng(5);
    const auto report = check_tolerance(ker.table, 2, 6, rng, opts);
    expected.push_back("#0 check ker " + report.summary() +
                       " worst=" + join_nodes(report.worst_faults));
  }
  {
    const SrgIndex index(cir.table);
    FaultSweepOptions opts;
    opts.seed = 9;
    opts.delivery_pairs = 4;
    SampledStreamSource source(cir.g.num_nodes(), 3, 30, 9);
    const auto s = sweep_fault_source(cir.table, index, source, opts);
    std::ostringstream os;
    os << "#1 sweep cir sets=" << s.total_sets
       << " worst=" << fmt_diameter(s.worst_diameter)
       << " worst_index=" << s.worst_index
       << " disconnected=" << s.disconnected
       << " worst_set=" << join_nodes(s.worst_faults)
       << " pairs=" << s.pairs_sampled << " delivered=" << s.delivered
       << " avg_route_hops=" << std::fixed << std::setprecision(3)
       << s.avg_route_hops << " max_route_hops=" << s.max_route_hops
       << " max_edge_hops=" << s.max_edge_hops;
    expected.push_back(os.str());
  }
  {
    const SrgIndex index(ker.table);
    SrgScratch scratch(index);
    const std::vector<Node> faults = {3, 7};
    const auto res = scratch.evaluate(faults);
    Rng rng(11);
    const auto d = measure_delivery_on(ker.table,
                                       scratch.last_surviving_graph(), 5, rng);
    std::ostringstream os;
    os << "#2 delivery ker faults=3,7 diameter=" << fmt_diameter(res.diameter)
       << " survivors=" << res.survivors << " arcs=" << res.arcs
       << " pairs=" << d.pairs_sampled << " delivered=" << d.delivered
       << " avg_route_hops=" << std::fixed << std::setprecision(3)
       << d.avg_route_hops << " max_route_hops=" << d.max_route_hops
       << " max_edge_hops=" << d.max_edge_hops;
    expected.push_back(os.str());
  }
  {
    ToleranceCheckOptions opts;
    opts.exec.threads = 1;
    Rng rng(13);
    const auto report = check_tolerance(cir.table, 2, 6, rng, opts);
    expected.push_back("#3 certify cir " + report.summary() +
                       " worst=" + join_nodes(report.worst_faults));
  }
  {
    const SrgIndex index(ker.table);
    FaultSweepOptions opts;
    opts.seed = 1;
    const auto s = sweep_exhaustive_gray(ker.table, index, 2, opts);
    std::ostringstream os;
    os << "#4 sweep ker sets=" << s.total_sets
       << " worst=" << fmt_diameter(s.worst_diameter)
       << " worst_index=" << s.worst_index
       << " disconnected=" << s.disconnected
       << " worst_set=" << join_nodes(s.worst_faults);
    expected.push_back(os.str());
  }

  std::string expected_text;
  for (const auto& line : expected) expected_text += line + '\n';
  EXPECT_EQ(served, expected_text);
}

TEST(Serve, OutputInvariantAcrossThreadsBatchesAndBudgets) {
  const auto requests = mixed_requests();

  std::string base;
  ServeSummary base_summary;
  {
    TableRegistry registry;
    define_construction_tables(registry);
    ServeOptions opts;
    base = serve_to_string(registry, requests, opts, &base_summary);
  }
  EXPECT_EQ(base_summary.requests, requests.size());
  EXPECT_EQ(base_summary.errors, 0u);

  for (const unsigned threads : kThreadCounts) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                    std::size_t{64}}) {
      TableRegistry registry;
      define_construction_tables(registry);
      ServeOptions opts;
      opts.exec.threads = threads;
      opts.exec.batch_size = batch;
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch));
      EXPECT_EQ(serve_to_string(registry, requests, opts), base);
    }
  }

  // An absurd batch_size is clamped, not overflowed: batch * workers
  // wrapping to a zero window would silently drop every request.
  {
    TableRegistry registry;
    define_construction_tables(registry);
    ServeOptions opts;
    opts.exec.threads = 8;
    opts.exec.batch_size = std::numeric_limits<std::size_t>::max() / 2;
    ServeSummary summary;
    EXPECT_EQ(serve_to_string(registry, requests, opts, &summary), base);
    EXPECT_EQ(summary.requests, requests.size());
  }

  // A starved byte budget churns the registry (evictions > 0) without
  // changing a single output byte.
  {
    TableRegistryOptions ropts;
    ropts.max_resident_bytes = 1;
    TableRegistry registry(ropts);
    define_construction_tables(registry);
    ServeOptions opts;
    opts.exec.threads = 2;
    opts.exec.batch_size = 2;
    ServeSummary summary;
    EXPECT_EQ(serve_to_string(registry, requests, opts, &summary), base);
    EXPECT_GT(summary.registry.evictions, 0u);
    EXPECT_GT(summary.registry.builds, 3u);  // rebuilt on readmission
  }
}

TEST(Serve, WarmRegistryBuildsEachTableOnce) {
  const auto requests = mixed_requests();
  TableRegistry registry;
  define_construction_tables(registry);

  ServeOptions opts;
  opts.exec.threads = 2;
  opts.exec.batch_size = 2;  // several windows -> several acquires per table
  ServeSummary summary;
  serve_to_string(registry, requests, opts, &summary);

  // 18 requests over 3 tables: exactly 3 preprocessings, the rest hits.
  EXPECT_EQ(summary.requests, requests.size());
  EXPECT_EQ(summary.registry.builds, 3u);
  EXPECT_EQ(summary.registry.misses, 3u);
  EXPECT_GT(summary.registry.hits, 0u);

  // A second stream over the same registry is all-warm: zero new builds.
  ServeSummary again;
  serve_to_string(registry, requests, opts, &again);
  EXPECT_EQ(again.registry.builds, 3u);
}

TEST(Serve, ErrorResponsesAreDeterministicAndCounted) {
  std::vector<ServeRequest> requests;
  requests.push_back(parse_request_line("check ker f=2 claimed=6 seed=5", 1));
  requests.push_back(parse_request_line("check ghost f=1 seed=2", 2));
  requests.push_back(
      parse_request_line("delivery ker faults=999 pairs=2 seed=3", 3));

  std::string base;
  for (const unsigned threads : kThreadCounts) {
    TableRegistry registry;
    define_construction_tables(registry);
    ServeOptions opts;
    opts.exec.threads = threads;
    ServeSummary summary;
    const auto text = serve_to_string(registry, requests, opts, &summary);
    EXPECT_EQ(summary.errors, 2u);
    EXPECT_EQ(summary.checks, 1u);
    EXPECT_NE(text.find("#1 check ghost error:"), std::string::npos) << text;
    EXPECT_NE(text.find("#2 delivery ker error:"), std::string::npos) << text;
    EXPECT_NE(text.find("out of range"), std::string::npos) << text;
    if (base.empty()) {
      base = text;
    } else {
      EXPECT_EQ(text, base) << "threads=" << threads;
    }
  }
}

// A worker's scratch carries its fault-set state from one delivery request
// to the next on the same table. A rejected request in between must not
// leave a trace: the valid request after it answers byte for byte as it
// would on a fresh server.
TEST(Serve, RejectedDeliveryLeavesWorkerScratchClean) {
  const std::string valid = "delivery ker faults=3,7,19 pairs=5 seed=11";
  std::vector<ServeRequest> stream;
  stream.push_back(parse_request_line("delivery ker faults=0,12 pairs=6 seed=2", 1));
  stream.push_back(parse_request_line("delivery ker faults=4,999 pairs=2 seed=3", 2));
  stream.push_back(parse_request_line(valid, 3));
  const std::vector<ServeRequest> alone = {parse_request_line(valid, 1)};

  const auto response_of = [](const std::string& text, const std::string& id) {
    const auto at = text.find(id + " delivery");
    EXPECT_NE(at, std::string::npos) << text;
    if (at == std::string::npos) return std::string();
    const auto body = at + id.size();
    return text.substr(body, text.find('\n', body) - body);
  };
  std::string fresh;
  {
    TableRegistry registry;
    define_construction_tables(registry);
    fresh = response_of(serve_to_string(registry, alone, ServeOptions{}), "#0");
  }
  ASSERT_FALSE(fresh.empty());
  for (const unsigned threads : kThreadCounts) {
    TableRegistry registry;
    define_construction_tables(registry);
    ServeOptions opts;
    opts.exec.threads = threads;
    ServeSummary summary;
    const auto text = serve_to_string(registry, stream, opts, &summary);
    EXPECT_EQ(summary.errors, 1u);
    EXPECT_NE(text.find("#1 delivery ker error:"), std::string::npos) << text;
    EXPECT_EQ(response_of(text, "#2"), fresh) << "threads=" << threads;
  }
}

TEST(Serve, CertifyUsesPlannerClaims) {
  // A planner-built entry carries its (d, f) claims; certify without
  // explicit bounds must verify exactly those.
  const auto gg = torus_graph(5, 5);
  Rng rng(42);
  const auto planned = build_planned_routing(gg.graph, gg.known_connectivity,
                                             rng);
  TableRegistry registry;
  registry.define_prebuilt("planned", gg.graph, planned.table, planned.plan);

  std::vector<ServeRequest> requests;
  requests.push_back(parse_request_line("certify planned seed=3", 1));
  TableRegistry no_claims;
  define_construction_tables(no_claims);
  std::vector<ServeRequest> bare;
  bare.push_back(parse_request_line("certify ker seed=3", 1));

  const auto text = serve_to_string(registry, requests, {});
  std::ostringstream claim;
  claim << "f=" << planned.plan.tolerated_faults << " claimed<="
        << planned.plan.guaranteed_diameter;
  EXPECT_NE(text.find("construction="), std::string::npos) << text;
  EXPECT_NE(text.find(claim.str()), std::string::npos) << text;
  EXPECT_NE(text.find("HOLDS"), std::string::npos) << text;

  // No plan and no explicit bounds: a deterministic error response.
  ServeSummary summary;
  const auto bare_text = serve_to_string(no_claims, bare, {}, &summary);
  EXPECT_EQ(summary.errors, 1u);
  EXPECT_NE(bare_text.find("no planner claims"), std::string::npos)
      << bare_text;
}

TEST(Serve, ParserRejectsMalformedLinesWithLineNumbers) {
  const auto expect_throw_mentioning = [](const std::string& line,
                                          const std::string& fragment) {
    try {
      parse_request_line(line, 7);
      FAIL() << "expected ContractViolation for: " << line;
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 7"), std::string::npos) << what;
      EXPECT_NE(what.find(fragment), std::string::npos) << what;
    }
  };
  expect_throw_mentioning("frobnicate ker f=1", "unknown request kind");
  expect_throw_mentioning("check", "missing table name");
  expect_throw_mentioning("check ker f=banana", "bad value");
  // 64-bit values that do not fit the 32-bit fields are rejected, never
  // silently wrapped (f=2^32+1 must not be served as f=1).
  expect_throw_mentioning("check ker f=4294967297", "out of range");
  expect_throw_mentioning("delivery ker faults=4294967296", "bad fault list");
  expect_throw_mentioning("check ker frobs=1", "unknown key");
  expect_throw_mentioning("check ker exhaustive", "sweep flag");
  expect_throw_mentioning("delivery ker pairs=2", "faults=<v,v,...>");
  expect_throw_mentioning("delivery ker faults=1,,2", "bad fault list");
  expect_throw_mentioning("sweep ker faults=1,2", "f=<count>");
  // Keys that are meaningless for the kind are rejected, not dropped — a
  // silently ignored claimed= would read as a verification that never ran.
  expect_throw_mentioning("sweep ker claimed=4", "not valid for sweep");
  expect_throw_mentioning("check ker sets=5", "not valid for check");
  expect_throw_mentioning("certify ker pairs=2", "not valid for certify");
  expect_throw_mentioning("delivery ker faults=1 f=2", "not valid for delivery");

  // Well-formed lines round-trip the grammar.
  const auto req =
      parse_request_line("sweep demo f=3 sets=50 seed=9 pairs=2 exhaustive", 4);
  EXPECT_EQ(req.kind, RequestKind::kSweep);
  EXPECT_EQ(req.table, "demo");
  EXPECT_EQ(req.faults, 3u);
  EXPECT_EQ(req.sets, 50u);
  EXPECT_EQ(req.seed, 9u);
  EXPECT_EQ(req.pairs, 2u);
  EXPECT_TRUE(req.exhaustive);
  EXPECT_EQ(req.line, 4u);

  const auto del = parse_request_line("delivery d faults=4,8,15", 2);
  EXPECT_EQ(del.fault_list, (std::vector<Node>{4, 8, 15}));
  EXPECT_EQ(del.pairs, 4u);  // delivery default
}

TEST(Serve, OversizedSweepIsRejectedNotExecuted) {
  // One astronomically sized sweep must come back as a deterministic error
  // response — never stall its window and the requests batched behind it.
  std::vector<ServeRequest> requests;
  requests.push_back(
      parse_request_line("sweep tri f=15 exhaustive seed=1", 1));  // C(45,15)
  requests.push_back(
      parse_request_line("sweep ker f=2 sets=999999999999 seed=2", 2));
  requests.push_back(parse_request_line("check ker f=1 claimed=6 seed=3", 3));

  TableRegistry registry;
  define_construction_tables(registry);
  ServeSummary summary;
  const auto text = serve_to_string(registry, requests, {}, &summary);
  EXPECT_EQ(summary.errors, 2u);
  EXPECT_EQ(summary.checks, 1u);
  EXPECT_NE(text.find("#0 sweep tri error:"), std::string::npos) << text;
  EXPECT_NE(text.find("#1 sweep ker error:"), std::string::npos) << text;
  EXPECT_NE(text.find("per-request cap"), std::string::npos) << text;
  EXPECT_NE(text.find("#2 check ker"), std::string::npos) << text;
}

TEST(Serve, MalformedLineMidStreamIsAnsweredNotFatal) {
  // A malformed line must become a deterministic error response AT ITS
  // INDEX — not a throw that cuts the stream after however many windows
  // already flushed (which would make the number of well-formed responses
  // depend on threads * batch_size).
  const std::string feed =
      "check ker f=2 claimed=6 seed=5\n"
      "check cir f=1 claimed=6 seed=6\n"
      "frobnicate what f=1\n"
      "check tri f=1 claimed=6 seed=7\n";

  std::string base;
  for (const unsigned threads : kThreadCounts) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
      TableRegistry registry;
      define_construction_tables(registry);
      ServeOptions opts;
      opts.exec.threads = threads;
      opts.exec.batch_size = batch;
      std::istringstream in(feed);
      IstreamRequestSource source(in);
      std::ostringstream out;
      const auto summary = serve_requests(registry, source, out, opts);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch));
      EXPECT_EQ(summary.requests, 4u);  // every line answered
      EXPECT_EQ(summary.errors, 1u);
      EXPECT_EQ(summary.checks, 3u);
      const auto text = out.str();
      EXPECT_NE(text.find("#2 error:"), std::string::npos) << text;
      EXPECT_NE(text.find("unknown request kind"), std::string::npos) << text;
      EXPECT_NE(text.find("#3 check tri"), std::string::npos) << text;
      if (base.empty()) {
        base = text;
      } else {
        EXPECT_EQ(text, base);
      }
    }
  }
}

TEST(Serve, IstreamSourceSkipsCommentsAndCountsLines) {
  std::istringstream in(
      "# header comment\n"
      "\n"
      "check a f=1 seed=2\n"
      "   \t  \n"
      "sweep b f=2 sets=5  # trailing comment\n");
  IstreamRequestSource source(in);
  ServeRequest req;
  ASSERT_TRUE(source.next(req));
  EXPECT_EQ(req.kind, RequestKind::kCheck);
  EXPECT_EQ(req.line, 3u);
  ASSERT_TRUE(source.next(req));
  EXPECT_EQ(req.kind, RequestKind::kSweep);
  EXPECT_EQ(req.table, "b");
  EXPECT_EQ(req.line, 5u);
  EXPECT_FALSE(source.next(req));
}

}  // namespace
}  // namespace ftr
