// Planned-table goldens: plans fixed graphs with fixed seeds and pins a
// digest of the saved routing table together with the chosen construction.
// Any change to the Menger engine (the split-network solver, Dinic, path
// extraction) or to a construction that alters a single route shows up
// here. The digests were recorded with the per-query FlowNetwork engine
// that preceded SplitFlowSolver, so they also pin that the reusable solver
// plans bit-identical tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/ftroute.hpp"

namespace ftr {
namespace {

// 64-bit FNV-1a over serialized bytes.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// Digest of the bytes save_routing_table writes.
std::uint64_t table_digest(const RoutingTable& table) {
  return fnv1a(routing_table_to_string(table));
}

std::uint64_t table_digest(const MultiRouteTable& table) {
  return fnv1a(multi_route_table_to_string(table));
}

struct GoldenCase {
  const char* label;
  GeneratedGraph (*make)();
  std::uint64_t plan_seed;
  const char* construction;
  std::uint64_t digest;
};

GeneratedGraph torus6() { return torus_graph(6, 6); }
GeneratedGraph torus12() { return torus_graph(12, 12); }
GeneratedGraph ccc5() { return cube_connected_cycles(5); }
GeneratedGraph hc7() { return hypercube(7); }
GeneratedGraph rr40() {
  Rng rng(20261017);
  return random_regular(40, 4, rng);
}
GeneratedGraph dodeca() { return dodecahedron(); }
GeneratedGraph petersen() { return petersen_graph(); }

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.label; }

const GoldenCase kCases[] = {
    {"torus6x6", torus6, 11, "circular", 0x63db0efe07bab9a0ULL},
    {"torus12x12", torus12, 12, "tri-circular (compact)",
     0x2977dc56a5246047ULL},
    {"ccc5", ccc5, 13, "tri-circular (full)", 0x7e28fb0502324549ULL},
    {"hypercube7", hc7, 14, "circular", 0xb5d6f7fca1722606ULL},
    {"random_regular40_4", rr40, 15, "circular", 0xc66a558a3c449e21ULL},
    {"dodecahedron", dodeca, 16, "bipolar (unidirectional)",
     0x8c9c8aa6fb464111ULL},
    {"petersen", petersen, 17, "kernel", 0xcbcc91e3039aed5bULL},
};

class PlannedGolden : public testing::TestWithParam<GoldenCase> {};

TEST_P(PlannedGolden, TableDigestAndConstructionMatch) {
  const GoldenCase& c = GetParam();
  const GeneratedGraph gg = c.make();
  Rng rng(c.plan_seed);
  // Connectivity is computed, not taken from the generator, so the
  // Esfahanian–Hakimi queries are pinned too.
  const PlannedRouting planned =
      build_planned_routing(gg.graph, std::nullopt, rng);
  EXPECT_EQ(std::string(construction_name(planned.plan.construction)),
            c.construction);
  EXPECT_EQ(table_digest(planned.table), c.digest)
      << std::hex << "0x" << table_digest(planned.table);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, PlannedGolden, testing::ValuesIn(kCases),
    [](const testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.label);
    });

// The constructions the planner never picks, built directly: the pair
// flows of the multiroutings, the cut of the augmented kernel, and the
// bidirectional bipolar routing.
TEST(ConstructionGolden, MultiroutingDigests) {
  const Graph q4 = hypercube(4).graph;
  const Graph torus = torus_graph(5, 5).graph;
  EXPECT_EQ(table_digest(build_full_multirouting(q4, 3)),
            0x05b8a31fd6884cd6ULL);
  EXPECT_EQ(table_digest(build_kernel_multirouting(torus, 3).table),
            0x87d35fb4c217fc4bULL);
  EXPECT_EQ(table_digest(build_mult_routing(torus, 3).table),
            0x455165461bf51087ULL);
}

TEST(ConstructionGolden, AugmentedAndBipolarDigests) {
  const Graph torus = torus_graph(5, 5).graph;
  EXPECT_EQ(table_digest(build_augmented_kernel(torus, 3, std::nullopt,
                                                AugmentVariant::kCycle)
                             .table),
            0xb6a3218974d320c0ULL);
  const Graph dodeca = dodecahedron().graph;
  const auto roots = find_two_trees(dodeca);
  ASSERT_TRUE(roots.has_value());
  EXPECT_EQ(table_digest(build_bipolar_bidirectional(dodeca, 2, *roots).table),
            0x6f2d51f614cc8357ULL);
}

}  // namespace
}  // namespace ftr
