// perfbench_gen: the seeded workload generator.
//
//   perfbench_gen --workload <name> --seed <S> --out <dir> [--tiny]
//
// Writes every input one workload needs into <dir>: text graphs, text
// routing tables, binary snapshots, serve manifests, the serve request
// stream, and workload.txt (see spec.hpp), which names the tables, their
// fault counts, Gray rank windows, sample sizes and seeds. The same
// (workload, seed, tiny) always produces byte-identical files. This is the
// only program of the benchmark that uses the `gen` layer; the driver only
// reads what is written here.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/combinatorics.hpp"
#include "common/rng.hpp"
#include "core/planner.hpp"
#include "gen/generators.hpp"
#include "graph/graph_io.hpp"
#include "routing/serialization.hpp"
#include "spec.hpp"

namespace {

using perfbench::TableEntry;
using perfbench::WorkloadSpec;

struct Family {
  std::string id;
  std::string family;
  std::function<ftr::GeneratedGraph()> make;
};

Family torus(std::size_t r, std::size_t c) {
  return {"torus" + std::to_string(r) + "x" + std::to_string(c),
          "torus_" + std::to_string(r) + "x" + std::to_string(c),
          [r, c] { return ftr::torus_graph(r, c); }};
}
Family hypercube(std::size_t d) {
  return {"hc" + std::to_string(d), "hypercube_" + std::to_string(d),
          [d] { return ftr::hypercube(d); }};
}
Family ccc(std::size_t d) {
  return {"ccc" + std::to_string(d), "ccc_" + std::to_string(d),
          [d] { return ftr::cube_connected_cycles(d); }};
}

struct Built {
  TableEntry entry;
  ftr::Plan plan;
  std::size_t n = 0;
  std::size_t bytes = 0;  // what a registry charges for the entry
};

// Writes graph, text table and snapshot for one family; fills the entry's
// file names and plan seed. The routing is planned exactly like the
// `build` verb does (connectivity computed, planner seeded).
Built write_table(const std::string& dir, const Family& fam,
                  std::uint64_t plan_seed) {
  Built b;
  b.entry.id = fam.id;
  b.entry.family = fam.family;
  b.entry.graph = fam.id + ".ftg";
  b.entry.routes = fam.id + ".ftt";
  b.entry.snapshot = fam.id + ".ftsnap";
  b.entry.plan_seed = plan_seed;
  ftr::Graph g = fam.make().graph;
  {
    std::ofstream os(dir + "/" + b.entry.graph);
    ftr::save_graph(g, os);
  }
  ftr::Rng rng(plan_seed);
  ftr::PlannedRouting planned = ftr::build_planned_routing(g, std::nullopt, rng);
  ftr::save_routing_table_file(planned.table, dir + "/" + b.entry.routes);
  b.plan = planned.plan;
  b.n = g.num_nodes();
  const ftr::TableSnapshot snap =
      ftr::make_table_snapshot(std::move(g), std::move(planned.table),
                               planned.plan);
  ftr::save_table_snapshot_file(snap, dir + "/" + b.entry.snapshot);
  b.bytes = snap.graph.memory_bytes() + snap.table.memory_bytes() +
            snap.index->memory_bytes();
  return b;
}

// The whole f-subset space when it has at most `full` sets, else a window
// of `width` ranks at a seeded offset.
void set_window(TableEntry& t, std::size_t n, std::uint64_t full,
                std::uint64_t width, ftr::Rng& rng) {
  const std::uint64_t total = ftr::binomial(n, t.f);
  if (total <= full) {
    t.rank_begin = 0;
    t.rank_end = total;
    return;
  }
  t.rank_begin = rng.below(total - width + 1);
  t.rank_end = t.rank_begin + width;
}

// The planner seeds are fixed, not drawn from the workload seed. The
// planner's random choices change the routes, and with them the cost of
// every evaluation, so per-seed plans made round times differ between
// seeds by more than between runs of one seed (see perfbench/README.md).
// The workload seed varies the sampled work instead (rank windows, check
// and sweep seeds, fault sets).
constexpr std::uint64_t kPlanSeed = 42;

std::vector<Built> build_all(const std::string& dir,
                             const std::vector<Family>& fams) {
  std::vector<Built> out;
  for (std::size_t i = 0; i < fams.size(); ++i) {
    ftr::Rng r = ftr::Rng::stream(kPlanSeed, 1000 + i);
    out.push_back(write_table(dir, fams[i], r()));
  }
  return out;
}

// certify_gray / dist_sweep: exhaustive f=2 Gray work on n = 128..160 and a
// bounded rank window (or a sampled sweep) on n = 400. dist_sweep leaves out
// CCC(5): its distributed check alone would add ~1.4 s to every round.
std::vector<Built> gray_tables(const std::string& dir, std::uint64_t seed,
                               bool tiny, bool dist) {
  std::vector<Family> fams =
      tiny ? std::vector<Family>{hypercube(4), torus(5, 5), torus(6, 6)}
      : dist ? std::vector<Family>{hypercube(7), torus(12, 12), torus(20, 20)}
             : std::vector<Family>{hypercube(7), ccc(5), torus(12, 12),
                                   torus(20, 20)};
  std::vector<Built> tables = build_all(dir, fams);
  ftr::Rng rng = ftr::Rng::stream(seed, 1);
  // Whole spaces up to n = 160; a fixed-width window of the n = 400 space.
  const std::uint64_t full = tiny ? 320 : 16384;
  const std::uint64_t window = tiny ? 256 : 4096;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    TableEntry& t = tables[i].entry;
    t.f = 2;
    t.seed = rng();
    set_window(t, tables[i].n, full, window, rng);
    const bool last = i + 1 == tables.size();
    t.mode = "exhaustive";
    if (dist && last) {
      // The pool sweeps whole spaces only; the largest table gets the
      // workload's one sampled sweep instead.
      t.mode = "sampled";
      t.samples = tiny ? 256 : 1024;
      t.pairs = tiny ? 2 : 4;
    }
  }
  return tables;
}

// sampled_adversary: spaces far above the exhaustive budget (f=3 on torus,
// f=6 on hypercube), searched by sampling + hill-climbing, plus a sampled
// sweep with delivery pairs.
std::vector<Built> adversary_tables(const std::string& dir, std::uint64_t seed,
                                    bool tiny) {
  std::vector<Family> fams =
      tiny ? std::vector<Family>{torus(5, 5), hypercube(4)}
           : std::vector<Family>{torus(12, 12), torus(16, 16), hypercube(7)};
  std::vector<Built> tables = build_all(dir, fams);
  ftr::Rng rng = ftr::Rng::stream(seed, 2);
  for (std::size_t i = 0; i < tables.size(); ++i) {
    TableEntry& t = tables[i].entry;
    const bool cube = t.id.rfind("hc", 0) == 0;
    t.f = cube ? (tiny ? 3 : 6) : 3;
    t.mode = "sampled";
    t.samples = tiny ? 64 : 512;
    t.pairs = tiny ? 2 : 8;
    t.seed = rng();
  }
  return tables;
}

std::string join(const std::vector<std::size_t>& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  return os.str();
}

// serve_mix: ~6 tables materialized three ways on a miss (snapshot mmap,
// planner, text graph + text routing table), with Zipf-skewed popularity
// and a residency budget below the total. Tables are listed most popular
// first.
std::vector<Built> serve_tables(const std::string& dir, std::uint64_t seed,
                                bool tiny, WorkloadSpec& spec) {
  std::vector<Family> fams =
      tiny ? std::vector<Family>{torus(4, 4), hypercube(3), ccc(3)}
           : std::vector<Family>{torus(6, 6),  hypercube(5), ccc(3),
                                 torus(8, 8), hypercube(6), torus(12, 12)};
  std::vector<Built> tables = build_all(dir, fams);
  ftr::Rng rng = ftr::Rng::stream(seed, 3);

  for (auto& b : tables) b.entry.mode = "serve";
  spec.serve_manifest = "manifest.txt";
  std::size_t total_bytes = 0;
  {
    std::ofstream os(dir + "/" + spec.serve_manifest);
    for (std::size_t i = 0; i < tables.size(); ++i) {
      const TableEntry& t = tables[i].entry;
      total_bytes += tables[i].bytes;
      if (i % 2 == 0) {
        os << "table " << t.id << " snapshot=" << t.snapshot
           << " snapshot_load=mmap\n";
      } else if (i == 3) {
        os << "table " << t.id << " graph=" << t.graph
           << " routes=" << t.routes << '\n';
      } else {
        os << "table " << t.id << " graph=" << t.graph
           << " seed=" << t.plan_seed << '\n';
      }
    }
  }
  spec.serve_budget = total_bytes * 8 / 10;

  // The stream's composition and order are fixed; the seed picks each
  // request's fault sets and seeds, so every seed costs about the same.
  // Popularity is Zipf over the manifest order: table k gets a share
  // proportional to 1/(k+1). Kinds split 40% delivery, 30% sweep, 20%
  // check, 10% certify within every table's share. These proportions are
  // an assumed traffic model, not taken from a recorded trace; the traced
  // run prints each kind's measured share of the serving work.
  const std::size_t count = tiny ? 60 : 512;
  double norm = 0.0;
  for (std::size_t k = 0; k < tables.size(); ++k) norm += 1.0 / (k + 1.0);
  struct Slot {
    std::size_t table;
    int kind;  // 0 delivery, 1 sweep, 2 check, 3 certify
  };
  std::vector<Slot> slots;
  const double kind_share[4] = {0.4, 0.3, 0.2, 0.1};
  for (std::size_t k = 0; k < tables.size(); ++k) {
    const double share = count / (k + 1.0) / norm;
    for (int kind = 0; kind < 4; ++kind) {
      const auto m = static_cast<std::size_t>(share * kind_share[kind] + 0.5);
      for (std::size_t j = 0; j < std::max<std::size_t>(1, m); ++j) {
        slots.push_back({k, kind});
      }
    }
  }
  ftr::Rng fixed(0x5e7fe);
  const std::vector<std::size_t> order = fixed.permutation(slots.size());
  spec.serve_requests = "requests.txt";
  std::ofstream os(dir + "/" + spec.serve_requests);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = slots[order[i]];
    const Built& b = tables[slot.table];
    const std::string& name = b.entry.id;
    const std::uint64_t s = rng.below(1u << 30);
    const std::uint32_t small_f = b.n <= 64 ? 2 : 1;
    switch (slot.kind) {
      case 0:
        os << "delivery " << name << " faults=" << join(rng.sample(b.n, 2))
           << " pairs=8 seed=" << s << '\n';
        break;
      case 1:
        os << "sweep " << name << " f=2 sets=32 seed=" << s
           << " pairs=" << (order[i] % 2 == 0 ? 4 : 0) << '\n';
        break;
      case 2:
        os << "check " << name << " f=" << small_f
           << " claimed=" << b.plan.guaranteed_diameter << " seed=" << s
           << '\n';
        break;
      default:
        // claimed= is explicit: a table loaded from a text file has no
        // planner claim to default to.
        os << "certify " << name << " f=" << small_f
           << " claimed=" << b.plan.guaranteed_diameter << " seed=" << s
           << '\n';
    }
  }
  return tables;
}

int run(int argc, char** argv) {
  std::string workload, out;
  std::uint64_t seed = 0;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed = std::stoull(value());
    } else if (a == "--out") {
      out = value();
    } else if (a == "--tiny") {
      tiny = true;
    } else {
      throw std::runtime_error("unknown argument " + a);
    }
  }
  if (workload.empty() || out.empty()) {
    throw std::runtime_error(
        "usage: perfbench_gen --workload W --seed S --out DIR [--tiny]");
  }

  WorkloadSpec spec;
  spec.name = workload;
  spec.seed = seed;
  spec.tiny = tiny;
  std::vector<Built> tables;
  if (workload == "certify_gray") {
    tables = gray_tables(out, seed, tiny, /*dist=*/false);
  } else if (workload == "dist_sweep") {
    tables = gray_tables(out, seed, tiny, /*dist=*/true);
  } else if (workload == "sampled_adversary") {
    tables = adversary_tables(out, seed, tiny);
    if (tiny) {
      spec.adv_samples = 40;
      spec.adv_restarts = 2;
      spec.adv_steps = 6;
    }
  } else if (workload == "serve_mix") {
    tables = serve_tables(out, seed, tiny, spec);
  } else {
    throw std::runtime_error("unknown workload " + workload);
  }

  std::ofstream os(out + "/workload.txt");
  os << "workload name=" << spec.name << " seed=" << spec.seed
     << " tiny=" << (tiny ? 1 : 0) << '\n';
  for (const auto& b : tables) perfbench::write_table_line(os, b.entry);
  os << "adversary samples=" << spec.adv_samples
     << " restarts=" << spec.adv_restarts << " steps=" << spec.adv_steps
     << '\n';
  if (!spec.serve_manifest.empty()) {
    os << "serve manifest=" << spec.serve_manifest
       << " requests=" << spec.serve_requests
       << " budget=" << spec.serve_budget << '\n';
  }
  return os ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_gen: " << e.what() << '\n';
    return 1;
  }
}
