// The workload description the generator writes and the driver reads.
//
// One text file (workload.txt) per generated input directory. Every line is
// a kind followed by key=value tokens:
//
//   workload name=<workload> seed=<S> tiny=<0|1>
//   table id=<id> family=<family> graph=<file> routes=<file>
//         snapshot=<file> plan_seed=<S> f=<F> rank_begin=<R> rank_end=<R>
//         samples=<N> pairs=<P> seed=<S> mode=<exhaustive|sampled>
//   adversary samples=<N> restarts=<R> steps=<S>
//   serve manifest=<file> requests=<file> budget=<bytes>
//
// File names are relative to the directory holding workload.txt. The
// driver sees nothing else from the generator: no family objects, no
// generator state, only these files.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

struct TableEntry {
  std::string id;
  std::string family;    // "torus_12x12", for the report only
  std::string graph;     // text graph
  std::string routes;    // text routing table
  std::string snapshot;  // binary snapshot
  std::uint64_t plan_seed = 42;
  std::uint32_t f = 2;
  // Gray rank window [rank_begin, rank_end) of the exhaustive f-subsets.
  std::uint64_t rank_begin = 0;
  std::uint64_t rank_end = 0;
  std::uint64_t samples = 0;  // sampled sweep size
  std::uint64_t pairs = 0;    // delivery pairs per set
  std::uint64_t seed = 1;     // check / sweep seed
  // exhaustive: Gray sweep + check; sampled: sampled sweep (+ check).
  std::string mode = "exhaustive";
};

struct WorkloadSpec {
  std::string name;
  std::uint64_t seed = 0;
  bool tiny = false;
  std::vector<TableEntry> tables;
  std::uint64_t adv_samples = 200;
  std::uint64_t adv_restarts = 6;
  std::uint64_t adv_steps = 24;
  std::string serve_manifest;
  std::string serve_requests;
  std::uint64_t serve_budget = 0;
};

inline std::map<std::string, std::string> parse_kv(std::istringstream& in) {
  std::map<std::string, std::string> kv;
  std::string tok;
  while (in >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("workload spec: token without '=': " + tok);
    }
    kv[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return kv;
}

inline std::uint64_t kv_u64(const std::map<std::string, std::string>& kv,
                            const std::string& key, std::uint64_t fallback) {
  const auto it = kv.find(key);
  return it == kv.end() ? fallback : std::stoull(it->second);
}

inline std::string kv_str(const std::map<std::string, std::string>& kv,
                          const std::string& key) {
  const auto it = kv.find(key);
  return it == kv.end() ? std::string() : it->second;
}

inline WorkloadSpec read_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open workload spec " + path);
  WorkloadSpec spec;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    const auto kv = parse_kv(ls);
    if (kind == "workload") {
      spec.name = kv_str(kv, "name");
      spec.seed = kv_u64(kv, "seed", 0);
      spec.tiny = kv_u64(kv, "tiny", 0) != 0;
    } else if (kind == "table") {
      TableEntry t;
      t.id = kv_str(kv, "id");
      t.family = kv_str(kv, "family");
      t.graph = kv_str(kv, "graph");
      t.routes = kv_str(kv, "routes");
      t.snapshot = kv_str(kv, "snapshot");
      t.plan_seed = kv_u64(kv, "plan_seed", 42);
      t.f = static_cast<std::uint32_t>(kv_u64(kv, "f", 2));
      t.rank_begin = kv_u64(kv, "rank_begin", 0);
      t.rank_end = kv_u64(kv, "rank_end", 0);
      t.samples = kv_u64(kv, "samples", 0);
      t.pairs = kv_u64(kv, "pairs", 0);
      t.seed = kv_u64(kv, "seed", 1);
      t.mode = kv_str(kv, "mode");
      spec.tables.push_back(t);
    } else if (kind == "adversary") {
      spec.adv_samples = kv_u64(kv, "samples", 200);
      spec.adv_restarts = kv_u64(kv, "restarts", 6);
      spec.adv_steps = kv_u64(kv, "steps", 24);
    } else if (kind == "serve") {
      spec.serve_manifest = kv_str(kv, "manifest");
      spec.serve_requests = kv_str(kv, "requests");
      spec.serve_budget = kv_u64(kv, "budget", 0);
    } else {
      throw std::runtime_error("workload spec: unknown line kind " + kind);
    }
  }
  if (spec.name.empty() || spec.tables.empty()) {
    throw std::runtime_error("workload spec " + path + " is incomplete");
  }
  return spec;
}

inline void write_table_line(std::ostream& os, const TableEntry& t) {
  os << "table id=" << t.id << " family=" << t.family << " graph=" << t.graph
     << " routes=" << t.routes << " snapshot=" << t.snapshot
     << " plan_seed=" << t.plan_seed << " f=" << t.f
     << " rank_begin=" << t.rank_begin << " rank_end=" << t.rank_end
     << " samples=" << t.samples << " pairs=" << t.pairs << " seed=" << t.seed
     << " mode=" << t.mode << '\n';
}

}  // namespace perfbench
