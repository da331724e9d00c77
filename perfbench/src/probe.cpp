// Per-layer metrics of a traced run.
//
// Every metric is derived from spans of the workload's own set-up and
// rounds, plus a few probes that isolate what no workload call isolates:
//
//   * Gray kernel rates: bitset and packed, one thread, over the same f=2
//     rank window of each table the workload Gray-sweeps, and one packed
//     block on the largest of them;
//   * single-set costs: SrgScratch construction and one bitset evaluate;
//     and one measure_delivery call on workloads that simulate delivery;
//   * the thread speed-up: 1 thread vs nproc on the workload's own kind of
//     sweep (certify_gray, sampled_adversary);
//   * serve_mix: the layer calls its registry makes on a miss, timed one by
//     one along each manifest entry's own path; acquire hits and misses;
//     and execute_request once per request of the stream, per kind;
//   * dist_sweep: the pooled calls against their in-process twins, which
//     the correctness gate already runs.
//
// Probes run only on the workload's own tables and only for what the
// workload does (its tables' modes and delivery pairs, its request kinds,
// its in-process sweeps). The driver also gets the workload's layer map
// (--layers). The probes do not read it, so it can be checked: a mismatch
// between the map and the layers the spans show counts as a failure, and a
// metric of a layer outside the map reads 0.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/combinatorics.hpp"
#include "common/rng.hpp"
#include "core/planner.hpp"
#include "graph/graph_io.hpp"
#include "routing/serialization.hpp"
#include "sim/network_sim.hpp"

namespace perfbench {
namespace {

ftr::ExecPolicy policy(unsigned threads,
                       ftr::SrgKernel kernel = ftr::SrgKernel::kAuto) {
  ftr::ExecPolicy p;
  p.threads = threads;
  p.kernel = kernel;
  return p;
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

bool is_oracle(const Span& s) { return std::string(s.phase) == "oracle"; }

// Tables whose workload work runs Gray blocks: exhaustive sweeps and checks,
// and serve_mix's in-budget checks and certifies.
bool gray_table(const TableEntry& e) {
  return e.mode == "exhaustive" || e.mode == "serve";
}

struct Probe {
  explicit Probe(Ctx& c) : ctx(c), tr(c.tracer) {}

  Ctx& ctx;
  Tracer& tr;
  // The workload's tables as probe inputs, mapped untimed from the
  // generator's snapshots (one per table).
  std::vector<ftr::TableSnapshot> snaps;

  const std::vector<TableEntry>& tables() const { return ctx.spec.tables; }

  // Durations of the spans named `name` for table `ref`, from the
  // oracle's spans or from all others.
  std::vector<double> durations(const std::string& name,
                                const std::string& ref, bool oracle) const {
    std::vector<double> out;
    for (const auto& s : tr.spans()) {
      if (s.name == name && (ref.empty() || s.ref == ref) &&
          is_oracle(s) == oracle) {
        out.push_back(seconds_between(s.start, s.end));
      }
    }
    return out;
  }

  // The cost of one pass over the workload's tables: Σ over tables and
  // over the named calls of the median duration of that call on that
  // table.
  double pass_seconds(const std::vector<std::string>& names,
                      bool oracle = false) const {
    double sum = 0.0;
    for (const auto& e : tables()) {
      for (const auto& n : names) {
        const auto d = durations(n, e.id, oracle);
        if (!d.empty()) sum += median(d);
      }
    }
    return sum;
  }

  // The work of one pass: Σ over tables and over the named calls of the
  // work the first such call on that table did.
  std::uint64_t pass_work(const std::vector<std::string>& names) const {
    std::uint64_t sum = 0;
    for (const auto& e : tables()) {
      for (const auto& n : names) {
        for (const auto& s : tr.spans()) {
          if (s.ref == e.id && s.name == n && !is_oracle(s)) {
            sum += s.work;
            break;
          }
        }
      }
    }
    return sum;
  }

  // Σ work / Σ duration over every span with one of the names.
  double rate(const std::vector<std::string>& names) const {
    double work = 0.0, secs = 0.0;
    for (const auto& s : tr.spans()) {
      if (!is_oracle(s) &&
          std::find(names.begin(), names.end(), s.name) != names.end()) {
        work += static_cast<double>(s.work);
        secs += seconds_between(s.start, s.end);
      }
    }
    return secs > 0.0 ? work / secs : 0.0;
  }

  double mean_seconds(const std::string& name) const {
    const auto d = durations(name, "", false);
    double sum = 0.0;
    for (const double x : d) sum += x;
    return d.empty() ? 0.0 : sum / static_cast<double>(d.size());
  }

  std::size_t smallest() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < snaps.size(); ++i) {
      if (snaps[i].table.num_nodes() < snaps[best].table.num_nodes()) best = i;
    }
    return best;
  }

  // The workload simulates delivery: sweeps with delivery pairs, or
  // delivery requests.
  bool delivers() const {
    for (const auto& e : tables()) {
      if (e.pairs > 0) return true;
    }
    for (const auto& r : ctx.serve_stream) {
      if (r.kind == ftr::RequestKind::kDelivery) return true;
    }
    return false;
  }

  // The workload's own rounds sweep in-process (analysis spans outside
  // the oracle phase).
  bool sweeps_in_process() const {
    for (const auto& s : tr.spans()) {
      if (!is_oracle(s) && layer_of(s.name) == "analysis") return true;
    }
    return false;
  }

  // ---- probes --------------------------------------------------------------

  void load_inputs() {
    for (const auto& e : tables()) {
      snaps.push_back(ftr::load_table_snapshot_file(
          e.snapshot, ftr::SnapshotLoadMode::kMmap));
    }
  }

  // serve_mix: what the registry does on a miss, one call at a time along
  // each manifest entry's path (snapshot; graph + planner; graph + text
  // table), so graph, routing, core and the index build report separately.
  void construction() {
    std::ifstream in(ctx.spec.serve_manifest);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      std::string kind, id;
      if (!(ls >> kind >> id) || kind != "table") continue;
      const auto kv = parse_kv(ls);
      if (!kv_str(kv, "snapshot").empty()) {
        Scope s(tr, "routing.load_table_snapshot_file", id);
        ftr::load_table_snapshot_file(kv_str(kv, "snapshot"),
                                      ftr::SnapshotLoadMode::kMmap);
        continue;
      }
      ftr::Graph g;
      {
        Scope s(tr, "graph.load_graph", id);
        std::ifstream gin(kv_str(kv, "graph"));
        g = ftr::load_graph(gin);
      }
      ftr::RoutingTable t;
      if (!kv_str(kv, "routes").empty()) {
        Scope s(tr, "routing.load_routing_table", id);
        std::ifstream rin(kv_str(kv, "routes"));
        t = ftr::load_routing_table(rin);
        s.set_work(t.num_routes());
      } else {
        Scope s(tr, "core.build_planned_routing", id);
        ftr::Rng rng(kv_u64(kv, "seed", 42));
        t = ftr::build_planned_routing(g, std::nullopt, rng).table;
        s.set_work(t.num_routes());
      }
      Scope s(tr, "fault.SrgIndex", id);
      const ftr::SrgIndex idx(t);
      s.set_work(idx.num_routes());
    }
  }

  // Bitset vs packed, one thread, same f=2 rank window of every table the
  // workload Gray-sweeps. The two kernels' answers must agree.
  std::vector<std::pair<std::size_t, double>> ratio_by_n;  // (n, packed/bitset)
  std::size_t largest_gray = SIZE_MAX;
  void gray_kernels() {
    for (std::size_t i = 0; i < tables().size(); ++i) {
      const auto& e = tables()[i];
      if (!gray_table(e)) continue;
      const auto& t = snaps[i].table;
      const auto& idx = *snaps[i].index;
      const std::size_t n = t.num_nodes();
      const std::uint64_t total = ftr::binomial(n, 2);
      const std::uint64_t begin = e.f == 2 ? e.rank_begin : 0;
      const std::uint64_t len =
          std::min<std::uint64_t>(total - begin, n >= 256 ? 512
                                                 : n >= 128 ? 1024
                                                            : 2048);
      std::string answers[2];
      double rates[2] = {0.0, 0.0};
      const ftr::SrgKernel kernels[2] = {ftr::SrgKernel::kBitset,
                                         ftr::SrgKernel::kPacked};
      const char* names[2] = {"fault.gray_window.bitset",
                              "fault.gray_window.packed"};
      for (int k = 0; k < 2; ++k) {
        ftr::FaultSweepOptions so;
        so.exec = policy(1, kernels[k]);
        Scope s(tr, names[k], e.id);
        const auto p =
            ftr::sweep_exhaustive_gray_range(t, idx, 2, begin, begin + len, so);
        s.set_work(p.sets);
        rates[k] = static_cast<double>(p.sets) / s.stop();
        answers[k] = sweep_answer(e.id, p);
      }
      ctx.oracle(answers[0] == answers[1],
                 e.id + " bitset and packed Gray windows agree");
      ratio_by_n.emplace_back(n, rates[1] / rates[0]);
      if (largest_gray == SIZE_MAX ||
          n > snaps[largest_gray].table.num_nodes()) {
        largest_gray = i;
      }
      std::cout << "layer fault.gray table=" << e.id << " n=" << n
                << " routes=" << idx.num_routes() << " window=" << begin << ":"
                << begin + len << " bitset_sets_per_s=" << rates[0]
                << " packed_sets_per_s=" << rates[1]
                << " packed_over_bitset=" << rates[1] / rates[0]
                << " auto=" << ftr::srg_kernel_name(
                                   policy(1).resolved_kernel(true, e.pairs > 0))
                << '\n';
    }
  }

  // Packed over bitset on the smallest (or largest) Gray-swept table.
  double ratio_at(bool largest) const {
    if (ratio_by_n.empty()) return 0.0;
    auto best = ratio_by_n.front();
    for (const auto& r : ratio_by_n) {
      if (largest ? r.first > best.first : r.first < best.first) best = r;
    }
    return best.second;
  }

  unsigned lanes = 0;
  void packed_block() {
    if (largest_gray == SIZE_MAX) return;
    const std::size_t i = largest_gray;
    const auto& idx = *snaps[i].index;
    ftr::SrgScratch scratch(idx);
    scratch.set_kernel(ftr::SrgKernel::kPacked);
    lanes = scratch.lane_width();
    const std::size_t n = idx.num_nodes();
    ftr::GraySubsetEnumerator en(n, 2, 0);
    static ftr::SrgScratch::Result res[512];
    const std::size_t blocks =
        std::min<std::uint64_t>(4, ftr::binomial(n, 2) / lanes);
    for (std::size_t b = 0; b < std::max<std::size_t>(1, blocks); ++b) {
      const std::size_t count = std::min<std::uint64_t>(
          lanes, ftr::binomial(n, 2) - b * lanes);
      Scope s(tr, "fault.evaluate_gray_block", tables()[i].id);
      scratch.evaluate_gray_block(en, count, res);
      s.set_work(count);
      s.stop();
      if (!en.advance()) break;
    }
  }

  // Scratch construction and single-set bitset evaluation over seeded
  // fault sets of each table's f; delivery simulation on workloads that
  // simulate delivery.
  void single_set(bool delivery) {
    for (std::size_t i = 0; i < tables().size(); ++i) {
      const auto& e = tables()[i];
      const auto& t = snaps[i].table;
      const auto& idx = *snaps[i].index;
      for (int k = 0; k < 3; ++k) {
        Scope s(tr, "fault.SrgScratch", e.id);
        const ftr::SrgScratch scratch(idx);
      }
      ftr::SrgScratch scratch(idx);
      scratch.set_kernel(ftr::SrgKernel::kBitset);
      ftr::Rng rng = ftr::Rng::stream(e.seed, 5);
      for (int k = 0; k < 32; ++k) {
        const auto pick = rng.sample(t.num_nodes(), e.f);
        const std::vector<ftr::Node> set(pick.begin(), pick.end());
        Scope s(tr, "fault.SrgScratch::evaluate", e.id);
        scratch.evaluate(set);
        s.set_work(1);
      }
      if (!delivery) continue;
      for (int k = 0; k < 8; ++k) {
        const auto pick = rng.sample(t.num_nodes(), e.f);
        const std::vector<ftr::Node> set(pick.begin(), pick.end());
        Scope s(tr, "sim.measure_delivery", e.id);
        const auto d = ftr::measure_delivery(t, scratch, set, 16, rng);
        s.set_work(d.pairs_sampled);
      }
    }
  }

  // 1 thread vs nproc threads on the workload's own kind of sweep over its
  // smallest table: a Gray window (certify_gray) or a sampled sweep with
  // the table's delivery pairs (sampled_adversary).
  double speedup = 0.0;
  ftr::ExecutorStats executor;
  void threads() {
    const std::size_t i = smallest();
    const auto& e = tables()[i];
    const auto& t = snaps[i].table;
    const auto& idx = *snaps[i].index;
    const bool gray = gray_table(e);
    double secs[2] = {0.0, 0.0};
    const unsigned counts[2] = {1, ctx.nproc};
    for (int k = 0; k < 2; ++k) {
      ftr::FaultSweepOptions so;
      so.exec = policy(counts[k]);
      so.seed = e.seed;
      so.delivery_pairs = e.pairs;
      Scope s(tr, k == 0 ? "common.sweep_1thread" : "common.sweep_nthreads",
              e.id);
      ftr::ExecutorStats stats;
      if (gray) {
        const std::uint64_t len =
            std::min<std::uint64_t>(ftr::binomial(t.num_nodes(), e.f),
                                    std::uint64_t{ctx.nproc} * 2048);
        s.set_work(ftr::sweep_exhaustive_gray_range(t, idx, e.f, 0, len, so,
                                                    &stats)
                       .sets);
      } else {
        ftr::SampledStreamSource src(t.num_nodes(), e.f, 2048, e.seed);
        const auto sum = ftr::sweep_fault_source(t, idx, src, so);
        s.set_work(sum.total_sets);
        stats = sum.executor;
      }
      secs[k] = s.stop();
      if (k == 1) executor = stats;
    }
    speedup = secs[0] / secs[1];
  }

  // serve_mix: acquires on a fresh registry (cold, then warm), and
  // execute_request once per request of the stream, one at a time, with
  // one reused scratch per table as the router's workers keep.
  void serve() {
    ftr::TableRegistry reg;
    {
      std::ifstream in(ctx.spec.serve_manifest);
      ftr::load_table_manifest(in, reg);
    }
    for (const auto& e : tables()) {
      {
        Scope s(tr, "serve.acquire.miss", e.id);
        reg.acquire(e.id);
      }
      for (int k = 0; k < 5; ++k) {
        Scope s(tr, "serve.acquire.hit", e.id);
        reg.acquire(e.id);
      }
    }
    std::map<std::string, std::optional<ftr::SrgScratch>> scratches;
    double kind_s[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t kind_n[4] = {0, 0, 0, 0};
    for (const auto& r : ctx.serve_stream) {
      const auto handle = reg.acquire(r.table);
      auto& scratch = scratches[r.table];
      Scope s(tr,
              std::string("serve.execute_request.") +
                  ftr::request_kind_name(r.kind),
              r.table);
      const std::string body = ftr::execute_request(r, *handle, scratch);
      const int k = static_cast<int>(r.kind);
      kind_s[k] += s.stop();
      ++kind_n[k];
      if (body.find(" error: ") != std::string::npos) {
        ctx.fail("probe request failed: " + body);
      }
    }
    double total = 0.0;
    for (const double x : kind_s) total += x;
    const ftr::RequestKind kinds[4] = {
        ftr::RequestKind::kCheck, ftr::RequestKind::kSweep,
        ftr::RequestKind::kDelivery, ftr::RequestKind::kCertify};
    for (int k = 0; k < 4; ++k) {
      std::cout << "serve kind=" << ftr::request_kind_name(kinds[k])
                << " requests=" << kind_n[k] << " share_of_requests="
                << static_cast<double>(kind_n[k]) /
                       static_cast<double>(ctx.serve_stream.size())
                << " service_s=" << kind_s[k]
                << " share_of_service=" << (total > 0 ? kind_s[k] / total : 0)
                << '\n';
    }
  }

  // dist_sweep: one round's pooled calls against the same calls in-process
  // at equal total threads, which the correctness gate ran.
  double dist_overhead() const {
    const double pooled =
        pass_seconds({"dist.sweep_exhaustive", "dist.sweep_sampled",
                      "dist.check_tolerance_distributed"});
    const double local =
        pass_seconds({"analysis.sweep_exhaustive_gray",
                      "analysis.sweep_fault_source", "fault.check_tolerance"},
                     /*oracle=*/true);
    return pooled > 0.0 ? 1.0 - local / pooled : 0.0;
  }

  // The layers the workload's own calls and the probes reached must be
  // exactly the workload's layer map.
  void check_layer_map() {
    std::set<std::string> seen;
    for (const auto& s : tr.spans()) {
      if (!is_oracle(s)) seen.insert(layer_of(s.name));
    }
    const std::set<std::string> want(ctx.layers.begin(), ctx.layers.end());
    if (seen != want) {
      std::string got;
      for (const auto& l : seen) got += (got.empty() ? "" : ",") + l;
      ctx.fail("layers timed (" + got + ") differ from the layer map");
    }
  }
};

}  // namespace

std::vector<Metric> layer_metrics(Ctx& ctx, double trace_overhead) {
  ctx.tracer.on = true;
  ctx.tracer.phase = "probe";
  const std::set<std::string> layers(ctx.layers.begin(), ctx.layers.end());
  const bool serve_mix = ctx.spec.name == "serve_mix";
  Probe p(ctx);
  p.load_inputs();
  if (serve_mix) p.construction();
  p.gray_kernels();
  p.packed_block();
  p.single_set(p.delivers());
  if (p.sweeps_in_process()) p.threads();
  if (serve_mix) p.serve();
  p.check_layer_map();

  const auto& tables = ctx.spec.tables;
  std::uint64_t snapshot_bytes = 0, index_bytes = 0;
  double auto_packed = 0.0;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    if (p.tr.has("routing.load_table_snapshot_file", tables[i].id)) {
      std::ifstream in(tables[i].snapshot, std::ios::binary | std::ios::ate);
      snapshot_bytes += static_cast<std::uint64_t>(in.tellg());
    }
    index_bytes += p.snaps[i].index->memory_bytes();
    if (policy(1).resolved_kernel(gray_table(tables[i]),
                                  tables[i].pairs > 0) ==
        ftr::SrgKernel::kPacked) {
      auto_packed += 1.0;
    }
  }
  const ftr::TableRegistryStats serve =
      ctx.serve_stats ? *ctx.serve_stats : ftr::TableRegistryStats{};
  const std::vector<std::string> sweeps = {
      "analysis.sweep_exhaustive_gray_range", "analysis.sweep_exhaustive_gray",
      "analysis.sweep_fault_source"};
  const double passes =
      static_cast<double>(std::max<std::uint64_t>(1, ctx.dist_passes));
  auto kind_p50 = [&](const char* kind) {
    return median(p.durations(std::string("serve.execute_request.") + kind,
                              "", false)) *
           1e3;
  };

  std::vector<Metric> m = {
      {"graph.load_s", p.pass_seconds({"graph.load_graph"}), "s"},
      {"routing.table_load_s", p.pass_seconds({"routing.load_routing_table"}),
       "s"},
      {"routing.snapshot_load_s",
       p.pass_seconds({"routing.load_table_snapshot_file"}), "s"},
      {"routing.snapshot_bytes", static_cast<double>(snapshot_bytes), "bytes"},
      {"core.plan_s", p.pass_seconds({"core.build_planned_routing"}), "s"},
      {"core.routes",
       static_cast<double>(p.pass_work({"core.build_planned_routing"})),
       "count"},
      {"fault.index_build_s", p.pass_seconds({"fault.SrgIndex"}), "s"},
      {"fault.index_bytes", static_cast<double>(index_bytes), "bytes"},
      {"fault.gray_bitset_sets_per_s", p.rate({"fault.gray_window.bitset"}),
       "1/s"},
      {"fault.gray_packed_sets_per_s", p.rate({"fault.gray_window.packed"}),
       "1/s"},
      {"fault.packed_over_bitset_min_n", p.ratio_at(false), "ratio"},
      {"fault.packed_over_bitset_max_n", p.ratio_at(true), "ratio"},
      {"fault.packed_block_ms", p.mean_seconds("fault.evaluate_gray_block") * 1e3,
       "ms"},
      {"fault.packed_lanes", static_cast<double>(p.lanes), "count"},
      {"fault.auto_kernel", auto_packed / static_cast<double>(tables.size()),
       "share"},
      {"fault.scratch_init_ms", p.mean_seconds("fault.SrgScratch") * 1e3, "ms"},
      {"fault.bitset_eval_us",
       p.mean_seconds("fault.SrgScratch::evaluate") * 1e6, "us"},
      {"fault.check_s", p.pass_seconds({"fault.check_tolerance"}), "s"},
      {"fault.check_evals",
       static_cast<double>(p.pass_work({"fault.check_tolerance"})), "count"},
      {"fault.check_evals_per_s", p.rate({"fault.check_tolerance"}), "1/s"},
      {"fault.oracle_checks", static_cast<double>(ctx.oracle_checks), "count"},
      {"fault.oracle_mismatches", static_cast<double>(ctx.oracle_mismatches),
       "count"},
      {"analysis.sweep_s", p.pass_seconds(sweeps), "s"},
      {"analysis.sweep_sets", static_cast<double>(p.pass_work(sweeps)),
       "count"},
      {"analysis.sweep_sets_per_s", p.rate(sweeps), "1/s"},
      {"common.threads", static_cast<double>(ctx.nproc), "count"},
      {"common.speedup", p.speedup, "ratio"},
      {"common.efficiency", p.speedup / static_cast<double>(ctx.nproc),
       "ratio"},
      {"common.chunks_local", static_cast<double>(p.executor.chunks_local),
       "count"},
      {"common.chunks_stolen", static_cast<double>(p.executor.chunks_stolen),
       "count"},
      {"common.steal_attempts", static_cast<double>(p.executor.steal_attempts),
       "count"},
      {"sim.delivery_us", p.mean_seconds("sim.measure_delivery") * 1e6, "us"},
      {"sim.pairs",
       static_cast<double>(p.pass_work({"sim.measure_delivery"})), "count"},
      {"serve.acquire_hit_us", p.mean_seconds("serve.acquire.hit") * 1e6, "us"},
      {"serve.acquire_miss_ms", p.mean_seconds("serve.acquire.miss") * 1e3,
       "ms"},
      {"serve.hits", static_cast<double>(serve.hits), "count"},
      {"serve.misses", static_cast<double>(serve.misses), "count"},
      {"serve.builds", static_cast<double>(serve.builds), "count"},
      {"serve.snapshot_loads", static_cast<double>(serve.snapshot_loads),
       "count"},
      {"serve.evictions", static_cast<double>(serve.evictions), "count"},
      {"serve.resident_bytes", static_cast<double>(serve.resident_bytes),
       "bytes"},
      {"serve.check_p50_ms", kind_p50("check"), "ms"},
      {"serve.sweep_p50_ms", kind_p50("sweep"), "ms"},
      {"serve.delivery_p50_ms", kind_p50("delivery"), "ms"},
      {"serve.certify_p50_ms", kind_p50("certify"), "ms"},
      {"dist.pool_start_s",
       median(p.durations("dist.DistSweepPool", "", false)), "s"},
      {"dist.units", static_cast<double>(ctx.dist.units_dispatched) / passes,
       "count"},
      {"dist.bytes_tx", static_cast<double>(ctx.dist.bytes_tx) / passes,
       "bytes"},
      {"dist.bytes_rx", static_cast<double>(ctx.dist.bytes_rx) / passes,
       "bytes"},
      {"dist.busy_frac",
       ctx.dist_wall_s > 0.0 ? ctx.dist_busy_s / ctx.dist_wall_s : 0.0,
       "ratio"},
      {"dist.units_retried", static_cast<double>(ctx.dist.units_retried),
       "count"},
      {"dist.units_inline", static_cast<double>(ctx.dist.units_inline),
       "count"},
      {"dist.overhead", p.dist_overhead(), "ratio"},
      {"trace.overhead", trace_overhead, "ratio"},
  };
  // A layer the workload does not call reports 0, not a figure borrowed
  // from a synthetic call.
  for (auto& x : m) {
    const std::string layer = layer_of(x.name);
    if (layer != "trace" && layers.count(layer) == 0) x.value = 0.0;
  }
  return m;
}

}  // namespace perfbench
