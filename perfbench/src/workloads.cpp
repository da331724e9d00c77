// The four workloads: what each sets up, what one round of its timed phase
// calls, and how its answers are checked.
#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include "bench.hpp"
#include "common/combinatorics.hpp"
#include "common/rng.hpp"
#include "core/planner.hpp"
#include "fault/surviving.hpp"
#include "graph/bfs.hpp"
#include "graph/graph_io.hpp"
#include "routing/serialization.hpp"

namespace perfbench {

// ---- helpers ----------------------------------------------------------------

std::string fmt_nodes(const std::vector<ftr::Node>& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  return os.str();
}

std::string sweep_answer(const std::string& id,
                         const ftr::SweepPartial& p) {
  std::ostringstream os;
  os << "sweep " << id << " sets=" << p.sets << " worst=" << p.worst_diameter
     << " at=" << p.worst_index << " set=" << fmt_nodes(p.worst_faults)
     << " disconnected=" << p.disconnected << " hist=";
  for (const auto h : p.diameter_histogram) os << h << ',';
  os << " pairs=" << p.pairs_sampled << " delivered=" << p.delivered
     << " hops=" << p.route_hops_total << " max_hops=" << p.max_route_hops
     << " max_edge_hops=" << p.max_edge_hops;
  return os.str();
}

std::string check_answer(const std::string& id,
                         const ftr::ToleranceReport& r) {
  return "check " + id + " " + r.summary() + " worst=" +
         fmt_nodes(r.worst_faults);
}

std::uint32_t oracle_diameter(const ftr::RoutingTable& table,
                              const std::vector<ftr::Node>& faults) {
  return ftr::surviving_diameter(table, faults);
}

ftr::SweepPartial partial_of(const ftr::FaultSweepSummary& s) {
  ftr::SweepPartial p;
  p.sets = s.total_sets;
  p.diameter_histogram = s.diameter_histogram;
  p.disconnected = s.disconnected;
  p.have_worst = s.total_sets > 0;
  p.worst_diameter = s.worst_diameter;
  p.worst_index = s.worst_index;
  p.worst_faults = s.worst_faults;
  p.pairs_sampled = s.pairs_sampled;
  p.delivered = s.delivered;
  p.max_route_hops = s.max_route_hops;
  p.max_edge_hops = s.max_edge_hops;
  // The summary keeps the mean only; rebuild the exact total from it.
  p.route_hops_total = static_cast<std::uint64_t>(
      s.avg_route_hops * static_cast<double>(s.delivered) + 0.5);
  return p;
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::uint64_t peak_rss_kb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6));
    }
  }
  return 0;
}

std::uint64_t children_peak_rss_kb() {
  std::uint64_t total = 0;
  const std::string self = std::to_string(getpid());
  DIR* d = opendir(("/proc/" + self + "/task").c_str());
  if (d == nullptr) return 0;
  while (const dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in("/proc/" + self + "/task/" + e->d_name + "/children");
    std::string pid;
    while (in >> pid) total += peak_rss_kb(pid);
  }
  closedir(d);
  return total;
}

void absorb_pool(Ctx& ctx, const ftr::DistSweepPool& pool, double wall_s) {
  const ftr::DistStats& s = pool.stats();
  ctx.dist.units_dispatched += s.units_dispatched;
  ctx.dist.units_completed += s.units_completed;
  ctx.dist.units_retried += s.units_retried;
  ctx.dist.units_inline += s.units_inline;
  ctx.dist.bytes_tx += s.bytes_tx;
  ctx.dist.bytes_rx += s.bytes_rx;
  for (const auto& w : s.per_worker) ctx.dist_busy_s += w.busy_seconds;
  ctx.dist_wall_s += wall_s * static_cast<double>(pool.options().workers);
  ctx.dist_worker_peak_kb =
      std::max(ctx.dist_worker_peak_kb, children_peak_rss_kb());
}

namespace {

ftr::ExecPolicy policy(unsigned threads) {
  ftr::ExecPolicy p;
  p.threads = threads;
  return p;
}

// The set at `index` of a seeded sampled stream.
std::vector<ftr::Node> sampled_set(std::size_t n, std::size_t f,
                                   std::uint64_t seed, std::uint64_t index) {
  ftr::SampledStreamSource src(n, f, 1, seed, index);
  std::vector<ftr::Node> out;
  src.next(out);
  return out;
}

// Checks a sweep's internal consistency and its worst witness; re-evaluates
// a seeded sample of its sets through the production path (one-set sweeps
// on the same kernel choice) and through the one-shot oracle.
void verify_sweep(Ctx& ctx, const TableEntry& e, const ftr::RoutingTable& t,
                  const ftr::SrgIndex& idx, const ftr::SweepPartial& p,
                  bool gray, std::uint64_t expected_sets) {
  std::uint64_t histo = p.disconnected;
  for (const auto h : p.diameter_histogram) histo += h;
  ctx.oracle(p.sets == expected_sets && histo == p.sets,
             e.id + " sweep set count");
  ctx.oracle(oracle_diameter(t, p.worst_faults) == p.worst_diameter,
             e.id + " sweep worst witness " + fmt_nodes(p.worst_faults));
  const std::size_t n = t.num_nodes();
  ftr::Rng rng = ftr::Rng::stream(ctx.spec.seed ^ e.seed, 77);
  const int samples = n >= 256 ? 2 : 4;
  for (int k = 0; k < samples; ++k) {
    std::vector<ftr::Node> set;
    std::uint32_t production = 0;
    ftr::FaultSweepOptions one;
    one.exec = policy(1);
    if (gray) {
      const std::uint64_t r =
          e.rank_begin + rng.below(std::max<std::uint64_t>(
                             1, e.rank_end - e.rank_begin));
      const auto s = ftr::gray_subset_at_rank(n, e.f, r);
      set.assign(s.begin(), s.end());
      production =
          ftr::sweep_exhaustive_gray_range(t, idx, e.f, r, r + 1, one)
              .worst_diameter;
    } else {
      const std::uint64_t i = rng.below(std::max<std::uint64_t>(1, e.samples));
      set = sampled_set(n, e.f, e.seed, i);
      ftr::SampledStreamSource src(n, e.f, 1, e.seed, i);
      production = ftr::sweep_fault_source(t, idx, src, one).worst_diameter;
    }
    const std::uint32_t truth = oracle_diameter(t, set);
    ctx.oracle(production == truth && (truth <= p.worst_diameter ||
                                       p.worst_diameter == ftr::kUnreachable),
               e.id + " sampled set " + fmt_nodes(set));
  }
}

void verify_check(Ctx& ctx, const TableEntry& e, const ftr::RoutingTable& t,
                  const ftr::ToleranceReport& r) {
  ctx.oracle(oracle_diameter(t, r.worst_faults) == r.worst_diameter,
             e.id + " check worst witness " + fmt_nodes(r.worst_faults));
  if (r.exhaustive) {
    ctx.oracle(r.fault_sets_checked == ftr::binomial(t.num_nodes(), r.faults),
               e.id + " exhaustive check count");
  }
}

void describe_table(const TableEntry& e, const ftr::RoutingTable& t,
                    const ftr::SrgIndex& idx, const ftr::Plan& plan) {
  const ftr::ExecPolicy p;
  const auto k = p.resolved_kernel(true, e.pairs > 0);
  std::cout << "table id=" << e.id << " family=" << e.family
            << " n=" << t.num_nodes() << " routes=" << idx.num_routes()
            << " pairs=" << idx.num_pairs() << " f=" << e.f
            << " construction=" << ftr::construction_name(plan.construction)
            << " claim=(" << plan.guaranteed_diameter << ","
            << plan.tolerated_faults << ") mode=" << e.mode;
  if (e.mode == "exhaustive") {
    std::cout << " window=" << e.rank_begin << ":" << e.rank_end
              << " space=" << ftr::binomial(t.num_nodes(), e.f);
  } else {
    std::cout << " samples=" << e.samples << " delivery_pairs=" << e.pairs;
  }
  std::cout << " auto_gray_kernel=" << ftr::srg_kernel_name(k)
            << " lanes=" << p.resolved_lanes() << '\n';
}

// Runs one verdict (one library call) and records its latency.
template <typename Fn>
void verdict(Round& r, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  r.latency_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
}

// ---- certify_gray -----------------------------------------------------------

struct PlannedTable {
  const TableEntry* e = nullptr;
  ftr::RoutingTable table;
  ftr::Plan plan;
  std::shared_ptr<const ftr::SrgIndex> index;
};

class CertifyGray final : public Workload {
 public:
  void setup(Ctx& ctx) override {
    tables_.clear();
    for (const auto& e : ctx.spec.tables) {
      PlannedTable pt;
      pt.e = &e;
      ftr::Graph g;
      {
        Scope s(ctx.tracer, "graph.load_graph", e.id);
        std::ifstream in(e.graph);
        g = ftr::load_graph(in);
      }
      {
        Scope s(ctx.tracer, "core.build_planned_routing", e.id);
        ftr::Rng rng(e.plan_seed);
        auto planned = ftr::build_planned_routing(g, std::nullopt, rng);
        pt.table = std::move(planned.table);
        pt.plan = planned.plan;
        s.set_work(pt.table.num_routes());
      }
      {
        Scope s(ctx.tracer, "fault.SrgIndex", e.id);
        pt.index = std::make_shared<const ftr::SrgIndex>(pt.table);
        s.set_work(pt.index->num_routes());
      }
      tables_.push_back(std::move(pt));
    }
  }

  Round round(Ctx& ctx) override {
    Round r;
    partials_.clear();
    reports_.clear();
    for (const auto& pt : tables_) {
      const TableEntry& e = *pt.e;
      ftr::FaultSweepOptions so;
      so.exec = policy(ctx.threads);
      verdict(r, [&] {
        Scope s(ctx.tracer, "analysis.sweep_exhaustive_gray_range", e.id);
        const auto p = ftr::sweep_exhaustive_gray_range(
            pt.table, *pt.index, e.f, e.rank_begin, e.rank_end, so);
        s.set_work(p.sets);
        r.sets += p.sets;
        r.answers.push_back(sweep_answer(e.id, p));
        partials_.push_back(p);
      });
      ftr::ToleranceCheckOptions co;
      co.exec = policy(ctx.threads);
      verdict(r, [&] {
        Scope s(ctx.tracer, "fault.check_tolerance", e.id);
        ftr::Rng rng(e.seed);
        const auto rep = ftr::check_tolerance(pt.table, pt.index, e.f,
                                              pt.plan.guaranteed_diameter,
                                              rng, co);
        s.set_work(rep.fault_sets_checked);
        r.sets += rep.fault_sets_checked;
        r.answers.push_back(check_answer(e.id, rep));
        reports_.push_back(rep);
      });
    }
    return r;
  }

  void verify(Ctx& ctx, const Round&) override {
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      const PlannedTable& pt = tables_[i];
      const TableEntry& e = *pt.e;
      const auto& p = partials_[i];
      const auto& rep = reports_[i];
      verify_sweep(ctx, e, pt.table, *pt.index, p, true,
                   e.rank_end - e.rank_begin);
      verify_check(ctx, e, pt.table, rep);
      const bool full_window =
          e.rank_begin == 0 &&
          e.rank_end == ftr::binomial(pt.table.num_nodes(), e.f);
      if (full_window && rep.exhaustive) {
        ctx.oracle(rep.worst_diameter == p.worst_diameter,
                   e.id + " check and sweep agree");
      }
    }
  }

  void describe(Ctx&) override {
    for (const auto& pt : tables_) {
      describe_table(*pt.e, pt.table, *pt.index, pt.plan);
    }
  }

  void teardown(Ctx&) override { tables_.clear(); }

 private:
  std::vector<PlannedTable> tables_;
  // Answers of the most recent round, for verify().
  std::vector<ftr::SweepPartial> partials_;
  std::vector<ftr::ToleranceReport> reports_;
};

// ---- snapshot-fed tables (sampled_adversary, dist_sweep) --------------------

struct SnapTable {
  const TableEntry* e = nullptr;
  ftr::TableSnapshot snap;
};

std::vector<SnapTable> load_snapshots(Ctx& ctx) {
  std::vector<SnapTable> out;
  for (const auto& e : ctx.spec.tables) {
    Scope s(ctx.tracer, "routing.load_table_snapshot_file", e.id);
    out.push_back({&e, ftr::load_table_snapshot_file(
                           e.snapshot, ftr::SnapshotLoadMode::kMmap)});
  }
  return out;
}

class SampledAdversary final : public Workload {
 public:
  void setup(Ctx& ctx) override { tables_ = load_snapshots(ctx); }

  ftr::ToleranceCheckOptions check_options(Ctx& ctx) const {
    ftr::ToleranceCheckOptions co;
    co.exec = policy(ctx.threads);
    co.samples = ctx.spec.adv_samples;
    co.hillclimb_restarts = ctx.spec.adv_restarts;
    co.hillclimb_steps = ctx.spec.adv_steps;
    return co;
  }

  Round round(Ctx& ctx) override {
    Round r;
    partials_.clear();
    reports_.clear();
    for (const auto& st : tables_) {
      const TableEntry& e = *st.e;
      const auto& t = st.snap.table;
      const auto co = check_options(ctx);
      verdict(r, [&] {
        Scope s(ctx.tracer, "fault.check_tolerance", e.id);
        ftr::Rng rng(e.seed);
        const auto rep = ftr::check_tolerance(
            t, st.snap.index, e.f, st.snap.plan.guaranteed_diameter, rng, co);
        s.set_work(rep.fault_sets_checked);
        r.sets += rep.fault_sets_checked;
        r.answers.push_back(check_answer(e.id, rep));
        reports_.push_back(rep);
      });
      ftr::FaultSweepOptions so;
      so.exec = policy(ctx.threads);
      so.delivery_pairs = e.pairs;
      so.seed = e.seed;
      verdict(r, [&] {
        Scope s(ctx.tracer, "analysis.sweep_fault_source", e.id);
        ftr::SampledStreamSource src(t.num_nodes(), e.f, e.samples, e.seed);
        const auto sum = ftr::sweep_fault_source(t, *st.snap.index, src, so);
        s.set_work(sum.total_sets);
        r.sets += sum.total_sets;
        const auto p = partial_of(sum);
        r.answers.push_back(sweep_answer(e.id, p));
        partials_.push_back(p);
      });
    }
    return r;
  }

  void verify(Ctx& ctx, const Round&) override {
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      const auto& st = tables_[i];
      verify_check(ctx, *st.e, st.snap.table, reports_[i]);
      verify_sweep(ctx, *st.e, st.snap.table, *st.snap.index, partials_[i],
                   false, st.e->samples);
    }
  }

  void describe(Ctx&) override {
    for (const auto& st : tables_) {
      describe_table(*st.e, st.snap.table, *st.snap.index, st.snap.plan);
    }
  }

  void teardown(Ctx&) override { tables_.clear(); }

 private:
  std::vector<SnapTable> tables_;
  std::vector<ftr::SweepPartial> partials_;
  std::vector<ftr::ToleranceReport> reports_;
};

// ---- dist_sweep -------------------------------------------------------------

class DistSweep final : public Workload {
 public:
  void setup(Ctx& ctx) override {
    stop_pool(ctx);
    tables_ = load_snapshots(ctx);
    start_pool(ctx, 0);
  }

  Round round(Ctx& ctx) override {
    Round r;
    partials_.clear();
    reports_.clear();
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      if (active_ != i) start_pool(ctx, i);
      const TableEntry& e = *tables_[i].e;
      const auto t0 = Clock::now();
      ftr::FaultSweepOptions so;
      so.exec = policy(1);
      so.seed = e.seed;
      so.delivery_pairs = e.pairs;
      if (e.mode == "exhaustive") {
        verdict(r, [&] {
          Scope s(ctx.tracer, "dist.sweep_exhaustive", e.id);
          const auto p = pool_->sweep_exhaustive(e.f, so);
          s.set_work(p.sets);
          r.sets += p.sets;
          r.answers.push_back(sweep_answer(e.id, p));
          partials_.push_back(p);
        });
        ftr::ToleranceCheckOptions co;
        co.exec = policy(1);
        verdict(r, [&] {
          Scope s(ctx.tracer, "dist.check_tolerance_distributed", e.id);
          ftr::Rng rng(e.seed);
          const auto rep = ftr::check_tolerance_distributed(
              *pool_, e.f, tables_[i].snap.plan.guaranteed_diameter, rng, co);
          s.set_work(rep.fault_sets_checked);
          r.sets += rep.fault_sets_checked;
          r.answers.push_back(check_answer(e.id, rep));
          reports_.push_back(rep);
        });
      } else {
        verdict(r, [&] {
          Scope s(ctx.tracer, "dist.sweep_sampled", e.id);
          const auto p = pool_->sweep_sampled(e.f, e.samples, so);
          s.set_work(p.sets);
          r.sets += p.sets;
          r.answers.push_back(sweep_answer(e.id, p));
          partials_.push_back(p);
        });
        reports_.emplace_back();
      }
      pool_wall_ += seconds_between(t0, Clock::now());
    }
    // Every round ends where it began, on the first table's pool, so all
    // rounds pay the same number of pool starts.
    start_pool(ctx, 0);
    ++ctx.dist_passes;
    return r;
  }

  // The same calls in-process at equal total threads: the merged answers
  // must match the distributed ones field for field.
  void verify(Ctx& ctx, const Round&) override {
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      const auto& st = tables_[i];
      const TableEntry& e = *st.e;
      const auto& t = st.snap.table;
      const auto& idx = *st.snap.index;
      ftr::FaultSweepOptions so;
      so.exec = policy(ctx.threads);
      so.seed = e.seed;
      so.delivery_pairs = e.pairs;
      ftr::SweepPartial local;
      if (e.mode == "exhaustive") {
        Scope s(ctx.tracer, "analysis.sweep_exhaustive_gray", e.id);
        local = partial_of(ftr::sweep_exhaustive_gray(t, idx, e.f, so));
        s.set_work(local.sets);
      } else {
        Scope s(ctx.tracer, "analysis.sweep_fault_source", e.id);
        ftr::SampledStreamSource src(t.num_nodes(), e.f, e.samples, e.seed);
        local = partial_of(ftr::sweep_fault_source(t, idx, src, so));
        s.set_work(local.sets);
      }
      ctx.oracle(sweep_answer(e.id, local) == sweep_answer(e.id, partials_[i]),
                 e.id + " distributed sweep equals in-process sweep");
      if (e.mode == "exhaustive") {
        verify_sweep(ctx, e, t, idx, partials_[i], true,
                     ftr::binomial(t.num_nodes(), e.f));
        ftr::ToleranceCheckOptions co;
        co.exec = policy(ctx.threads);
        ftr::ToleranceReport local_rep;
        {
          Scope s(ctx.tracer, "fault.check_tolerance", e.id);
          ftr::Rng rng(e.seed);
          local_rep = ftr::check_tolerance(
              t, st.snap.index, e.f, st.snap.plan.guaranteed_diameter, rng, co);
          s.set_work(local_rep.fault_sets_checked);
        }
        ctx.oracle(check_answer(e.id, local_rep) ==
                       check_answer(e.id, reports_[i]),
                   e.id + " distributed check equals in-process check");
        verify_check(ctx, e, t, reports_[i]);
      } else {
        verify_sweep(ctx, e, t, idx, partials_[i], false, e.samples);
      }
    }
  }

  void describe(Ctx&) override {
    for (const auto& st : tables_) {
      describe_table(*st.e, st.snap.table, *st.snap.index, st.snap.plan);
    }
  }

  void teardown(Ctx& ctx) override {
    stop_pool(ctx);
    tables_.clear();
  }

 private:
  void stop_pool(Ctx& ctx) {
    if (!pool_) return;
    absorb_pool(ctx, *pool_, pool_wall_);
    pool_.reset();
    pool_wall_ = 0.0;
  }

  void start_pool(Ctx& ctx, std::size_t i) {
    stop_pool(ctx);
    ftr::DistPoolOptions po;
    po.workers = ctx.threads;
    po.exec = policy(1);
    Scope s(ctx.tracer, "dist.DistSweepPool", tables_[i].e->id);
    pool_ = std::make_unique<ftr::DistSweepPool>(tables_[i].snap,
                                                 tables_[i].e->snapshot, po);
    active_ = i;
  }

  std::vector<SnapTable> tables_;
  std::unique_ptr<ftr::DistSweepPool> pool_;
  std::size_t active_ = 0;
  double pool_wall_ = 0.0;
  std::vector<ftr::SweepPartial> partials_;
  std::vector<ftr::ToleranceReport> reports_;
};

// ---- serve_mix --------------------------------------------------------------

// Hands the router the stream and stamps the moment each request is pulled.
class StampedSource final : public ftr::RequestSource {
 public:
  StampedSource(const std::vector<ftr::ServeRequest>& reqs,
                std::vector<Clock::time_point>& pulled)
      : reqs_(reqs), pulled_(pulled) {}
  bool next(ftr::ServeRequest& out) override {
    if (pos_ >= reqs_.size()) return false;
    out = reqs_[pos_++];
    pulled_.push_back(Clock::now());
    return true;
  }

 private:
  const std::vector<ftr::ServeRequest>& reqs_;
  std::vector<Clock::time_point>& pulled_;
  std::size_t pos_ = 0;
};

// The benchmark's output stream: keeps every response line and stamps the
// moment its newline arrives.
class StampedLines final : public std::streambuf {
 public:
  std::vector<std::string> lines;
  std::vector<Clock::time_point> done;

 protected:
  int_type overflow(int_type c) override {
    if (c == traits_type::eof()) return traits_type::not_eof(c);
    put(static_cast<char>(c));
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    if (c == '\n') {
      lines.push_back(std::move(cur_));
      done.push_back(Clock::now());
      cur_.clear();
    } else {
      cur_.push_back(c);
    }
  }
  std::string cur_;
};

// "#<index> ", the router's prefix of the index-th response line.
std::string response_prefix(std::size_t index) {
  std::string p = "#";
  p += std::to_string(index);
  p += ' ';
  return p;
}

// Fault sets a response reports evaluating.
std::uint64_t response_sets(const std::string& line) {
  const auto sets = line.find(" sets=");
  if (line.find(" sweep ") != std::string::npos && sets != std::string::npos) {
    return std::stoull(line.substr(sets + 6));
  }
  const auto close = line.find(" sets) ");
  if (close != std::string::npos) {
    const auto open = line.rfind(", ", close);
    return std::stoull(line.substr(open + 2, close - open - 2));
  }
  return line.find(" delivery ") != std::string::npos ? 1 : 0;
}

class ServeMix final : public Workload {
 public:
  void setup(Ctx& ctx) override {
    requests_.clear();
    {
      Scope s(ctx.tracer, "serve.parse_request_line");
      std::ifstream in(ctx.spec.serve_requests);
      std::string line;
      std::size_t no = 0;
      while (std::getline(in, line)) {
        requests_.push_back(ftr::parse_request_line(line, ++no));
      }
      s.set_work(requests_.size());
    }
    ctx.serve_stream = requests_;
    ftr::TableRegistryOptions ro;
    ro.max_resident_bytes = ctx.spec.serve_budget;
    registry_ = std::make_unique<ftr::TableRegistry>(ro);
    {
      Scope s(ctx.tracer, "serve.load_table_manifest");
      std::ifstream in(ctx.spec.serve_manifest);
      ftr::load_table_manifest(in, *registry_);
    }
    // Warm: materialize every table once, as a long-running server would
    // have; the budget evicts the cold ones again.
    for (const auto& e : ctx.spec.tables) {
      Scope s(ctx.tracer, "serve.TableRegistry::acquire", e.id);
      registry_->acquire(e.id);
    }
  }

  Round round(Ctx& ctx) override {
    Round r;
    std::vector<Clock::time_point> pulled;
    pulled.reserve(requests_.size());
    StampedLines buf;
    std::ostream out(&buf);
    StampedSource src(requests_, pulled);
    ftr::ServeOptions so;
    so.exec.threads = ctx.threads;
    const ftr::TableRegistryStats before = registry_->stats();
    {
      Scope s(ctx.tracer, "serve.serve_requests");
      const auto summary = ftr::serve_requests(*registry_, src, out, so);
      s.set_work(summary.requests);
      for (std::size_t i = 0; i < buf.lines.size() && i < pulled.size(); ++i) {
        ctx.tracer.record("serve.request", std::to_string(i), pulled[i],
                          buf.done[i]);
      }
    }
    if (buf.lines.size() != requests_.size()) {
      ctx.fail("serve answered " + std::to_string(buf.lines.size()) + " of " +
               std::to_string(requests_.size()) + " requests");
    }
    for (std::size_t i = 0; i < buf.lines.size() && i < pulled.size(); ++i) {
      const std::string& line = buf.lines[i];
      if (line.rfind(response_prefix(i), 0) != 0) {
        ctx.fail("response out of order: " + line);
      }
      if (line.find(" error: ") != std::string::npos) {
        ctx.fail("error response to a well-formed request: " + line);
      }
      r.latency_ms.push_back(seconds_between(pulled[i], buf.done[i]) * 1e3);
      r.sets += response_sets(line);
    }
    r.answers = std::move(buf.lines);
    // Registry counters of this round alone (residency is absolute).
    ftr::TableRegistryStats delta = registry_->stats();
    delta.hits -= before.hits;
    delta.misses -= before.misses;
    delta.builds -= before.builds;
    delta.snapshot_loads -= before.snapshot_loads;
    delta.evictions -= before.evictions;
    ctx.serve_stats = delta;
    return r;
  }

  // A seeded sample of responses, re-run one at a time through
  // execute_request on the bitset kernel, must match byte for byte.
  // Delivery responses also have their diameter checked by the oracle.
  void verify(Ctx& ctx, const Round& first) override {
    ftr::TableRegistry ref;
    {
      std::ifstream in(ctx.spec.serve_manifest);
      ftr::load_table_manifest(in, ref);
    }
    ftr::ExecPolicy bitset;
    bitset.threads = 1;
    bitset.kernel = ftr::SrgKernel::kBitset;
    ftr::Rng rng = ftr::Rng::stream(ctx.spec.seed, 99);
    const std::size_t samples = std::min<std::size_t>(24, requests_.size());
    for (std::size_t k = 0; k < samples && !first.answers.empty(); ++k) {
      const std::size_t i = rng.below(first.answers.size());
      const auto& req = requests_[i];
      const auto handle = ref.acquire(req.table);
      std::optional<ftr::SrgScratch> scratch;
      const std::string body =
          ftr::execute_request(req, *handle, scratch, bitset);
      ctx.oracle(response_prefix(i) + body == first.answers[i],
                 "serve response #" + std::to_string(i) + " re-run");
      if (req.kind == ftr::RequestKind::kDelivery) {
        const std::uint32_t truth =
            oracle_diameter(handle->table, req.fault_list);
        const std::string want =
            " diameter=" + (truth == ftr::kUnreachable
                                ? std::string("disconnected")
                                : std::to_string(truth)) + " ";
        ctx.oracle(first.answers[i].find(want) != std::string::npos,
                   "delivery diameter #" + std::to_string(i));
      }
    }
  }

  void describe(Ctx& ctx) override {
    ftr::TableRegistry ref;
    std::ifstream in(ctx.spec.serve_manifest);
    ftr::load_table_manifest(in, ref);
    for (const auto& e : ctx.spec.tables) {
      const auto h = ref.acquire(e.id);
      std::cout << "registry table=" << e.id
                << " bytes=" << h->memory_bytes << '\n';
      describe_table(e, h->table, *h->index, h->plan);
    }
    std::size_t kinds[4] = {0, 0, 0, 0};
    for (const auto& r : requests_) ++kinds[static_cast<int>(r.kind)];
    std::cout << "stream requests=" << requests_.size()
              << " check=" << kinds[0] << " sweep=" << kinds[1]
              << " delivery=" << kinds[2] << " certify=" << kinds[3]
              << " budget_bytes=" << ctx.spec.serve_budget
              << " threads=" << ctx.threads << " loop=closed\n";
  }

  void teardown(Ctx&) override { registry_.reset(); }

  const ftr::TableRegistry* registry() const { return registry_.get(); }
  const std::vector<ftr::ServeRequest>& requests() const { return requests_; }

 private:
  std::vector<ftr::ServeRequest> requests_;
  std::unique_ptr<ftr::TableRegistry> registry_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "certify_gray") return std::make_unique<CertifyGray>();
  if (name == "sampled_adversary") return std::make_unique<SampledAdversary>();
  if (name == "dist_sweep") return std::make_unique<DistSweep>();
  if (name == "serve_mix") return std::make_unique<ServeMix>();
  return nullptr;
}

}  // namespace perfbench
