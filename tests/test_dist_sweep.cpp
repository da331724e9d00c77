// Differential tests for the multi-process sweep layer: every distributed
// result must be bit-identical to the in-process computation — for any
// worker count, any unit size, with workers dying or hanging mid-unit. The
// pool is exercised through the same entry points the CLI uses.
#include "dist/coordinator.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "dist/wire.hpp"
#include "dist/worker.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/kernel.hpp"
#include "routing/serialization.hpp"

namespace ftr {
namespace {

// Sets FTROUTE_TEST_WORKER_FAIL for the pool forked inside the scope.
class ScopedWorkerFail {
 public:
  explicit ScopedWorkerFail(const char* spec) {
    ::setenv("FTROUTE_TEST_WORKER_FAIL", spec, 1);
  }
  ~ScopedWorkerFail() { ::unsetenv("FTROUTE_TEST_WORKER_FAIL"); }
};

struct Rig {
  Rig() : gg(torus_graph(4, 4)), kr(build_kernel_routing(gg.graph, 1)) {
    snap = make_table_snapshot(gg.graph, kr.table);
  }
  DistPoolOptions pool_options(unsigned workers, std::uint64_t unit_items,
                               double timeout_sec = 300.0) const {
    DistPoolOptions o;
    o.workers = workers;
    o.unit_items = unit_items;
    o.unit_timeout_sec = timeout_sec;
    return o;
  }
  GeneratedGraph gg;
  KernelRouting kr;
  TableSnapshot snap;
};

void expect_summary_equal(const FaultSweepSummary& got,
                          const FaultSweepSummary& want) {
  EXPECT_EQ(got.total_sets, want.total_sets);
  EXPECT_EQ(got.diameter_histogram, want.diameter_histogram);
  EXPECT_EQ(got.disconnected, want.disconnected);
  EXPECT_EQ(got.worst_diameter, want.worst_diameter);
  EXPECT_EQ(got.worst_index, want.worst_index);
  EXPECT_EQ(got.worst_faults, want.worst_faults);
  EXPECT_EQ(got.pairs_sampled, want.pairs_sampled);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_DOUBLE_EQ(got.avg_route_hops, want.avg_route_hops);
  EXPECT_EQ(got.max_route_hops, want.max_route_hops);
  EXPECT_EQ(got.max_edge_hops, want.max_edge_hops);
}

void expect_report_equal(const ToleranceReport& got,
                         const ToleranceReport& want) {
  EXPECT_EQ(got.summary(), want.summary());
  EXPECT_EQ(got.worst_diameter, want.worst_diameter);
  EXPECT_EQ(got.worst_faults, want.worst_faults);
  EXPECT_EQ(got.fault_sets_checked, want.fault_sets_checked);
  EXPECT_EQ(got.exhaustive, want.exhaustive);
  EXPECT_EQ(got.holds, want.holds);
}

TEST(DistWire, UnitAndResultPayloadsRoundtrip) {
  UnitSpec u;
  u.kind = UnitKind::kAdvClimb;
  u.unit_id = 42;
  u.f = 3;
  u.begin = 7;
  u.end = 19;
  u.seed = 0xdeadbeefcafe;
  u.delivery_pairs = 5;
  u.max_steps = 13;
  u.exec.batch_size = 77;
  u.exec.kernel = SrgKernel::kBitset;
  u.exec.threads = 2;
  u.exec.lanes = 128;
  u.sets = {{1, 2, 3}, {4, 5}};
  u.climb_seeds = {{9, 8, 7}};
  const UnitSpec d = decode_unit(encode_unit(u));
  EXPECT_EQ(d.kind, u.kind);
  EXPECT_EQ(d.unit_id, u.unit_id);
  EXPECT_EQ(d.f, u.f);
  EXPECT_EQ(d.begin, u.begin);
  EXPECT_EQ(d.end, u.end);
  EXPECT_EQ(d.seed, u.seed);
  EXPECT_EQ(d.delivery_pairs, u.delivery_pairs);
  EXPECT_EQ(d.max_steps, u.max_steps);
  EXPECT_EQ(d.exec.batch_size, u.exec.batch_size);
  EXPECT_EQ(d.exec.kernel, u.exec.kernel);
  EXPECT_EQ(d.exec.threads, u.exec.threads);
  EXPECT_EQ(d.exec.lanes, u.exec.lanes);
  EXPECT_EQ(d.sets, u.sets);
  EXPECT_EQ(d.climb_seeds, u.climb_seeds);

  SweepPartial sp;
  sp.sets = 11;
  sp.diameter_histogram = {0, 3, 8};
  sp.disconnected = 2;
  sp.have_worst = true;
  sp.worst_diameter = 9;
  sp.worst_index = 6;
  sp.worst_faults = {3, 14};
  sp.pairs_sampled = 44;
  sp.delivered = 40;
  sp.route_hops_total = 123;
  sp.max_route_hops = 7;
  sp.max_edge_hops = 15;
  const auto [sid, sd] = decode_sweep_result(encode_sweep_result(42, sp));
  EXPECT_EQ(sid, 42u);
  EXPECT_EQ(sd.sets, sp.sets);
  EXPECT_EQ(sd.diameter_histogram, sp.diameter_histogram);
  EXPECT_EQ(sd.disconnected, sp.disconnected);
  EXPECT_EQ(sd.have_worst, sp.have_worst);
  EXPECT_EQ(sd.worst_diameter, sp.worst_diameter);
  EXPECT_EQ(sd.worst_index, sp.worst_index);
  EXPECT_EQ(sd.worst_faults, sp.worst_faults);
  EXPECT_EQ(sd.route_hops_total, sp.route_hops_total);
  EXPECT_EQ(sd.max_edge_hops, sp.max_edge_hops);

  AdvPartial ap;
  ap.d = 5;
  ap.faults = {1, 9};
  ap.evaluations = 1000;
  ap.any = true;
  ap.stopped = true;
  const auto [aid, ad] = decode_adv_result(encode_adv_result(3, ap));
  EXPECT_EQ(aid, 3u);
  EXPECT_EQ(ad.d, ap.d);
  EXPECT_EQ(ad.faults, ap.faults);
  EXPECT_EQ(ad.evaluations, ap.evaluations);
  EXPECT_EQ(ad.any, ap.any);
  EXPECT_EQ(ad.stopped, ap.stopped);

  const auto [eid, msg] = decode_error(encode_error(~std::uint64_t{0}, "boom"));
  EXPECT_EQ(eid, ~std::uint64_t{0});
  EXPECT_EQ(msg, "boom");
}

TEST(DistWire, FramesReassembleFromArbitraryByteArrivals) {
  const auto payload = encode_error(1, "partial-delivery probe");
  const auto frame = pack_frame(FrameType::kError, payload);
  std::vector<unsigned char> buf;
  WireFrame out;
  // Byte-at-a-time arrival: no prefix shorter than the frame may parse.
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    buf.push_back(frame[i]);
    EXPECT_FALSE(pop_frame(buf, out));
  }
  buf.push_back(frame.back());
  ASSERT_TRUE(pop_frame(buf, out));
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(out.type, FrameType::kError);
  EXPECT_EQ(out.payload, payload);

  // A flipped payload byte must be caught by the frame checksum.
  auto corrupt = frame;
  corrupt.back() ^= 0x01;
  std::vector<unsigned char> cbuf(corrupt.begin(), corrupt.end());
  EXPECT_THROW(pop_frame(cbuf, out), ContractViolation);
}

// A unit whose checksum is valid but whose set or seed count exceeds what
// the remaining bytes could hold fails as a ContractViolation before any
// allocation (a 0xFFFFFFFF count must not reach reserve()).
TEST(DistWire, DecodeUnitRejectsInflatedSetCounts) {
  UnitSpec u;
  u.kind = UnitKind::kSweepExplicit;
  u.sets = {{1, 2}};
  u.climb_seeds = {{3}};
  const auto good = encode_unit(u);
  // The two counts are the last u32s before their lists: {1, 2} takes 12
  // bytes and {3} takes 8, so the seed count sits 12 bytes from the end and
  // the set count 12 + 4 + 12 bytes from the end.
  for (const std::size_t from_end : {std::size_t{12}, std::size_t{28}}) {
    auto bad = good;
    for (std::size_t i = 0; i < 4; ++i) bad[bad.size() - from_end + i] = 0xff;
    EXPECT_THROW(decode_unit(bad), ContractViolation) << from_end;
    // The frame layer does not save the decoder: the checksum is valid.
    std::vector<unsigned char> buf = pack_frame(FrameType::kUnit, bad);
    WireFrame frame;
    ASSERT_TRUE(pop_frame(buf, frame));
    EXPECT_THROW(decode_unit(frame.payload), ContractViolation) << from_end;
  }
  EXPECT_EQ(decode_unit(good).sets, u.sets);
}

// The merge authority: folding window partials in order must equal the
// whole-range computation, for any cut points.
TEST(DistSweep, MergeSweepPartialsFoldsLikeOneRange) {
  const Rig rig;
  const std::size_t f = 2;
  const std::uint64_t total = binomial(rig.gg.graph.num_nodes(), f);
  FaultSweepOptions opts;
  opts.delivery_pairs = 3;
  opts.seed = 11;

  const SweepPartial whole = sweep_exhaustive_gray_range(
      rig.kr.table, *rig.snap.index, f, 0, total, opts);
  for (const std::vector<std::uint64_t>& cuts :
       {std::vector<std::uint64_t>{0, 1, total},
        std::vector<std::uint64_t>{0, 7, 20, total},
        std::vector<std::uint64_t>{0, total / 2, total}}) {
    SweepPartial folded;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const SweepPartial piece = sweep_exhaustive_gray_range(
          rig.kr.table, *rig.snap.index, f, cuts[i], cuts[i + 1], opts);
      merge_sweep_partials(folded, piece);
    }
    expect_summary_equal(summarize_sweep_partial(folded),
                         summarize_sweep_partial(whole));
  }
}

TEST(DistSweep, ExhaustiveSweepMatchesInProcessForAnyPoolShape) {
  const Rig rig;
  FaultSweepOptions opts;
  const auto want = sweep_exhaustive_gray(rig.kr.table, *rig.snap.index, 2,
                                          opts);
  for (const unsigned workers : {1u, 2u, 4u}) {
    for (const std::uint64_t unit_items : {std::uint64_t{1}, std::uint64_t{7},
                                           std::uint64_t{0}}) {
      DistSweepPool pool(rig.snap, "", rig.pool_options(workers, unit_items));
      const auto got = summarize_sweep_partial(pool.sweep_exhaustive(2, opts));
      expect_summary_equal(got, want);
      EXPECT_EQ(pool.stats().units_retried, 0u);
      EXPECT_EQ(pool.stats().units_inline, 0u);
    }
  }
}

TEST(DistSweep, SampledSweepWithDeliveryMatchesInProcess) {
  const Rig rig;
  FaultSweepOptions opts;
  opts.delivery_pairs = 4;
  opts.seed = 9;
  SampledStreamSource source(rig.gg.graph.num_nodes(), 2, 60, opts.seed);
  const auto want =
      sweep_fault_source(rig.kr.table, *rig.snap.index, source, opts);
  for (const unsigned workers : {1u, 3u}) {
    DistSweepPool pool(rig.snap, "", rig.pool_options(workers, 13));
    const auto got =
        summarize_sweep_partial(pool.sweep_sampled(2, 60, opts));
    expect_summary_equal(got, want);
  }
}

TEST(DistSweep, ExplicitSourceMatchesInProcessAndHandlesEmptyFeeds) {
  const Rig rig;
  // Materialize a reproducible set list, then feed it both ways.
  std::vector<std::vector<Node>> sets;
  {
    SampledStreamSource src(rig.gg.graph.num_nodes(), 3, 41, 5);
    std::vector<Node> s;
    while (src.next(s)) sets.push_back(s);
  }
  FaultSweepOptions opts;
  opts.delivery_pairs = 2;
  opts.seed = 21;
  ExplicitListSource want_src(sets);
  const auto want =
      sweep_fault_source(rig.kr.table, *rig.snap.index, want_src, opts);

  DistSweepPool pool(rig.snap, "", rig.pool_options(2, 10));
  ExplicitListSource got_src(sets);
  const auto got = summarize_sweep_partial(pool.sweep_source(got_src, opts));
  expect_summary_equal(got, want);

  // An empty feed distributes to zero units and zero aggregates.
  const std::vector<std::vector<Node>> none;
  ExplicitListSource empty_src(none);
  const auto zero = summarize_sweep_partial(pool.sweep_source(empty_src, opts));
  EXPECT_EQ(zero.total_sets, 0u);
  EXPECT_EQ(zero.worst_diameter, 0u);
}

TEST(DistSweep, SnapshotFileFedWorkersMatchPayloadFedWorkers) {
  const Rig rig;
  const std::string path = ::testing::TempDir() + "dist_sweep_rig.snap";
  save_table_snapshot_file(rig.snap, path);
  FaultSweepOptions opts;
  const auto want = sweep_exhaustive_gray(rig.kr.table, *rig.snap.index, 2,
                                          opts);
  DistSweepPool pool(rig.snap, path, rig.pool_options(2, 11));
  expect_summary_equal(summarize_sweep_partial(pool.sweep_exhaustive(2, opts)),
                       want);
  ::unlink(path.c_str());
}

TEST(DistCheck, GrayFastPathReportMatchesInProcess) {
  const Rig rig;
  Rng rng_local(5), rng_dist(5);
  const auto want = check_tolerance(rig.kr.table, 2, 6, rng_local);
  for (const unsigned workers : {1u, 3u}) {
    Rng rng(5);
    DistSweepPool pool(rig.snap, "", rig.pool_options(workers, 9));
    expect_report_equal(check_tolerance_distributed(pool, 2, 6, rng), want);
  }
  (void)rng_dist;
}

TEST(DistCheck, LexicographicExhaustivePathMatchesInProcess) {
  const Rig rig;  // C(16, 4) = 1820 <= default budget, f > 3 -> lex path
  Rng rng_local(6);
  const auto want = check_tolerance(rig.kr.table, 4, 8, rng_local);
  ASSERT_TRUE(want.exhaustive);
  Rng rng(6);
  DistSweepPool pool(rig.snap, "", rig.pool_options(2, 100));
  expect_report_equal(check_tolerance_distributed(pool, 4, 8, rng), want);
}

TEST(DistCheck, SampledPlusHillclimbPathMatchesInProcess) {
  const Rig rig;
  ToleranceCheckOptions opts;
  opts.exhaustive_budget = 1;  // force the adversarial path
  opts.samples = 40;
  opts.hillclimb_restarts = 4;
  opts.hillclimb_steps = 8;
  Rng rng_local(7);
  const auto want = check_tolerance(rig.kr.table, 2, 6, rng_local, opts);
  ASSERT_FALSE(want.exhaustive);
  for (const std::uint64_t unit_items : {std::uint64_t{1}, std::uint64_t{0}}) {
    Rng rng(7);
    DistSweepPool pool(rig.snap, "", rig.pool_options(2, unit_items));
    expect_report_equal(check_tolerance_distributed(pool, 2, 6, rng, opts),
                        want);
  }
}

// A ring routed over its edges only: two non-adjacent faults split it, so
// a climb reaches kUnreachable and stops the climbs after it. The pool must
// stop at the same restart — same witness, same evaluation count — for any
// worker count and unit size, including one restart per unit, where the
// coordinator's stop bound keeps later units from being dispatched.
TEST(DistCheck, DisconnectingClimbStopsLikeInProcess) {
  const auto gg = cycle_graph(12);
  RoutingTable table(12, RoutingMode::kBidirectional);
  install_edge_routes(table, gg.graph);
  const TableSnapshot snap = make_table_snapshot(gg.graph, table);
  ToleranceCheckOptions opts;
  opts.exhaustive_budget = 1;  // force the adversarial path
  opts.samples = 10;
  opts.hillclimb_restarts = 6;
  opts.hillclimb_steps = 8;
  Rng rng_local(3);
  const auto want = check_tolerance(table, 2, 6, rng_local, opts);
  ASSERT_EQ(want.worst_diameter, kUnreachable);
  // Every restart evaluates at least its start set, so fewer climb
  // evaluations than restarts means the later restarts were discarded.
  ASSERT_LT(want.fault_sets_checked, opts.samples + opts.hillclimb_restarts);
  for (const unsigned workers : {1u, 3u}) {
    for (const std::uint64_t unit_items :
         {std::uint64_t{1}, std::uint64_t{0}}) {
      Rng rng(3);
      DistSweepPool pool(snap, "", Rig().pool_options(workers, unit_items));
      expect_report_equal(check_tolerance_distributed(pool, 2, 6, rng, opts),
                          want);
    }
  }
}

// f > n has no fault sets: both backends refuse it before running, with a
// message naming f and n (the pool used to report 0 sets and HOLDS).
TEST(DistCheck, FaultBudgetAboveNodeCountFailsOnEveryBackend) {
  const Rig rig;  // n = 16
  const auto expect_refused = [](const auto& run) {
    try {
      run();
      ADD_FAILURE() << "f = 17 > n = 16 was accepted";
    } catch (const ContractViolation& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("f=17"), std::string::npos) << msg;
      EXPECT_NE(msg.find("n=16"), std::string::npos) << msg;
    }
  };
  expect_refused([&] {
    Rng rng(1);
    check_tolerance(rig.kr.table, 17, 6, rng);
  });
  // The plan refuses before asking any backend for a phase.
  struct NoPhases final : CheckBackend {
    std::optional<AdvPartial> gray(std::uint32_t) override { return fail(); }
    AdvPartial lex(std::uint32_t) override { return *fail(); }
    AdvPartial sampled(std::uint32_t, std::uint64_t, std::uint64_t) override {
      return *fail();
    }
    AdvPartial climb(std::uint32_t, std::uint64_t, std::size_t, std::size_t,
                     const std::vector<std::vector<Node>>&) override {
      return *fail();
    }
    static std::optional<AdvPartial> fail() {
      ADD_FAILURE() << "a phase ran for f > n";
      return AdvPartial{};
    }
  };
  NoPhases none;
  expect_refused([&] { run_tolerance_check(none, 16, 17, 6, 1, {}); });
  for (const unsigned workers : {1u, 2u}) {
    DistSweepPool pool(rig.snap, "", rig.pool_options(workers, 0));
    expect_refused([&] {
      Rng rng(1);
      check_tolerance_distributed(pool, 17, 6, rng);
    });
    expect_refused([&] { pool.sweep_exhaustive(17, FaultSweepOptions{}); });
  }
}

TEST(DistFailure, DeadWorkerUnitIsReassignedWithoutChangingResults) {
  const Rig rig;
  FaultSweepOptions opts;
  const auto want = sweep_exhaustive_gray(rig.kr.table, *rig.snap.index, 2,
                                          opts);
  // Worker 0 exits while executing the first unit it receives; its window
  // must be re-dispatched to the survivor — never lost, never duplicated.
  const ScopedWorkerFail fail("exit:0:0");
  DistSweepPool pool(rig.snap, "", rig.pool_options(2, 8));
  const auto got = summarize_sweep_partial(pool.sweep_exhaustive(2, opts));
  expect_summary_equal(got, want);
  EXPECT_GE(pool.stats().units_retried, 1u);
  EXPECT_GE(pool.stats().workers_exited, 1u);
  EXPECT_EQ(pool.stats().workers_spawned, 2u);
}

TEST(DistFailure, LastWorkerDyingFallsBackToInlineExecution) {
  const Rig rig;
  FaultSweepOptions opts;
  const auto want = sweep_exhaustive_gray(rig.kr.table, *rig.snap.index, 2,
                                          opts);
  const ScopedWorkerFail fail("exit:0:0");
  DistSweepPool pool(rig.snap, "", rig.pool_options(1, 16));
  const auto got = summarize_sweep_partial(pool.sweep_exhaustive(2, opts));
  expect_summary_equal(got, want);
  EXPECT_EQ(pool.live_workers(), 0u);
  EXPECT_GE(pool.stats().units_inline, 1u);
}

TEST(DistFailure, HungWorkerIsKilledAndItsUnitRunsInline) {
  const Rig rig;
  FaultSweepOptions opts;
  const auto want = sweep_exhaustive_gray(rig.kr.table, *rig.snap.index, 2,
                                          opts);
  // Worker 1 hangs on its first unit; the watchdog must SIGKILL it within
  // the timeout and the coordinator completes the window itself.
  const ScopedWorkerFail fail("hang:1:0");
  DistSweepPool pool(rig.snap, "", rig.pool_options(2, 8, /*timeout=*/0.25));
  const auto got = summarize_sweep_partial(pool.sweep_exhaustive(2, opts));
  expect_summary_equal(got, want);
  EXPECT_GE(pool.stats().workers_killed, 1u);
  EXPECT_GE(pool.stats().units_inline, 1u);
}

TEST(DistFailure, ParseWorkerFailSpecIsStrict) {
  EXPECT_EQ(parse_worker_fail_spec(nullptr).mode, WorkerFailSpec::Mode::kNone);
  EXPECT_EQ(parse_worker_fail_spec("").mode, WorkerFailSpec::Mode::kNone);
  EXPECT_EQ(parse_worker_fail_spec("exit:1").mode, WorkerFailSpec::Mode::kNone);
  EXPECT_EQ(parse_worker_fail_spec("boom:1:2").mode,
            WorkerFailSpec::Mode::kNone);
  const auto e = parse_worker_fail_spec("exit:3:14");
  EXPECT_EQ(e.mode, WorkerFailSpec::Mode::kExit);
  EXPECT_EQ(e.worker, 3u);
  EXPECT_EQ(e.unit_ordinal, 14u);
  const auto h = parse_worker_fail_spec("hang:0:1");
  EXPECT_EQ(h.mode, WorkerFailSpec::Mode::kHang);
}

}  // namespace
}  // namespace ftr
