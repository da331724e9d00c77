#include "dist/worker.hpp"

#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <string>

#include "common/contracts.hpp"
#include "common/pipe_io.hpp"

namespace ftr {

WorkerFailSpec parse_worker_fail_spec(const char* spec) {
  WorkerFailSpec out;
  if (spec == nullptr || *spec == '\0') return out;
  const std::string s(spec);
  const auto c1 = s.find(':');
  const auto c2 = s.find(':', c1 == std::string::npos ? c1 : c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) return out;
  const std::string mode = s.substr(0, c1);
  WorkerFailSpec::Mode m = WorkerFailSpec::Mode::kNone;
  if (mode == "exit") m = WorkerFailSpec::Mode::kExit;
  if (mode == "hang") m = WorkerFailSpec::Mode::kHang;
  if (m == WorkerFailSpec::Mode::kNone) return out;
  try {
    out.worker = static_cast<std::uint32_t>(
        std::stoul(s.substr(c1 + 1, c2 - c1 - 1)));
    out.unit_ordinal = std::stoull(s.substr(c2 + 1));
  } catch (const std::exception&) {
    return out;  // malformed numbers: injection disabled
  }
  out.mode = m;
  return out;
}

SweepPartial execute_sweep_unit(const TableSnapshot& snapshot,
                                const UnitSpec& unit) {
  FaultSweepOptions opts;
  opts.exec = unit.exec;
  opts.delivery_pairs = static_cast<std::size_t>(unit.delivery_pairs);
  opts.seed = unit.seed;
  switch (unit.kind) {
    case UnitKind::kSweepGray:
      return sweep_exhaustive_gray_range(snapshot.table, *snapshot.index,
                                         unit.f, unit.begin, unit.end, opts);
    case UnitKind::kSweepSampled: {
      SampledStreamSource source(snapshot.table.num_nodes(), unit.f,
                                 unit.end - unit.begin, unit.seed, unit.begin);
      return sweep_fault_source_partial(snapshot.table, *snapshot.index,
                                        source, unit.begin, opts);
    }
    case UnitKind::kSweepExplicit: {
      ExplicitListSource source(unit.sets);
      return sweep_fault_source_partial(snapshot.table, *snapshot.index,
                                        source, unit.begin, opts);
    }
    default:
      FTR_EXPECTS_MSG(false, "unit kind " << unit_kind_name(unit.kind)
                                          << " is not a sweep");
  }
  return {};
}

AdvPartial execute_adv_unit(const TableSnapshot& snapshot,
                            const UnitSpec& unit) {
  const std::size_t n = snapshot.table.num_nodes();
  const SearchExecution exec{unit.exec};
  switch (unit.kind) {
    case UnitKind::kAdvLex:
      return exhaustive_worst_faults_slice(
          n, unit.f, scratch_evaluator_factory(snapshot.index), unit.begin,
          unit.end, exec);
    case UnitKind::kAdvClimb:
      return hillclimb_worst_faults_slice(
          n, unit.f, scratch_evaluator_factory(snapshot.index), unit.seed, exec,
          unit.begin, unit.end, static_cast<std::size_t>(unit.max_steps),
          unit.climb_seeds);
    default:
      FTR_EXPECTS_MSG(false, "unit kind " << unit_kind_name(unit.kind)
                                          << " is not an adversary search");
  }
  return {};
}

int run_worker_loop(int in_fd, int out_fd, const TableSnapshot& snapshot,
                    std::uint32_t worker_index) {
  const WorkerFailSpec fail =
      parse_worker_fail_spec(std::getenv("FTROUTE_TEST_WORKER_FAIL"));
  std::uint64_t units_seen = 0;
  WireFrame frame;
  for (;;) {
    const IoStatus rs = read_frame(in_fd, frame);
    if (rs == IoStatus::kClosed) return 0;  // coordinator closed: clean exit
    if (rs != IoStatus::kOk) return 3;
    if (frame.type != FrameType::kUnit) return 4;
    std::uint64_t unit_id = ~std::uint64_t{0};
    try {
      const UnitSpec unit = decode_unit(frame.payload);
      unit_id = unit.unit_id;
      const std::uint64_t ordinal = units_seen++;
      if (fail.mode != WorkerFailSpec::Mode::kNone &&
          fail.worker == worker_index && fail.unit_ordinal == ordinal) {
        if (fail.mode == WorkerFailSpec::Mode::kExit) return 7;
        for (;;) ::pause();  // until the coordinator's watchdog SIGKILLs us
      }
      std::vector<unsigned char> reply;
      if (unit_is_sweep(unit.kind)) {
        reply = pack_frame(
            FrameType::kSweepResult,
            encode_sweep_result(unit_id, execute_sweep_unit(snapshot, unit)));
      } else {
        reply = pack_frame(
            FrameType::kAdvResult,
            encode_adv_result(unit_id, execute_adv_unit(snapshot, unit)));
      }
      if (write_exact(out_fd, reply.data(), reply.size()) != IoStatus::kOk) {
        return 5;
      }
    } catch (const std::exception& e) {
      const auto reply =
          pack_frame(FrameType::kError, encode_error(unit_id, e.what()));
      (void)write_exact(out_fd, reply.data(), reply.size());
      return 6;
    }
  }
}

}  // namespace ftr
