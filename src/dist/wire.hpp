// Wire format for the multi-process sweep layer: length-prefixed,
// checksummed frames over pipes between the coordinator and its forked
// workers.
//
// A frame is a 24-byte header {magic u32, type u32, payload length u64,
// payload checksum u64} followed by the payload; the checksum is
// ftr_checksum64 — the same FNV-1a-over-LE-words hash the binary snapshot
// container uses, so one hashing authority covers both persistence and the
// wire. All integers are little-endian fixed width. Decoding is strict: bad
// magic, an absurd length, a checksum mismatch, payload truncation, and
// trailing bytes all throw ContractViolation — a torn frame from a dying
// worker surfaces as a loud error or a closed stream, never as data.
//
// The protocol is deliberately tiny: the coordinator sends kUnit frames
// (one UnitSpec each), a worker answers every sweep unit with one
// kSweepResult frame and every adversary unit with one kAdvResult frame
// (the unit_id leads the payload so the coordinator can merge out-of-order
// completions in unit order), or with a kError frame carrying the
// exception text. Closing the unit pipe is the shutdown signal.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/fault_sweep.hpp"
#include "common/pipe_io.hpp"
#include "fault/adversary.hpp"
#include "fault/srg_engine.hpp"
#include "graph/graph.hpp"

namespace ftr {

enum class FrameType : std::uint32_t {
  kUnit = 2,
  kSweepResult = 3,
  kAdvResult = 4,
  kError = 6,
};

/// What a work unit asks a worker to run. Each kind maps onto one of the
/// slice/partial entry points, which take GLOBAL indices — so a unit is
/// nothing but a window [begin, end) of the task space plus the knobs, and
/// any re-chunking (or re-dispatch after a worker dies) cannot change the
/// merged result. The sweep kinds also carry the tolerance check's Gray and
/// sampled phases (delivery off); the check's other two phases are the
/// adversary kinds.
enum class UnitKind : std::uint32_t {
  kSweepGray = 1,     // sweep_exhaustive_gray_range over subset ranks
  kSweepSampled = 2,  // SampledStreamSource window through the sweep engine
  kSweepExplicit = 3, // literal fault sets carried in the unit (stdin feeds)
  kAdvLex = 5,        // exhaustive_worst_faults_slice (lexicographic)
  kAdvClimb = 7,      // hillclimb_worst_faults_slice over restart indices
};

const char* unit_kind_name(UnitKind kind);
bool unit_is_sweep(UnitKind kind);

struct UnitSpec {
  UnitKind kind = UnitKind::kSweepGray;
  /// Merge position: results come back keyed by it, and the coordinator
  /// folds partials in unit_id order (the merge-precondition discipline).
  std::uint64_t unit_id = 0;
  std::uint32_t f = 0;
  std::uint64_t begin = 0;  // GLOBAL window [begin, end): subset ranks,
  std::uint64_t end = 0;    // sample indices, restart indices, set indices
  std::uint64_t seed = 0;   // stream root (sampling, delivery, climbing)
  std::uint64_t delivery_pairs = 0;  // sweep units only
  std::uint64_t max_steps = 0;       // kAdvClimb step budget
  /// How the unit executes INSIDE the worker process: threads, kernel,
  /// lanes, batch size. Carried over the wire via the versioned
  /// encode_exec_policy blob (common/exec_policy.hpp) — pure throughput
  /// knobs; units stay result-invariant across all of them.
  ExecPolicy exec;
  std::vector<std::vector<Node>> sets;         // kSweepExplicit literal sets
  std::vector<std::vector<Node>> climb_seeds;  // kAdvClimb informed starts
                                               // (GLOBAL restart indexing)
};

struct WireFrame {
  FrameType type = FrameType::kError;
  std::vector<unsigned char> payload;
};

/// Serializes a complete frame (header + payload), ready for the pipe.
std::vector<unsigned char> pack_frame(FrameType type,
                                      const std::vector<unsigned char>& payload);

/// Pops one complete frame off the front of `buf` (as filled by
/// read_available). Returns false when the buffered bytes do not yet hold a
/// whole frame; throws ContractViolation on bad magic, an absurd length, or
/// a checksum mismatch.
bool pop_frame(std::vector<unsigned char>& buf, WireFrame& out);

/// Blocking read of one frame (the worker side). kClosed on clean EOF
/// before the header — and on EOF mid-frame, since a half-delivered frame
/// from a dying peer is a closed stream, not data.
IoStatus read_frame(int fd, WireFrame& out);

// Payload encode/decode. Decoders are strict (truncation, trailing bytes,
// and element counts the remaining bytes cannot hold all throw); result
// payloads lead with the unit_id they answer.
std::vector<unsigned char> encode_unit(const UnitSpec& unit);
UnitSpec decode_unit(const std::vector<unsigned char>& payload);

std::vector<unsigned char> encode_sweep_result(std::uint64_t unit_id,
                                               const SweepPartial& partial);
std::pair<std::uint64_t, SweepPartial> decode_sweep_result(
    const std::vector<unsigned char>& payload);

std::vector<unsigned char> encode_adv_result(std::uint64_t unit_id,
                                             const AdvPartial& partial);
std::pair<std::uint64_t, AdvPartial> decode_adv_result(
    const std::vector<unsigned char>& payload);

std::vector<unsigned char> encode_error(std::uint64_t unit_id,
                                        const std::string& message);
std::pair<std::uint64_t, std::string> decode_error(
    const std::vector<unsigned char>& payload);

}  // namespace ftr
