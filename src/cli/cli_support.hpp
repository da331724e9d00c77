// Shared CLI plumbing: the per-verb flag registry + strict parser, usage
// generation, and the helpers every verb leans on (snapshot-aware file
// loading, distributed-pool option mapping, telemetry rendering).
//
// The contract every verb gets from run_verb():
//   * `--help` prints usage generated from the verb's registry (stdout,
//     exit 0) — no other work happens;
//   * an unknown flag, a missing flag value, or a malformed value raises
//     UsageError: the message and the verb's usage go to stderr, exit 2;
//   * any other exception prints "error: <what>" to stderr, exit 1;
//   * execution knobs parse through parse_exec_flag() against the verb's
//     ExecFlagBit mask, so `--threads/--kernel/--lanes/--batch/
//     --progress-every` mean the same thing on every verb that has them
//     (common/exec_policy.hpp is the single resolution authority).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/exec_policy.hpp"
#include "common/parallel.hpp"
#include "dist/coordinator.hpp"
#include "graph/graph.hpp"
#include "routing/route_table.hpp"

namespace ftr::cli {

/// A verb-specific flag. value_name == nullptr marks a boolean flag (no
/// value token follows it).
struct VerbFlag {
  const char* flag;
  const char* value_name;  // nullptr: boolean presence flag
  const char* help;
};

struct VerbSpec {
  const char* name;        // "sweep"
  const char* positional;  // "<graph> <table>" or "" when none
  const char* summary;     // one-line description for usage
  std::vector<VerbFlag> flags;
  /// ExecFlagBit mask of execution-policy flags this verb accepts.
  unsigned exec_mask = 0;
  /// Verb-specific ExecPolicy starting point (e.g. serve batches 64).
  ExecPolicy exec_defaults;
  std::size_t min_positional = 0;
  std::size_t max_positional = 0;
  const char* notes = nullptr;  // free-form trailing usage text
};

/// Raised for malformed command lines; run_verb turns it into exit 2 with
/// the verb's usage on stderr.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct ParsedArgs {
  std::vector<std::string> positional;
  ExecPolicy exec;
  /// Verb flag occurrences: flag -> raw value ("" for boolean flags).
  /// First occurrence wins, matching the historical scan order.
  std::map<std::string, std::string> values;

  bool has(const std::string& flag) const;
  std::string str(const std::string& flag, const std::string& fallback) const;
  /// Strict full-token base-10; throws UsageError on malformed values so
  /// "--sets 12frog" is exit 2, never a truncated 12.
  std::uint64_t u64(const std::string& flag, std::uint64_t fallback) const;
  /// Range-checked narrowing: "--faults 4294967296" must be rejected, not
  /// silently wrap.
  std::uint32_t u32(const std::string& flag, std::uint32_t fallback) const;
};

/// Usage text generated from the registry: synopsis, verb flags, exec
/// flags (exec_policy_usage over the verb's mask), then notes.
std::string verb_usage(const VerbSpec& spec);

/// Strict parse: every "--flag" token must match the verb registry or the
/// verb's exec mask, else UsageError. Non-flag tokens are positionals,
/// bounds-checked against the spec.
ParsedArgs parse_verb_args(const VerbSpec& spec,
                           const std::vector<std::string>& args);

/// The uniform verb wrapper (see the contract at the top of this header).
int run_verb(const VerbSpec& spec, const std::vector<std::string>& args,
             const std::function<int(const ParsedArgs&)>& body);

// ---- helpers shared across verbs ----------------------------------------

/// Stderr rendering of the work-stealing probe, shared by the sweep/serve
/// progress lines and their closing summaries (telemetry only — it never
/// touches stdout, which stays bit-identical across execution knobs).
std::string executor_stats_str(const ExecutorStats& e);

/// The <graph>/<table> file arguments accept either the text formats or a
/// binary snapshot (sniffed by magic). A snapshot passed as both arguments
/// is loaded once.
Graph load_graph_arg(const std::string& path);
RoutingTable load_table_arg(const std::string& path);

struct GraphTableArgs {
  Graph graph;
  RoutingTable table;
};
GraphTableArgs load_graph_table_args(const std::string& graph_path,
                                     const std::string& table_path);

/// Shared --workers plumbing for check/sweep: the verb's resolved
/// ExecPolicy becomes the per-worker policy (exec.threads = threads inside
/// each forked worker). The pool's knobs never affect stdout (the
/// bit-identity contract); they only shape scheduling.
DistPoolOptions dist_pool_options(const ParsedArgs& a, unsigned workers);

/// When the table came from a snapshot file, workers mmap that same file —
/// zero bytes shipped; otherwise the coordinator stages the snapshot into
/// an unlinked temp file the forked workers inherit by fd.
std::string dist_snapshot_path(const std::string& graph_path,
                               const std::string& table_path);

void print_dist_stats(const DistStats& s);

}  // namespace ftr::cli
