#!/usr/bin/env bash
# Runs the benchmark binaries and emits BENCH_<name>.json baselines for the
# perf trajectory (google-benchmark JSON; items_per_second on the fault-sweep
# benchmarks is fault-sets/sec, on the registry benchmarks requests/sec;
# /threads:N case names carry the worker count of the parallel sweep cases).
#
# Usage:
#   bench/run_benches.sh [build-dir] [out-dir]
#
# Defaults: build-dir = ./build, out-dir = repo root. Pass a filter via
# BENCH_FILTER to restrict which google-benchmark cases run (default runs
# the surviving-diameter/fault-sweep/registry throughput benches, which are
# the acceptance metric for changes, plus the planning benches: tri-circular
# construction and node connectivity, i.e. the Menger solver; set
# BENCH_FILTER=. to run everything). Each
# JSON's context block records host_cores next to google-benchmark's own
# num_cpus, plus max_resident_bytes — the peak RSS of the bench process
# (getrusage ru_maxrss of the child) — so memory-sensitive baselines like
# the table-registry warm/cold cases are comparable across hosts. RSS
# capture needs python3; without it the field is simply absent.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"
FILTER="${BENCH_FILTER:-surviving_diameter|fault_sweep|componentwise_sweep|srg_kernels|table_registry|dist_sweep|tricircular|node_connectivity}"
HOST_CORES="$(nproc 2>/dev/null || echo 1)"
mkdir -p "${OUT_DIR}"

echo "host cores: ${HOST_CORES}"

HAVE_PYTHON3=0
if command -v python3 >/dev/null 2>&1; then
  HAVE_PYTHON3=1
else
  echo "python3 not found; skipping max_resident_bytes capture" >&2
fi

# Runs the bench (stdout/stderr inherited) and writes the child's peak RSS
# in bytes to $1. ru_maxrss is kilobytes on Linux but BYTES on macOS —
# scale per platform so a mac-produced baseline isn't 1024x inflated.
run_with_rss() {
  local rss_file="$1"
  shift
  python3 - "${rss_file}" "$@" <<'PY'
import resource, subprocess, sys
rc = subprocess.call(sys.argv[2:])
scale = 1 if sys.platform == "darwin" else 1024
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * scale
with open(sys.argv[1], "w") as f:
    f.write(str(rss))
sys.exit(rc)
PY
}

# Injects max_resident_bytes into the JSON's context block, next to
# host_cores / num_cpus.
inject_rss() {
  local json="$1" rss="$2"
  python3 - "${json}" "${rss}" <<'PY'
import json, sys
path, rss = sys.argv[1], int(sys.argv[2])
with open(path) as f:
    data = json.load(f)
data.setdefault("context", {})["max_resident_bytes"] = rss
with open(path, "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")
PY
}

BENCHES=(bench_recovery bench_comparison bench_srg_kernels bench_table_registry bench_dist_sweep bench_tricircular bench_construction)
WRITTEN_JSONS=()

for bench in "${BENCHES[@]}"; do
  bin="${BUILD_DIR}/${bench}"
  if [[ ! -x "${bin}" ]]; then
    echo "skipping ${bench}: ${bin} not built" >&2
    continue
  fi
  out="${OUT_DIR}/BENCH_${bench#bench_}.json"
  if [[ "${bench}" == "bench_dist_sweep" ]]; then
    # Short name for the multi-process fan-out overhead baseline.
    out="${OUT_DIR}/BENCH_dist.json"
  fi
  echo "== ${bench} -> ${out}"
  bench_cmd=("${bin}"
    --benchmark_filter="${FILTER}"
    --benchmark_repetitions=3
    --benchmark_report_aggregates_only=true
    --benchmark_format=console
    --benchmark_out="${out}"
    --benchmark_out_format=json)
  if [[ "${HAVE_PYTHON3}" -eq 1 ]]; then
    rss_file="$(mktemp)"
    run_with_rss "${rss_file}" "${bench_cmd[@]}"
    inject_rss "${out}" "$(cat "${rss_file}")"
    rm -f "${rss_file}"
  else
    "${bench_cmd[@]}"
  fi
  WRITTEN_JSONS+=("${out}")
done

# A filter alternative that matches nothing is a silently skipped
# acceptance metric (a typo'd BENCH_FILTER, or a renamed benchmark, would
# otherwise just drop its baseline from the JSONs). Check post hoc against
# the names the runs actually recorded — cheaper than --benchmark_list_tests,
# which would execute every binary's expensive table preamble a second time.
if [[ "${#WRITTEN_JSONS[@]}" -gt 0 ]]; then
  IFS='|' read -r -a FILTER_ALTS <<< "${FILTER}"
  for alt in "${FILTER_ALTS[@]}"; do
    [[ -z "${alt}" ]] && continue
    matched=0
    for json in "${WRITTEN_JSONS[@]}"; do
      if grep -E -- '"name": "' "${json}" | grep -E -q -- "${alt}"; then
        matched=1
        break
      fi
    done
    if [[ "${matched}" -eq 0 ]]; then
      echo "error: BENCH_FILTER alternative '${alt}' matched no benchmark" >&2
      echo "       in: ${WRITTEN_JSONS[*]}" >&2
      exit 1
    fi
  done
fi

echo "done; baselines:"
ls -1 "${OUT_DIR}"/BENCH_*.json
