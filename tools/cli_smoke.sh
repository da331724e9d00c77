#!/usr/bin/env bash
# End-to-end CLI smoke: gen | build | check | sweep --stdin | serve --stdin
# piped on a small topology, asserting stdout is byte-identical across
# --threads 1 and --threads 4 for every verb that fans out work, across
# every --kernel choice and every packed --lanes width on the exhaustive
# sweep, and across --workers process counts on the distributed
# sweep and on every branch of the check (Gray, lexicographic, sampled +
# hill-climbing). This is the executable form of the repo's determinism
# contract — if a thread count
# or kernel choice ever leaks into stdout, this script (and the CI job
# running it) fails on the cmp.
#
# It also pins absolute behavior, not just self-consistency: key verb
# outputs are cmp'd byte-for-byte against tests/golden/cli/*.golden (the
# outputs captured before the CLI/exec-policy refactor), every verb's
# --help must list every flag its parser accepts, and unknown flags /
# missing values must be rejected uniformly (exit 2, usage on stderr).
#
# Usage: tools/cli_smoke.sh [build-dir]   (default: ./build)
set -euo pipefail

BUILD_DIR="${1:-build}"
CLI="${BUILD_DIR}/ftroute_cli"
if [[ ! -x "${CLI}" ]]; then
  echo "error: ${CLI} not built" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

echo "== gen | build"
"${CLI}" gen torus 5 5 > "${WORK}/graph.ftg"
"${CLI}" build --seed 42 < "${WORK}/graph.ftg" \
  > "${WORK}/table.ftt" 2> "${WORK}/build.log"

# Line-delimited fault sets for the streaming sweep.
printf '0 7\n3 11\n1 2 3\n24 12\n6\n' > "${WORK}/faults.txt"

# Tables manifest + request stream for the serving layer. The certify
# request carries explicit bounds because file-loaded tables have no
# planner claims.
printf 'table demo graph=%s routes=%s\n' \
  "${WORK}/graph.ftg" "${WORK}/table.ftt" > "${WORK}/tables.txt"
cat > "${WORK}/requests.txt" <<'EOF'
# smoke request mix: every kind, one table
check demo f=2 claimed=6 seed=5
sweep demo f=2 sets=40 seed=9 pairs=3
delivery demo faults=3,7 pairs=4 seed=11
sweep demo f=2 exhaustive seed=1
certify demo f=2 claimed=6 seed=13
EOF

for t in 1 4; do
  echo "== check/sweep/serve at --threads ${t}"
  "${CLI}" check "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 2 --claimed 6 --seed 7 --threads "${t}" \
    > "${WORK}/check.${t}.out" 2> /dev/null
  "${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --stdin --threads "${t}" --batch 3 < "${WORK}/faults.txt" \
    > "${WORK}/sweep.${t}.out" 2> /dev/null
  "${CLI}" serve --tables "${WORK}/tables.txt" --stdin \
    --threads "${t}" --batch 2 < "${WORK}/requests.txt" \
    > "${WORK}/serve.${t}.out" 2> /dev/null
done

echo "== comparing stdout across thread counts"
cmp "${WORK}/check.1.out" "${WORK}/check.4.out"
cmp "${WORK}/sweep.1.out" "${WORK}/sweep.4.out"
cmp "${WORK}/serve.1.out" "${WORK}/serve.4.out"

# Evaluation kernels: the exhaustive sweep and the check must print the
# same bytes whichever kernel evaluates them (the goldens below pin the
# answer itself).
echo "== comparing stdout across --kernel choices"
for k in auto bitset packed; do
  "${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 2 --exhaustive --threads 2 --kernel "${k}" \
    > "${WORK}/xsweep.${k}.out" 2> /dev/null
  "${CLI}" check "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 2 --claimed 6 --seed 7 --kernel "${k}" \
    > "${WORK}/xcheck.${k}.out" 2> /dev/null
done
for k in bitset packed; do
  cmp "${WORK}/xsweep.auto.out" "${WORK}/xsweep.${k}.out"
  cmp "${WORK}/xcheck.auto.out" "${WORK}/xcheck.${k}.out"
done

# Packed lane widths: the width is a pure throughput knob — the exhaustive
# sweep and the check must print the same bytes at every --lanes value,
# and the distributed path (width inside forked workers) must match too.
echo "== comparing stdout across --lanes widths"
for l in auto 64 128 256 512; do
  "${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 2 --exhaustive --threads 2 --kernel packed --lanes "${l}" \
    > "${WORK}/lsweep.${l}.out" 2> /dev/null
  "${CLI}" check "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 2 --claimed 6 --seed 7 --kernel packed --lanes "${l}" \
    > "${WORK}/lcheck.${l}.out" 2> /dev/null
done
for l in 64 128 256 512; do
  cmp "${WORK}/lsweep.auto.out" "${WORK}/lsweep.${l}.out"
  cmp "${WORK}/lcheck.auto.out" "${WORK}/lcheck.${l}.out"
done
cmp "${WORK}/xsweep.auto.out" "${WORK}/lsweep.auto.out"
cmp "${WORK}/xcheck.auto.out" "${WORK}/lcheck.auto.out"
"${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
  --faults 2 --exhaustive --threads 2 --kernel packed --lanes 64 \
  --workers 4 --worker-batch 9 \
  > "${WORK}/lsweep.dist.out" 2> /dev/null
cmp "${WORK}/lsweep.auto.out" "${WORK}/lsweep.dist.out"

# The serve output must answer every request (no dropped/erroring lines).
if [[ "$(wc -l < "${WORK}/serve.1.out")" -ne 5 ]]; then
  echo "error: expected 5 response lines" >&2
  cat "${WORK}/serve.1.out" >&2
  exit 1
fi
if grep -q "error:" "${WORK}/serve.1.out"; then
  echo "error: serve answered with an error response" >&2
  cat "${WORK}/serve.1.out" >&2
  exit 1
fi

# Binary snapshot round trip: dump the graph+routes into a snapshot, serve
# from a snapshot= manifest (both load paths), and demand stdout identical
# to the build-on-miss serve above — the snapshot is a cold-path
# accelerator, never a behavior change. Snapshots are also accepted
# anywhere a graph/table file is read (check/sweep sniff the magic).
echo "== snapshot round trip"
"${CLI}" snapshot --graph "${WORK}/graph.ftg" --routes "${WORK}/table.ftt" \
  --out "${WORK}/table.snap" 2> /dev/null
for m in mmap bulk; do
  printf 'table demo snapshot=%s snapshot_load=%s\n' \
    "${WORK}/table.snap" "${m}" > "${WORK}/tables.snap.txt"
  for t in 1 4; do
    "${CLI}" serve --tables "${WORK}/tables.snap.txt" --stdin \
      --threads "${t}" --batch 2 < "${WORK}/requests.txt" \
      > "${WORK}/serve.snap.${m}.${t}.out" 2> /dev/null
    cmp "${WORK}/serve.1.out" "${WORK}/serve.snap.${m}.${t}.out"
  done
done

echo "== snapshot accepted by check/sweep"
"${CLI}" check "${WORK}/table.snap" "${WORK}/table.snap" \
  --faults 2 --claimed 6 --seed 7 > "${WORK}/check.snap.out" 2> /dev/null
cmp "${WORK}/check.1.out" "${WORK}/check.snap.out"
"${CLI}" sweep "${WORK}/table.snap" "${WORK}/table.snap" \
  --stdin --threads 2 --batch 3 < "${WORK}/faults.txt" \
  > "${WORK}/sweep.snap.out" 2> /dev/null
cmp "${WORK}/sweep.1.out" "${WORK}/sweep.snap.out"

# Distributed sweeps: forked snapshot-fed workers must print the same
# stdout bytes as the in-process path (--workers 0) for every worker
# count and unit size — on the exhaustive sweep, the stdin stream, and
# the tolerance check. The snapshot form exercises the mmap-the-file
# worker feed; the graph+table form exercises the fd-passed payload.
echo "== distributed sweep/check vs in-process"
"${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
  --faults 2 --exhaustive --delivery-pairs 3 --seed 7 \
  > "${WORK}/dsweep.0.out" 2> /dev/null
for w in 1 4; do
  "${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 2 --exhaustive --delivery-pairs 3 --seed 7 \
    --workers "${w}" --worker-batch 9 \
    > "${WORK}/dsweep.${w}.out" 2> /dev/null
  cmp "${WORK}/dsweep.0.out" "${WORK}/dsweep.${w}.out"
done
"${CLI}" sweep "${WORK}/table.snap" "${WORK}/table.snap" \
  --faults 2 --exhaustive --delivery-pairs 3 --seed 7 --workers 2 \
  > "${WORK}/dsweep.snap.out" 2> /dev/null
cmp "${WORK}/dsweep.0.out" "${WORK}/dsweep.snap.out"
"${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
  --stdin --workers 2 --worker-batch 2 < "${WORK}/faults.txt" \
  > "${WORK}/dsweep.stdin.out" 2> /dev/null
cmp "${WORK}/sweep.1.out" "${WORK}/dsweep.stdin.out"
for w in 1 4; do
  "${CLI}" check "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 2 --claimed 6 --seed 7 --workers "${w}" \
    > "${WORK}/dcheck.${w}.out" 2> /dev/null
  cmp "${WORK}/check.1.out" "${WORK}/dcheck.${w}.out"
done
# The check's other two branches: lexicographic exhaustion (C(25, 4) fits
# the budget, f > 3) and sampling + hill-climbing (C(64, 3) does not).
"${CLI}" gen torus 8 8 > "${WORK}/graph8.ftg"
"${CLI}" build --seed 42 < "${WORK}/graph8.ftg" \
  > "${WORK}/table8.ftt" 2> /dev/null
for w in 0 1 4; do
  "${CLI}" check "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 4 --claimed 6 --seed 7 --workers "${w}" \
    > "${WORK}/lexcheck.${w}.out" 2> /dev/null || true
  "${CLI}" check "${WORK}/graph8.ftg" "${WORK}/table8.ftt" \
    --faults 3 --claimed 8 --seed 7 --workers "${w}" \
    > "${WORK}/advcheck.${w}.out" 2> /dev/null || true
done
grep -q "exhaustive, 12650 sets" "${WORK}/lexcheck.0.out"
grep -q "adversarial" "${WORK}/advcheck.0.out"
for w in 1 4; do
  cmp "${WORK}/lexcheck.0.out" "${WORK}/lexcheck.${w}.out"
  cmp "${WORK}/advcheck.0.out" "${WORK}/advcheck.${w}.out"
done

# Golden stdout: byte-exact outputs pinned before the CLI/exec-policy
# refactor. Any drift in what these verbs print is a behavior change and
# must be a conscious golden update, never an accident of plumbing.
echo "== golden stdout cmp"
GOLD="$(cd "$(dirname "$0")/.." && pwd)/tests/golden/cli"
"${CLI}" stretch "${WORK}/graph.ftg" "${WORK}/table.ftt" \
  > "${WORK}/stretch.out" 2> /dev/null
cmp "${GOLD}/check.golden" "${WORK}/check.1.out"
cmp "${GOLD}/sweep_stdin.golden" "${WORK}/sweep.1.out"
cmp "${GOLD}/serve.golden" "${WORK}/serve.1.out"
cmp "${GOLD}/sweep_exhaustive.golden" "${WORK}/xsweep.auto.out"
cmp "${GOLD}/sweep_exhaustive_delivery.golden" "${WORK}/dsweep.0.out"
cmp "${GOLD}/stretch.golden" "${WORK}/stretch.out"

# Per-verb --help: exit 0 and list every flag the verb's parser accepts
# (usage is generated from the same registry the parser consults, so a
# missing flag here means the registry and this list drifted).
echo "== per-verb --help lists every registered flag"
help_has() {
  local verb="$1"; shift
  "${CLI}" "${verb}" --help > "${WORK}/help.${verb}.out"
  local f
  for f in "$@"; do
    if ! grep -q -- "${f}" "${WORK}/help.${verb}.out"; then
      echo "error: ${verb} --help does not mention ${f}" >&2
      cat "${WORK}/help.${verb}.out" >&2
      exit 1
    fi
  done
}
help_has gen
help_has profile
help_has build --seed --certify --threads --kernel --lanes
help_has check --faults --claimed --seed --workers --worker-batch \
  --worker-timeout --threads --kernel --lanes
help_has sweep --faults --sets --seed --exhaustive --stdin \
  --delivery-pairs --workers --worker-batch --worker-timeout --threads \
  --kernel --lanes --batch --progress-every
help_has serve --tables --requests --stdin --max-resident-bytes \
  --threads --kernel --lanes --batch --progress-every
help_has stretch
help_has snapshot --graph --routes --seed --out

# Uniform strictness: every verb rejects unknown flags and missing flag
# values with exit 2 and its usage on stderr.
echo "== unknown flags / missing values rejected uniformly"
expect_usage_error() {
  local verb="$1"; shift
  local rc=0
  "${CLI}" "${verb}" "$@" > /dev/null 2> "${WORK}/neg.err" < /dev/null \
    || rc=$?
  if [[ "${rc}" -ne 2 ]]; then
    echo "error: ftroute ${verb} $* exited ${rc}, want 2" >&2
    cat "${WORK}/neg.err" >&2
    exit 1
  fi
  if ! grep -q "usage: ftroute ${verb}" "${WORK}/neg.err"; then
    echo "error: ftroute ${verb} $* did not print its usage" >&2
    cat "${WORK}/neg.err" >&2
    exit 1
  fi
}
for v in gen profile build check sweep serve stretch snapshot; do
  expect_usage_error "${v}" --definitely-not-a-flag
done
expect_usage_error build --seed
expect_usage_error check --faults
expect_usage_error sweep --sets
expect_usage_error sweep --threads
expect_usage_error serve --tables
expect_usage_error snapshot --graph
expect_usage_error check --kernel frob
expect_usage_error sweep --lanes 96
# The removed scalar kernel and the removed executor flag are refused.
expect_usage_error check --kernel scalar
expect_usage_error sweep --executor steal
expect_usage_error sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
  --stdin --exhaustive

# A fault budget above the node count has no fault sets: check and sweep
# refuse it (exit 1, naming f and n) in-process and distributed alike.
echo "== fault budget above the node count rejected"
expect_contract_error() {
  local rc=0
  "${CLI}" "$@" > /dev/null 2> "${WORK}/neg.err" < /dev/null || rc=$?
  if [[ "${rc}" -ne 1 ]] \
      || ! grep -q "f=26 exceeds the n=25" "${WORK}/neg.err"; then
    echo "error: ftroute $* exited ${rc}, want 1 naming f and n" >&2
    cat "${WORK}/neg.err" >&2
    exit 1
  fi
}
for w in 0 2; do
  expect_contract_error check "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 26 --workers "${w}"
  expect_contract_error sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 26 --exhaustive --workers "${w}"
  expect_contract_error sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 26 --sets 5 --workers "${w}"
done

# Planner-built snapshots (no routes file) must serve like seed-built
# manifests: same planner seed, same table, same bytes.
echo "== planner-built snapshot vs seed-built manifest"
"${CLI}" snapshot --graph "${WORK}/graph.ftg" --seed 42 \
  --out "${WORK}/planned.snap" 2> /dev/null
printf 'table demo graph=%s seed=42\n' "${WORK}/graph.ftg" \
  > "${WORK}/tables.seed.txt"
printf 'table demo snapshot=%s\n' "${WORK}/planned.snap" \
  > "${WORK}/tables.planned.txt"
"${CLI}" serve --tables "${WORK}/tables.seed.txt" --stdin --threads 2 \
  < "${WORK}/requests.txt" > "${WORK}/serve.seed.out" 2> /dev/null
"${CLI}" serve --tables "${WORK}/tables.planned.txt" --stdin --threads 2 \
  < "${WORK}/requests.txt" > "${WORK}/serve.planned.out" 2> /dev/null
cmp "${WORK}/serve.seed.out" "${WORK}/serve.planned.out"

# A corrupted snapshot must fail loudly, naming the file — never serve.
echo "== corrupted snapshot fails loudly"
cp "${WORK}/table.snap" "${WORK}/corrupt.snap"
printf '\xff' | dd of="${WORK}/corrupt.snap" bs=1 seek=200 count=1 \
  conv=notrunc status=none
printf 'table demo snapshot=%s\n' "${WORK}/corrupt.snap" \
  > "${WORK}/tables.corrupt.txt"
if "${CLI}" serve --tables "${WORK}/tables.corrupt.txt" --stdin \
    < "${WORK}/requests.txt" > "${WORK}/corrupt.out" 2> /dev/null; then
  echo "error: serve accepted a corrupted snapshot" >&2
  exit 1
fi
if ! grep -q "corrupt.snap" "${WORK}/corrupt.out"; then
  echo "error: corruption failure does not name the snapshot file" >&2
  cat "${WORK}/corrupt.out" >&2
  exit 1
fi

echo "cli smoke OK"
