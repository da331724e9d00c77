#!/usr/bin/env python3
"""Run one workload of the ftroute benchmark and print its result.

    python3 perfbench/run.py --workload certify_gray --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --self-check

Run from the repository root. The script builds the library and the
benchmark programs from source into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench), generates the workload's inputs from the seed,
runs the driver, and checks that the driver reported exactly the metrics
BENCHMARK.json names, each with its unit. The last line of stdout is the
driver's JSON result. Any failure exits non-zero without printing a result.

--workload all runs every workload in turn and prints each one's report;
it exits non-zero if any run fails or reports a wrong answer.

--self-check runs every workload at its tiny size, untraced and traced, and
fails if any metric is missing, renamed, or has the wrong unit, or if a
traced run times a layer outside the workload's layer map (LAYERS).
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["certify_gray", "sampled_adversary", "serve_mix", "dist_sweep"]

# The src/ layers each workload calls, directly or through the registry
# (serve_mix) or the pool's workers (dist_sweep). The traced run times only
# these; a per-layer metric of any other layer must read 0, and the driver
# fails a run whose spans show a different set of layers.
LAYERS = {
    "certify_gray": ["graph", "core", "fault", "analysis", "common"],
    "sampled_adversary": ["routing", "fault", "analysis", "common", "sim"],
    "serve_mix": ["graph", "routing", "core", "fault", "sim", "serve"],
    "dist_sweep": ["routing", "fault", "sim", "dist"],
}
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, base, "perfbench")


def build(root):
    """Configures once, then (re)builds the two programs; returns bin dir."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("no ftroute sources (CMakeLists.txt, src/) in " + root)
    out = build_dir(root)
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.call(["which", "ninja"], stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL) == 0:
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                fail("cmake configure failed, see " + log_path)
        jobs = str(os.cpu_count() or 1)
        cmd = ["cmake", "--build", out, "-j", jobs, "--target",
               "perfbench_gen", "perfbench_driver"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail("build failed, see " + log_path)
    return out


def generate(bins, workload, seed, tiny):
    """Writes the workload's inputs once per (workload, seed, size)."""
    name = f"{workload}-s{seed}" + ("-tiny" if tiny else "")
    out = os.path.join(bins, "inputs", name)
    gen = os.path.join(bins, "perfbench_gen")
    # Inputs are reused only if the generator that wrote them is unchanged.
    stamp = str(os.stat(gen).st_mtime_ns)
    done = os.path.join(out, "DONE")
    if os.path.isfile(done) and open(done).read() == stamp:
        return out
    os.makedirs(out, exist_ok=True)
    cmd = [gen, "--workload", workload, "--seed", str(seed), "--out", out]
    if tiny:
        cmd.append("--tiny")
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        fail("input generation failed")
    with open(done, "w") as f:
        f.write(stamp)
    return out


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def run_driver(bins, workload, inputs, seconds, trace):
    cmd = [os.path.join(bins, "perfbench_driver"), "--dir", inputs,
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--layers", ",".join(LAYERS[workload])]
    # Own process group, so a timeout also stops forked pool workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"driver exited with code {proc.returncode}")
    return lines


def check_result(result_line, expected, workload):
    """Parses the driver's JSON line and compares metrics to BENCHMARK.json
    and to the workload's layer map."""
    try:
        result = json.loads(result_line)
    except json.JSONDecodeError:
        fail("driver's last line is not JSON: " + result_line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from the contract")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    wrong = sorted(k for k in expected if k in got and got[k] != expected[k])
    if missing or extra or wrong:
        fail(f"metrics differ from BENCHMARK.json: missing={missing} "
             f"unexpected={extra} wrong_unit={wrong}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            fail(f"metric {k} has no numeric value")
        layer = k.split(".")[0]
        if ("." in k and layer != "trace" and layer not in LAYERS[workload]
                and v["value"] != 0):
            fail(f"{workload} reports {k} but does not call the {layer} layer")
    return result


def self_check(root, bins):
    for workload in WORKLOADS:
        inputs = generate(bins, workload, 1, tiny=True)
        for trace in (False, True):
            lines = run_driver(bins, workload, inputs, 1, trace)
            result = check_result(lines[-1], expected_metrics(root, trace),
                                  workload)
            if not result["correct"] or result["failed"] != 0:
                fail(f"{workload} trace={int(trace)}: incorrect answers")
            print(f"self-check {workload} trace={int(trace)}: "
                  f"{len(result['metrics'])} metrics, "
                  f"{result['attempted']} attempted, ok")
    print("self-check passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        fail("run from the repository root (no BENCHMARK.json here)")
    bins = build(root)
    if args.self_check:
        self_check(root, bins)
        return
    if args.workload is None:
        fail("--workload is required")
    expected = expected_metrics(root, bool(args.trace))
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        inputs = generate(bins, workload, args.seed, tiny=False)
        lines = run_driver(bins, workload, inputs, args.seconds,
                           bool(args.trace))
        result = check_result(lines[-1], expected, workload)
        sys.stdout.write("\n".join(lines) + "\n")
        sys.stdout.flush()
        if args.workload == "all" and not result["correct"]:
            fail(f"{workload}: incorrect answers")


if __name__ == "__main__":
    main()
