#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

Run from the repository root:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds `benchmark/` (a cargo package of its own) in release mode, then
runs the probe binary in fresh processes until `--seconds` of measuring are
spent, checks every output, and prints one JSON result as the last line of
stdout.

* `--trace 0`: the end-to-end metrics of BENCHMARK.json. Serving workloads
  interleave untraced and traced passes, one process each; `paper-boot`
  runs whole passes of the figure drivers, then extra set-up-only
  processes so `setup_s` is a median of several set-ups.
* `--trace 1`: the per-layer metrics, from repeated per-layer runs in which
  the benchmark records its own spans (written to `.bench_out/`).

Workloads, metric definitions and the layer -> end-to-end map are in
`benchmark/README.md`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("paper-boot", "serve-attested", "serve-elastic")
FIGURES = ("fig9", "fig10", "fig11", "fig12", "headline")
# Lower bounds on samples per run, whatever --seconds says: serving
# cycles (untraced, traced, untraced passes) and set-ups.
MIN_CYCLES = 3
MIN_SETUPS = 9
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

# The end-to-end metric each per-layer metric should move, and where.
MOVES = {
    "image.synth_ms": "pass_s on paper-boot; setup_s on serve-*",
    "codec.compress_ms": "pass_s on paper-boot; setup_s on serve-*",
    "codec.decompress_ms": "pass_s on paper-boot; setup_s on serve-*",
    "codec.ratio": "pass_s on paper-boot; setup_s on serve-*",
    "crypto.sha256_mb_s": "pass_s on paper-boot; setup_s on serve-*",
    "crypto.xex_mb_s": "pass_s on paper-boot; setup_s on serve-*",
    "psp.measure_ms": "pass_s on paper-boot; setup_s on serve-*",
    "psp.pages_measured": "sim_p50_ms on paper-boot",
    "vmm.boot_ms.cold": "pass_s on paper-boot; setup_s on serve-*",
    "vmm.boot_ms.template_fill": "pass_s on paper-boot; setup_s on serve-*",
    "vmm.boot_ms.template_hit": "pass_s on paper-boot; setup_s on serve-*",
    "vmm.boot_ms.ovmf": "pass_s on paper-boot; setup_s on serve-*",
    "vmm.boot_ms.stock": "pass_s on paper-boot; setup_s on serve-*",
    "core.fig_s.9": "pass_s on paper-boot",
    "core.fig_s.10": "pass_s on paper-boot",
    "core.fig_s.11": "pass_s on paper-boot",
    "core.fig_s.12": "pass_s on paper-boot",
    "core.fig_s.headline": "pass_s on paper-boot",
    "core.boot_reduction": "sim_p50_ms on paper-boot",
    "cluster.us_per_req": "pass_s on serve-attested and serve-elastic",
    "attplane.delta_us": "pass_s on serve-attested only",
    "policy.delta_us": "pass_s on serve-attested only",
    "net.delta_us": "pass_s on serve-attested only",
    "fleet.recovery.delta_us": "pass_s on serve-elastic only",
    "scale.delta_us": "pass_s on serve-elastic only",
    "obs.recorder_us": "traced_pass_s and traced_peak_rss_mb on serve-*; not pass_s",
    "fleet.template_hit_ratio": "sim_p50_ms on serve-*",
    "fleet.warm_hits": "sim_p50_ms on serve-*",
    "fleet.retries": "sim_p50_ms on serve-*",
    "fleet.psp_util": "sim_p50_ms on serve-*",
    "cluster.failovers": "sim_p99_ms on serve-*",
    "cluster.psp_skew": "sim_p99_ms on serve-*",
    "attplane.cert_hit_ratio": "sim_p99_ms on serve-attested",
    "attplane.batch_join_ratio": "sim_p99_ms on serve-attested",
    "attplane.queue_wait_ms": "sim_p99_ms on serve-attested",
    "net.lost": "sim_completed_frac on serve-attested",
    "net.timeouts": "sim_completed_frac on serve-attested",
    "net.false_suspicions": "sim_completed_frac on serve-attested",
    "net.lease_expiries": "sim_completed_frac on serve-attested",
    "net.stale_completions": "sim_completed_frac on serve-attested",
    "policy.rejected": "sim_completed_frac on serve-attested",
    "policy.posture_redirects": "sim_p99_ms on serve-attested",
    "policy.posture_violations": "correctness (must be 0)",
    "scale.outs": "scale.sim_host_seconds and sim_p99_ms on serve-elastic",
    "scale.ins": "scale.sim_host_seconds and sim_p99_ms on serve-elastic",
    "scale.prewarms": "scale.sim_host_seconds and sim_p99_ms on serve-elastic",
    "scale.max_live": "scale.sim_host_seconds and sim_p99_ms on serve-elastic",
    "scale.sim_host_seconds": "provisioning cost on serve-elastic",
    "sim.trace_entries_per_req": "pass_s and peak_rss_mb on serve-*",
    "bench.span_overhead_frac": "none: the benchmark's own span recorder",
}


def fail(msg, code=1):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    return args


def build():
    """Builds the probe; returns the path of its binary."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("benchmark", "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "sevf-benchmark")


def child(binary, job, workload, seed, *extra):
    """Runs one probe process to completion; returns its JSON result."""
    cmd = [binary, job, "--workload", workload, "--seed", str(seed), *extra]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{job} timed out after {CHILD_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{job} exited with code {done.returncode}")
    try:
        return json.loads(done.stdout)
    except json.JSONDecodeError as e:
        fail(f"{job} printed no JSON result: {e}")


def committed_figures():
    figures = {}
    for fig in FIGURES:
        with open(os.path.join("data", f"{fig}.json")) as f:
            figures[fig] = json.load(f)["data"]
    return figures


def figure_mismatches(path, committed):
    """Compares regenerated figure series by value with data/*.json."""
    with open(path) as f:
        regenerated = json.load(f)
    return [f"{fig} differs from data/{fig}.json"
            for fig in FIGURES if regenerated.get(fig) != committed[fig]]


def keep_going(started, deadline, done, minimum):
    """Whether another sample fits the time budget (or is still owed)."""
    if done < minimum:
        return True
    per_sample = (time.monotonic() - started) / max(done, 1)
    return time.monotonic() + per_sample <= deadline


class Checks:
    """Counts reps and the reps that failed any correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def rep(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(problems)


def rep_problems(rep, first):
    problems = list(rep.get("checks_failed", []))
    for key in ("digest", "sim_p50_ms", "sim_p99_ms", "sim_completed_frac"):
        if rep[key] != first[key]:
            problems.append(f"{key} differs between reps of one seed")
    return problems


def end_to_end(binary, args, deadline, checks, out_dir):
    w, seed = args.workload, args.seed
    untraced, traced, setups = [], [], []
    started = time.monotonic()
    if w == "paper-boot":
        committed = committed_figures()
        while keep_going(started, deadline, len(untraced), 1):
            path = os.path.join(out_dir, f"figures-{w}-{seed}-{len(untraced)}.json")
            rep = child(binary, "pass", w, seed, "--figures", path)
            untraced.append(rep)
            checks.rep(rep_problems(rep, untraced[0]) + figure_mismatches(path, committed))
        # The boot path records its timeline unconditionally: its one pass
        # is also its traced pass.
        traced = untraced
        setups = [r["setup_s"] for r in untraced]
        while len(setups) < MIN_SETUPS:
            setups.append(child(binary, "setup", w, seed)["setup_s"])
    else:
        cycles = 0
        while keep_going(started, deadline, cycles, MIN_CYCLES):
            # The short untraced pass gets two samples per cycle, one on
            # each side of the traced pass, so drift hits both kinds alike.
            for is_traced in (False, True, False):
                rep = child(binary, "pass", w, seed, *(["--traced"] if is_traced else []))
                (traced if is_traced else untraced).append(rep)
                checks.rep(rep_problems(rep, untraced[0]))
            cycles += 1
        setups = [r["setup_s"] for r in untraced + traced]
    samples = {
        "setup_s": setups,
        "pass_s": [r["pass_s"] for r in untraced],
        "traced_pass_s": [r["pass_s"] for r in traced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "traced_peak_rss_mb": [r["peak_rss_mb"] for r in traced],
    }
    for name, values in samples.items():
        print(f"{name}: median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}")
    values = {name: statistics.median(v) for name, v in samples.items()}
    for name in ("sim_p50_ms", "sim_p99_ms", "sim_completed_frac"):
        values[name] = untraced[0][name]
    return values


def per_layer(binary, args, deadline, checks, out_dir, names):
    w, seed = args.workload, args.seed
    committed = committed_figures() if w == "paper-boot" else None
    runs = []
    started = time.monotonic()
    while keep_going(started, deadline, len(runs), 1):
        spans = os.path.join(out_dir, f"spans-{w}-{seed}-{len(runs)}.json")
        extra = ["--spans", spans]
        if committed is not None:
            figures = os.path.join(out_dir, f"figures-{w}-{seed}-layers-{len(runs)}.json")
            extra += ["--figures", figures]
        rep = child(binary, "layers", w, seed, *extra)
        problems = list(rep.get("checks_failed", []))
        if committed is not None:
            problems += figure_mismatches(figures, committed)
        checks.rep(problems)
        runs.append(rep)
    return {n: statistics.median(r[n] for r in runs)
            for n in names if all(n in r for r in runs)}


def main():
    args = parse_args()
    for path in ("BENCHMARK.json", os.path.join("crates", "core", "Cargo.toml"),
                 os.path.join("data", "fig9.json")):
        if not os.path.isfile(path):
            fail(f"{path} not found: run from the root of a full checkout", 2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    binary = build()
    out_dir = ".bench_out"
    os.makedirs(out_dir, exist_ok=True)
    deadline = time.monotonic() + args.seconds
    checks = Checks()
    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(binary, args, deadline, checks, out_dir, [m["name"] for m in wanted])
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(binary, args, deadline, checks, out_dir)
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in values:
            fail(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        moves = f"  -> {MOVES[name]}" if args.trace else ""
        print(f"{name:28} {values[name]:>16.6g} {m['unit']:8}{moves}")
    for reason in checks.reasons:
        print(f"CHECK FAILED: {reason}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
