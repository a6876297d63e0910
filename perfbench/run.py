#!/usr/bin/env python3
"""Build and run the lnpram same-host benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload route-bfly10 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck [--seconds 2]

The first form builds the benchmark package (perfbench/) and the `lnpram`
CLI in release mode, prints a provenance line, then runs one workload;
the last line of stdout is the JSON result. Build output goes to stderr.
Build products go to $CARGO_TARGET_DIR, or to .bench_build/ when unset.

The second form is the benchmark's self-check: simulated metrics and hop
counts must repeat exactly across two same-seed runs and agree between
traced and untraced runs, and a held-out seed must pass every
correctness gate.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

WORKLOADS = ["emulate-shuffle5", "route-bfly10", "route-mesh32-k2", "serve-bfly10"]
HELD_OUT_SEED = 9001
# Per-layer metrics that are simulated counts: they must repeat exactly.
DETERMINISTIC_LAYERS = [
    "simnet.hops_per_op",
    "simnet.queued_packet_steps",
    "simnet.max_queue",
    "shard.boundary_pkts_per_step",
    "core.request_steps",
    "core.reply_steps",
    "core.service_steps",
    "core.combined_per_request",
    "core.rehashes_per_step",
    "core.remap_steps",
    "serve.deferred_request_steps",
    "serve.max_backlog",
    "serve.fairness",
]


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Release-build the benchmark and the CLI; return both binaries."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "Cargo.toml", "--bin", "lnpram"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "lnpram-perfbench"), os.path.join(release, "lnpram")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def git_rev():
    """HEAD of the repository rooted here, or "unknown" (a checkout that
    is not a git repository, or one nested inside another repository)."""
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top == "unknown" or os.path.realpath(top) != os.path.realpath("."):
        return "unknown"
    return command_output(["git", "rev-parse", "HEAD"])


def source_hash():
    """sha256 over the sources the benchmark builds (the checkout may not
    be a git repository, so this names the code under test)."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]
    skip = {"target", ".bench_build", "__pycache__"}
    for root in roots:
        paths = []
        if os.path.isfile(root):
            paths.append(root)
        for d, dirs, files in os.walk(root):
            dirs[:] = sorted(x for x in dirs if x not in skip)
            paths.extend(os.path.join(d, f) for f in sorted(files))
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args):
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    return {
        "git_rev": git_rev(),
        "source_sha256": source_hash(),
        "rustc": command_output(["rustc", "-V"]),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "affinity": affinity,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_bench(bench, lnpram, workload, seed, seconds, trace, echo):
    """Run one workload; return (detail, result) parsed from its output."""
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--lnpram", lnpram]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l)["detail"] for l in lines if l.startswith('{"detail"'))
    return detail, json.loads(lines[-1])


def selfcheck(bench, lnpram, seconds):
    problems = []
    for w in WORKLOADS:
        d1, r1 = run_bench(bench, lnpram, w, 1, seconds, 0, False)
        d2, r2 = run_bench(bench, lnpram, w, 1, seconds, 0, False)
        for key in ("simulated", "hops_per_round"):
            if d1.get(key) != d2.get(key):
                problems.append(f"{w}: {key} differs between same-seed runs: {d1.get(key)} vs {d2.get(key)}")
        t1 = run_bench(bench, lnpram, w, 1, seconds, 1, False)[1]["metrics"]
        t2 = run_bench(bench, lnpram, w, 1, seconds, 1, False)[1]["metrics"]
        for key in DETERMINISTIC_LAYERS:
            if t1[key]["value"] != t2[key]["value"]:
                problems.append(f"{w}: {key} differs between same-seed traced runs")
        if "ops_per_round" in d1:
            per_op = d1["hops_per_round"] / d1["ops_per_round"]
            if per_op != t1["simnet.hops_per_op"]["value"]:
                problems.append(f"{w}: untraced hops per op {per_op} != traced {t1['simnet.hops_per_op']['value']}")
        for trace in (0, 1):
            r = run_bench(bench, lnpram, w, HELD_OUT_SEED, seconds, trace, False)[1]
            if not r["correct"] or r["failed"] != 0:
                problems.append(f"{w}: held-out seed {HELD_OUT_SEED} trace {trace}: {r}")
        print(f"selfcheck {w}: {'ok' if not problems else 'FAILED'}", flush=True)
    for p in problems:
        print("  " + p)
    print(json.dumps({"selfcheck": "ok" if not problems else "failed", "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measured seconds [20; self-check 2]")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required (or --selfcheck)")
    if not os.path.isfile(os.path.join("perfbench", "Cargo.toml")):
        sys.exit("perfbench: run from the repository root")
    bench, lnpram = build()
    if args.selfcheck:
        return selfcheck(bench, lnpram, args.seconds or 2.0)
    args.seconds = args.seconds or 20.0
    print(json.dumps({"provenance": provenance(args)}), flush=True)
    run_bench(bench, lnpram, args.workload, args.seed, args.seconds, args.trace, True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
