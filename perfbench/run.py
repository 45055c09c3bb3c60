"""hfbgas benchmark: time ``hfbgas.cli.run`` on fixed workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: repeats run one at a time, each in a fresh
Python process with BLAS/OpenMP pinned to one thread.  A run first starts
one discarded warm-up process and a few set-up probes, then repeats the
workload until the next repeat would overrun ``--seconds``.  Every repeat's
artifacts are checked against ``reference.json`` and must be byte-identical
across the repeats of one run.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over repeats).  With ``--trace 1`` untraced and traced repeats
alternate, and it reports the per-layer metrics of the traced repeats plus
the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")
CHILD = os.path.join(HERE, "child.py")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 6
# Two repeats at least, so that every run checks byte-identical artifacts
# (and, when tracing, has one untraced and one traced repeat).
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 170.0
# Artifacts that carry timestamps and are left out of the byte-identity check.
UNSTABLE_ARTIFACTS = {"manifest.json"}


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def spawn(job: dict, deadline: float) -> dict:
    """Run one child process and return its result, or raise BenchError."""
    timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        raise BenchError("time limit reached before the next child")
    job = dict(job, launched_at=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(job)],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr}")
    with open(job["result_path"]) as fh:
        return json.load(fh)


def artifact_digest(outdir: str) -> tuple:
    """SHA-256 over the deterministic artifacts, and the bytes of all."""
    digest, total = hashlib.sha256(), 0
    for fname in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, fname)
        total += os.path.getsize(path)
        if fname not in UNSTABLE_ARTIFACTS:
            with open(path, "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return digest.hexdigest(), total


def check_repeat(rep: dict, outdir: str, reference: dict) -> list:
    """Problems with one repeat's outputs; fills rep['digest'], ['bytes']."""
    if rep["status"] != "complete":
        return [f"status {rep['status']}"]
    with open(os.path.join(outdir, "manifest.json")) as fh:
        if json.load(fh)["status"] != "complete":
            return ["manifest status is not complete"]
    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    rep["digest"], rep["bytes"] = artifact_digest(outdir)
    return workloads.check_summary(summary, reference)


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(name: str, seed: int, seconds: float, trace: bool,
            reference: dict) -> tuple:
    """Run workload ``name`` for about ``seconds``; return (repeats, setups)."""
    start = time.monotonic()
    deadline = start + max(seconds, CHILD_TIMEOUT_S)
    workdir = os.path.join(WORK, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    base = {"config": workloads.config(name, seed), "src": SRC, "trace": False}

    def job(tag: str, **extra) -> dict:
        return dict(base, run_id=f"{name}-seed{seed}-{tag}",
                    outdir=os.path.join(workdir, tag),
                    result_path=os.path.join(workdir, tag + ".result.json"),
                    spans_path=os.path.join(workdir, tag + ".spans.json"), **extra)

    # The first process also fills the bytecode caches; its set-up is dropped.
    spawn(job("warmup", setup_only=True), deadline)
    setups = [spawn(job(f"probe{i}", setup_only=True), deadline)["setup_s"]
              for i in range(SETUP_PROBES)]
    repeats, first = [], time.monotonic()
    while True:
        tag, traced = f"rep{len(repeats)}", trace and len(repeats) % 2 == 1
        rep = spawn(job(tag, trace=traced), deadline)
        rep["traced"] = traced
        rep["problems"] = check_repeat(rep, os.path.join(workdir, tag), reference)
        if rep["traced"] and "trace" in rep:
            rep["problems"] += workloads.check_predictions(
                name, rep["trace"]["calls"], rep["trace"]["coverage"])
        repeats.append(rep)
        setups.append(rep["setup_s"])
        now = time.monotonic()
        per_repeat = (now - first) / len(repeats)
        if len(repeats) >= MIN_REPEATS and now + per_repeat > start + seconds:
            return repeats, setups


def check_identical(repeats: list):
    """Mark repeats whose artifacts differ from the first complete repeat's."""
    digests = [r["digest"] for r in repeats if "digest" in r]
    for rep in repeats:
        if "digest" in rep and rep["digest"] != digests[0]:
            rep["problems"].append("artifacts differ from the first repeat")


def summarise(label: str, values: list, unit: str) -> float:
    med = statistics.median(values)
    print(f"{label}: median {med:.6g} {unit} (n={len(values)}, "
          f"min {min(values):.6g}, max {max(values):.6g})")
    return med


def end_to_end(repeats: list, setups: list) -> dict:
    return {
        "run_s": {"value": summarise("run_s", [r["run_s"] for r in repeats], "s"),
                  "unit": "s"},
        "setup_s": {"value": summarise("setup_s", setups, "s"), "unit": "s"},
        "peak_rss_mb": {"value": summarise(
            "peak_rss_mb", [r["peak_rss_mb"] for r in repeats], "MB"), "unit": "MB"},
    }


def per_layer(repeats: list) -> dict:
    traced = [r for r in repeats if r["traced"] and "trace" in r]
    plain = [r for r in repeats if not r["traced"]]
    if not traced:
        raise BenchError("no traced repeat completed")
    metrics = {}

    def put(key, values, unit):
        metrics[key] = {"value": statistics.median(values), "unit": unit}

    run_total = statistics.median(r["run_s"] for r in traced)
    for module, attr in tracer.LAYERS:
        span = tracer.span_name(module, attr)
        busy = [r["trace"]["busy"].get(span, 0.0) for r in traced]
        if span == tracer.ROOT_SPAN:
            put("cli.run.self_s", busy, "s")
            continue
        put(span + ".calls", [r["trace"]["calls"].get(span, 0) for r in traced], "count")
        put(span + ".s", busy, "s")
        share = statistics.median(busy) / run_total
        if share >= 0.01:
            print(f"  {span}: {100 * share:.1f}% of run_s (self time)")
    put("cli.run.coverage", [r["trace"]["coverage"] for r in traced], "1")
    put("cli.artifact_bytes", [r.get("bytes", 0) for r in traced], "bytes")
    put("hartree.accepted_step_ratio",
        [r["trace"]["hartree_accepted_step_ratio"] for r in traced], "1")
    metrics["trace_overhead_frac"] = {
        "value": run_total / statistics.median(r["run_s"] for r in plain) - 1.0,
        "unit": "1"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hfbgas", "cli.py")):
        print(f"hfbgas sources not found under {SRC}", file=sys.stderr)
        return 2
    references = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            references = json.load(fh)
    reference = references.get(args.workload)
    if reference is None:
        print(f"no reference for {args.workload} in {REFERENCE}", file=sys.stderr)
        return 2
    try:
        repeats, setups = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), reference)
        check_identical(repeats)
        env = dict(repeats[0]["env"], git_commit=git_commit(), pinned=THREADS)
        print("env: " + json.dumps(env, sort_keys=True))
        for i, rep in enumerate(repeats):
            for problem in rep["problems"]:
                print(f"repeat {i}: {problem}")
        metrics = per_layer(repeats) if args.trace else end_to_end(repeats, setups)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    failed = sum(1 for r in repeats if r["problems"])
    print(json.dumps({"correct": failed == 0, "attempted": len(repeats),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
