"""One benchmark repeat in a fresh process.

Usage: python3 child.py '<job json>'

The job gives the cli.run config, the output directory, the monotonic time
at which the parent launched this process, whether to trace, and where to
write the result.  The child imports hfbgas, validates the config (that
ends set-up), runs ``hfbgas.cli.run`` once and writes a JSON result with its
timings, peak RSS, run status and, when traced, the per-layer totals.
"""

import json
import os
import resource
import sys
import time


def environment() -> dict:
    import platform

    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = {}
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {k: os.environ.get(k) for k in threads},
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def traced_metrics(tracer, spans_path: str) -> dict:
    from tracer import ROOT_SPAN, layer_totals

    tracer.write(spans_path)
    calls, busy = layer_totals(tracer.spans)
    root = [s for s in tracer.spans if s[0] == ROOT_SPAN]
    root_total = sum(end - start for _, start, end, _ in root)
    iterations = sum(tracer.observed["hartree.minimize_hartree"])
    attempts = calls.get("hartree.hartree_energy", 0)
    return {"calls": calls, "busy": busy,
            "coverage": 1.0 - busy.get(ROOT_SPAN, 0.0) / root_total,
            "hartree_accepted_step_ratio": iterations / attempts if attempts else 0.0}


def main(job: dict) -> dict:
    from hfbgas import cli

    if not os.path.abspath(cli.__file__).startswith(job["src"] + os.sep):
        raise ImportError(f"hfbgas imported from {cli.__file__}, not {job['src']}")
    cfg = job["config"]
    cli.validate_config(cfg)
    result = {"setup_s": time.monotonic() - job["launched_at"]}
    if job.get("setup_only"):
        return result
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer(job["run_id"], observe={
            "hartree.minimize_hartree": lambda res: res.iterations})
        tracer.install()
    t0 = time.perf_counter()
    try:
        manifest = cli.run(cfg, output_dir=job["outdir"])
        result["status"] = manifest.status
    except Exception as exc:  # a failed repeat is counted, not fatal
        result["status"] = f"raised {type(exc).__name__}: {exc}"
    finally:
        result["run_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = traced_metrics(tracer, job["spans_path"])
    result["env"] = environment()
    return result


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    out = main(job)
    with open(job["result_path"], "w") as fh:
        json.dump(out, fh)
