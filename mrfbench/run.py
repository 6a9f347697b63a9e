"""Benchmark command for mrfmap: one workload per process.

    python3 mrfbench/run.py --workload map --seed 1 --seconds 18 --trace 0

Run from the repository root. The workload is set up ``SETUP_REPEATS``
times, then rounds of fixed work repeat until ``--seconds`` are spent, then
the outputs of the first round are checked against slow references. The last
line of standard output is the JSON result; lines above it carry the
manifest and every metric by name and unit. ``--trace 1`` instead alternates
untraced and traced rounds and prints the per-layer metrics derived from the
traced rounds' spans. See mrfbench/README.md.
"""

import os
import sys
from pathlib import Path

# One closed-loop process on one thread: BLAS must not start a thread pool.
# These are read when NumPy loads its BLAS, so they are set before any import.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from mrfbench import speed  # noqa: E402
from mrfbench.tracing import Tracer, layer_metrics  # noqa: E402
from mrfbench.workloads import SIZES, WORKLOADS, Round  # noqa: E402

SETUP_REPEATS = 3
OUT_DIR = ROOT / ".mrfbench"


def git_revision() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "platform": platform.platform()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(cls, seed, size, scratch):
    """A fresh workload and its set-up time in reference seconds."""
    w = cls(seed, size, scratch)
    before = speed.kernel_times()
    t0 = time.perf_counter()
    w.setup()
    seconds = time.perf_counter() - t0
    return w, seconds * speed.scale(before + speed.kernel_times())


def timed_round(w, tracer=None):
    """One round, its outputs, and its reference-speed scale."""
    r = Round()
    before = speed.kernel_times()
    if tracer is None:
        out = w.run_round(r)
    else:
        with tracer.instrument(), tracer.span("round"):
            out = w.run_round(r)
    r.kernel = before + speed.kernel_times()
    r.scale = speed.scale(r.kernel)
    return r, out


def plain_run(cls, args, scratch):
    """Untraced: set-up several times, then measure rounds; end-to-end metrics."""
    setup_times, w = [], None
    for _ in range(SETUP_REPEATS):
        w = None  # free the previous set-up's inputs first
        w, seconds = timed_setup(cls, args.seed, SIZES[args.size][cls.name], scratch)
        setup_times.append(seconds)
    rounds, first = [], None
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        r, out = timed_round(w)
        first = out if first is None else first
        rounds.append(r)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "items_per_s": (statistics.median(w.headline(r) for r in rounds), "1/s"),
        "round_s": (statistics.median(r.wall for r in rounds), "s"),
    }
    report = {"setup_s": (metrics["setup_s"][0], "s", SETUP_REPEATS),
              "peak_rss_mb": (metrics["peak_rss_mb"][0], "MB", 1),
              **w.report(rounds, first),
              "reference_scale": (statistics.median(r.scale for r in rounds),
                                  "ratio", len(rounds))}
    return w, rounds, first, metrics, report


def traced_run(cls, args, scratch):
    """Traced: untraced and traced rounds alternate; per-layer metrics."""
    tracer = Tracer(f"{cls.name}-seed{args.seed}-pid{os.getpid()}")
    w = cls(args.seed, SIZES[args.size][cls.name], scratch)
    with tracer.instrument(), tracer.span("setup"):
        w.setup()
    plain, traced, first = [], [], None
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        r, out = timed_round(w)
        first = out if first is None else first
        plain.append(r)
        traced.append(timed_round(w, tracer)[0])
    w.extras["trace.overhead_frac"] = (
        statistics.median(r.wall for r in traced)
        / statistics.median(r.wall for r in plain) - 1.0)
    return w, plain + traced, first, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' runs in seconds, for the benchmark's tests")
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            w, rounds, first, tracer = traced_run(cls, args, scratch)
        else:
            w, rounds, first, metrics, report = plain_run(cls, args, scratch)
        checked = w.check(first)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.trace:
        tracer.dump(OUT_DIR / f"spans-{tag}.jsonl")
        metrics = layer_metrics(tracer.spans, w.extras)
        report = {k: (v, u, None) for k, (v, u) in metrics.items()}

    failed_checks = [name for name, ok in checked if not ok]
    failed = len(failed_checks) + sum(r.rejected for r in rounds)
    attempted = sum(r.calls + r.rejected for r in rounds)
    manifest = {"workload": args.workload, "seed": args.seed, "size": args.size,
                "seconds": args.seconds, "trace": args.trace,
                "setup_repeats": SETUP_REPEATS, "rounds": len(rounds),
                "reference_scales": [r.scale for r in rounds],
                "git_revision": git_revision(), "machine": machine(),
                "config": w.config(),
                "checks": {"run": len(checked), "failed": failed_checks}}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    per_round = [{"scale": r.scale, "kernel": r.kernel, "headline": w.headline(r),
                  "times": r.times} for r in rounds]
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(
        {"manifest": manifest, "report": report, "result": result,
         "rounds": per_round}, indent=1, default=str))

    print("manifest " + json.dumps(manifest, sort_keys=True, default=str))
    for name, (value, unit, n) in report.items():
        count = f"  (n={n})" if n is not None else ""
        print(f"{name} = {value:.6g} {unit}{count}")
    for name in failed_checks:
        print(f"FAILED CHECK: {name}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
