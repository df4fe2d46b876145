"""Benchmark worker: set up one workload, run timed passes, gate every output.

Started by run.py with one BLAS thread and ``src`` on PYTHONPATH:

    python perfbench/worker.py --workload NAME --seed N --seconds S
        --t0 MONOTONIC --workdir DIR --phase setup|run
        [--trace] [--smoke] [--corrupt]

``--t0`` is the parent's CLOCK_MONOTONIC reading just before it started this
process, so setup time covers interpreter start, ``import oamsim``, input
generation and warm-up.  The last stdout line is one JSON object.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads  # imports oamsim
from tracer import Tracer

MAX_FAILURE_NOTES = 5


def run_passes(workload, seconds, corrupt=False, tracer=None):
    """Run whole passes until `seconds` of wall time have gone by."""
    passes, latencies, notes = [], [], []
    attempted = failed = 0
    passed_fingerprints = set()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        pass_time = 0.0
        for op in workload.order():
            attempted += 1
            t = time.perf_counter()
            latency = None
            try:
                op.execute(tracer)
                latency = time.perf_counter() - t
                if corrupt:
                    op.corrupt()
                fingerprint = op.fingerprint()
                if fingerprint not in passed_fingerprints:
                    op.check()
                    passed_fingerprints.add(fingerprint)
            except Exception as exc:   # every failure is counted, none aborts the run
                if latency is None:
                    latency = time.perf_counter() - t
                failed += 1
                if len(notes) < MAX_FAILURE_NOTES:
                    notes.append(f"{op.name}: {type(exc).__name__}: {exc}")
            latencies.append(latency)
            pass_time += latency
        passes.append(pass_time)
    return {"passes": passes, "latencies": latencies, "attempted": attempted,
            "failed": failed, "failures": notes}


def parse_importtime(text, packages=("oamsim", "scipy")):
    """Cumulative import seconds of each package's outermost entries."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        raw = fields[2]
        level = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        entries.append((level, raw.strip(), int(fields[1])))
    totals = dict.fromkeys(packages, 0.0)
    inside = {}          # level -> packages already open on the ancestor chain
    for level, name, cumulative_us in reversed(entries):   # parents print after children
        enclosing = inside.get(level - 1, frozenset()) if level > 0 else frozenset()
        own = {p for p in packages if name == p or name.startswith(p + ".")}
        for p in own - enclosing:
            totals[p] += cumulative_us * 1e-6
        inside[level] = enclosing | own
    return totals


def import_times(reps=3):
    samples = {"oamsim": [], "scipy": []}
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import oamsim.cli"],
                              cwd=workloads.ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        for key, value in parse_importtime(proc.stderr).items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed):
    import numpy
    import oamsim
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(workloads.ROOT.parent)},
            timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "oamsim": oamsim.__version__,
        "oamsim_path": os.path.dirname(oamsim.__file__), "commit": commit, "seed": seed,
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "run"), default="run")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, args.workdir, args.smoke)
        workloads.warm_up(args.workload, os.path.join(args.workdir, "warm-up"))
        setup_s = time.monotonic() - args.t0
        if args.phase == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = {"setup_s": setup_s, "env": environment(args.seed)}
        if not args.trace:
            result["run"] = run_passes(workload, args.seconds, args.corrupt)
            result["peak_rss_mb"] = peak_rss_mb()
        else:
            # untraced and traced halves of the same run give the tracing overhead
            result["run"] = run_passes(workload, args.seconds / 2, args.corrupt)
            tracer = Tracer().install()
            try:
                result["traced"] = run_passes(workload, args.seconds / 2, args.corrupt, tracer)
            finally:
                tracer.uninstall()
            result["trace"] = tracer.summary()
            result["import"] = import_times()
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
