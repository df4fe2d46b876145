"""oamsim benchmark: drives the CLI and public functions from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: cli-cold, oracle-static,
oracle-driven, closed-form-bulk (see perfbench/README.md).  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
traced run.  Every operation's output is gated; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-cold", "oracle-static", "oracle-driven", "closed-form-bulk")
SETUP_REPS = 3                 # set-ups per run; setup_s is their median
DEADLINE_S = 170               # whole run, all workers included
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cmd_p50_s": "s",
                    "peak_rss_mb": "MB", "success_rate": "ratio"}


def per_layer_units():
    units = {"import.oamsim_s": "s", "import.scipy_s": "s"}
    for target in TARGETS:
        units[f"{target}.calls"] = "count"
        units[f"{target}.self_s"] = "s"
    units.update({
        "dynamics._interval_unitaries.bytes_computed": "B",
        "dynamics.oracle.refinement_levels": "count",
        "dynamics.oracle.n_substeps": "count",
        "dynamics.oracle.useful_ratio": "ratio",
        "dynamics.evolve_oracle.calls_per_simulate": "count",
        "trace.overhead_s": "s",
    })
    return units


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def worker_env():
    env = dict(os.environ)
    env.pop("OAMSIM_THREADS", None)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(args, phase, workdir, deadline, extra=()):
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--t0", repr(t0),
           "--phase", phase, "--workdir", str(workdir), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{phase} worker exceeded the run deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{phase} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(result, setups):
    run = result["run"]
    return {
        "wall_s": statistics.median(run["passes"]),
        "setup_s": statistics.median(setups),
        "cmd_p50_s": statistics.median(run["latencies"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "success_rate": (run["attempted"] - run["failed"]) / run["attempted"],
    }


def per_layer(result):
    trace, traced = result["trace"], result["traced"]
    n_pass = len(traced["passes"])
    funcs, counters = trace["funcs"], trace["counters"]
    values = {"import.oamsim_s": result["import"]["oamsim"],
              "import.scipy_s": result["import"]["scipy"]}
    for target in TARGETS:
        entry = funcs.get(target, {"calls": 0, "self_s": 0.0})
        values[f"{target}.calls"] = entry["calls"] / n_pass
        values[f"{target}.self_s"] = entry["self_s"] / n_pass
    runs = counters["oracle_runs"]
    simulates = funcs.get("cli.cmd_simulate", {}).get("calls", 0)
    oracles = funcs.get("dynamics.evolve_oracle", {}).get("calls", 0)
    values.update({
        "dynamics._interval_unitaries.bytes_computed": counters["interval_bytes"] / n_pass,
        "dynamics.oracle.refinement_levels": counters["refinement_levels"] / runs if runs else 0,
        "dynamics.oracle.n_substeps": counters["accepted_substeps"] / runs if runs else 0,
        "dynamics.oracle.useful_ratio": (counters["useful_substeps"] / counters["interval_substeps"]
                                         if counters["interval_substeps"] else 0),
        "dynamics.evolve_oracle.calls_per_simulate": oracles / simulates if simulates else 0,
        "trace.overhead_s": (statistics.median(traced["passes"])
                             - statistics.median(result["run"]["passes"])),
    })
    return values


def layer_shares(trace):
    """Share of traced op time spent in each function's own code."""
    total = trace["root_s"]
    if not total:
        return {}
    shares = {name: round(entry["self_s"] / total, 4) for name, entry in trace["funcs"].items()}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up, for the benchmark's self-tests")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage every output before its gate (negative self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oamsim" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no oamsim sources under {ROOT / 'src'}\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    extra = [flag for flag, on in (("--trace", args.trace), ("--smoke", args.smoke),
                                   ("--corrupt", args.corrupt)) if on]
    work_root = ROOT / ".perfbench_work"
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        reps = 1 if args.trace or args.smoke else SETUP_REPS
        for k in range(reps - 1):
            setups.append(run_worker(args, "setup", work_root / f"{tag}-setup{k}",
                                     deadline, extra)["setup_s"])
        result = run_worker(args, "run", work_root / tag, deadline, extra)
        setups.append(result["setup_s"])
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        for path in work_root.glob(f"{tag}*"):
            shutil.rmtree(path, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    phases = [result["run"]] + ([result["traced"]] if args.trace else [])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    if args.trace:
        values, units = per_layer(result), per_layer_units()
    else:
        values, units = end_to_end(result, setups), END_TO_END_UNITS
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "pass_s": [round(x, 4) for x in result["run"]["passes"]],
        "commands": len(result["run"]["latencies"]),
        "setup_samples": setups, "failures": sum((p["failures"] for p in phases), []),
    }
    if args.trace:
        detail.update(traced_passes=len(result["traced"]["passes"]),
                      absent=result["trace"]["absent"],
                      hook_errors=result["trace"]["hook_errors"],
                      self_time_shares=layer_shares(result["trace"]),
                      import_over_cmd_p50=(values["import.oamsim_s"]
                                           / statistics.median(result["run"]["latencies"])))
    print("perfbench-env " + json.dumps(result["env"], sort_keys=True))
    print("perfbench-detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
