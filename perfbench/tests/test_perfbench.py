"""Self-tests of the benchmark (not part of the repo's Tier-1 suite).

    python -m pytest perfbench/tests -q

The subprocess tests use ``--smoke`` (tiny sizes, one set-up), so each run
takes seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
from worker import parse_importtime  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace=0, seed=7, *flags, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", *flags],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_declared_metric(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]
    if not trace:
        assert all(emitted["value"] > 0 for emitted in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failure(workload):
    result = bench(workload, 0, 7, "--corrupt")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_rate"]["value"] == 0.0


@pytest.mark.parametrize("workload", ("oracle-static", "oracle-driven", "closed-form-bulk"))
def test_traced_counts_repeat_exactly(workload):
    def counts(result):
        return {name: m["value"] for name, m in result["metrics"].items()
                if name.endswith((".calls", ".bytes_computed", "calls_per_simulate"))
                or name.startswith("dynamics.oracle.")}

    first, second = bench(workload, 1), bench(workload, 1)
    assert counts(first) == counts(second)
    assert any(counts(first).values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-static", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_patches_names_imported_by_name_and_restores_them():
    from oamsim import am_core, dynamics
    original = am_core.polarization_tensor
    t = tracer.Tracer(("am_core.polarization_tensor", "dynamics._no_such_boundary")).install()
    try:
        assert dynamics.polarization_tensor is am_core.polarization_tensor is not original
        ops = am_core.build_operators(1)
        state = am_core.tensor_mixture(ops, 0.3, 0.2)
        with t.span():
            dynamics.polarization_tensor(state, ops)
            am_core.polarization_tensor(state, ops)
    finally:
        t.uninstall()
    assert dynamics.polarization_tensor is original and am_core.polarization_tensor is original
    summary = t.summary()
    assert summary["funcs"]["am_core.polarization_tensor"]["calls"] == 2
    assert summary["absent"] == ["dynamics._no_such_boundary"]
    assert 0 < summary["funcs"]["am_core.polarization_tensor"]["self_s"] <= summary["root_s"]


def test_parse_importtime_counts_outermost_package_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:        50 |        150 |     scipy",
        "import time:       300 |        300 |     scipy.integrate",
        "import time:        20 |        470 |   oamsim.moments",
        "import time:        30 |        500 | oamsim",
        "import time:        10 |         10 | json",
    ])
    totals = parse_importtime(text)
    assert totals["oamsim"] == pytest.approx(500e-6)
    assert totals["scipy"] == pytest.approx(450e-6)
