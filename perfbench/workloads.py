"""The four benchmark workloads: inputs drawn from the seed, operations, gates.

Sizes (L, steps, grid points) are fixed per workload because they set the
layer mix; the seed draws only physics parameters (angles, phases, A, Omega,
detuning) and, for ``cli-cold``, the command order.  Parameter ranges are
kept where the oracle's refinement depth does not change with the draw, so
every seed does the same amount of work.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
from oamsim import cli

import gates
from gates import require

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONSOLE_SCRIPT = "import sys; from oamsim.cli import main; sys.exit(main())"
FRESH_TIMEOUT_S = 60
CLOSED_FORM_TOL = 1e-6        # L = 1 oracle vs closed form, exact cases
STATIC_REFERENCE_TOL = 1e-8   # L > 1 time-independent oracle vs expm
DRIVEN_REFERENCE_FACTOR = 10  # L > 1 corotating oracle vs expm, in units of rtol


class InProcessOp:
    """One ``cli.main([...])`` call whose outputs land in files."""

    def __init__(self, name, argv, outputs, gate):
        self.name, self.argv, self.outputs, self.gate = name, argv, outputs, gate

    def execute(self, tracer=None):
        with tracer.span() if tracer else nullcontext():
            rc = cli.main(self.argv)
        require(rc == 0, f"exit code {rc}")

    def fingerprint(self):
        h = hashlib.sha256()
        for path in self.outputs:
            with open(path, "rb") as f:
                h.update(f.read())
        return h.hexdigest()

    def check(self):
        self.gate()

    def corrupt(self):
        gates.corrupt_file(self.outputs[-1])


class FreshProcessOp:
    """One CLI command in a fresh interpreter, as the ``oamsim`` script runs it."""

    def __init__(self, name, argv, digest, stats_path):
        self.name, self.argv, self.digest, self.stats_path = name, argv, digest, stats_path
        self.stdout = b""

    def execute(self, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-c", CONSOLE_SCRIPT, *self.argv]
        else:
            cmd = [sys.executable, str(HERE / "shim.py"), self.stats_path, *self.argv]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=FRESH_TIMEOUT_S)
        self.stdout = proc.stdout
        require(proc.returncode == 0,
                f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]}")
        if tracer is not None:
            with open(self.stats_path) as f:
                tracer.external.append(json.load(f))

    def fingerprint(self):
        return hashlib.sha256(self.stdout).hexdigest()

    def check(self):
        require(self.fingerprint() == self.digest,
                f"stdout digest differs from the one recorded for {self.name}")

    def corrupt(self):
        self.stdout = self.stdout[:-2] + bytes([self.stdout[-2] ^ 1]) + self.stdout[-1:]


class Workload:
    def __init__(self, name, ops, shuffle_seed=None):
        self.name, self.ops = name, ops
        self._shuffle = random.Random(shuffle_seed) if shuffle_seed is not None else None

    def order(self):
        """Operations of the next pass (cli-cold shuffles them with the seed)."""
        ops = list(self.ops)
        if self._shuffle is not None:
            self._shuffle.shuffle(ops)
        return ops


# -- input generation -------------------------------------------------------
def _write_config(workdir, name, doc):
    path = os.path.join(workdir, f"{name}.config.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path


def _tensor_beam(L, theta, psi, kind="tensor", energy_ev=300000.0):
    return {"kinetic_energy_eV": energy_ev, "L": L, "theta": theta, "psi": psi,
            "kind": kind}


def _signed(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _simulate_op(workdir, name, doc, ext, gate_factory):
    config = _write_config(workdir, name, doc)
    out = os.path.join(workdir, f"{name}{ext}")
    outputs = [out]
    if doc.get("oracle", {}).get("enabled"):
        base = os.path.join(workdir, name)
        outputs += [f"{base}_comparison.json", f"{base}_oracle{ext}"]
    return InProcessOp(name, ["simulate", "--config", config, "--out", out],
                       outputs, gate_factory(doc, outputs))


def _oracle_gate(check):
    """Gate for an oracle-enabled simulate: structure, diagnostics, then `check`."""
    def factory(doc, outputs):
        scn, beam = doc["scenario"], doc["beam"]
        steps, mode = scn["steps"], scn["mode"]

        def gate():
            closed = gates.read_series_csv(outputs[0], "closed_form", steps)
            gates.check_closed_form(closed, mode, steps, scn["t_end_s"])
            oracle = gates.read_series_csv(outputs[2], "oracle", steps)
            gates.check_oracle_series(oracle)
            require(np.array_equal(oracle["t"], closed["t"]), "oracle time grid differs")
            report = gates.check_diagnostics(outputs[1])
            check(doc, beam, scn, closed, oracle, report)
        return gate
    return factory


def _match_closed_form(doc, beam, scn, closed, oracle, report):
    dev = gates.max_deviation(oracle, closed, scn["mode"])
    require(dev <= CLOSED_FORM_TOL, f"oracle vs closed form {dev:.3g} > {CLOSED_FORM_TOL:g}")


def _within_rwa_bound(doc, beam, scn, closed, oracle, report):
    dev = gates.max_deviation(oracle, closed, scn["mode"])
    bound = report["rwa_amplitude_bound"]
    require(bound is not None and dev <= bound, f"linear drive deviation {dev:.3g} > {bound}")


def _match_static_reference(doc, beam, scn, closed, oracle, report):
    h = gates.static_hamiltonian(scn["mode"], beam["L"], scn)
    gates.check_against_reference(
        oracle, beam["L"], beam["theta"], beam["psi"],
        lambda t: gates.expm(-1j * t * h), STATIC_REFERENCE_TOL)


def _match_corotating_reference(doc, beam, scn, closed, oracle, report):
    omega = scn["omega_drive"]
    gates.check_against_reference(
        oracle, beam["L"], beam["theta"], beam["psi"],
        gates.corotating_propagator(beam["L"], scn, omega),
        DRIVEN_REFERENCE_FACTOR * doc["oracle"]["tolerance"])


def _closed_form_gate(fmt):
    def factory(doc, outputs):
        scn = doc["scenario"]
        reader = gates.read_series_csv if fmt == "csv" else gates.read_series_json

        def gate():
            cols = reader(outputs[0], "closed_form", scn["steps"])
            gates.check_closed_form(cols, scn["mode"], scn["steps"], scn["t_end_s"])
        return gate
    return factory


# -- workloads ----------------------------------------------------------------
def oracle_static(rng, workdir, smoke):
    """Time-independent Hamiltonians: extraction and diagnostics dominate."""
    big_L, big_steps, small_steps = (3, 41, 64) if smoke else (20, 401, 2048)
    ops = []
    specs = (
        ("frozen-L%d" % big_L, big_L, big_steps, "frozen", _match_static_reference),
        ("tmp-L1", 1, small_steps, "tmp", _match_closed_form),
        ("frozen-L1", 1, small_steps, "frozen", _match_closed_form),
    )
    for name, L, steps, mode, check in specs:
        scn = {"mode": mode, "t_end_s": 1.0, "steps": steps}
        if mode == "frozen":
            scn["A_rad_s"] = _signed(rng, 0.5, 0.8)
        else:
            scn.update(Omega_rad_s=rng.uniform(30.0, 60.0), b_rad_s=_signed(rng, 2.0, 4.0))
        doc = {"beam": _tensor_beam(L, rng.uniform(0.5, 2.6), rng.uniform(0.0, 2 * math.pi)),
               "scenario": scn, "oracle": {"enabled": True}}
        ops.append(_simulate_op(workdir, name, doc, ".csv", _oracle_gate(check)))
    return ops


def oracle_driven(rng, workdir, smoke):
    """Resonance drives: substep refinement in _interval_unitaries dominates.

    The drawn ranges keep each case at one refinement depth (accepted level
    9, 8 and 8 on every seed tried): the phases psi and phi move the
    refinement delta by up to 4x over a full turn, so they are drawn from a
    narrow arc.  The three cases take clearly different times (about 1:2:4),
    so the median command is the same case on every seed.
    """
    steps, t_end = (16, 0.3) if smoke else (64, math.pi)
    specs = (
        ("linear-L1", 1, "linear", 2.0, 1e-8, _within_rwa_bound),
        ("corotating-L1", 1, "corotating", 1.3, 1e-8, _match_closed_form),
        ("corotating-L3", 3, "corotating", 1.8, 1e-7, _match_corotating_reference),
    )
    ops = []
    for name, L, drive, omega0, rtol, check in specs:
        big_omega = omega0 * rng.uniform(0.97, 1.03)
        a = 0.1 * omega0 * rng.uniform(0.95, 1.05)
        detuning = 0.1 * omega0 * rng.uniform(-0.2, 0.2)
        scn = {"mode": "resonance", "t_end_s": t_end, "steps": steps, "drive": drive,
               "Omega_rad_s": big_omega, "A_rad_s": a,
               "omega_drive": 2.0 * big_omega - detuning, "phi": rng.uniform(-0.3, 0.1)}
        doc = {"beam": _tensor_beam(L, rng.uniform(1.3, 1.85), rng.uniform(0.6, 0.8)),
               "scenario": scn, "oracle": {"enabled": True, "tolerance": rtol}}
        ops.append(_simulate_op(workdir, name, doc, ".csv", _oracle_gate(check)))
    return ops


def closed_form_bulk(rng, workdir, smoke):
    """Closed forms at large sizes: serialization and the scan dominate."""
    csv_steps, json_steps, scan_steps, points = (
        (2000, 1000, 401, 41) if smoke else (100000, 50000, 4001, 2001))
    # A is derived from the drawn ring, so the frozen-ring solver runs too
    frozen = {"beam": _tensor_beam(1, rng.uniform(0.3, 2.8), rng.uniform(0, 2 * math.pi),
                                   kind="vector", energy_ev=rng.uniform(2.5e5, 3.5e5)),
              "ring": {"R0_m": rng.uniform(0.4, 0.6), "n": rng.uniform(0.3, 0.7)},
              "scenario": {"mode": "frozen", "t_end_s": 10.0, "steps": csv_steps}}

    def resonance(steps, t_end):
        big_omega = rng.uniform(40.0, 60.0)
        a = rng.uniform(0.5, 1.5)
        return {"mode": "resonance", "t_end_s": t_end, "steps": steps,
                "Omega_rad_s": big_omega, "A_rad_s": a,
                "omega_drive": 2.0 * big_omega - a * rng.uniform(-1.0, 1.0),
                "phi": rng.uniform(0, 2 * math.pi)}

    res_json = {"beam": _tensor_beam(1, rng.uniform(0.3, 2.8), rng.uniform(0, 2 * math.pi)),
                "scenario": resonance(json_steps, 10.0), "output": {"format": "json"}}
    scan_scn = resonance(scan_steps, math.pi)
    del scan_scn["omega_drive"]
    target = 2.0 * scan_scn["Omega_rad_s"]
    scan = {"beam": _tensor_beam(1, rng.uniform(0.3, 2.8), rng.uniform(0, 2 * math.pi)),
            "scenario": scan_scn,
            "scan": {"omega_min_rad_s": 0.8 * target, "omega_max_rad_s": 1.2 * target,
                     "points": points}}
    scan_config = _write_config(workdir, "scan", scan)
    scan_out = os.path.join(workdir, "scan.csv")
    omegas = np.linspace(0.8 * target, 1.2 * target, points)
    return [
        _simulate_op(workdir, "frozen-csv", frozen, ".csv", _closed_form_gate("csv")),
        _simulate_op(workdir, "resonance-json", res_json, ".json", _closed_form_gate("json")),
        InProcessOp("scan", ["scan", "--config", scan_config, "--out", scan_out],
                    [scan_out], lambda: gates.check_scan(scan_out, omegas)),
    ]


# The repo's example configurations, run as a CLI user would from a shell.
CLI_COMMANDS = (
    ("constants", ["constants"]),
    ("freeze", ["freeze", "--config", "configs/ring300kev.json"]),
    ("moments-text", ["moments", "--config", "configs/moments100.json"]),
    ("moments-json", ["moments", "--config", "configs/moments100.json", "--format", "json"]),
    ("simulate", ["simulate", "--config", "configs/frozen_sim.json"]),
    ("scan", ["scan", "--config", "configs/resonance_scan.json"]),
)


def cli_cold(rng, workdir, smoke):
    """Fresh-process commands: interpreter start and import dominate."""
    with open(HERE / "digests.json") as f:
        digests = json.load(f)
    return [FreshProcessOp(name, argv, digests[name],
                           os.path.join(workdir, f"{name}.trace.json"))
            for name, argv in CLI_COMMANDS]


BUILDERS = {"cli-cold": cli_cold, "oracle-static": oracle_static,
             "oracle-driven": oracle_driven, "closed-form-bulk": closed_form_bulk}


def build(name, seed, workdir, smoke=False):
    """Generate the workload's inputs under workdir from the seed."""
    rng = random.Random(f"{name}:{seed}")
    ops = BUILDERS[name](rng, workdir, smoke)
    return Workload(name, ops, shuffle_seed=f"order:{seed}" if name == "cli-cold" else None)


def warm_up(name, workdir):
    """Run each operation once at smoke size; failures surface in the timed phase."""
    if name == "cli-cold":
        ops = [cli_cold(None, workdir, True)[0]]
    else:
        os.makedirs(workdir, exist_ok=True)
        ops = BUILDERS[name](random.Random(f"{name}:warm-up"), workdir, True)
    for op in ops:
        try:
            op.execute()
        except Exception:   # the timed phase counts and reports failures
            pass
