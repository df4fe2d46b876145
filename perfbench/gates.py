"""Output gates: every benchmark operation passes one of these or counts as failed.

The exact references here are the benchmark's own: angular-momentum matrices
from the ladder formula, coherent states built as exp(-i psi Lz) exp(-i theta
Ly)|L, L>, and propagators from ``scipy.linalg.expm``.  They share no code
with ``oamsim``.
"""

import csv
import json
import math

import numpy as np
from scipy.linalg import expm

SERIES_HEADER = ["t", "P_rho", "P_phi", "P_z", "P_rr", "P_pp", "P_zz",
                 "P_rp", "P_rz", "P_pz", "source"]
SCAN_HEADER = ["omega_rad_s", "peak_abs_Pz", "argmax"]
DIAGNOSTIC_TOL = 1e-10
# components each closed form defines; the rest must be NaN/null
CLOSED_COLUMNS = {"tmp": ("P_rho", "P_phi", "P_z"), "frozen": ("P_z",),
                  "resonance": ("P_z",)}
STRIDED_SAMPLES = 24


class GateFailure(Exception):
    """An output failed its gate."""


def require(ok, message):
    if not ok:
        raise GateFailure(message)


# -- reading outputs -------------------------------------------------------
def read_series_csv(path, source, rows):
    """Parse a series CSV, checking header, row count and source column."""
    cols = np.empty((rows, 10))
    n = 0
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        require(header == SERIES_HEADER, f"{path}: header {header}")
        for row in reader:
            require(n < rows, f"{path}: more than {rows} rows")
            require(len(row) == 11 and row[10] == source,
                    f"{path}: malformed row or source other than {source}")
            cols[n] = [float(x) for x in row[:10]]
            n += 1
    require(n == rows, f"{path}: {n} rows, expected {rows}")
    return dict(zip(SERIES_HEADER[:10], cols.T))


def read_series_json(path, source, rows):
    with open(path) as f:
        doc = json.load(f)
    require(sorted(doc) == sorted(SERIES_HEADER), f"{path}: keys {sorted(doc)}")
    require(doc["source"] == source, f"{path}: source {doc['source']}")
    out = {}
    for key in SERIES_HEADER[:10]:
        col = doc[key]
        require(len(col) == rows, f"{path}: column {key} has {len(col)} rows")
        out[key] = np.array([math.nan if v is None else v for v in col], dtype=float)
    return out


def check_closed_form(cols, mode, steps, t_end):
    """Exact grid, finite defined columns, NaN elsewhere."""
    require(np.array_equal(cols["t"], np.linspace(0.0, t_end, steps)),
            "closed-form time grid differs from linspace(0, t_end, steps)")
    defined = CLOSED_COLUMNS[mode]
    for key in SERIES_HEADER[1:10]:
        col = cols[key]
        if key in defined:
            require(np.all(np.isfinite(col)) and np.all(np.abs(col) <= 1.0 + 1e-9),
                    f"closed-form {key} not finite or outside [-1, 1]")
        else:
            require(np.all(np.isnan(col)), f"closed-form {key} should be undefined")


def check_oracle_series(cols):
    values = np.array([cols[k] for k in SERIES_HEADER[1:10]])
    require(np.all(np.isfinite(values)), "oracle series has non-finite values")


def check_diagnostics(comparison_path):
    with open(comparison_path) as f:
        doc = json.load(f)
    diag = doc["oracle_diagnostics"]
    for key in ("max_norm_dev", "max_trace_dev", "max_herm_dev"):
        if key in diag:
            require(diag[key] <= DIAGNOSTIC_TOL, f"diagnostic {key} = {diag[key]}")
    if "min_eigenvalue" in diag:
        require(diag["min_eigenvalue"] >= -DIAGNOSTIC_TOL,
                f"diagnostic min_eigenvalue = {diag['min_eigenvalue']}")
    return doc


def max_deviation(oracle, closed, mode):
    dev = max(float(np.max(np.abs(oracle[k] - closed[k]))) for k in CLOSED_COLUMNS[mode])
    require(not math.isnan(dev), "oracle/closed-form deviation is NaN")
    return dev


def check_scan(path, omegas):
    with open(path, newline="") as f:
        reader = csv.reader(f)
        require(next(reader, None) == SCAN_HEADER, f"{path}: bad header")
        body = list(reader)
    require(len(body) == len(omegas), f"{path}: {len(body)} rows, expected {len(omegas)}")
    w = np.array([float(r[0]) for r in body])
    peaks = np.array([float(r[1]) for r in body])
    flags = [r[2] for r in body]
    require(np.array_equal(w, np.asarray(omegas, dtype=float)), "scan grid differs")
    require(np.all(np.isfinite(peaks)) and np.all((peaks >= 0) & (peaks <= 1.0 + 1e-9)),
            "scan peaks not finite or outside [0, 1]")
    require(flags.count("1") == 1 and flags.count("0") == len(flags) - 1,
            "scan must flag exactly one argmax")
    require(peaks[flags.index("1")] == peaks.max(), "argmax flag not on the largest peak")


# -- exact references -------------------------------------------------------
def angular_momentum(L):
    """Lx, Ly, Lz in the basis m = L, L-1, ..., -L."""
    m = np.arange(L, -L - 1, -1, dtype=float)
    raise_ = np.diag(np.sqrt(L * (L + 1.0) - m[1:] * (m[1:] + 1.0)), k=1).astype(complex)
    lower = raise_.conj().T
    return (0.5 * (raise_ + lower), -0.5j * (raise_ - lower), np.diag(m).astype(complex))


def tensor_state(L, theta, psi):
    """Equal mixture of spin-coherent states along (theta, psi) and its antipode."""
    lx, ly, lz = angular_momentum(L)
    top = np.zeros(2 * L + 1, dtype=complex)
    top[0] = 1.0
    rho = np.zeros((2 * L + 1, 2 * L + 1), dtype=complex)
    for th, ps in ((theta, psi), (math.pi - theta, psi + math.pi)):
        v = expm(-1j * ps * lz) @ expm(-1j * th * ly) @ top
        rho += 0.5 * np.outer(v, v.conj())
    return rho


def polarization(rho, L):
    """P_i = <L_i>/L and the unit-trace rank-2 tensor of a density matrix."""
    ops = angular_momentum(L)
    p = np.array([np.trace(rho @ o).real / L for o in ops])
    t = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            anti = np.trace(rho @ (ops[i] @ ops[j] + ops[j] @ ops[i])).real
            t[i, j] = (3.0 * anti - (2.0 * L * (L + 1.0) if i == j else 0.0)) / (
                2.0 * L * (2.0 * L - 1.0)) + (1.0 / 3.0 if i == j else 0.0)
    return p, t


def static_hamiltonian(mode, L, scenario):
    lx, ly, lz = angular_momentum(L)
    if mode == "frozen":
        return 2.0 * scenario["A_rad_s"] * lx @ lx
    return scenario["Omega_rad_s"] * lz + scenario["b_rad_s"] * lz @ lz


def corotating_propagator(L, scenario, omega_drive):
    """U(t) = exp(-i w t/2 Lz) exp(-i H_rot t) for the corotating quadrupole drive."""
    lx, ly, lz = angular_momentum(L)
    phi, a = scenario["phi"], scenario["A_rad_s"]
    h_rot = ((scenario["Omega_rad_s"] - 0.5 * omega_drive) * lz
             + 0.5 * a * (math.cos(phi) * (lx @ lx - ly @ ly)
                          + math.sin(phi) * (lx @ ly + ly @ lx)))
    return lambda t: expm(-0.5j * omega_drive * t * lz) @ expm(-1j * t * h_rot)


def check_against_reference(cols, L, theta, psi, propagator, tol):
    """Compare all nine oracle components with the exact state at strided times."""
    rho0 = tensor_state(L, theta, psi)
    n = len(cols["t"])
    worst = 0.0
    for k in np.unique(np.linspace(0, n - 1, STRIDED_SAMPLES).astype(int)):
        u = propagator(cols["t"][k])
        p, t = polarization(u @ rho0 @ u.conj().T, L)
        got_p = np.array([cols[c][k] for c in ("P_rho", "P_phi", "P_z")])
        got_t = np.array([[cols["P_rr"][k], cols["P_rp"][k], cols["P_rz"][k]],
                          [cols["P_rp"][k], cols["P_pp"][k], cols["P_pz"][k]],
                          [cols["P_rz"][k], cols["P_pz"][k], cols["P_zz"][k]]])
        worst = max(worst, float(np.max(np.abs(got_p - p))),
                    float(np.max(np.abs(got_t - t))))
    require(worst <= tol, f"oracle differs from exact reference by {worst:.3g} > {tol:g}")
    return worst


def corrupt_file(path):
    """Negative-test hook: make the middle P_z value of a series or scan file NaN."""
    with open(path) as f:
        text = f.read()
    if path.endswith(".json"):
        doc = json.loads(text)
        doc["P_z"][len(doc["P_z"]) // 2] = None
        text = json.dumps(doc)
    else:
        lines = text.splitlines(keepends=True)
        mid = len(lines) // 2
        fields = lines[mid].split(",")
        fields[3 if len(fields) == 11 else 1] = "nan"
        lines[mid] = ",".join(fields)
        text = "".join(lines)
    with open(path, "w") as f:
        f.write(text)
