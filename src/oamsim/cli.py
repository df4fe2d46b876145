"""Command-line interface.

    oamsim constants | freeze | moments | simulate | scan | verify
           [--config PATH] [--out PATH] [--format FORMAT]

FORMAT is json|text for constants, freeze, moments and verify (default text),
csv|json for simulate (default: the config's output.format, else csv) and csv
for scan.  Exit codes: 0 success, 1 verification/numerical failure,
2 configuration or usage error.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys

from . import config as cfg
from . import moments, ring_config
from .constants import E_CHARGE, M_E_C2_EV
from .errors import ConfigError, ConvergenceError, DomainError
from .reference import constants_report

# dynamics and verify import numpy, so the commands that need them import
# them where they run: constants, freeze and moments start without numpy.


# O_BINARY (Windows only) keeps the newlines untranslated; neither O_TRUNC nor
# O_APPEND: a file is rewritten in place from offset 0
_OUT_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _emit(text, out_path):
    if out_path:
        with _open_all([out_path]) as (f,):
            f.write(text)
    else:
        sys.stdout.write(text)


def _sanitize(obj):
    """Replace NaN floats with None so emitted JSON stays standard."""
    if isinstance(obj, float):
        return None if math.isnan(obj) else obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _report(doc, fmt, out_path):
    if fmt == "json":
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path)
    else:
        lines = []
        for key, value in doc.items():
            lines.append(f"{key}: {value}")
        _emit("\n".join(lines) + "\n", out_path)


def _ring_for(doc, mode):
    """Resolve (kinematics, B0, setup-or-None) from beam/ring sections.

    Frozen mode needs the solved ring; other modes also take B0_T.
    """
    beam = doc["beam"]
    ring = doc.get("ring", {})
    kin = ring_config.kinematics(beam["kinetic_energy_eV"])
    if "R0_m" in ring and "n" in ring:
        setup = ring_config.frozen_setup(beam["kinetic_energy_eV"],
                                         ring["R0_m"], ring["n"])
        return kin, setup.B0, setup
    if mode == "frozen":
        raise ConfigError("frozen mode requires ring.R0_m and ring.n")
    if "B0_T" in ring:
        return kin, ring["B0_T"], None
    raise ConfigError("ring section must provide R0_m+n or B0_T")


def scenario_from_config(doc):
    """Assemble a DynamicsScenario from a validated simulate/scan config.

    Coefficients are derived from the beam and ring sections; explicit
    *_rad_s scenario keys override the derived values, in which case the
    ring section may be omitted.
    """
    from . import dynamics
    beam, scn = doc["beam"], doc["scenario"]
    mode = scn["mode"]
    L = beam["L"]

    def given(key, derive):
        """The scenario's own value for key, else derive(); the ring is read only then."""
        return scn[key] if key in scn else derive()

    def larmor():
        kin, b0, _ = _ring_for(doc, mode)
        return ring_config.larmor_omega(kin, b0, 0.0)

    fields = dict(mode=mode, L=L, theta=beam["theta"], psi=beam["psi"],
                  kind=beam["kind"], t_end=scn["t_end_s"], steps=scn["steps"])
    # absent, they keep the scenario's defaults
    fields.update((key, scn[key]) for key in ("phi", "drive") if key in scn)
    if mode == "tmp":
        fields["Omega"] = given("Omega_rad_s", larmor)
        fields["b"] = given("b_rad_s", lambda: moments.tmp_coefficient(_ring_for(doc, mode)[1]))
    elif mode == "frozen":
        fields["A"] = given("A_rad_s", lambda: dynamics.quadrupole_coefficient_frozen(
            moments.beam_model_eqm(L)[2], L, _ring_for(doc, mode)[2]))
    else:
        fields["Omega"] = given("Omega_rad_s", larmor)
        fields["A"] = given("A_rad_s", lambda: dynamics.quadrupole_coupling(
            moments.beam_model_eqm(L)[2], L, scn["grad_amplitude_V_m2"]))
        fields["omega_drive"] = given("omega_drive", lambda: 2.0 * fields["Omega"])
    return dynamics.DynamicsScenario(**fields)


def cmd_constants(args):
    rows = constants_report()
    if args.format == "json":
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
    else:
        lines = [f"{'quantity':<16} {'computed':>14} {'reference':>12} {'rel dev':>10}"]
        for row in rows:
            lines.append(f"{row['quantity']:<16} {row['computed']:>14.6g} "
                         f"{row['reference']:>12.4g} {row['rel_deviation']:>10.2e}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_freeze(args):
    doc = cfg.load_config(args.config, "freeze")
    beam, ring = doc["beam"], doc["ring"]
    setup = ring_config.frozen_setup(beam["kinetic_energy_eV"], ring["R0_m"], ring["n"])
    dbz, der = ring_config.field_gradients(setup)
    report = {
        "kinetic_energy_eV": setup.kin.kinetic_energy_ev,
        "gamma": setup.kin.gamma,
        "beta_tilde": setup.kin.beta_tilde,
        "R0_m": setup.R0,
        "n": setup.n,
        "B0_T": setup.B0,
        "E_V_m": setup.E,
        "omega_rad_s": setup.omega,
        "f_Hz": setup.omega / (2.0 * math.pi),
        "Omega_rad_s": setup.Omega,
        "frozen_residual": ring_config.frozen_residual(setup),
        "dBz_dR_T_m": dbz,
        "dEr_dR_V_m2": der,
    }
    _report(report, args.format, _out_path(args, doc))
    return 0


def cmd_moments(args):
    doc = cfg.load_config(args.config, "moments")
    beam = doc["beam"]
    L = beam["L"]
    kin, b0, setup = _ring_for(doc, mode=None)
    if "density_path" in beam:
        mean_r2 = moments.mean_square_radius(*moments.load_radial_density(beam["density_path"]))
        q0 = moments.intrinsic_eqm(mean_r2)
        qs = moments.spectroscopic_eqm(q0, L, L)
    else:
        mean_r2, q0, qs = moments.beam_model_eqm(L)
    geo = ring_config.landau_geometry(b0, 0, L)
    r0 = doc.get("ring", {}).get("R0_m")
    ecqm_zz = moments.ecqm([0.0, 0.0, L], [0.0, 0.0, 0.5],
                           kin.gamma * M_E_C2_EV).rows[2][2]
    report = {
        "L": L,
        "B_T": b0,
        "beta_T_fm3": moments.tmp_electron(),
        "w_m_m": geo.w_m,
        "landau_mean_r2_m2": geo.mean_r2,
        "beam_mean_r2_m2": mean_r2,
        "Q0_Cm2": q0,
        "Qs_Cm2": qs,
        "ecqm_zz_Cm2": ecqm_zz,
        "estimate_keys": ["beam_mean_r2_m2", "Q0_Cm2", "Qs_Cm2", "Qs_over_eR0_m",
                          "ecqm_zz_Cm2", "delta_Omega_s1"],
    }
    if r0 is not None:
        report["R0_m"] = r0
        report["Qs_over_eR0_m"] = qs / (E_CHARGE * r0)
        if setup is not None:
            _, der = ring_config.field_gradients(setup)
            report["delta_Omega_s1"] = moments.delta_omega_estimate(L, der)
    _report(report, args.format, _out_path(args, doc))
    return 0


def _out_path(args, doc):
    """Where a command with a config writes: --out first, then the config's output.path."""
    return args.out or doc.get("output", {}).get("path")


def _cut(f):
    """Flush f and cut a regular file at the last byte written, so no byte of a
    longer earlier file remains.  If the flush fails, the cut is at the
    descriptor's offset: the bytes that reached the file."""
    try:
        f.flush()
    finally:
        fd = f.fileno()
        st = os.fstat(fd)
        # a pipe or a device such as /dev/null is never cut
        if stat.S_ISREG(st.st_mode):
            end = os.lseek(fd, 0, os.SEEK_CUR)
            if st.st_size > end:
                os.ftruncate(fd, end)


@contextlib.contextmanager
def _open_all(paths):
    """Open every path of paths for writing, before any is written.

    No newline is translated, so a file holds exactly the text written to
    it, with "\\n" line ends on every platform.  Each file is rewritten in
    place from offset 0: no file is emptied first, and an existing one keeps
    its bytes until they are written over.  On exit, normal or by an
    exception, each regular file is cut at the last byte written (see _cut),
    so it holds exactly what this run wrote.  Only a process killed outright
    while writing (SIGKILL, power loss) can leave the new bytes followed by
    the tail of a longer earlier file.  If one path cannot be opened, the
    files opened so far are closed, those this call created are removed,
    existing ones are left untouched, and a ConfigError names the path.
    """
    with contextlib.ExitStack() as stack:
        files, created = [], []
        for path in paths:
            existed = os.path.exists(path)
            try:
                fd = os.open(path, _OUT_FLAGS, 0o666)
            except OSError as exc:
                stack.close()
                for done in created:
                    os.remove(done)
                raise ConfigError(f"cannot open output path {path!r}: {exc.strerror}") from None
            files.append(stack.enter_context(open(fd, "w", newline="")))
            if not existed:
                created.append(path)
        # registered after every open, so they run (before the closes) only
        # once the files may have been written
        for f in files:
            stack.callback(_cut, f)
        yield files


def cmd_simulate(args):
    from . import dynamics
    doc = cfg.load_config(args.config, "simulate")
    scn = scenario_from_config(doc)
    out = doc.get("output", {})
    fmt = args.format or out.get("format", "csv")
    path = _out_path(args, doc)
    oracle_cfg = doc.get("oracle", {})
    with_oracle = oracle_cfg.get("enabled", False)
    if with_oracle and not path:
        raise ConfigError("simulate with oracle.enabled writes three files; "
                          "give --out or output.path")
    if with_oracle and os.path.exists(path) and not os.path.isfile(path):
        # the companion files would land beside a device such as /dev/null
        raise ConfigError(f"cannot open output path {path!r}: not a regular file, "
                          "and oracle.enabled writes two more files beside it")
    # every result is computed, then every file opened, before any is written,
    # so a failed run writes nothing
    closed = dynamics.closed_form(scn)
    write = dynamics.write_series_csv if fmt == "csv" else dynamics.write_series_json
    if not path:
        write(closed, sys.stdout)
        return 0
    paths = [path]
    if with_oracle:
        # absent, the tolerance is the oracle's default
        given = {"oracle_rtol": oracle_cfg["tolerance"]} if "tolerance" in oracle_cfg else {}
        report = dynamics.oracle_vs_closed_form(scn, **given)
        cmp_doc = report._asdict()
        cmp_doc["oracle_diagnostics"] = cmp_doc.pop("oracle").diagnostics
        text = json.dumps(_sanitize(cmp_doc), indent=2, sort_keys=True) + "\n"
        base, ext = os.path.splitext(path)
        paths += [f"{base}_oracle{ext}", f"{base}_comparison.json"]
    with _open_all(paths) as files:
        write(closed, files[0])
        if with_oracle:
            write(report.oracle, files[1])
            files[2].write(text)
    return 0


def cmd_scan(args):
    import numpy as np

    from . import dynamics, floattext
    doc = cfg.load_config(args.config, "scan")
    scn = scenario_from_config(doc)
    omegas = cfg.scan_omegas(doc)
    result = dynamics.resonance_scan(scn, omegas)
    target = 2.0 * scn.Omega
    if not (min(omegas) <= target <= max(omegas)):
        sys.stderr.write(f"warning: frequency grid does not bracket 2*Omega = {target}\n")
    argmax = (np.arange(len(result.peaks)) == result.argmax_index).astype(float)
    rows = floattext.text_rows([result.omegas, result.peaks, argmax], "\n", floattext.G17)
    _emit("omega_rad_s,peak_abs_Pz,argmax\n" + "".join(rows), _out_path(args, doc))
    return 0


def cmd_verify(args):
    from . import verify
    results = verify.run_all()
    if args.format == "json":
        doc = [r._asdict() for r in results]
        _emit(json.dumps(_sanitize(doc), indent=2) + "\n", args.out)
    else:
        lines = []
        for r in results:
            lines.append(r.line())
            for d in r.details:
                lines.append(f"    {d}")
        n_fail = sum(not r.passed for r in results)
        lines.append(f"{len(results) - n_fail}/{len(results)} criteria passed")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def _parser():
    """The argument parser, built on the first call; every later main call in
    the process parses with the same one."""
    parser = argparse.ArgumentParser(
        prog="oamsim",
        description="Twisted-electron moments and intrinsic-OAM ring dynamics")
    sub = parser.add_subparsers(dest="command", required=True)
    reports = ("json", "text")
    for name, formats in (("constants", reports), ("freeze", reports), ("moments", reports),
                          ("simulate", ("csv", "json")), ("scan", ("csv",)),
                          ("verify", reports)):
        p = sub.add_parser(name)
        # the commands that read a configuration require one
        p.add_argument("--config", required=name in cfg.READS,
                       help="path to a JSON run configuration")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=formats,
                       default="text" if "text" in formats else None,
                       help="output format")
    return parser


_HANDLERS = {
    "constants": cmd_constants,
    "freeze": cmd_freeze,
    "moments": cmd_moments,
    "simulate": cmd_simulate,
    "scan": cmd_scan,
    "verify": cmd_verify,
}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(json.dumps({"error": "config", "message": str(exc)}) + "\n")
        return 2
    except (ConvergenceError, DomainError) as exc:
        sys.stderr.write(json.dumps({"error": "numerical", "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
