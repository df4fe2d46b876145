"""Command-line interface.

    oamsim constants | freeze | moments | simulate | scan | verify
           [--config PATH] [--out PATH] [--format FORMAT]

FORMAT is json|text for constants, freeze, moments and verify (default text),
csv|json for simulate (default: the config's output.format, else csv) and csv
for scan.  Exit codes: 0 success, 1 verification/numerical failure,
2 configuration or usage error.
"""

import argparse
import json
import math
import os
import sys

from . import config as cfg
from . import dynamics, moments, ring_config, verify
from .constants import E_CHARGE, M_E_C2_EV
from .errors import ConfigError, ConvergenceError, DomainError


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as f:
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
    """Resolve (kinematics, B0, setup-or-None) from beam/ring sections."""
    beam = doc["beam"]
    ring = doc.get("ring", {})
    kin = ring_config.kinematics(beam["kinetic_energy_eV"])
    if "R0_m" in ring and "n" in ring:
        setup = ring_config.frozen_setup(beam["kinetic_energy_eV"],
                                         ring["R0_m"], ring["n"])
        return kin, setup.B0, setup
    if "B0_T" in ring:
        return kin, ring["B0_T"], None
    if mode == "frozen":
        raise ConfigError("frozen mode requires ring.R0_m and ring.n")
    raise ConfigError("ring section must provide R0_m+n or B0_T")


def scenario_from_config(doc):
    """Assemble a DynamicsScenario from a validated simulate/scan config.

    Coefficients are derived from the beam and ring sections; explicit
    *_rad_s scenario keys override the derived values, in which case the
    ring section may be omitted.
    """
    beam, scn = doc["beam"], doc["scenario"]
    mode = scn["mode"]
    L = beam["L"]
    ring_cache = {}

    def ring():
        if not ring_cache:
            ring_cache["value"] = _ring_for(doc, mode)
        return ring_cache["value"]

    def larmor():
        kin, b0, _ = ring()
        return ring_config.larmor_omega(kin, b0, 0.0)

    fields = dict(mode=mode, L=L, theta=beam["theta"], psi=beam["psi"],
                  kind=beam["kind"], t_end=scn["t_end_s"], steps=scn["steps"],
                  phi=scn.get("phi", 0.0), drive=scn.get("drive", "corotating"))
    if mode == "tmp":
        fields["Omega"] = scn.get("Omega_rad_s", None)
        if fields["Omega"] is None:
            fields["Omega"] = larmor()
        fields["b"] = scn.get("b_rad_s", None)
        if fields["b"] is None:
            fields["b"] = moments.tmp_coefficient(ring()[1])
    elif mode == "frozen":
        if "A_rad_s" in scn:
            fields["A"] = scn["A_rad_s"]
        else:
            _, _, setup = ring()
            if setup is None:
                raise ConfigError("frozen mode requires ring.R0_m and ring.n")
            fields["A"] = dynamics.quadrupole_coefficient_frozen(
                moments.beam_model_eqm(L)[2], L, setup)
    else:
        fields["Omega"] = scn.get("Omega_rad_s", None)
        if fields["Omega"] is None:
            fields["Omega"] = larmor()
        if "A_rad_s" in scn:
            fields["A"] = scn["A_rad_s"]
        elif "grad_amplitude_V_m2" in scn:
            fields["A"] = dynamics.quadrupole_coefficient_resonance(
                moments.beam_model_eqm(L)[2], L, scn["grad_amplitude_V_m2"])
        else:
            raise ConfigError(
                "resonance mode requires scenario.grad_amplitude_V_m2 or scenario.A_rad_s")
        fields["omega_drive"] = scn.get("omega_drive", 2.0 * fields["Omega"])
    return dynamics.DynamicsScenario(**fields)


def cmd_constants(args):
    rows = verify.constants_report()
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
    _report(report, args.format, args.out)
    return 0


def cmd_moments(args):
    doc = cfg.load_config(args.config, "moments")
    beam = doc["beam"]
    L = beam["L"]
    kin, b0, setup = _ring_for(doc, mode=None)
    if "density_path" in beam:
        r, rho = moments.load_radial_density(beam["density_path"])
        q0 = moments.intrinsic_eqm(r, rho)
        mean_r2 = moments.mean_square_radius(r, rho)
        qs = moments.spectroscopic_eqm(q0, L, L)
        geo = ring_config.landau_geometry(b0, 0, L)
        w_m = geo.w_m
    else:
        ms = moments.moment_set(L, b0)
        q0, qs, w_m, mean_r2 = ms.Q0_Cm2, ms.Qs_Cm2, ms.w_m, ms.mean_r2
    r0 = doc.get("ring", {}).get("R0_m", setup.R0 if setup else None)
    ecqm_zz = moments.ecqm([0.0, 0.0, L], [0.0, 0.0, 0.5],
                           kin.gamma * M_E_C2_EV).components[2, 2]
    report = {
        "L": L,
        "B_T": b0,
        "beta_T_fm3": moments.tmp_electron(),
        "w_m_m": w_m,
        "landau_mean_r2_m2": ring_config.landau_geometry(b0, 0, L).mean_r2,
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
    _report(report, args.format, args.out)
    return 0


def _write_series(series, fmt, path):
    if fmt == "csv":
        if path:
            with open(path, "w", newline="") as f:
                dynamics.write_series_csv(series, f)
        else:
            dynamics.write_series_csv(series, sys.stdout)
    else:
        text = json.dumps(dynamics.series_to_dict(series), indent=2) + "\n"
        _emit(text, path)


def cmd_simulate(args):
    doc = cfg.load_config(args.config, "simulate")
    scn = scenario_from_config(doc)
    out = doc.get("output", {})
    fmt = args.format or out.get("format", "csv")
    path = args.out or out.get("path")
    oracle_cfg = doc.get("oracle", {})
    if oracle_cfg.get("enabled", False) and not path:
        raise ConfigError("simulate with oracle.enabled writes three files; "
                          "give --out or output.path")
    closed = dynamics.closed_form(scn)
    _write_series(closed, fmt, path)
    if oracle_cfg.get("enabled", False):
        rtol = oracle_cfg.get("tolerance", 1e-9)
        report = dynamics.oracle_vs_closed_form(scn, oracle_rtol=rtol)
        base, ext = os.path.splitext(path)
        _write_series(report.oracle, fmt, f"{base}_oracle{ext}")
        cmp_doc = {
            "mode": report.mode, "L": report.L, "kind": report.kind,
            "drive": report.drive,
            "max_abs_deviation": report.max_abs_deviation,
            "freq_expected_rad_s": report.freq_expected,
            "freq_oracle_rad_s": report.freq_oracle,
            "freq_closed_rad_s": report.freq_closed,
            "freq_oracle_rel_err": report.freq_oracle_rel_err,
            "freq_closed_rel_err": report.freq_closed_rel_err,
            "amplitude_factor": report.amplitude_factor,
            "rwa_amplitude_bound": report.rwa_amplitude_bound,
            "oracle_diagnostics": report.oracle.diagnostics,
        }
        text = json.dumps(_sanitize(cmp_doc), indent=2, sort_keys=True) + "\n"
        _emit(text, f"{base}_comparison.json")
    return 0


def cmd_scan(args):
    doc = cfg.load_config(args.config, "scan")
    scn = scenario_from_config(doc)
    if scn.mode != "resonance":
        raise ConfigError("scan requires scenario.mode = 'resonance'")
    omegas = cfg.scan_omegas(doc)
    result = dynamics.resonance_scan(scn, omegas)
    target = 2.0 * scn.Omega
    if not (min(omegas) <= target <= max(omegas)):
        sys.stderr.write(f"warning: frequency grid does not bracket 2*Omega = {target}\n")
    lines = ["omega_rad_s,peak_abs_Pz,argmax"]
    for i, (w, p) in enumerate(zip(result.omegas, result.peaks)):
        lines.append(f"{w:.17g},{p:.17g},{1 if i == result.argmax_index else 0}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args):
    results = verify.run_all()
    if args.format == "json":
        doc = [{"criterion": r.criterion, "label": r.label, "passed": r.passed,
                "details": r.details, "elapsed_s": r.elapsed_s, "info": r.info}
               for r in results]
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oamsim",
        description="Twisted-electron moments and intrinsic-OAM ring dynamics")
    sub = parser.add_subparsers(dest="command", required=True)
    reports = ("json", "text")
    for name, needs_config, formats in (("constants", False, reports),
                                        ("freeze", True, reports),
                                        ("moments", True, reports),
                                        ("simulate", True, ("csv", "json")),
                                        ("scan", True, ("csv",)),
                                        ("verify", False, reports)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config,
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
    args = build_parser().parse_args(argv)
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
