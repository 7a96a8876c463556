"""Command line front end: figure-reproducing data files and workflows.

Usage: nmlab <scenario> --config <file.json> --out <dir>

Scenarios write deterministic CSV data (header row, LF endings, repr-exact
floats) plus a JSON manifest recording parameters, package version and
sha256 checksums. All physical parameters must be present in the config;
documented templates live in the repository's configs/ directory.

Exit codes: 0 success, 2 config or input-file content error, 3 IO error,
4 domain singularity.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, collision, nvmodel, sdc, spectra
from .qcore import SingularChannelError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SINGULAR = 4

SCENARIOS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "classify", "synth")


class InputFileError(Exception):
    """An input CSV that was read but whose content is malformed or invalid."""


def _read_input(reader, path):
    """reader(path), with content errors (not IO errors) as InputFileError."""
    try:
        return reader(path)
    except KeyError as exc:
        raise InputFileError(f"{path}: missing column {exc}") from exc
    except (TypeError, ValueError, csv.Error) as exc:
        raise InputFileError(f"{path}: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _number(value, kind=float):
    """value as a finite float, or as an int if kind is int and value is integral.

    Raises TypeError for booleans and ValueError for non-finite or
    non-integral values: float() and int() would accept them silently.
    """
    if isinstance(value, bool):
        raise TypeError("boolean is not a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("not finite")
    if kind is float:
        return number
    if not number.is_integer():
        raise ValueError("not integral")
    return value if isinstance(value, int) else int(number)


_EXPECTED = {float: "a finite number", int: "an integer", list: "a list of finite numbers",
             str: "a string"}


def _require(params: dict, violations: list, key: str, kind=float, check=None, msg=None):
    if key not in params:
        violations.append(f"{key}: required key missing")
        return None
    value = params[key]
    try:
        if kind is list:
            value = [_number(v) for v in value]
        elif kind is str:
            value = str(value)
        else:
            value = _number(value, kind)
    except (TypeError, ValueError):
        violations.append(f"{key}: expected {_EXPECTED[kind]}")
        return None
    if check is not None and not check(value):
        violations.append(f"{key}: {msg}")
        return None
    return value


def _grid_keys(params, violations, prefix="t"):
    hi = _require(params, violations, f"{prefix}_max", float, lambda v: v > 0, "must be > 0")
    n = _require(params, violations, f"n_{prefix}", int, lambda v: v >= 2, "must be >= 2")
    return hi, n


# --- per-scenario validation ----------------------------------------------

def _validate_fig1(params):
    v = []
    _require(params, v, "a_theta_values", list,
             lambda xs: len(xs) > 0 and all(x >= 0 for x in xs), "entries must be >= 0")
    _require(params, v, "sigma", float, lambda x: x > 0, "must be > 0")
    _require(params, v, "delta_omega", float, lambda x: x >= 0, "must be >= 0")
    _require(params, v, "delta_n", float, lambda x: x != 0, "must be nonzero")
    _grid_keys(params, v)
    return v


def _validate_fig2(params):
    v = []
    lo = _require(params, v, "eps_min", float, lambda x: 0 <= x <= 0.5, "epsilon must be <= 0.5 and >= 0")
    hi = _require(params, v, "eps_max", float, lambda x: 0 <= x <= 0.5, "epsilon must be <= 0.5 and >= 0")
    _require(params, v, "eps_step", float, lambda x: x > 0, "must be > 0")
    if lo is not None and hi is not None and hi < lo:
        v.append("eps_max: must be >= eps_min")
    return v


def _validate_nv_common(params, v):
    _require(params, v, "coupling", float, lambda x: x > 0, "must be > 0")
    _require(params, v, "envelope_time", float, lambda x: x > 0, "must be > 0")
    _require(params, v, "envelope_shape", str,
             lambda x: x in ("gaussian", "exponential"), "must be 'gaussian' or 'exponential'")


def _validate_fig3(params):
    v = []
    _validate_nv_common(params, v)
    _require(params, v, "phi_values", list,
             lambda xs: len(xs) > 0 and all(0 <= x <= np.pi for x in xs), "phi in [0, pi]")
    _grid_keys(params, v)
    _require(params, v, "n_phi", int, lambda x: x >= 2, "must be >= 2")
    return v


def _validate_fig4(params):
    v = []
    _require(params, v, "sigma", float, lambda x: x > 0, "must be > 0")
    _require(params, v, "K", float, lambda x: -1 <= x <= 1, "K in [-1, 1]")
    _require(params, v, "delta_n", float, lambda x: x != 0, "must be nonzero")
    _grid_keys(params, v)
    return v


def _validate_fig5(params):
    v = []
    _validate_nv_common(params, v)
    _require(params, v, "phi", float, lambda x: 0 <= x <= np.pi, "phi in [0, pi]")
    _require(params, v, "t_wait", float, lambda x: x >= 0, "must be >= 0")
    _grid_keys(params, v, prefix="tau")
    return v


def _validate_fig6(params):
    v = []
    _require(params, v, "spectrum_csv", str)
    _require(params, v, "delta_n", float, lambda x: x != 0, "must be nonzero")
    if "two_pi" not in params:
        v.append("two_pi: required key missing")
    elif not isinstance(params["two_pi"], bool):
        v.append("two_pi: must be a boolean")
    _grid_keys(params, v)
    return v


def _validate_classify(params):
    v = []
    _require(params, v, "epsilon", float, lambda x: 0 <= x <= 0.5, "epsilon must be <= 0.5 and >= 0")
    return v


def _validate_synth(params):
    v = []
    _require(params, v, "kappa_csv", str)
    _require(params, v, "delta_n", float, lambda x: x != 0, "must be nonzero")
    if "two_pi" not in params:
        v.append("two_pi: required key missing")
    elif not isinstance(params["two_pi"], bool):
        v.append("two_pi: must be a boolean")
    return v


_VALIDATORS = {
    "fig1": _validate_fig1,
    "fig2": _validate_fig2,
    "fig3": _validate_fig3,
    "fig4": _validate_fig4,
    "fig5": _validate_fig5,
    "fig6": _validate_fig6,
    "classify": _validate_classify,
    "synth": _validate_synth,
}


def validate(scenario: str, params: dict) -> list[str]:
    """List of config violations; empty iff the run would start."""
    if scenario not in _VALIDATORS:
        return [f"scenario: unknown scenario {scenario!r}"]
    if not isinstance(params, dict):
        return ["config: must be a JSON object"]
    return _VALIDATORS[scenario](params)


# --- per-scenario runners (validated params) -------------------------------

def _run_fig1(params, out: Path):
    dn = params["delta_n"]
    t = np.linspace(0, params["t_max"], int(params["n_t"]))
    rows = []
    for a in params["a_theta_values"]:
        dg = spectra.DoubleGaussianSpec(
            a_theta=a, sigma=params["sigma"], delta_omega=params["delta_omega"], delta_n=dn
        )
        mags = spectra.kappa_double_gaussian_mag(dg, t)
        rows.extend((float(ti), float(a), float(m)) for ti, m in zip(t, mags))
    path = out / "fig1.csv"
    _write_csv(path, ["t", "A_theta", "kappa_mag"], rows)
    return [path]


def _run_fig2(params, out: Path):
    eps_grid = np.arange(params["eps_min"], params["eps_max"] + params["eps_step"] / 2,
                         params["eps_step"])
    rows = []
    for eps in eps_grid:
        eps = float(min(eps, 0.5))
        c1, c2 = collision.entanglement_dynamics(eps)
        verdict = collision.classify(eps)
        rows.append((eps, c1, c2, c2 - c1, verdict.classification.value))
    path = out / "fig2.csv"
    _write_csv(path, ["epsilon", "C1", "C2", "C2_minus_C1", "classification"], rows)
    return [path]


def _nv_params(params) -> nvmodel.NVParams:
    return nvmodel.NVParams(
        coupling=params["coupling"],
        envelope_time=params["envelope_time"],
        envelope_shape=params["envelope_shape"],
    )


def _run_fig3(params, out: Path):
    nv = _nv_params(params)
    t = np.linspace(0, params["t_max"], int(params["n_t"]))
    rows = []
    for phi in params["phi_values"]:
        r = nvmodel.bloch_magnitude(nv, phi, t)
        rows.extend((float(ti), float(phi), float(ri)) for ti, ri in zip(t, r))
    bloch_path = out / "fig3_bloch.csv"
    _write_csv(bloch_path, ["t", "phi", "r"], rows)
    phi_grid = np.linspace(0, np.pi, int(params["n_phi"]))
    nm = nvmodel.nm_measure_phi(nv, phi_grid, t)
    nm_path = out / "fig3_nm.csv"
    _write_csv(nm_path, ["phi", "nm"], [(p, v) for p, v in nm])
    return [bloch_path, nm_path]


def _run_fig4(params, out: Path):
    spec = sdc.CorrelatedSpectrum(
        sigma=params["sigma"], correlation=params["K"], delta_n=params["delta_n"]
    )
    t = np.linspace(0, params["t_max"], int(params["n_t"]))
    rows = []
    for ti in t:
        ti = float(ti)
        c_a = sdc.concurrence_at_encoding(spec, ti)
        rows.append(
            (
                ti,
                c_a,
                sdc.simulate_protocol(spec, ti, ti, 4),
                sdc.simulate_protocol(spec, ti, ti, 3),
                sdc.simulate_protocol(spec, ti, 0.0, 4),
                sdc.capacity(c_a, spec.correlation),
            )
        )
    path = out / "fig4.csv"
    _write_csv(
        path,
        ["t_a", "c_a", "mi_4state", "mi_3state", "mi_4state_alice_only", "capacity"],
        rows,
    )
    return [path]


def _run_fig5(params, out: Path):
    nv = _nv_params(params)
    phi, t_wait = params["phi"], params["t_wait"]
    taus = np.linspace(0, params["tau_max"], int(params["n_tau"]))
    rows = []
    for tau in taus:
        tau = float(tau)
        p0 = {
            g.value: nvmodel.rdja_p0(nv, phi, nvmodel.RDJAConfig(t_wait, tau, g))
            for g in nvmodel.Gate
        }
        rows.append((tau, p0["U1"], p0["U2"], p0["U3"], p0["U4"], p0["U3"] - p0["U1"]))
    path = out / "fig5.csv"
    _write_csv(path, ["tau", "p0_u1", "p0_u2", "p0_u3", "p0_u4", "contrast"], rows)
    return [path]


def _run_fig6(params, out: Path):
    profile = _read_input(spectra.read_profile_csv, params["spectrum_csv"])
    two_pi = bool(params["two_pi"])
    t = np.linspace(0, params["t_max"], int(params["n_t"]))
    kappa = spectra.kappa_numeric(profile, params["delta_n"], t, two_pi=two_pi)
    rows = [
        (float(ti), float(k.real), float(k.imag), float(abs(k))) for ti, k in zip(t, kappa)
    ]
    path = out / "fig6.csv"
    _write_csv(path, ["t", "re_kappa", "im_kappa", "kappa_mag"], rows)
    return [path]


def _run_classify(params, out: Path):
    eps = params["epsilon"]
    verdict = collision.classify(eps)
    if verdict.classification is collision.Classification.SINGULAR:
        raise SingularChannelError(
            "intermediate map undefined at eps = 0.25 (first collision is singular)"
        )
    mid = collision.intermediate_channel(eps)
    path = out / "classify.csv"
    _write_csv(
        path,
        [
            "epsilon",
            "lambda_x",
            "lambda_y",
            "lambda_z",
            "min_choi_eigenvalue",
            "max_abs_bloch_eigenvalue",
            "classification",
        ],
        [
            (
                float(eps),
                mid.lam_x,
                mid.lam_y,
                mid.lam_z,
                verdict.min_choi_eigenvalue,
                verdict.max_abs_bloch_eigenvalue,
                verdict.classification.value,
            )
        ],
    )
    return [path]


def _run_synth(params, out: Path):
    traj = _read_input(spectra.read_trajectory_csv, params["kappa_csv"])
    try:
        result = spectra.synthesize_spectrum(traj, params["delta_n"], two_pi=params["two_pi"])
    except ValueError as exc:  # the time grid is non-uniform or too short
        raise InputFileError(f"{params['kappa_csv']}: {exc}") from exc
    path = out / "synth_spectrum.csv"
    spectra.write_profile_csv(result.profile, path)
    extra = {
        "roundtrip_error": result.roundtrip_error,
        "realizable": result.realizable,
    }
    return [path], extra


_RUNNERS = {
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "classify": _run_classify,
    "synth": _run_synth,
}


def run(scenario: str, params: dict, out_dir) -> int:
    """Execute one scenario; returns the process exit code."""
    violations = validate(scenario, params)
    if violations:
        print(json.dumps({"error": "invalid config", "violations": violations}),
              file=sys.stderr)
        return EXIT_CONFIG
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        result = _RUNNERS[scenario](params, out)
    except InputFileError as exc:
        print(json.dumps({"error": "invalid input file", "violations": [str(exc)]}),
              file=sys.stderr)
        return EXIT_CONFIG
    except SingularChannelError as exc:
        print(json.dumps({"error": "singular channel", "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_SINGULAR
    except OSError as exc:
        print(json.dumps({"error": "io failure", "detail": str(exc)}), file=sys.stderr)
        return EXIT_IO
    if isinstance(result, tuple):
        paths, extra = result
    else:
        paths, extra = result, {}
    manifest = {
        "scenario": scenario,
        "parameters": params,
        "version": __version__,
        "outputs": [{"file": p.name, "sha256": _sha256(p)} for p in paths],
    }
    manifest.update(extra)
    manifest_path = out / f"{scenario}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nmlab", description="Engineered-dephasing figure and workflow runner"
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    try:
        params = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        print(json.dumps({"error": "io failure", "detail": str(exc)}), file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(json.dumps({"error": "invalid config", "violations": [str(exc)]}),
              file=sys.stderr)
        return EXIT_CONFIG
    return run(args.scenario, params, args.out)


if __name__ == "__main__":
    sys.exit(main())
