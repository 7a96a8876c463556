"""Command line front end: figure-reproducing data files and workflows.

Usage: nmlab <scenario> --config <file.json> --out <dir>

SCENARIOS is the one table of scenarios. Each entry gives a parameter
schema, a runner and an optional check across parameters, which first
bounds the output rows of a run (ROWS_MAX) and fig3's dense cells (CELLS_MAX)
before anything is allocated; fig6 and synth bound their input file's rows
before it is parsed. A schema maps
each config key to a (kind, check, message) rule: the kind converts the
JSON value (a finite number, an integer, a list of finite numbers, a string
or a boolean) and the check bounds the converted value. Numeric parameters
must be JSON numbers: booleans, NaN, +-Infinity and numeric strings such as
"1.5" are rejected; every value, which the manifest copies, must be valid
JSON, numpy scalars too. validate walks the schema; run hands the validated
values, not the raw config, to the runner, which returns its outputs as
(file name, header, columns) whose columns broadcast (fig1 and fig3 pass t,
the swept parameter as a column and the values as a table). run runs it
with numpy's floating-point warnings off, refuses a nan or inf in any
numeric column before it creates the output directory, and alone writes the
outputs as deterministic CSV (header row, LF endings, repr-exact floats),
plus a JSON manifest recording parameters, package version and the sha256
of each file, hashed while it is written; it removes the scenario's old
manifest before the first output file, so a run that fails while writing
leaves none. All physical parameters must be present in the config;
documented templates live in the repository's configs/ directory.

Exit codes: 0 success, 2 config or input-file content error or non-finite
output, 3 IO error, 4 domain singularity.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, collision, nvmodel, sdc, spectra
from .qcore import SingularChannelError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SINGULAR = 4


class InputFileError(Exception):
    """An input CSV that was read but whose content is malformed or invalid."""


@contextlib.contextmanager
def _input_file(path):
    """The one boundary of an input file's content errors (not IO errors), raised while it is
    read and used inside: KeyError as `<path>: missing column ...`, ValueError as
    `<path>: <message>`, both as InputFileError."""
    try:
        yield
    except KeyError as exc:
        raise InputFileError(f"{path}: missing column {exc}") from exc
    except ValueError as exc:
        raise InputFileError(f"{path}: {exc}") from exc


def _fail(code: int, error: str, **detail) -> int:
    """Report an error as one line of JSON on stderr; returns the exit code."""
    print(json.dumps({"error": error, **detail}), file=sys.stderr)
    return code


# --- parameter kinds: convert a JSON value or raise --------------------------

def _real(value) -> float:
    """value as a finite float.

    Booleans and strings raise TypeError, although float() accepts them;
    NaN, +-inf and ints too large for a float raise ValueError.
    """
    if isinstance(value, (bool, str)):
        raise TypeError(f"{type(value).__name__} is not a number")
    try:
        number = float(value)
    except OverflowError as exc:
        raise ValueError("too large") from exc
    if not math.isfinite(number):
        raise ValueError("not finite")
    return number


def _integer(value) -> int:
    """value as an int; integral floats such as 5.0 are accepted, 2.9 is not."""
    number = _real(value)
    if not number.is_integer():
        raise ValueError("not integral")
    return value if isinstance(value, int) else int(number)


def _reals(value) -> list:
    return [_real(v) for v in value]


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("not a boolean")
    return value


def _string(value) -> str:
    if not isinstance(value, str):  # str() would turn null, 5 or a list into a file name
        raise TypeError("not a string")
    return value


_EXPECTED = {_real: "expected a finite number", _integer: "expected an integer",
             _reals: "expected a list of finite numbers", _string: "expected a string",
             _flag: "must be a boolean"}

# Shared (kind, check, message) rules.
POSITIVE = (_real, lambda x: x > 0, "must be > 0")
NONNEGATIVE = (_real, lambda x: x >= 0, "must be >= 0")
NONZERO = (_real, lambda x: x != 0, "must be nonzero")
EPSILON = (_real, lambda x: 0 <= x <= 0.5, "epsilon must be <= 0.5 and >= 0")
GRID_SIZE = (_integer, lambda n: n >= 2, "must be >= 2")
PATH = (_string, None, None)
FLAG = (_flag, None, None)
# Largest rows one run writes (over all files) or reads, and dense cells of fig3's configured
# grids, n_t * (len(phi_values) + n_phi) (it evaluates n_t * (len(phi_values) + ceil(n_phi / 2)));
# kappa_numeric needs no cell budget: O((n_t + n_omega) log) per Taylor term on any grid.
ROWS_MAX = 1_000_000
CELLS_MAX = 10_000_000
NV_KEYS = {
    "coupling": POSITIVE,
    "envelope_time": POSITIVE,
    "envelope_shape": (_string, lambda x: x in ("gaussian", "exponential"),
                       "must be 'gaussian' or 'exponential'"),
}


def _size(keys: str, rows: int, cells: int = 0):
    """Violation if a run writes more than ROWS_MAX rows or its grids span more than
    CELLS_MAX dense cells (fig3 alone counts them, on its configured grids), else None."""
    if rows > ROWS_MAX:
        return f"{keys}: {rows} rows exceed the budget ROWS_MAX = {ROWS_MAX}"
    if cells > CELLS_MAX:
        return f"{keys}: {cells} dense cells exceed the budget CELLS_MAX = {CELLS_MAX}"


# --- runners: validated values -> ([(file name, header, columns)], manifest extras)

def _fig1(v):
    t, a_values = np.linspace(0, v["t_max"], v["n_t"]), v["a_theta_values"]
    specs = (spectra.DoubleGaussianSpec(a, v["sigma"], v["delta_omega"], v["delta_n"])
             for a in a_values)
    mags = np.stack([spectra.kappa_double_gaussian_mag(dg, t) for dg in specs])
    return [("fig1.csv", ["t", "A_theta", "kappa_mag"], (t, np.c_[a_values], mags))], {}


def _fig2(v):
    eps = np.minimum(np.arange(v["eps_min"], v["eps_max"] + v["eps_step"] / 2, v["eps_step"]), 0.5)
    (c1, c2), labels = collision.entanglement_dynamics(eps), collision.classify(eps).classification
    diff = np.where(c1 > 0, 0 - 4 * eps * c1, c2)  # C2 - C1 = b^2 - b = -4 eps b; 0 - gives +0.0
    header = ["epsilon", "C1", "C2", "C2_minus_C1", "classification"]
    return [("fig2.csv", header, (eps, c1, c2, diff, labels))], {}


def _fig2_check(v):
    if v["eps_max"] < v["eps_min"]:
        return "eps_max: must be >= eps_min"


def _fig3(v):
    nv = nvmodel.NVParams(**{key: v[key] for key in NV_KEYS})
    t, grid = np.linspace(0, v["t_max"], v["n_t"]), np.linspace(0, np.pi, v["n_phi"])
    bloch = (t, np.c_[v["phi_values"]], nvmodel.bloch_magnitude(nv, v["phi_values"], t))
    # r depends on phi only through cos^2(phi): evaluate phi <= pi/2, mirror onto phi > pi/2.
    half = nvmodel.nm_measure_phi(nv, grid[:(v["n_phi"] + 1) // 2], t)
    nm = (grid, np.concatenate([half, half[:v["n_phi"] // 2][::-1]]))
    return [("fig3_bloch.csv", ["t", "phi", "r"], bloch), ("fig3_nm.csv", ["phi", "nm"], nm)], {}


def _fig4(v):
    spec = sdc.CorrelatedSpectrum(sigma=v["sigma"], correlation=v["K"], delta_n=v["delta_n"])
    t = np.linspace(0, v["t_max"], v["n_t"])
    c_a, mi_4state, mi_3state, mi_alice = sdc.fig4_columns(spec, t)
    header = ["t_a", "c_a", "mi_4state", "mi_3state", "mi_4state_alice_only", "capacity"]
    return [("fig4.csv", header, (t, c_a, mi_4state, mi_3state, mi_alice, mi_4state))], {}


def _fig5(v):
    nv = nvmodel.NVParams(**{key: v[key] for key in NV_KEYS})
    tau = np.linspace(0, v["tau_max"], v["n_tau"])
    p0 = nvmodel.rdja_p0_table(nv, v["phi"], v["t_wait"], tau)
    columns = (tau, *p0.values(), p0[nvmodel.Gate.U3] - p0[nvmodel.Gate.U1])
    return [("fig5.csv", ["tau", "p0_u1", "p0_u2", "p0_u3", "p0_u4", "contrast"], columns)], {}


def _kernel_scale(v) -> float:
    """fig6's and synth's s in exp(i s omega t): 2 pi delta_n for an ordinary omega (two_pi)."""
    return 2 * np.pi * v["delta_n"] if v["two_pi"] else v["delta_n"]


def _fig6(v):
    with _input_file(v["spectrum_csv"]):
        profile = spectra.read_profile_csv(v["spectrum_csv"], max_rows=ROWS_MAX)
        limit = spectra.alias_t_max(profile, _kernel_scale(v))
        if v["t_max"] > limit * (1 + 1e-9):  # 1e-9: the readers' uniform-grid tolerance
            raise ValueError(f"t_max = {v['t_max']} exceeds the alias half-period {limit}")
        t = np.linspace(0, v["t_max"], v["n_t"])
        kappa = spectra.kappa_numeric(profile, _kernel_scale(v), t)
    # hypot matches abs() of each complex scalar bit for bit; np.abs does not.
    columns = (t, kappa.real, kappa.imag, np.hypot(kappa.real, kappa.imag))
    return [("fig6.csv", ["t", "re_kappa", "im_kappa", "kappa_mag"], columns)], {}


def _classify(v):
    eps = v["epsilon"]  # intermediate_channel raises SingularChannelError on classify's edges
    verdict, mid = collision.classify(eps), collision.intermediate_channel(eps)
    header = ["epsilon", "lambda_x", "lambda_y", "lambda_z", "min_choi_eigenvalue",
              "max_abs_bloch_eigenvalue", "classification"]
    row = (eps, mid.lam_x, mid.lam_y, mid.lam_z, verdict.min_choi_eigenvalue,
           verdict.max_abs_bloch_eigenvalue, verdict.classification.value)
    return [("classify.csv", header, row)], {}


def _synth(v):
    with _input_file(v["kappa_csv"]):
        # synthesize_spectrum's frequency grid has 2 * rows - 2 points.
        traj = spectra.read_trajectory_csv(v["kappa_csv"], max_rows=(ROWS_MAX + 2) // 2)
        result = spectra.synthesize_spectrum(traj, _kernel_scale(v))
    p = result.profile
    extra = {"roundtrip_error": result.roundtrip_error, "realizable": result.realizable}
    return [("synth_spectrum.csv", spectra.PROFILE_COLUMNS, (p.omega, p.density, p.phase))], extra


class Scenario(NamedTuple):
    schema: dict  # config key -> (kind, check, message); check and message may be None
    runner: Callable
    check: Callable | None = None  # all validated values -> violation (the size first) or None


SCENARIOS = {
    "fig1": Scenario({
        "a_theta_values": (_reals, lambda xs: len(xs) > 0 and all(x >= 0 for x in xs),
                           "entries must be >= 0"),
        "sigma": POSITIVE, "delta_omega": NONNEGATIVE, "delta_n": NONZERO,
        "t_max": POSITIVE, "n_t": GRID_SIZE,
    }, _fig1, lambda v: _size("n_t, a_theta_values", v["n_t"] * len(v["a_theta_values"]))),
    "fig2": Scenario(
        {"eps_min": EPSILON, "eps_max": EPSILON, "eps_step": POSITIVE}, _fig2,
        lambda v: _size("eps_step", (v["eps_max"] - v["eps_min"]) / v["eps_step"] + 1)
        or _fig2_check(v)),
    "fig3": Scenario({
        **NV_KEYS,
        "phi_values": (_reals, lambda xs: len(xs) > 0 and all(0 <= x <= np.pi for x in xs),
                       "phi in [0, pi]"),
        "t_max": POSITIVE, "n_t": GRID_SIZE, "n_phi": GRID_SIZE,
    }, _fig3, lambda v: _size("n_t, phi_values, n_phi",
                              v["n_t"] * len(v["phi_values"]) + v["n_phi"],
                              v["n_t"] * (len(v["phi_values"]) + v["n_phi"]))),
    "fig4": Scenario({
        "sigma": POSITIVE, "K": (_real, lambda x: -1 <= x <= 1, "K in [-1, 1]"),
        "delta_n": NONZERO, "t_max": POSITIVE, "n_t": GRID_SIZE,
    }, _fig4, lambda v: _size("n_t", v["n_t"])),
    "fig5": Scenario({
        **NV_KEYS, "phi": (_real, lambda x: 0 <= x <= np.pi, "phi in [0, pi]"),
        "t_wait": NONNEGATIVE, "tau_max": POSITIVE, "n_tau": GRID_SIZE,
    }, _fig5, lambda v: _size("n_tau", v["n_tau"])),
    "fig6": Scenario({
        "spectrum_csv": PATH, "delta_n": NONZERO, "two_pi": FLAG,
        "t_max": POSITIVE, "n_t": GRID_SIZE,
    }, _fig6, lambda v: _size("n_t", v["n_t"])),
    "classify": Scenario({"epsilon": EPSILON}, _classify),
    "synth": Scenario({"kappa_csv": PATH, "delta_n": NONZERO, "two_pi": FLAG}, _synth),
}


def _validated(scenario: str, params) -> tuple[dict, list[str]]:
    """(validated values, violations) of a config for a scenario."""
    if scenario not in SCENARIOS:
        return {}, [f"scenario: unknown scenario {scenario!r}"]
    if not isinstance(params, dict):
        return {}, ["config: must be a JSON object"]
    entry = SCENARIOS[scenario]
    values, violations = {}, []
    for key, (kind, check, msg) in entry.schema.items():
        if key not in params:
            violations.append(f"{key}: required key missing")
            continue
        try:
            value = kind(params[key])
        except (TypeError, ValueError):
            violations.append(f"{key}: {_EXPECTED[kind]}")
            continue
        if check is not None and not check(value):
            violations.append(f"{key}: {msg}")
            continue
        values[key] = value
    # The manifest copies the config, so every value must be valid JSON too (a numpy scalar
    # is not); a schema key already reported is not checked again.
    for key in (key for key in params if key in values or key not in entry.schema):
        try:
            json.dumps(params[key], allow_nan=False)
        except (TypeError, ValueError):
            violations.append(f"{key}: must be valid JSON (no NaN or +-Infinity)")
    # The rule across parameters runs only once every parameter is valid.
    if not violations and entry.check is not None and (violation := entry.check(values)):
        violations.append(violation)
    return values, violations


def validate(scenario: str, params: dict) -> list[str]:
    """List of config violations; empty iff the run would start."""
    return _validated(scenario, params)[1]


def _non_finite(outputs) -> list[str]:
    """One violation per numeric output column (an array) with a nan or inf cell."""
    return [f"{name}: column {label} is not finite"
            for name, header, columns in outputs for label, column in zip(header, columns)
            if column.dtype.kind in "fc" and not np.isfinite(column).all()]


def run(scenario: str, params: dict, out_dir) -> int:
    """Execute one scenario; returns the process exit code."""
    values, violations = _validated(scenario, params)
    if violations:
        return _fail(EXIT_CONFIG, "invalid config", violations=violations)
    out = Path(out_dir)
    try:
        with np.errstate(all="ignore"):  # non-finite cells are reported below, not warned
            outputs, extra = SCENARIOS[scenario].runner(values)
        outputs = [(name, header, list(map(np.asarray, columns)))
                   for name, header, columns in outputs]
        if non_finite := _non_finite(outputs):
            return _fail(EXIT_CONFIG, "non-finite output", violations=non_finite)
        out.mkdir(parents=True, exist_ok=True)
        manifest_path = out / f"{scenario}_manifest.json"
        manifest_path.unlink(missing_ok=True)
        hashes = [{"file": name, "sha256": spectra.write_csv(out / name, header, columns)}
                  for name, header, columns in outputs]
        manifest = {"scenario": scenario, "parameters": params, "version": __version__,
                    "outputs": hashes, **extra}
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except InputFileError as exc:
        return _fail(EXIT_CONFIG, "invalid input file", violations=[str(exc)])
    except SingularChannelError as exc:
        return _fail(EXIT_SINGULAR, "singular channel", detail=str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, "io failure", detail=str(exc))
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
        params = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        return _fail(EXIT_IO, "io failure", detail=str(exc))
    except (ValueError, RecursionError) as exc:  # malformed JSON or UTF-8, or nested too deep
        return _fail(EXIT_CONFIG, "invalid config", violations=[str(exc)])
    return run(args.scenario, params, args.out)


if __name__ == "__main__":
    sys.exit(main())
