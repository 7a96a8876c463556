"""Benchmark-owned references for every nmlab scenario output.

Nothing here calls nmlab. Each check reads the files a request wrote,
compares them with a closed form (or, for fig6/synth, a dense trapezoid
sum done here), raises ``Mismatch`` on any difference and otherwise returns
a dict of error statistics. Large tables are
checked on sampled rows; the row count, header and manifest checksums are
always checked in full.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

CLOSED_FORM_TOL = 1e-10  # columns given by a closed form
QUADRATURE_TOL = 1e-9  # fig6 kappa against the dense trapezoid sum
ROUNDTRIP_TOL = 1e-6  # synth: nmlab's own realizability threshold
DENSITY_NORM_TOL = 1e-8
SINGULAR_EPS_TOL = 1e-9  # |eps - 1/4| at which the intermediate map is undefined
SAMPLED_ROWS = 48
NUMPY_REPR = "np.float64("


class Mismatch(Exception):
    """Raised inside a check; its text becomes the failure detail."""


def sample_indices(n: int) -> np.ndarray:
    """Evenly spaced row indices including the first and the last row."""
    if n <= SAMPLED_ROWS:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, SAMPLED_ROWS).round().astype(int))


def read_table(path: Path, header: list[str]) -> list[str]:
    """Data lines of an LF-terminated CSV whose first line must equal header."""
    text = path.read_text(encoding="utf-8")
    if "\r" in text or not text.endswith("\n"):
        raise Mismatch(f"{path.name}: not LF-terminated")
    lines = text[:-1].split("\n")
    if lines[0] != ",".join(header):
        raise Mismatch(f"{path.name}: header {lines[0]!r}")
    return lines[1:]


def to_float(cell: str) -> float:
    # Unwrap numpy 2's "np.float64(x)" repr so the value itself is still
    # checked; numpy_repr_files() reports the defect separately.
    if cell.startswith(NUMPY_REPR) and cell.endswith(")"):
        cell = cell[len(NUMPY_REPR):-1]
    return float(cell)


def parse_rows(lines: list[str], idx, ncols: int, text_cols=()) -> list[list]:
    rows = []
    for i in idx:
        cells = lines[i].split(",")
        if len(cells) != ncols:
            raise Mismatch(f"row {i}: {len(cells)} columns")
        rows.append([c if j in text_cols else to_float(c) for j, c in enumerate(cells)])
    return rows


def numpy_repr_files(out: Path) -> list[str]:
    """Output CSVs holding numpy scalar reprs instead of float literals."""
    return sorted(f.name for f in out.glob("*.csv") if NUMPY_REPR in f.read_text(encoding="utf-8"))


def check_manifest(out: Path, scenario: str, files: list[str]) -> dict:
    manifest = json.loads((out / f"{scenario}_manifest.json").read_text(encoding="utf-8"))
    if manifest.get("scenario") != scenario:
        raise Mismatch(f"manifest scenario {manifest.get('scenario')!r}")
    listed = {o["file"]: o["sha256"] for o in manifest["outputs"]}
    if sorted(listed) != sorted(files):
        raise Mismatch(f"manifest lists {sorted(listed)}")
    for name, digest in listed.items():
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
            raise Mismatch(f"{name}: sha256 differs from manifest")
    return manifest


def close(got, want, tol: float, what: str) -> float:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) if np.size(want) else 0.0
    if not err <= tol:  # also catches NaN
        raise Mismatch(f"{what}: max abs error {err:.3g} > {tol:g}")
    return err


def grid(hi: float, n: int) -> np.ndarray:
    return np.linspace(0.0, hi, n)


# --- trapezoid quadrature of a tabulated spectrum ---------------------------

def trapezoid_kappa(omega, density, phase, scale: float, t) -> np.ndarray:
    """Dense trapezoid sum of density * exp(i phase) * exp(i omega scale t)."""
    w = np.full(omega.size, omega[1] - omega[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    amp = density * w * np.exp(1j * phase)
    return np.array([np.sum(amp * np.exp(1j * scale * ti * omega)) for ti in np.atleast_1d(t)])


def kernel_scale(delta_n: float, two_pi: bool) -> float:
    return 2 * math.pi * delta_n if two_pi else delta_n


def double_gaussian_kappa(a: float, sigma: float, d_omega: float, center: float, x) -> np.ndarray:
    """Complex characteristic function of the two-peak density at x = scale * t."""
    x = np.asarray(x, dtype=float)
    w1, w2 = 1 / (1 + a), a / (1 + a)
    env = np.exp(-0.5 * sigma**2 * x**2)
    return env * (w1 * np.exp(1j * (center - d_omega / 2) * x) + w2 * np.exp(1j * (center + d_omega / 2) * x))


# --- per-scenario checks ----------------------------------------------------

def check_fig1(out: Path, p: dict, _ctx) -> dict:
    check_manifest(out, "fig1", ["fig1.csv"])
    lines = read_table(out / "fig1.csv", ["t", "A_theta", "kappa_mag"])
    t = grid(p["t_max"], p["n_t"])
    n = t.size
    if len(lines) != n * len(p["a_theta_values"]):
        raise Mismatch(f"fig1: {len(lines)} rows")
    for k, a in enumerate(p["a_theta_values"]):
        idx = sample_indices(n)
        rows = np.array(parse_rows(lines, k * n + idx, 3))
        want = np.abs(double_gaussian_kappa(a, p["sigma"], p["delta_omega"], 0.0, p["delta_n"] * t[idx]))
        close(rows[:, 0], t[idx], 0.0, "fig1 t")
        close(rows[:, 1], a, 0.0, "fig1 A_theta")
        close(rows[:, 2], want, CLOSED_FORM_TOL, "fig1 |kappa|")
    return {}


def fig2_grid(p: dict) -> np.ndarray:
    g = np.arange(p["eps_min"], p["eps_max"] + p["eps_step"] / 2, p["eps_step"])
    return np.minimum(g, 0.5)


def eps_class(eps: float) -> str:
    if eps == 0:
        return "markovian"
    if abs(eps - 0.25) <= SINGULAR_EPS_TOL:
        return "singular"
    return "weak" if eps < 0.25 else "strong"


def check_fig2(out: Path, p: dict, _ctx) -> dict:
    check_manifest(out, "fig2", ["fig2.csv"])
    lines = read_table(out / "fig2.csv", ["epsilon", "C1", "C2", "C2_minus_C1", "classification"])
    eps = fig2_grid(p)
    if len(lines) != eps.size:
        raise Mismatch(f"fig2: {len(lines)} rows, want {eps.size}")
    rows = parse_rows(lines, range(eps.size), 5, text_cols=(4,))
    got = np.array([r[:4] for r in rows])
    c1 = np.maximum(0.0, 1 - 4 * eps)
    c2 = (1 - 4 * eps) ** 2
    close(got[:, 0], eps, 0.0, "fig2 epsilon")
    close(got[:, 1], c1, CLOSED_FORM_TOL, "fig2 C1")
    close(got[:, 2], c2, CLOSED_FORM_TOL, "fig2 C2")
    close(got[:, 3], c2 - c1, 2 * CLOSED_FORM_TOL, "fig2 C2-C1")
    for e, r in zip(eps, rows):
        if r[4] != eps_class(float(e)):
            raise Mismatch(f"fig2 eps={e!r}: {r[4]!r}, want {eps_class(float(e))!r}")
    return {}


def nv_envelope(shape: str, tau: float, t):
    return np.exp(-((t / tau) ** 2)) if shape == "gaussian" else np.exp(-t / tau)


def nv_bloch(p: dict, phi: float, t) -> np.ndarray:
    """|cos^2(phi/2) e^{iAt/2} + sin^2(phi/2) e^{-iAt/2}| under the envelope."""
    half = p["coupling"] * t / 2
    mag = np.sqrt(np.cos(half) ** 2 + (np.cos(phi) * np.sin(half)) ** 2)
    return nv_envelope(p["envelope_shape"], p["envelope_time"], t) * mag


def check_fig3(out: Path, p: dict, _ctx) -> dict:
    check_manifest(out, "fig3", ["fig3_bloch.csv", "fig3_nm.csv"])
    lines = read_table(out / "fig3_bloch.csv", ["t", "phi", "r"])
    t = grid(p["t_max"], p["n_t"])
    n = t.size
    if len(lines) != n * len(p["phi_values"]):
        raise Mismatch(f"fig3_bloch: {len(lines)} rows")
    for k, phi in enumerate(p["phi_values"]):
        idx = sample_indices(n)
        rows = np.array(parse_rows(lines, k * n + idx, 3))
        close(rows[:, 0], t[idx], 0.0, "fig3 t")
        close(rows[:, 1], phi, 0.0, "fig3 phi")
        close(rows[:, 2], nv_bloch(p, phi, t[idx]), CLOSED_FORM_TOL, "fig3 r")
    lines = read_table(out / "fig3_nm.csv", ["phi", "nm"])
    phis = np.linspace(0, np.pi, p["n_phi"])
    if len(lines) != phis.size:
        raise Mismatch(f"fig3_nm: {len(lines)} rows")
    rows = np.array(parse_rows(lines, range(phis.size), 2))
    nm = []
    for phi in phis:
        inc = np.diff(nv_bloch(p, phi, t))
        nm.append(np.sum(inc[inc > 0]))
    close(rows[:, 0], phis, 0.0, "fig3 nm phi")
    close(rows[:, 1], nm, 1e-9, "fig3 nm")
    return {}


def binary_entropy(x):
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1 - x) * np.log2(1 - x)
    return np.where((x == 0) | (x == 1), 0.0, h)


def check_fig4(out: Path, p: dict, _ctx) -> dict:
    """Bell-diagonal closed forms of the dense-coding protocol.

    After Alice-side dephasing for t_a and Bob-side for t_b the Bell
    coherence is x = exp(-dn^2 sigma^2 (t_a^2 + t_b^2 + 2 K t_a t_b) / 2), so
    a Bell measurement gives I4 = 2 - H((1+x)/2) for four Pauli encodings
    and I3 = log2(3) - (2/3) H((1+x)/2) for three. The concurrence at
    encoding is c_a = exp(-dn^2 sigma^2 t_a^2 / 2) and the capacity is
    2 - H((1 + c_a^{2(1+K)}) / 2) of the reported c_a.
    """
    check_manifest(out, "fig4", ["fig4.csv"])
    header = ["t_a", "c_a", "mi_4state", "mi_3state", "mi_4state_alice_only", "capacity"]
    lines = read_table(out / "fig4.csv", header)
    t = grid(p["t_max"], p["n_t"])
    if len(lines) != t.size:
        raise Mismatch(f"fig4: {len(lines)} rows")
    got = np.array(parse_rows(lines, range(t.size), 6))
    g = (p["delta_n"] * p["sigma"]) ** 2
    k = p["K"]
    x_both = np.exp(-0.5 * g * (2 + 2 * k) * t**2)
    x_alice = np.exp(-0.5 * g * t**2)
    h_both = binary_entropy((1 + x_both) / 2)
    close(got[:, 0], t, 0.0, "fig4 t_a")
    close(got[:, 1], x_alice, CLOSED_FORM_TOL, "fig4 c_a")
    close(got[:, 2], 2 - h_both, 1e-9, "fig4 mi_4state")
    close(got[:, 3], np.log2(3) - 2 / 3 * h_both, 1e-9, "fig4 mi_3state")
    close(got[:, 4], 2 - binary_entropy((1 + x_alice) / 2), 1e-9, "fig4 mi_4state_alice_only")
    # The capacity formula takes the reported c_a: for a tiny c_a, c_a^{2(1+K)}
    # with a small exponent turns a 1e-14 error of c_a into a large one.
    power = np.ones_like(t) if k == -1 else got[:, 1] ** (2 * (1 + k))
    close(got[:, 5], 2 - binary_entropy((1 + power) / 2), 1e-9, "fig4 capacity")
    return {}


def check_fig5(out: Path, p: dict, _ctx) -> dict:
    """P0 = (1 + s Re kappa_eff)/2, Re kappa_eff = env(t+tau) cos(A (t - tau) / 2)."""
    check_manifest(out, "fig5", ["fig5.csv"])
    lines = read_table(out / "fig5.csv", ["tau", "p0_u1", "p0_u2", "p0_u3", "p0_u4", "contrast"])
    tau = grid(p["tau_max"], p["n_tau"])
    if len(lines) != tau.size:
        raise Mismatch(f"fig5: {len(lines)} rows")
    idx = sample_indices(tau.size)
    got = np.array(parse_rows(lines, idx, 6))
    tw = p["t_wait"]
    re_k = nv_envelope(p["envelope_shape"], p["envelope_time"], tw + tau[idx]) * np.cos(
        p["coupling"] * (tw - tau[idx]) / 2
    )
    close(got[:, 0], tau[idx], 0.0, "fig5 tau")
    for col, sign in ((1, -1), (2, -1), (3, 1), (4, 1)):
        close(got[:, col], 0.5 * (1 + sign * re_k), CLOSED_FORM_TOL, f"fig5 column {col}")
    close(got[:, 5], re_k, 2 * CLOSED_FORM_TOL, "fig5 contrast")
    return {}


def check_fig6(out: Path, p: dict, ctx) -> dict:
    """ctx is the (omega, density, phase) triple the benchmark wrote."""
    check_manifest(out, "fig6", ["fig6.csv"])
    lines = read_table(out / "fig6.csv", ["t", "re_kappa", "im_kappa", "kappa_mag"])
    t = grid(p["t_max"], p["n_t"])
    if len(lines) != t.size:
        raise Mismatch(f"fig6: {len(lines)} rows")
    idx = sample_indices(t.size)
    got = np.array(parse_rows(lines, idx, 4))
    omega, density, phase = ctx
    want = trapezoid_kappa(omega, density, phase, kernel_scale(p["delta_n"], p["two_pi"]), t[idx])
    close(got[:, 0], t[idx], 0.0, "fig6 t")
    err = close(got[:, 1] + 1j * got[:, 2], want, QUADRATURE_TOL, "fig6 kappa")
    close(got[:, 3], np.hypot(got[:, 1], got[:, 2]), CLOSED_FORM_TOL, "fig6 |kappa|")
    return {"kappa_err": err}


def check_synth(out: Path, p: dict, ctx) -> dict:
    """ctx is the (t, kappa) target; the returned spectrum must reproduce it."""
    manifest = check_manifest(out, "synth", ["synth_spectrum.csv"])
    if manifest.get("realizable") is not True or not manifest["roundtrip_error"] <= ROUNDTRIP_TOL:
        raise Mismatch(f"synth: realizable={manifest.get('realizable')} "
                       f"roundtrip_error={manifest.get('roundtrip_error')}")
    lines = read_table(out / "synth_spectrum.csv", ["omega", "density", "phase"])
    spec = np.array(parse_rows(lines, range(len(lines)), 3))
    omega, density, phase = spec.T
    if np.min(density) < 0 or abs(np.trapezoid(density, omega) - 1) > DENSITY_NORM_TOL:
        raise Mismatch("synth: density negative or not normalized")
    t, kappa = ctx
    idx = sample_indices(t.size)
    back = trapezoid_kappa(omega, density, phase, kernel_scale(p["delta_n"], p["two_pi"]), t[idx])
    err = close(back, kappa[idx], ROUNDTRIP_TOL, "synth re-integrated kappa")
    return {"kappa_err": err}


def intermediate_lambdas(eps: float) -> tuple[float, float, float]:
    """Bloch eigenvalues of the map between the two collisions."""
    lam_xz = ((1 - 2 * eps) ** 2 + 4 * eps**2) / (1 - 2 * eps)
    return lam_xz, 1 - 4 * eps, lam_xz


def check_classify(out: Path, p: dict, _ctx) -> dict:
    check_manifest(out, "classify", ["classify.csv"])
    header = ["epsilon", "lambda_x", "lambda_y", "lambda_z", "min_choi_eigenvalue",
              "max_abs_bloch_eigenvalue", "classification"]
    lines = read_table(out / "classify.csv", header)
    if len(lines) != 1:
        raise Mismatch(f"classify: {len(lines)} rows")
    row = parse_rows(lines, [0], 7, text_cols=(6,))[0]
    eps = p["epsilon"]
    lx, ly, lz = intermediate_lambdas(eps)
    choi = [(1 + lx + ly + lz) / 4, (1 + lx - ly - lz) / 4, (1 - lx + ly - lz) / 4, (1 - lx - ly + lz) / 4]
    if eps == 0:
        min_choi, max_bloch = 0.0, 1.0
    else:
        min_choi, max_bloch = min(choi), max(abs(lx), abs(ly))
    close(row[:6], [eps, lx, ly, lz, min_choi, max_bloch], CLOSED_FORM_TOL, "classify")
    if row[6] != eps_class(eps):
        raise Mismatch(f"classify eps={eps}: {row[6]!r}")
    return {}


CHECKS = {
    "fig1": check_fig1,
    "fig2": check_fig2,
    "fig3": check_fig3,
    "fig4": check_fig4,
    "fig5": check_fig5,
    "fig6": check_fig6,
    "classify": check_classify,
    "synth": check_synth,
}
