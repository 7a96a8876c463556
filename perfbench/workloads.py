"""Seeded request streams for the three benchmark workloads.

A workload is an endless sequence of 50-request cycles. The 50 slots of a
cycle and the size of the request in each slot are the same for every seed
and every cycle: sizes are the midpoints of equal strata of a log range.
Cycle ``i`` of seed ``s`` fills the slots with physical parameters, input
files and an order drawn from ``numpy.random.default_rng([s, workload, 0,
i])``. In ``spectral`` the choice of which ``fig6`` slots reuse which
spectrum file, and the grid length of each fresh spectrum, is drawn once per
seed; n_t follows from the slot's cell count n_t·n_ω. So the cycles of a
run are twins: the same slots at the same sizes, but no valid request
repeats another one. Only the shipped configs and the malformed and defect
requests repeat unchanged. The input files of a cycle are written before
any of its requests is timed.

Each cycle holds:

* the shipped ``configs/`` entry of every scenario of the workload, so the
  baseline table in ROADMAP.md maps onto it;
* seeded valid requests, checked against ``reference.py``;
* malformed requests with a documented exit code (2 config, 3 I/O,
  4 singular), whose stderr must be one line of JSON;
* one request for each ROADMAP item-4 defect that reaches this workload's
  scenarios. They expect exit 2 and fail at the commit that added the
  benchmark; they are kept unchanged so that the fix shows as a higher
  ``success_ratio``.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

CYCLE = 50
WORKLOADS = ("spectral", "sweep", "trajectory")
SCENARIOS = {
    "spectral": ("fig6", "synth"),
    "sweep": ("fig2", "fig4", "classify"),
    "trajectory": ("fig1", "fig3", "fig5"),
}


@dataclass
class Request:
    scenario: str
    params: dict
    kind: str = "valid"  # valid | shipped | malformed | defect
    expect_exit: int = 0
    label: str = ""
    ctx: object = None  # reference data handed to the check
    out_path: Path | None = None  # fixed output path; a regular file gives exit 3
    calls: dict = field(default_factory=dict)  # entry-point calls a pass must make
    slot: int = -1  # position in the cycle before shuffling; equal in every cycle


def log_spaced(lo: float, hi: float, k: int) -> np.ndarray:
    """The midpoints of k equal strata of [lo, hi] on a log scale."""
    return lo * (hi / lo) ** ((np.arange(k) + 0.5) / k)


def write_csv(path: Path, header: str, cols) -> None:
    rows = np.column_stack(cols).tolist()
    path.write_text(header + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows),
                    encoding="utf-8")


def read_csv_floats(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return np.array([[float(c) for c in line.split(",")] for line in lines])


def load_shipped(root: Path, scenario: str) -> dict:
    return json.loads((root / "configs" / f"{scenario}.json").read_text(encoding="utf-8"))


def entry_calls(req: Request) -> dict:
    """Calls into each layer that the request list alone implies.

    Only calls made directly by the CLI for a scenario are listed; calls
    inside a layer (such as qcore under collision) may change with the
    implementation.
    """
    p = req.params
    s = req.scenario
    if s == "fig1":
        return {"spectra.kappa_double_gaussian_mag": len(p["a_theta_values"])}
    if s == "fig2":
        n = reference.fig2_grid(p).size
        return {"collision.entanglement_dynamics": n, "collision.classify": n}
    if s == "fig3":
        return {"nvmodel.bloch_magnitude": len(p["phi_values"]) + p["n_phi"],
                "nvmodel.nm_measure_phi": 1}
    if s == "fig4":
        return {"sdc.concurrence_at_encoding": p["n_t"], "sdc.simulate_protocol": 3 * p["n_t"]}
    if s == "fig5":
        return {"nvmodel.rdja_p0": 4 * p["n_tau"]}
    if s == "fig6":
        return {"spectra.read_profile_csv": 1, "spectra.kappa_numeric": 1}
    if s == "classify":
        return {"collision.classify": 1}
    if s == "synth":
        return {"spectra.read_trajectory_csv": 1, "spectra.synthesize_spectrum": 1,
                "spectra.kappa_numeric": 1, "spectra.write_profile_csv": 1}
    raise ValueError(s)


class Workload:
    """Shared state of one run; ``cycle(i)`` returns the i-th 50 requests."""

    def __init__(self, name: str, seed: int, root: Path, work: Path):
        self.name, self.seed, self.root, self.work = name, seed, root, work
        self.shipped = {s: load_shipped(root, s) for s in SCENARIOS[name]}
        self.ctx = {}  # reference data of the shipped configs
        self.reuse = []  # (path, spectrum) pairs that many fig6 requests share
        if name == "spectral":
            self._spectral_setup()

    def rng(self, *key) -> np.random.Generator:
        return np.random.default_rng([self.seed, WORKLOADS.index(self.name), *key])

    def cycle(self, i: int) -> list[Request]:
        d = self.work / f"cycle{i}"
        d.mkdir(parents=True, exist_ok=True)
        rng = self.rng(0, i)
        reqs = getattr(self, f"_{self.name}")(self.rng(2), rng, d)
        if len(reqs) != CYCLE:
            raise RuntimeError(f"{self.name}: cycle has {len(reqs)} requests")
        for slot, r in enumerate(reqs):
            r.slot = slot
            if r.kind in ("valid", "shipped") and r.expect_exit in (0, 4):
                r.calls = entry_calls(r)
        return [reqs[j] for j in rng.permutation(CYCLE)]

    def shipped_req(self, scenario: str) -> Request:
        return Request(scenario, copy.deepcopy(self.shipped[scenario]), "shipped",
                       label="configs/" + scenario, ctx=self.ctx.get(scenario))

    # --- spectral -------------------------------------------------------------

    def _spectral_setup(self):
        ship = read_csv_floats(self.root / self.shipped["fig6"]["spectrum_csv"])
        kap = read_csv_floats(self.root / self.shipped["synth"]["kappa_csv"])
        self.ctx = {"fig6": tuple(ship.T), "synth": (kap[:, 0], kap[:, 1] + 1j * kap[:, 2])}
        # The few spectrum files that about half of the fig6 requests reuse.
        self.work.mkdir(parents=True, exist_ok=True)
        rng = self.rng(1)
        self.reuse = [
            (self.shipped["fig6"]["spectrum_csv"], self.ctx["fig6"]),
            self._spectrum_file(rng, self.work / "reuse_a.csv", 4096, False),
            self._spectrum_file(rng, self.work / "reuse_b.csv", 8192, True),
        ]

    @staticmethod
    def _spectrum_file(rng, path: Path, n_omega: int, with_phase: bool):
        """Seeded double-Gaussian density, optionally with a smooth spectral phase."""
        sigma = rng.uniform(0.5, 1.5)
        d_omega = rng.uniform(0.0, 5.0)
        a = rng.uniform(0.0, 1.5)
        center = rng.uniform(-2.0, 2.0)
        half = d_omega / 2 + 7 * sigma
        omega = np.linspace(center - half, center + half, n_omega)
        density = (np.exp(-0.5 * ((omega - center + d_omega / 2) / sigma) ** 2)
                   + a * np.exp(-0.5 * ((omega - center - d_omega / 2) / sigma) ** 2))
        density = density / np.trapezoid(density, omega)
        x = (omega - center) / half
        phase = (rng.uniform(-3, 3) * x**2 + rng.uniform(-1, 1) * x) if with_phase else 0 * x
        write_csv(path, "omega,density,phase", (omega, density, phase))
        return str(path), (omega, density, phase)

    def _spectral(self, seed_rng, rng, d: Path) -> list[Request]:
        ship_ctx = self.ctx["fig6"]
        base = self.shipped["fig6"]
        reqs = [self.shipped_req("fig6"), self.shipped_req("synth")]
        # Largest grid: fixes the run's peak memory at 2e7 cells on every seed.
        top = dict(base, n_t=9766)
        reqs.append(Request("fig6", top, ctx=ship_ctx, label="fig6 2e7 cells"))
        reuse = seed_rng.permutation([True] * 14 + [False] * 14)
        for k, cells in enumerate(log_spaced(1.05e6, 1.95e7, 28)):
            if reuse[k]:
                path, ctx = self.reuse[seed_rng.integers(len(self.reuse))]
            else:
                n_omega = int(seed_rng.choice([2048, 3072, 4096, 6144, 8192]))
                path, ctx = self._spectrum_file(rng, d / f"spec{k}.csv", n_omega, rng.random() < 0.5)
            n_t = max(2, round(cells / ctx[0].size))
            params = {"spectrum_csv": path, "delta_n": rng.uniform(0.5, 2.0),
                      "two_pi": bool(rng.random() < 0.5), "t_max": rng.uniform(3.0, 10.0),
                      "n_t": n_t}
            reqs.append(Request("fig6", params, ctx=ctx,
                                label=f"fig6 {n_t}x{ctx[0].size} {'reuse' if reuse[k] else 'fresh'}"))
        for k, n_t in enumerate(log_spaced(257, 1025, 10)):
            reqs.append(self._synth_request(rng, d / f"kappa{k}.csv", int(round(n_t))))
        # Malformed with a documented outcome.
        no_tmax = {k: v for k, v in base.items() if k != "t_max"}
        reqs += [
            Request("fig6", no_tmax, "malformed", 2, "fig6 missing t_max"),
            Request("synth", dict(self.shipped["synth"], delta_n=0.0), "malformed", 2, "synth delta_n=0"),
            Request("fig6", dict(base, spectrum_csv=str(d / "absent.csv")), "malformed", 3,
                    "fig6 unreadable spectrum csv"),
            Request("synth", dict(self.shipped["synth"], kappa_csv=str(d / "absent.csv")), "malformed", 3,
                    "synth unreadable kappa csv"),
        ]
        # ROADMAP item-4 defects, unchanged.
        omega, density, phase = ship_ctx
        write_csv(d / "missing_col.csv", "omega,density", (omega, density))
        write_csv(d / "unnormalized.csv", "omega,density,phase", (omega, 2 * density, phase))
        reqs += [
            Request("fig6", dict(base, delta_n=float("nan")), "defect", 2, "item4: delta_n NaN"),
            Request("fig6", dict(base, n_t=2.9), "defect", 2, "item4: n_t 2.9"),
            Request("fig6", dict(base, delta_n=True), "defect", 2, "item4: JSON true as float"),
            Request("fig6", dict(base, spectrum_csv=str(d / "missing_col.csv")), "defect", 2,
                    "item4: spectrum csv missing a column"),
            Request("fig6", dict(base, spectrum_csv=str(d / "unnormalized.csv")), "defect", 2,
                    "item4: unnormalized spectrum csv"),
        ]
        return reqs

    @staticmethod
    def _synth_request(rng, path: Path, n_t: int) -> Request:
        """Realizable target: kappa of a phase-free double Gaussian, decayed by t_max."""
        delta_n = rng.uniform(0.5, 2.0)
        two_pi = bool(rng.random() < 0.5)
        sigma = rng.uniform(0.5, 1.5)
        scale = reference.kernel_scale(delta_n, two_pi)
        t = np.linspace(0.0, rng.uniform(7.0, 9.0) / (sigma * scale), n_t)
        kappa = reference.double_gaussian_kappa(rng.uniform(0, 1.5), sigma, rng.uniform(0, 4),
                                                rng.uniform(-1, 1), scale * t)
        write_csv(path, "t,re_kappa,im_kappa", (t, kappa.real, kappa.imag))
        return Request("synth", {"kappa_csv": str(path), "delta_n": delta_n, "two_pi": two_pi},
                       ctx=(t, kappa), label=f"synth n_t={n_t}")

    # --- sweep ----------------------------------------------------------------

    def _sweep(self, seed_rng, rng, d: Path) -> list[Request]:
        reqs = [self.shipped_req(s) for s in ("fig2", "fig4", "classify")]
        for n in log_spaced(51, 1001, 16):
            reqs.append(Request("fig2", fig2_params(rng, int(round(n))), label=f"fig2 {int(round(n))} eps"))
        for n_t in log_spaced(31, 310, 16):
            n_t = int(round(n_t))
            params = {"sigma": rng.uniform(0.5, 2.0), "K": rng.uniform(-1.0, 1.0),
                      "delta_n": rng.uniform(0.5, 2.0), "t_max": rng.uniform(1.0, 4.0), "n_t": n_t}
            reqs.append(Request("fig4", params, label=f"fig4 n_t={n_t}"))
        eps_values = [0.0, 0.5] + [safe_eps(rng) for _ in range(6)]
        for eps in eps_values:
            # At eps = 1/2 the first collision is not invertible either: exit 4.
            reqs.append(Request("classify", {"epsilon": eps}, expect_exit=4 if eps == 0.5 else 0,
                                label=f"classify {eps:.4f}"))
        fig4 = self.shipped["fig4"]
        reqs += [
            Request("fig2", dict(self.shipped["fig2"], eps_max=0.7), "malformed", 2, "fig2 eps_max 0.7"),
            Request("fig4", dict(fig4, K=1.5), "malformed", 2, "fig4 K 1.5"),
            Request("classify", {"epsilon": 0.25}, "malformed", 4, "classify 0.25"),
            Request("classify", {"epsilon": 0.25}, "malformed", 4, "classify 0.25"),
            Request("fig4", dict(fig4, delta_n=float("nan")), "defect", 2, "item4: delta_n NaN"),
            Request("fig4", dict(fig4, n_t=2.9), "defect", 2, "item4: n_t 2.9"),
            Request("fig4", dict(fig4, K=True), "defect", 2, "item4: JSON true as float"),
        ]
        return reqs

    # --- trajectory -----------------------------------------------------------

    def _trajectory(self, seed_rng, rng, d: Path) -> list[Request]:
        reqs = [self.shipped_req(s) for s in ("fig1", "fig3", "fig5")]
        for j, n_t in enumerate(log_spaced(501, 5010, 14)):
            n_t = int(round(n_t))
            k = 1 + j % 5
            params = {"a_theta_values": rng.uniform(0, 1.5, size=k).round(3).tolist(),
                      "sigma": rng.uniform(0.5, 1.5), "delta_omega": rng.uniform(0, 5),
                      "delta_n": rng.uniform(0.5, 2.0), "t_max": rng.uniform(3.0, 8.0), "n_t": n_t}
            reqs.append(Request("fig1", params, label=f"fig1 {n_t}x{k}"))
        n_phis = log_spaced(25, 250, 13)[np.arange(13) * 5 % 13]  # fixed pairing with n_t
        for k, n_t in enumerate(log_spaced(2001, 20010, 13)):
            params = dict(nv_params(rng, k), t_max=rng.uniform(5.0, 12.0), n_t=int(round(n_t)),
                          n_phi=int(round(n_phis[k])),
                          phi_values=rng.uniform(0, math.pi, size=1 + k % 3).tolist())
            reqs.append(Request("fig3", params, label=f"fig3 {params['n_t']}x{len(params['phi_values'])}"))
        for k, n_tau in enumerate(log_spaced(301, 3010, 13)):
            params = dict(nv_params(rng, k), phi=rng.uniform(0, math.pi), t_wait=rng.uniform(0, 2),
                          tau_max=rng.uniform(1.0, 5.0), n_tau=int(round(n_tau)))
            reqs.append(Request("fig5", params, label=f"fig5 n_tau={params['n_tau']}"))
        blocker = d / "not_a_dir"
        blocker.write_text("")
        fig1, fig3, fig5 = (self.shipped[s] for s in ("fig1", "fig3", "fig5"))
        reqs += [
            Request("fig3", dict(fig3, envelope_shape="lorentzian"), "malformed", 2, "fig3 bad envelope"),
            Request("fig5", dict(fig5, phi=4.0), "malformed", 2, "fig5 phi 4.0"),
            Request("fig1", copy.deepcopy(fig1), "malformed", 3, "fig1 output path is a file",
                    out_path=blocker),
            Request("fig5", dict(fig5), "malformed", 3, "fig5 output path is a file",
                    out_path=blocker),
            Request("fig1", dict(fig1, delta_n=float("nan")), "defect", 2, "item4: delta_n NaN"),
            Request("fig3", dict(fig3, n_t=2.9), "defect", 2, "item4: n_t 2.9"),
            Request("fig5", dict(fig5, phi=True), "defect", 2, "item4: JSON true as float"),
        ]
        return reqs


def safe_eps(rng) -> float:
    """Uniform eps in (0, 1/2) away from the 1/4 band where weak/strong is ill-posed."""
    while True:
        eps = rng.uniform(0.0, 0.5)
        if abs(eps - 0.25) > 1e-6 and eps > 0:
            return eps


def fig2_params(rng, n: int) -> dict:
    """eps grid of n points; no point may sit within 1e-6 of 1/4 unless exactly on it."""
    while True:
        lo = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.1)
        hi = rng.uniform(0.4, 0.5)
        p = {"eps_min": lo, "eps_max": hi, "eps_step": (hi - lo) / (n - 1)}
        gap = np.abs(reference.fig2_grid(p) - 0.25)
        if not np.any((gap > reference.SINGULAR_EPS_TOL) & (gap < 1e-6)):
            return p


def nv_params(rng, k: int) -> dict:
    return {"coupling": rng.uniform(5.0, 20.0), "envelope_time": rng.uniform(2.0, 8.0),
            "envelope_shape": ("gaussian", "exponential")[k % 2]}
