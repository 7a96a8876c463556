"""Chains and properties of the scenarios' own outputs, each run through cli.run at bounded
sizes: what one scenario writes must agree with what another computes the same thing from."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmlab import cli, collision, spectra

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# double_gaussian_profile tabulates each peak to 6 sigma beyond it and renormalizes, so it
# cuts a mass m <= erfc(6/sqrt(2)) = 2 Q(6) of the density. The cut part's kappa is at most
# m in magnitude and the whole density's at most 1, so kappa of the kept part over 1 - m is
# off by at most 2 m / (1 - m) = 3.9e-9.
TAIL = math.erfc(6 / math.sqrt(2))
TRUNCATION = 2 * TAIL / (1 - TAIL)
# The 4096-point trapezoid's endpoint terms and the chirp-z kernel's rounding: each below
# 1e-12 on these ranges (|delta_n| t_max <= 30, 4096 points over at least 12 sigma).
ROUNDING = 1e-11
# The entropies of fig4's two mi_4state columns round apart by an ulp or two where the exact
# ones are closer than that: near K = -1/2, where c_a^{2(1+K)} is c_a, and where c_a is tiny.
ULPS = 4 * np.spacing(2.0)


def read_columns(path):
    """{name: float array} of a CSV that the CLI wrote."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return dict(zip(header, np.array(rows, dtype=float).T))


@settings(max_examples=60, deadline=None)
@given(a_theta=st.floats(0.0, 2.0), sigma=st.floats(0.2, 2.0), delta_omega=st.floats(0.0, 5.0),
       delta_n=st.floats(0.1, 3.0) | st.floats(-3.0, -0.1), t_max=st.floats(0.1, 10.0),
       n_t=st.integers(2, 400))
@example(a_theta=1.0, sigma=1.0, delta_omega=4.0, delta_n=1.0, t_max=5.0, n_t=400)
def test_fig6_of_a_tabulated_double_gaussian_is_fig1(a_theta, sigma, delta_omega, delta_n, t_max,
                                                     n_t, tmp_path_factory):
    out = tmp_path_factory.mktemp("chain")
    spec = spectra.DoubleGaussianSpec(a_theta, sigma, delta_omega, delta_n)
    spectra.write_profile_csv(spectra.double_gaussian_profile(spec), out / "spectrum.csv")
    grid = {"delta_n": delta_n, "t_max": t_max, "n_t": n_t}
    fig1 = {"a_theta_values": [a_theta], "sigma": sigma, "delta_omega": delta_omega, **grid}
    fig6 = {"spectrum_csv": str(out / "spectrum.csv"), "two_pi": False, **grid}
    assert cli.run("fig1", fig1, out) == 0 and cli.run("fig6", fig6, out) == 0
    closed, tabulated = read_columns(out / "fig1.csv"), read_columns(out / "fig6.csv")
    assert np.array_equal(closed["t"], tabulated["t"])
    assert np.max(np.abs(closed["kappa_mag"] - tabulated["kappa_mag"])) <= TRUNCATION + ROUNDING


@settings(max_examples=100, deadline=None)
@given(sigma=st.floats(1e-3, 5.0),
       K=st.sampled_from([-1.0, -0.5, 1.0]) | st.floats(-1.0, 1.0),
       delta_n=st.floats(-5.0, 5.0).filter(lambda x: x != 0), t_max=st.floats(1e-3, 10.0),
       n_t=st.integers(2, 200))
@example(sigma=2.0, K=-0.75, delta_n=4.0, t_max=5.0, n_t=6)  # c_a underflows at t_max
@example(sigma=2.0, K=0.5, delta_n=4.0, t_max=5.0, n_t=6)
def test_fig4_information_order(sigma, K, delta_n, t_max, n_t, tmp_path_factory):
    # mi_3state = log2(3) - 2/3 H(p) with H >= 0. mi_4state is 2 - H((1 + f)/2) with
    # f = c_a^{2(1+K)} and mi_4state_alice_only the same with f = c_a; H((1 + x)/2) falls
    # with x in [0, 1], and f >= c_a exactly where 2(1+K) <= 1. Once c_a underflows to 0,
    # mi_4state_alice_only reads 1, and so does mi_4state where K > -1/2 (f underflows too).
    out = tmp_path_factory.mktemp("fig4")
    params = {"sigma": sigma, "K": K, "delta_n": delta_n, "t_max": t_max, "n_t": n_t}
    assert cli.run("fig4", params, out) == 0
    col = read_columns(out / "fig4.csv")
    assert np.all((0 <= col["c_a"]) & (col["c_a"] <= 1))
    assert np.all(col["mi_3state"] <= math.log2(3))
    gap = col["mi_4state"] - col["mi_4state_alice_only"]
    assert np.all(gap >= -ULPS if K <= -0.5 else gap <= ULPS)
    saturated = col["c_a"] == 0
    assert np.all(col["mi_4state_alice_only"][saturated] == 1)
    assert np.all(gap[saturated] >= 0 if K <= -0.5 else gap[saturated] == 0)


@settings(max_examples=30, deadline=None)
@given(a_theta=st.floats(0.0, 2.0), sigma=st.floats(0.2, 2.0), delta_omega=st.floats(0.0, 5.0),
       delta_n=st.floats(0.1, 3.0) | st.floats(-3.0, -0.1), two_pi=st.booleans(),
       decay=st.floats(8.0, 10.0), n_points=st.integers(256, 2048), n_t=st.integers(100, 600))
@example(a_theta=1.0, sigma=0.2, delta_omega=5.0, delta_n=1.0, two_pi=False, decay=10.0,
         n_points=256, n_t=100)
def test_synth_of_fig6_round_trips(a_theta, sigma, delta_omega, delta_n, two_pi, decay, n_points,
                                   n_t, tmp_path_factory):
    # t_max puts sigma * scale * t_max at `decay`, where kappa has decayed to exp(-decay**2 / 2)
    # < 1e-13: synth's Hermitian extension then needs no window. Its grid reaches
    # pi (n_t - 1) sigma / decay > 31 sigma, past the tabulated spectrum's delta_omega / 2 + 6
    # sigma <= 18.5 sigma; and the tabulated grid's kappa repeats in sigma * scale * t with
    # period 2 pi (n_points - 1) sigma / (delta_omega + 12 sigma) > 43, past `decay`.
    out = tmp_path_factory.mktemp("synth")
    spec = spectra.DoubleGaussianSpec(a_theta, sigma, delta_omega, delta_n)
    profile = spectra.double_gaussian_profile(spec, n_points=n_points)
    spectra.write_profile_csv(profile, out / "spectrum.csv")
    t_max = decay / (sigma * abs(spectra._kernel_scale(delta_n, two_pi)))
    grid = {"delta_n": delta_n, "two_pi": two_pi}
    fig6 = {"spectrum_csv": str(out / "spectrum.csv"), "t_max": t_max, "n_t": n_t, **grid}
    assert cli.run("fig6", fig6, out) == 0
    assert cli.run("synth", {"kappa_csv": str(out / "fig6.csv"), **grid}, out) == 0
    manifest = json.loads((out / "synth_manifest.json").read_text())
    assert manifest["realizable"] and manifest["roundtrip_error"] <= 1e-8


@pytest.mark.parametrize("delta_n, two_pi", [(1.0, False), (-0.5, True)])
def test_fig6_of_synth_over_its_window(delta_n, two_pi, tmp_path):
    # synth's conjugate grid puts its own window at the alias half-period of the spectrum it
    # writes, to rounding (on the shipped file both read 8.0), so fig6 runs there and gives
    # back the kappa synth started from (within 2.3e-14 here); 1e-6 beyond it exits 2.
    target = read_columns(CONFIGS / "synth_kappa.csv")
    grid = {"delta_n": delta_n, "two_pi": two_pi}
    assert cli.run("synth", {"kappa_csv": str(CONFIGS / "synth_kappa.csv"), **grid}, tmp_path) == 0
    fig6 = {"spectrum_csv": str(tmp_path / "synth_spectrum.csv"), "t_max": target["t"][-1],
            "n_t": target["t"].size, **grid}
    assert cli.run("fig6", fig6, tmp_path) == 0
    col = read_columns(tmp_path / "fig6.csv")
    assert np.max(np.abs(col["t"] - target["t"])) <= 1e-14
    kappa = col["re_kappa"] + 1j * col["im_kappa"]
    assert np.max(np.abs(kappa - (target["re_kappa"] + 1j * target["im_kappa"]))) <= 1e-12
    assert cli.run("fig6", dict(fig6, t_max=fig6["t_max"] * (1 + 1e-6)), tmp_path / "past") == 2
    assert not (tmp_path / "past").exists()


@settings(max_examples=100, deadline=None)
@given(eps_min=st.floats(1e-3, 0.24), eps_max=st.floats(0.26, 0.5), n=st.integers(3, 400))
@example(eps_min=1e-3, eps_max=0.5, n=3)
@example(eps_min=0.05, eps_max=0.45, n=9)  # a grid point within rounding of 1/4: singular
def test_fig2_labels_bracket_the_transition(eps_min, eps_max, n, tmp_path_factory):
    # eps_min > 0 is weak (its negative Choi weight, about -8 eps^2, is past the 1e-10
    # tolerance) and eps_max strong. eps within 1e-9 of SINGULAR_EPS = 1/4, the transition, is
    # singular, so the last weak and the first strong eps bracket it.
    out = tmp_path_factory.mktemp("fig2")
    params = {"eps_min": eps_min, "eps_max": eps_max, "eps_step": (eps_max - eps_min) / (n - 1)}
    assert cli.run("fig2", params, out) == 0
    with open(out / "fig2.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    col = dict(zip(header, np.array(rows).T))
    labels = col["classification"]
    eps, c1, c2 = (col[name].astype(float) for name in ("epsilon", "C1", "C2"))
    assert eps[labels == "weak"].max() < collision.SINGULAR_EPS < eps[labels == "strong"].min()
    assert np.all((0 <= c1) & (c1 <= 1) & (0 <= c2) & (c2 <= 1))


@settings(max_examples=60, deadline=None)
@given(coupling=st.floats(0.1, 100.0), envelope_time=st.floats(0.1, 20.0),
       envelope_shape=st.sampled_from(["gaussian", "exponential"]),
       phi_values=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=3),
       t_max=st.floats(0.1, 20.0), n_t=st.integers(2, 300), n_phi=st.integers(2, 30))
def test_fig3_non_markovianity_is_nonnegative(coupling, envelope_time, envelope_shape,
                                              phi_values, t_max, n_t, n_phi, tmp_path_factory):
    # The BLP measure sums the positive increments of r(t) (Breuer, Laine & Piilo 2009).
    out = tmp_path_factory.mktemp("fig3")
    params = {"coupling": coupling, "envelope_time": envelope_time,
              "envelope_shape": envelope_shape, "phi_values": phi_values, "t_max": t_max,
              "n_t": n_t, "n_phi": n_phi}
    assert cli.run("fig3", params, out) == 0
    assert np.all(read_columns(out / "fig3_nm.csv")["nm"] >= 0)
