"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report lines.
"""

import time

import numpy as np
import pytest

from nmlab import cli, collision, nvmodel, qcore, sdc, spectra
from nmlab.collision import Classification
from nmlab.nvmodel import Gate, NVParams

import oracles
from conftest import random_density


def report(request, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}: {request.node.name}")
    assert ok


def test_criterion_01_collision_transition(request):
    start = time.perf_counter()
    eps, tol = collision.SINGULAR_EPS, collision.SINGULAR_EPS_TOL
    edge = [collision.classify(e).classification for e in (eps - 2 * tol, eps, eps + 2 * tol)]
    ok = eps == 0.25 and edge == [Classification.WEAK_NM, Classification.SINGULAR,
                                  Classification.STRONG_NM]
    for eps in np.arange(0.001, 0.25, 0.001):
        ok = ok and collision.classify(float(eps)).classification is Classification.WEAK_NM
    for eps in np.arange(0.251, 0.5001, 0.001):
        eps = float(min(eps, 0.5))
        ok = ok and collision.classify(eps).classification is Classification.STRONG_NM
    elapsed = time.perf_counter() - start
    report(request, ok and elapsed < 1.0)


def test_criterion_02_entanglement_witness_coincidence(request):
    ok = True
    for eps in np.arange(0.005, 0.5001, 0.005):
        eps = float(min(eps, 0.5))
        if abs(eps - 0.25) < 1e-9:
            continue
        c1, c2 = collision.entanglement_dynamics(eps)
        strong = collision.classify(eps).classification is Classification.STRONG_NM
        ok = ok and ((c2 - c1 > 1e-12) == strong)
        if not strong:
            ok = ok and c2 - c1 <= 1e-12
    # Closed form vs brute-force 4x4 computation on [0, 0.25].
    for eps in np.linspace(0.0, 0.25, 51):
        c1, c2 = collision.entanglement_dynamics(float(eps))
        ok = ok and abs((c2 - c1) - 4 * eps * (4 * eps - 1)) <= 1e-12
    report(request, ok)


def test_criterion_03_closed_form_vs_quadrature(request):
    start = time.perf_counter()
    ok = True
    for a_theta in (0.0, 0.33, 1.0, 2.0):
        spec = spectra.DoubleGaussianSpec(a_theta, 1.0, 4.0, 1.3)
        profile = spectra.double_gaussian_profile(spec)
        t = np.linspace(0, 4, 512)
        kappa = spectra.kappa_numeric(profile, spec.delta_n, t)
        closed = spectra.kappa_double_gaussian_mag(spec, t)
        ok = ok and np.max(np.abs(np.abs(kappa) - closed)) < 1e-6
    elapsed = time.perf_counter() - start
    report(request, ok and elapsed < 5.0)


def test_criterion_04_blp_regimes(request):
    single = spectra.DoubleGaussianSpec(0.0, 1.0, 4.0, 1.0)
    double = spectra.DoubleGaussianSpec(1.0, 1.0, 4.0, 1.0)
    t = np.linspace(0, 8, 40000)
    zero = spectra.blp_from_magnitudes(spectra.kappa_double_gaussian_mag(single, t))
    coarse = spectra.blp_from_magnitudes(spectra.kappa_double_gaussian_mag(double, t))
    t_fine = np.linspace(0, 8, 80000)
    fine = spectra.blp_from_magnitudes(spectra.kappa_double_gaussian_mag(double, t_fine))
    report(request, zero == 0 and coarse > 0 and abs(fine - coarse) < 1e-4)


def test_criterion_05_synthesis_round_trip(request):
    t = np.linspace(0, 8, 512)
    kappa = np.exp(-0.5 * t**2) * np.exp(1j * 2.0 * t)
    result = spectra.synthesize_spectrum(
        spectra.DecoherenceTrajectory(t, kappa), delta_n=1.0
    )
    report(request, result.roundtrip_error < 1e-6)


def test_criterion_06_superdense_coding(request):
    anti = sdc.CorrelatedSpectrum(sigma=1.0, correlation=-1.0, delta_n=1.0)
    ok = True
    for mi4 in sdc.fig4_columns(anti, np.linspace(0.0, 3.0, 13))[1]:
        ok = ok and abs(mi4 - 2.0) <= 1e-6
    for k in (-1.0, -0.5, 0.0):
        spec = sdc.CorrelatedSpectrum(sigma=1.0, correlation=k, delta_n=1.0)
        for t in np.linspace(0.0, 2.5, 9):
            c_a, mi4, mi3, _ = sdc.fig4_columns(spec, float(t))
            ok = ok and mi4 >= mi3 - 1e-9
            ok = ok and mi4 <= sdc.capacity(c_a, k) + 1e-9
    # Independent binary-entropy evaluation.
    x = (1 + 0.5**2) / 2
    independent = 2 - (-x * np.log2(x) - (1 - x) * np.log2(1 - x))
    ok = ok and abs(sdc.capacity(0.5, 0.0) - 1.0456) <= 1e-4
    ok = ok and abs(sdc.capacity(0.5, 0.0) - independent) <= 1e-12
    report(request, ok)


def test_criterion_07_rdja_echo(request):
    def contrast(params, phi, t, taus):  # fig5's contrast column
        p0 = nvmodel.rdja_p0_table(params, phi, t, taus)
        return p0[Gate.U3] - p0[Gate.U1]

    flat = NVParams(coupling=2 * np.pi, envelope_time=1e12)
    t = 0.37
    noiseless = contrast(flat, 0.8, t, t)[0]
    ok = noiseless == 1.0
    taus = np.linspace(0, 2 * t, 741)  # grid hits tau = t exactly
    best_tau = taus[np.argmax(contrast(flat, 0.8, t, taus))]
    ok = ok and best_tau == pytest.approx(t, abs=1e-12)
    decaying = NVParams(coupling=2 * np.pi * 2.16, envelope_time=10.0)
    phi, t2 = np.pi / 2, 1.1
    baseline = abs(nvmodel.nv_kappa(decaying, phi, t2).real)  # no pi pulse, read out at t2
    best = contrast(decaying, phi, t2, np.linspace(0, 2 * t2, 600)).max()
    ok = ok and best > baseline
    report(request, ok)


def test_criterion_08_nv_model(request):
    params = nvmodel.default_params()  # envelope_time = 10 * (2 pi / A)
    t = np.linspace(0, 3 * params.envelope_time, 8000)
    phis = np.linspace(0, np.pi / 2, 10)
    nm = dict(zip(phis, nvmodel.nm_measure_phi(params, phis, t)))
    values = [nm[phi] for phi in sorted(nm)]
    ok = values[0] == 0
    ok = ok and all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    plus = oracles.pure_state(np.array([1, 1]) / np.sqrt(2))
    minus = oracles.pure_state(np.array([1, -1]) / np.sqrt(2))
    for phi, ti in ((0.7, 1.3), (np.pi / 2, 2.9)):
        ch = oracles.DephasingChannel(nvmodel.nv_kappa(params, phi, ti))
        d = oracles.trace_distance(ch.apply(plus), ch.apply(minus))
        ok = ok and abs(d - nvmodel.bloch_magnitude(params, phi, ti)) <= 1e-12
    report(request, ok)


def test_criterion_09_qcore_property_suite(request):
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(1000):
        a, b = random_density(rng, 2), random_density(rng, 2)
        c = random_density(rng, 2)
        dab = oracles.trace_distance(a, b)
        ok = ok and dab >= 0
        ok = ok and abs(dab - oracles.trace_distance(b, a)) <= 1e-12
        ok = ok and dab <= oracles.trace_distance(a, c) + oracles.trace_distance(c, b) + 1e-10
    names = ("phi_plus", "psi_plus", "psi_minus", "phi_minus")
    for _ in range(1000):
        q = rng.dirichlet(np.ones(4))
        rho = sum(w * oracles.bell_state(n) for w, n in zip(q, names))
        ok = ok and abs(oracles.concurrence(rho) - max(0.0, 2 * np.max(q) - 1)) <= 1e-10
    for _ in range(200):
        ch = qcore.PauliChannel(*rng.uniform(-1.5, 1.5, size=3))
        back = oracles.channel_from_weights(qcore.kraus_weights(ch))
        ok = ok and np.max(np.abs(np.subtract(ch.as_tuple(), back.as_tuple()))) <= 1e-12
    from test_collision import brute_force_two_collision

    eps = 0.17
    ch = oracles.two_collision_channel(eps)
    for _ in range(20):
        rho = random_density(rng, 2)
        diff = oracles.apply_channel(ch, rho) - brute_force_two_collision(eps, rho)
        ok = ok and np.max(np.abs(diff)) <= 1e-12
    report(request, ok)


def test_criterion_10_cli_determinism(request, tmp_path):
    from test_cli import load_config, patch_paths

    ok = True
    for scenario in cli.SCENARIOS:
        params = patch_paths(scenario, load_config(scenario), tmp_path)
        out1 = tmp_path / scenario / "a"
        out2 = tmp_path / scenario / "b"
        ok = ok and cli.run(scenario, dict(params), out1) == 0
        ok = ok and cli.run(scenario, dict(params), out2) == 0
        for f in sorted(out1.glob("*.csv")):
            ok = ok and f.read_bytes() == (out2 / f.name).read_bytes()
    report(request, ok)
