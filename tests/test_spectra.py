import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nmlab import _floatfmt, cli, spectra
from nmlab.spectra import (
    DecoherenceTrajectory,
    DoubleGaussianSpec,
    SpectralProfile,
    blp_from_magnitudes,
    double_gaussian_profile,
    kappa_double_gaussian_mag,
    kappa_numeric,
    synthesize_spectrum,
)

import oracles
from oracles import DephasingChannel

PLUS = oracles.pure_state(np.array([1, 1]) / np.sqrt(2))
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED_INPUTS = [pytest.param("fig6_spectrum.csv", spectra.PROFILE_COLUMNS, id="fig6_spectrum"),
                  pytest.param("synth_kappa.csv", spectra.TRAJECTORY_COLUMNS, id="synth_kappa")]
# Kernel scales s of either sign: delta_n in [0.1, 2] for an angular omega, 2 pi delta_n for
# an ordinary one.
SCALES = st.floats(0.1, 4 * np.pi) | st.floats(-4 * np.pi, -0.1)


def make_spec(a_theta=1.0, sigma=1.0, delta_omega=4.0, delta_n=1.0):
    return DoubleGaussianSpec(a_theta, sigma, delta_omega, delta_n)


def longdouble_kappa(profile, scale, t):
    """Oracle: the trapezoid sum of kappa_numeric on the same float64 grids, scale and
    weights, with phases, sines and sums in long double (80-bit on x86-64)."""
    ld = np.longdouble
    omega, phase = profile.omega.astype(ld), profile.phase.astype(ld)
    weights = np.gradient(omega)
    weights[[0, -1]] /= 2
    g_re, g_im = (profile.density * weights * f(phase) for f in (np.cos, np.sin))
    out = np.empty(t.size, dtype=np.clongdouble)
    for i in range(0, t.size, 64):
        x = ld(scale) * np.multiply.outer(t[i:i + 64].astype(ld), omega)
        cos, sin = np.cos(x), np.sin(x)
        out[i:i + 64] = cos @ g_re - sin @ g_im + 1j * (sin @ g_re + cos @ g_im)
    return out


def random_profile(rng, omega):
    density = rng.uniform(0.1, 1.0, omega.size)
    density /= np.trapezoid(density, omega)
    return SpectralProfile(omega, density, rng.uniform(-np.pi, np.pi, omega.size))


class TestClosedForm:
    def test_normalized_at_zero(self):
        for a in (0.0, 0.33, 1.0, 2.5):
            assert kappa_double_gaussian_mag(make_spec(a_theta=a), 0.0) == pytest.approx(1.0)

    def test_single_peak_is_pure_gaussian(self):
        spec = make_spec(a_theta=0.0, sigma=0.7, delta_n=1.3)
        t = np.linspace(0, 3, 50)
        expected = np.exp(-0.5 * 0.7**2 * (1.3 * t) ** 2)
        assert np.allclose(kappa_double_gaussian_mag(spec, t), expected, atol=1e-14)

    def test_equal_peaks_vanish_at_half_period(self):
        spec = make_spec(a_theta=1.0, sigma=1.0, delta_omega=4.0, delta_n=1.0)
        t_zero = np.pi / (spec.delta_omega * spec.delta_n)
        assert kappa_double_gaussian_mag(spec, t_zero) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(a_theta=st.floats(1 - 1e-6, 1 + 1e-6), k=st.integers(0, 50), d=st.floats(-1e-6, 1e-6),
           delta_omega=st.sampled_from([0.25, 1.0, 4.0]), delta_n=st.sampled_from([-0.5, 1.0, 2.0]),
           sigma=st.floats(1e-4, 1.0))
    @example(a_theta=1.0, k=0, d=0.0, delta_omega=1.0, delta_n=1.0, sigma=1.0)  # fig1's 0.0
    def test_within_ulps_of_exact_near_equal_peaks_at_odd_pi(self, a_theta, k, d, delta_omega,
                                                              delta_n, sigma):
        # dw dn t within 1e-6 of (2k + 1) pi, with t = x / |dw dn| exact (powers of two). The
        # form's dozen roundings, and the envelope exponent's four scaled by its value u, stay
        # within 8 (1 + u) ulp; sqrt(1 + A^2 + 2 A cos x) misses by up to 9e15 ulp here.
        x = (2 * k + 1) * math.pi + d
        spec, t = make_spec(a_theta, sigma, delta_omega, delta_n), x / abs(delta_omega * delta_n)
        u = (sigma * delta_n * t) ** 2 / 2
        exact = oracles.exact_double_gaussian_mag(spec, t)
        assert oracles.ulps(kappa_double_gaussian_mag(spec, t), exact) <= 8 * (1 + u)

    def test_range_and_negative_time(self):
        spec = make_spec(a_theta=0.7)
        t = np.linspace(0, 10, 200)
        mags = kappa_double_gaussian_mag(spec, t)
        assert np.all(mags >= 0) and np.all(mags <= 1)
        with pytest.raises(ValueError):
            kappa_double_gaussian_mag(spec, -1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DoubleGaussianSpec(-0.1, 1.0, 4.0, 1.0)
        with pytest.raises(ValueError):
            DoubleGaussianSpec(1.0, 0.0, 4.0, 1.0)


class TestKappaNumeric:
    def test_single_gaussian_two_pi_convention(self):
        # Quadrature vs analytic Fourier transform of a Gaussian.
        sigma, delta_n, omega0 = 1.0, 0.5, 2.0
        omega = np.linspace(omega0 - 8 * sigma, omega0 + 8 * sigma, 4096)
        density = np.exp(-0.5 * ((omega - omega0) / sigma) ** 2)
        density /= np.trapezoid(density, omega)
        profile = SpectralProfile(omega, density, np.zeros_like(omega))
        t = np.linspace(0, 1.5, 64)
        kappa = kappa_numeric(profile, 2 * np.pi * delta_n, t)
        expected = np.exp(-0.5 * (2 * np.pi * delta_n * sigma * t) ** 2)
        assert np.max(np.abs(np.abs(kappa) - expected)) < 1e-6

    def test_near_delta_density_never_dephases(self):
        omega0 = 3.0
        omega = np.linspace(omega0 - 0.001, omega0 + 0.001, 512)
        density = np.exp(-0.5 * ((omega - omega0) / 1e-4) ** 2)
        density /= np.trapezoid(density, omega)
        profile = SpectralProfile(omega, density, np.zeros_like(omega))
        t = np.linspace(0, 50, 100)
        kappa = kappa_numeric(profile, 1.0, t)
        assert np.max(np.abs(np.abs(kappa) - 1)) < 1e-4

    def test_matches_double_gaussian_closed_form(self):
        spec = make_spec(a_theta=1.0, sigma=1.0, delta_omega=4.0, delta_n=1.3)
        profile = double_gaussian_profile(spec)
        t = np.linspace(0, 4, 512)
        kappa = kappa_numeric(profile, spec.delta_n, t)
        assert np.max(np.abs(np.abs(kappa) - kappa_double_gaussian_mag(spec, t))) < 1e-6

    def test_symmetric_density_gives_constant_phase_times_envelope(self):
        # Centered symmetric density: kappa = carrier * real envelope.
        center = 2.5
        spec = make_spec(a_theta=1.0)
        profile = double_gaussian_profile(spec, center=center)
        t = np.linspace(0, 3, 100)
        kappa = kappa_numeric(profile, spec.delta_n, t)
        demodulated = kappa * np.exp(-1j * center * spec.delta_n * t)
        assert np.max(np.abs(demodulated.imag)) < 1e-8

    def test_scalar_time(self):
        profile = double_gaussian_profile(make_spec())
        assert isinstance(kappa_numeric(profile, 1.0, 0.0), complex)
        value = kappa_numeric(profile, 1.3, 0.7)
        assert abs(value - oracles.dense_kappa(profile, 1.3, 0.7)[0]) < 1e-14

    @pytest.mark.parametrize("t", [
        np.array([[0.0, 0.5, 1.0], [1.5, 2.0, 2.5]]),
        np.sort(np.random.default_rng(0).uniform(0, 4, 200)),
        np.array([0.5]),
        np.linspace(4, 0, 50),
    ], ids=["2d", "sorted_random", "one_point", "decreasing"])
    def test_time_not_a_uniform_grid_rejected(self, t, monkeypatch):
        # Only a scalar or a grid as uniform as the readers accept has a kernel.
        profile = double_gaussian_profile(make_spec(), n_points=256)
        monkeypatch.setattr(spectra, "_chirp_z", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ValueError, match="time grid must be a scalar or 1-D, increasing and "
                                             "uniform"):
            kappa_numeric(profile, 1.3, t)

    @pytest.mark.parametrize("t", [np.linspace(0, 1e300, 3), np.array([0.0, 5e299 * (1 + 1e-10),
                                                                      1e300])],
                             ids=["uniform", "jittered"])
    def test_non_finite_phase_raises_before_the_kernel(self, t, monkeypatch):
        profile = double_gaussian_profile(make_spec(), n_points=64)
        monkeypatch.setattr(spectra, "_chirp_z", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ValueError, match=r"phase \|scale\|\*max\|t\|\*max\|omega\|"):
            kappa_numeric(profile, 2 * np.pi * 1e300, t)

    def test_nonuniform_grid_rejected(self):
        omega = np.array([0.0, 1.0, 3.0])
        with pytest.raises(ValueError):
            SpectralProfile(omega, np.array([0.5, 0.25, 0.25]), np.zeros(3))

    @pytest.mark.parametrize("column", ["omega", "density", "phase"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_rejected(self, column, value):
        p = double_gaussian_profile(make_spec(), n_points=64)
        columns = {"omega": p.omega.copy(), "density": p.density.copy(), "phase": p.phase.copy()}
        columns[column][10] = value
        with pytest.raises(ValueError, match="finite"):
            SpectralProfile(**columns)


def jittered(rng, x, frac, drift):
    """x with every step after the first scaled by 1 + r_k * frac * 1e-9, |r_k| <= 1: uniform
    within _uniform_steps' 1e-9 of the first step for frac < 1. r_k is random, or with drift
    +1 for the first half of the steps and -1 after, so that the deviation from the uniform
    fit grows to about frac * 1e-9 * n/2 steps."""
    d = np.diff(x)
    k = np.arange(1, d.size)
    d[1:] *= 1 + frac * 1e-9 * (np.sign(d.size / 2 - k) if drift else rng.uniform(-1, 1, k.size))
    return x[0] + np.concatenate([[0.0], np.cumsum(d)])


def uniform_to_rounding(*grids):
    return all(spectra._uniform_fit(x)[2] is None for x in grids)


class TestChirpKernel:
    @settings(max_examples=25, deadline=None)
    @given(
        n_t=st.integers(2, 4096),
        n_w=st.integers(2, 4096),
        log_phase=st.floats(-2, np.log10(0.99e5)),
        t_span=st.floats(0.1, 20),
        t0_frac=st.floats(0, 0.5),
        w0_frac=st.floats(0.25, 0.75),
        scale=SCALES,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_oracle(self, n_t, n_w, log_phase, t_span, t0_frac, w0_frac,
                                  scale, seed):
        # Grids are built from the largest chirp phase |a| (n_t + n_w)^2 / 2.
        rng = np.random.default_rng(seed)
        t0 = t0_frac * t_span
        t = np.linspace(t0, t0 + t_span, n_t)
        dt = t_span / (n_t - 1)
        d_omega = 2 * 10**log_phase / ((n_t + n_w) ** 2 * abs(scale) * dt)
        width = d_omega * (n_w - 1)
        omega = np.linspace(-w0_frac * width, (1 - w0_frac) * width, n_w)
        profile = random_profile(rng, omega)
        assert uniform_to_rounding(t, omega)
        kappa = kappa_numeric(profile, scale, t)
        assert np.max(np.abs(kappa - oracles.dense_kappa(profile, scale, t))) < 1e-11
        assert np.max(np.abs(kappa)) <= 1 + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        n_t=st.integers(2, 2048),
        n_w=st.integers(2, 2048),
        log_phase=st.floats(-2, 3),
        t_span=st.floats(0.1, 20),
        t0_frac=st.floats(0, 0.5),
        w0_frac=st.floats(0.25, 0.75),
        scale=SCALES,
        jitter=st.sampled_from(["omega", "t", "both"]),
        frac=st.floats(0, 0.9),
        drift=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_t=2048, n_w=2048, log_phase=3, t_span=20, t0_frac=0.5, w0_frac=0.75,
             scale=4 * np.pi, jitter="both", frac=0.9, drift=True, seed=0)
    def test_jittered_grids_match_dense_oracle(self, n_t, n_w, log_phase, t_span, t0_frac,
                                               w0_frac, scale, jitter, frac, drift, seed):
        # Grids as uniform as the readers accept, not to rounding: the Taylor terms in the
        # deviation correct the chirp-z kernel on the uniform fits. The largest phase
        # |scale| max|t| max|omega|, at most about 1e3 rad, keeps the float64 oracle's rounding
        # below the tolerance.
        rng = np.random.default_rng(seed)
        t0 = t0_frac * t_span
        t = np.linspace(t0, t0 + t_span, n_t)
        width = 10**log_phase / (abs(scale) * t_span)
        omega = np.linspace(-w0_frac * width, (1 - w0_frac) * width, n_w)
        if jitter != "t":
            omega = jittered(rng, omega, frac, drift)
        if jitter != "omega":
            t = jittered(rng, t, frac, drift)
        profile = random_profile(rng, omega)
        kappa = kappa_numeric(profile, scale, t)
        assert np.max(np.abs(kappa - oracles.dense_kappa(profile, scale, t))) < 1e-12

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an 80-bit long double")
    @settings(max_examples=25, deadline=None)
    @given(
        n_t=st.integers(2, 4096),
        n_w=st.integers(2, 1 << 17),
        log_phase=st.floats(-2, 8),
        t_span=st.floats(0.1, 20),
        t0_frac=st.floats(0, 0.5),
        w0_frac=st.floats(0.25, 0.75),
        scale=SCALES,
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_t=2048, n_w=128, log_phase=8, t_span=10, t0_frac=0.25, w0_frac=0.5, scale=1.0,
             seed=0)
    def test_matches_longdouble_oracle(self, n_t, n_w, log_phase, t_span, t0_frac, w0_frac,
                                       scale, seed):
        # Every uniform grid takes the chirp-z kernel, here up to 1e8 rad of chirp phase. Its
        # phases carry the rounding of a = scale*dt*dw, a few ulp of the largest phase, which
        # the sum over omega averages down; 700 random draws erred by at most a third of tol.
        n_w = min(n_w, max(2, (1 << 18) // n_t))  # the oracle's cost is n_t * n_w
        rng = np.random.default_rng(seed)
        t0 = t0_frac * t_span
        t = np.linspace(t0, t0 + t_span, n_t)
        d_omega = 2 * 10**log_phase / ((n_t + n_w) ** 2 * abs(scale) * (t_span / (n_t - 1)))
        width = d_omega * (n_w - 1)
        profile = random_profile(rng, np.linspace(-w0_frac * width, (1 - w0_frac) * width, n_w))
        assert uniform_to_rounding(t, profile.omega)
        kappa = kappa_numeric(profile, scale, t)
        dw = profile.omega[1] - profile.omega[0]
        phase = abs(scale * (t[1] - t[0]) * dw) * (n_t + n_w) ** 2 / 2
        tol = 1e-14 + phase * np.finfo(float).eps / 8
        assert np.max(np.abs(kappa - longdouble_kappa(profile, scale, t))) <= tol

    def test_taylor_terms_share_one_chirp_and_kernel_fft(self, monkeypatch):
        # omega drifts from its uniform fit by up to 5.4e-9: at t_max 100, x_p is 5.4e-7 and
        # three Taylor terms apply one chirp-z plan, each with one FFT pair.
        rng = np.random.default_rng(0)
        profile = random_profile(rng, jittered(rng, np.linspace(-6, 6, 400), 0.9, drift=True))
        t = np.linspace(0, 100, 300)
        calls = {f.__name__: mock.Mock(wraps=f) for f in (spectra._chirp, np.fft.fft, np.fft.ifft)}
        monkeypatch.setattr(spectra, "_chirp", calls["_chirp"])
        monkeypatch.setattr(np.fft, "fft", calls["fft"])
        monkeypatch.setattr(np.fft, "ifft", calls["ifft"])
        kappa = kappa_numeric(profile, 1.0, t)
        assert calls["_chirp"].call_count == 1
        assert calls["ifft"].call_count == 3 and calls["fft"].call_count == 4
        assert np.max(np.abs(kappa - oracles.dense_kappa(profile, 1.0, t))) < 1e-12

    def test_fast_length_is_the_least_5_smooth_at_or_above(self):
        def five_smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        smooth = iter(filter(five_smooth, itertools.count(1)))
        m = next(smooth)
        for n in range(1, 10**4 + 1):
            while m < n:
                m = next(smooth)
            assert spectra._fast_length(n) == m, n

    @pytest.mark.parametrize("n_t, n_w, size", [(4097, 2048, 6144), (2050, 2048, 4320)],
                             ids=["zero_slack", "power_of_two_plus_one"])
    def test_matches_dense_oracle_at_the_transform_length(self, n_t, n_w, size, monkeypatch):
        # The circular convolution needs n_t + n_w - 1 points and no more: 6144 = 2^11 3 takes
        # no slack, and 4097 = 2^12 + 1 takes 4320 = 2^5 3^3 5 (a power of two took 8192).
        rng = np.random.default_rng(7)
        profile = random_profile(rng, np.linspace(-3.0, 5.0, n_w))
        t = np.linspace(0.5, 40.0, n_t)
        fft = mock.Mock(wraps=np.fft.fft)
        monkeypatch.setattr(np.fft, "fft", fft)
        kappa = kappa_numeric(profile, 0.7, t)
        assert {c.args[0].size for c in fft.call_args_list} == {size}
        assert np.max(np.abs(kappa - oracles.dense_kappa(profile, 0.7, t))) < 1e-11

    def test_uniform_fit_accepts_linspace_rejects_jitter(self):
        t = np.linspace(0.3, 17.0, 1001)
        assert spectra._uniform_fit(t) == (0.3, (17.0 - 0.3) / 1000, None)
        moved = t.copy()
        moved[500] += 1e-9
        t0, dt, dev = spectra._uniform_fit(moved)
        assert (t0, dt) == (0.3, (17.0 - 0.3) / 1000)
        assert np.flatnonzero(np.abs(dev) > 1e-13).tolist() == [500]
        assert dev[500] == pytest.approx(1e-9, rel=1e-4)

    def test_deviation_phase_above_one_raises_before_the_kernel(self, monkeypatch):
        # x_p = |scale dt| (n_t - 1) max|delta| past 1: the series cannot converge in float64.
        omega = np.linspace(-6, 6, 400)
        omega[200] += 1e-10 * (omega[1] - omega[0])
        profile = random_profile(np.random.default_rng(0), omega)
        delta = spectra._uniform_fit(omega)[2]
        t_max = 2 / np.max(np.abs(delta))
        monkeypatch.setattr(spectra, "_chirp_z", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ValueError, match="cannot converge"):
            kappa_numeric(profile, 1.0, np.linspace(0, t_max, 25))

    def test_phase_overflow_raises_before_the_kernel(self, monkeypatch):
        # |scale| max|t| max|omega| overflows to inf. fig6's window refuses such a t_max first
        # (its phase_overflow case in test_cli.py), so only a library call reaches this check.
        profile = random_profile(np.random.default_rng(0), np.linspace(-6, 6, 40))
        monkeypatch.setattr(spectra, "_chirp_z", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ValueError, match="is not finite"):
            kappa_numeric(profile, 2 * np.pi * 1e300, np.linspace(0, 1e300, 3))

    @pytest.mark.parametrize("delta_n", [0.7, -0.7])
    @pytest.mark.parametrize("two_pi", [False, True])
    def test_trapezoid_repeats_with_twice_alias_t_max(self, delta_n, two_pi):
        # On omega_k = w0 + k dw the sum repeats in t with period P = 2 alias_t_max, up to the
        # unit phase exp(i s P w0): a sample past alias_t_max is a negative time's alias.
        profile = random_profile(np.random.default_rng(1), np.linspace(-6, 6, 400))
        scale = 2 * np.pi * delta_n if two_pi else delta_n  # omega ordinary or angular
        period = 2 * spectra.alias_t_max(profile, scale)
        assert period == pytest.approx(2 * np.pi / (abs(scale) * 12 / 399), rel=1e-14)
        t = np.linspace(0, 3, 31)
        here, there = (kappa_numeric(profile, scale, t + shift)
                       for shift in (0.0, period))
        assert np.max(np.abs(there - np.exp(-6j * scale * period) * here)) < 1e-10


class TestKappaMemory:
    """The tracemalloc peak of one kappa_numeric call on a scaled grid."""

    def test_peak_at_a_65536_point_spectrum(self):
        # 20 000 times on a 65 536-point spectrum: measured 6.32 MiB (Python 3.11, numpy 2.4),
        # against 9.81 MiB with a transform padded to 131 072 points and fresh arrays per term.
        # The kernel and the work buffer take 86 400 points (1.32 MiB) each. numpy 2.4 transforms
        # them in place with no copy; the bound of 8 MiB also holds one transient copy of either,
        # should an older numpy copy an overlapping out=, and stays 1.81 MiB below the old 9.81.
        profile = random_profile(np.random.default_rng(0), np.linspace(-6, 6, 65_536))
        t = np.linspace(0, 0.99 * spectra.alias_t_max(profile, 1.0), 20_000)
        kappa_numeric(profile, 1.0, t[:100])
        tracemalloc.start()
        try:
            kappa_numeric(profile, 1.0, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestDephasingChannel:
    def test_identity(self):
        assert np.allclose(DephasingChannel(1.0).apply(PLUS), PLUS)

    def test_complete_dephasing(self):
        out = DephasingChannel(0.0).apply(PLUS)
        assert np.allclose(out, np.eye(2) / 2)

    def test_half_dephasing_bloch(self):
        out = DephasingChannel(0.5).apply(PLUS)
        assert np.allclose(oracles.bloch_vector(out), [0.5, 0, 0], atol=1e-14)

    def test_unphysical_kappa_rejected(self):
        with pytest.raises(ValueError):
            DephasingChannel(1.1)

    def test_complex_kappa_direction(self):
        kappa = 0.5 * np.exp(1j * 0.3)
        out = DephasingChannel(kappa).apply(PLUS)
        assert out[1, 0] == pytest.approx(0.5 * kappa)
        assert out[0, 1] == pytest.approx(0.5 * np.conj(kappa))

    def test_real_kappa_matches_pauli_channel(self, rng):
        for _ in range(20):
            kappa = rng.uniform(0, 1)
            rho = oracles.density_from_bloch(rng.uniform(-0.5, 0.5, 3))
            via_deph = DephasingChannel(kappa).apply(rho)
            via_pauli = oracles.apply_channel(DephasingChannel(kappa).as_pauli(), rho)
            assert np.allclose(via_deph, via_pauli, atol=1e-14)


class TestBlpMeasure:
    def test_monotone_decay_is_markovian(self):
        t = np.linspace(0, 5, 200)
        traj = DecoherenceTrajectory(t, np.exp(-t).astype(complex))
        assert blp_from_magnitudes(np.abs(traj.kappa)) == 0

    def test_single_revival(self):
        assert blp_from_magnitudes([1.0, 0.2, 0.3, 0.1]) == pytest.approx(0.1)

    def test_revival_sum_matches_peak_finding_oracle(self):
        spec = make_spec(a_theta=1.0, sigma=1.0, delta_omega=4.0)
        t = np.linspace(0, 8, 20000)
        mags = kappa_double_gaussian_mag(spec, t)
        measured = blp_from_magnitudes(mags)
        # Oracle: revivals are (local max) - (preceding local min) pairs.
        interior = np.arange(1, len(mags) - 1)
        minima = interior[(mags[interior] < mags[interior - 1]) & (mags[interior] <= mags[interior + 1])]
        maxima = interior[(mags[interior] > mags[interior - 1]) & (mags[interior] >= mags[interior + 1])]
        total = 0.0
        for m in minima:
            following = maxima[maxima > m]
            if following.size:
                total += mags[following[0]] - mags[m]
        if mags[-1] > mags[maxima[-1] if maxima.size else 0]:
            total += mags[-1] - mags[minima[-1]]
        assert measured > 0
        assert measured == pytest.approx(total, abs=1e-10)

    def test_zero_for_single_peak_any_resolution(self):
        spec = make_spec(a_theta=0.0)
        for n in (10, 100, 5000):
            t = np.linspace(0, 6, n)
            assert blp_from_magnitudes(kappa_double_gaussian_mag(spec, t)) == 0

    def test_stable_under_grid_refinement(self):
        spec = make_spec(a_theta=1.0, sigma=1.0, delta_omega=4.0)
        # The revival sum converges linearly (|kappa| has V-shaped kinks at
        # its zeros), so stability at 1e-4 needs a fairly fine grid.
        values = []
        for n in (40000, 80000, 160000):
            t = np.linspace(0, 8, n)
            values.append(blp_from_magnitudes(kappa_double_gaussian_mag(spec, t)))
        assert abs(values[2] - values[1]) < 1e-4
        assert abs(values[1] - values[0]) < 1e-4


class TestSynthesis:
    def test_gaussian_decay_round_trip(self):
        t = np.linspace(0, 8, 512)
        kappa = np.exp(-0.5 * t**2).astype(complex)
        result = synthesize_spectrum(DecoherenceTrajectory(t, kappa), 1.0)
        assert result.roundtrip_error < 1e-6
        assert result.realizable
        # Recovered phase is flat where the density lives.
        mask = result.profile.density > 1e-3 * result.profile.density.max()
        assert np.max(np.abs(result.profile.phase[mask])) < 1e-6

    def test_grid_aligned_carrier_recovers_discrete_delta(self):
        t = np.linspace(0, 8, 512)
        omega0 = np.pi  # on the conjugate grid for this window
        kappa = np.exp(1j * omega0 * t)
        result = synthesize_spectrum(DecoherenceTrajectory(t, kappa), 1.0)
        assert result.roundtrip_error < 1e-6
        prof = result.profile
        peak = prof.omega[np.argmax(prof.density)]
        assert peak == pytest.approx(omega0, abs=1e-12)
        # essentially all weight in one bin
        assert prof.density.max() * (prof.omega[1] - prof.omega[0]) > 0.999

    def test_two_phasor_kappa_recovers_two_equal_peaks(self):
        t = np.linspace(0, 16, 2048)
        half = 2.0  # peak separation 4, spectral width 0.5 so overlap is tiny
        kappa = np.exp(-t**2 / 8) * 0.5 * (np.exp(-1j * half * t) + np.exp(1j * half * t))
        result = synthesize_spectrum(DecoherenceTrajectory(t, kappa), 1.0)
        assert result.roundtrip_error < 1e-6
        prof = result.profile
        pos = prof.omega > 0.5
        neg = prof.omega < -0.5
        w_pos = np.trapezoid(prof.density[pos], prof.omega[pos])
        w_neg = np.trapezoid(prof.density[neg], prof.omega[neg])
        assert w_pos == pytest.approx(0.5, abs=5e-3)
        assert w_neg == pytest.approx(0.5, abs=5e-3)
        assert w_pos == pytest.approx(w_neg, abs=1e-12)
        step = prof.omega[1] - prof.omega[0]
        assert prof.omega[pos][np.argmax(prof.density[pos])] == pytest.approx(half, abs=step)

    def test_short_window_flagged_unrealizable(self):
        t = np.linspace(0, 1.0, 64)  # |kappa| still ~0.6 at the end
        kappa = np.exp(-0.5 * t**2).astype(complex)
        result = synthesize_spectrum(DecoherenceTrajectory(t, kappa), 1.0)
        assert not result.realizable

    def test_two_pi_convention_round_trip(self):
        t = np.linspace(0, 8, 512)
        kappa = np.exp(-0.5 * t**2).astype(complex)
        result = synthesize_spectrum(DecoherenceTrajectory(t, kappa), 2 * np.pi * 0.7)
        assert result.roundtrip_error < 1e-6


    @pytest.mark.parametrize("t0", [0.5, 2.0, -1e-6])
    def test_time_grid_must_start_at_zero(self, t0):
        # The Hermitian extension assumes t_m = m dt; shifted grids gave round trips of 0.88-1.0.
        t = np.linspace(0, 8, 512) + t0
        kappa = np.exp(-0.5 * (t - t0) ** 2).astype(complex)
        with pytest.raises(ValueError, match="time grid must start at 0"):
            synthesize_spectrum(DecoherenceTrajectory(t, kappa), 1.0)

    def test_start_within_its_tolerance_is_zero(self):
        t = np.linspace(0, 8, 512)
        kappa = np.exp(-0.5 * t**2).astype(complex)
        exact = synthesize_spectrum(DecoherenceTrajectory(t, kappa), 1.0)
        nudged = synthesize_spectrum(DecoherenceTrajectory(t + 0.5e-9 * t[1], kappa), 1.0)
        assert nudged.realizable
        assert np.allclose(nudged.profile.density, exact.profile.density, rtol=1e-9, atol=0)


class TestTrajectoryValidation:
    def test_kappa_zero_must_be_one(self):
        with pytest.raises(ValueError):
            DecoherenceTrajectory(np.array([0.0, 1.0]), np.array([0.5, 0.2], dtype=complex))

    @pytest.mark.parametrize("t0", [1e-14, -1e-14, 0.5e-9 * 0.25])
    def test_kappa_zero_checked_at_a_start_within_tolerance(self, t0):
        # synthesize_spectrum's rule: a start within 1e-9 of the first step is a start at 0.
        t = t0 + np.linspace(0, 2, 9)
        with pytest.raises(ValueError, match="kappa\\(0\\) must equal 1"):
            DecoherenceTrajectory(t, np.full(9, 0.5, dtype=complex))

    def test_kappa_zero_not_checked_past_the_tolerance(self):
        t = 2e-9 * 0.25 + np.linspace(0, 2, 9)
        assert DecoherenceTrajectory(t, np.full(9, 0.5, dtype=complex)).t[0] == t[0]

    def test_magnitude_bound(self):
        with pytest.raises(ValueError):
            DecoherenceTrajectory(np.array([0.0, 1.0]), np.array([1.0, 1.5], dtype=complex))

    @pytest.mark.parametrize("column, value", [
        ("t", np.nan), ("t", np.inf), ("kappa", np.nan), ("kappa", complex(0.5, np.nan)),
        ("kappa", complex(-np.inf, 0.0)),
    ])
    def test_non_finite_cell_rejected(self, column, value):
        cells = {"t": np.linspace(0, 2, 5), "kappa": np.exp(-np.linspace(0, 2, 5)).astype(complex)}
        cells[column][3] = value
        with pytest.raises(ValueError, match="finite"):
            DecoherenceTrajectory(**cells)


def csv_module_columns(path, names):
    """Oracle for spectra._read_columns: csv.DictReader and float() of each cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([[float(row[name]) for row in rows] for name in names], dtype=float)


class TestCsvInterchange:
    def test_trajectory_round_trip(self, tmp_path):
        t = np.linspace(0, 5, 64)
        kappa = np.exp(-0.3 * t**2) * np.exp(1j * 0.8 * t)
        traj = DecoherenceTrajectory(t, kappa)
        path = tmp_path / "kappa.csv"
        spectra.write_trajectory_csv(traj, path)
        back = spectra.read_trajectory_csv(path)
        assert np.array_equal(back.t, traj.t)
        assert np.array_equal(back.kappa, traj.kappa)
        assert path.read_text().splitlines()[0] == "t,re_kappa,im_kappa"

    def test_profile_round_trip(self, tmp_path):
        profile = double_gaussian_profile(make_spec(), n_points=256)
        path = tmp_path / "spectrum.csv"
        spectra.write_profile_csv(profile, path)
        back = spectra.read_profile_csv(path)
        assert np.array_equal(back.omega, profile.omega)
        assert np.array_equal(back.density, profile.density)
        assert path.read_text().splitlines()[0] == "omega,density,phase"

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["block_minus_1", "block", "block_plus_1"])
    def test_writer_matches_csv_module(self, offset, tmp_path):
        n = spectra._WRITE_BLOCK_CELLS // 4 + offset  # the rows of a block of four full columns
        rng = np.random.default_rng(n)
        floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
        floats[:4] = [-0.0, 1e-300, 5e299, 0.1]
        scalars = [np.float64(x) for x in rng.uniform(-1, 1, n)]  # numpy scalars, not floats
        ints = rng.integers(-(10**12), 10**12, n)  # numpy ints
        labels = [("markovian", "weak", "strong", "singular")[i % 4] for i in range(n)]
        header = ["a", "b", "c", "d"]
        digest = spectra.write_csv(tmp_path / "cols.csv", header, (floats, scalars, ints, labels))
        with open(tmp_path / "rows.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(zip(floats, scalars, ints, labels))
        got = (tmp_path / "cols.csv").read_bytes()
        assert got == (tmp_path / "rows.csv").read_bytes()
        assert digest == hashlib.sha256(got).hexdigest()
        assert got.split(b"\n")[1].startswith(b"-0.0,")

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(k=st.integers(1, 3),
           n=st.sampled_from([1] + [spectra._WRITE_BLOCK_CELLS // 2 + d for d in (-1, 0, 1)]),
           small=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=3, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_broadcast_columns_match_expanded(self, k, n, small, seed, tmp_path):
        # Rows of the broadcast (k, n) table in C order: A_theta-like (k, 1), t-like (n,), full.
        # Blocks hold _WRITE_BLOCK_CELLS cells of t and full at k = 1, of full at k > 1.
        rng = np.random.default_rng(seed)
        a = np.c_[small[:k]]
        labels = np.c_[["markovian", "weak", "strong"][:k]]
        t = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
        full = rng.uniform(-1, 1, (k, n))
        header = ["t", "a", "label", "full"]
        got = spectra.write_csv(tmp_path / "b.csv", header, (t, a, labels, full))
        expanded = (np.tile(t, k), np.repeat(a.ravel(), n), np.repeat(labels.ravel(), n),
                    full.ravel())
        views = [np.broadcast_to(c, (k, n)).ravel() for c in (t, a, labels, full)]
        assert spectra.write_csv(tmp_path / "e.csv", header, expanded) == got
        assert spectra.write_csv(tmp_path / "v.csv", header, views) == got
        with open(tmp_path / "rows.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(zip(*(c.tolist() for c in expanded)))
        data = (tmp_path / "b.csv").read_bytes()
        assert data == (tmp_path / "e.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert got == hashlib.sha256(data).hexdigest()
        assert data.count(b"\n") == 1 + k * n

    def test_zero_dim_columns_give_one_row(self, tmp_path):
        spectra.write_csv(tmp_path / "c.csv", ["a", "b", "c", "d"],
                          (0.1, np.float64(-0.0), np.int64(7), "weak"))
        assert (tmp_path / "c.csv").read_bytes() == b"a,b,c,d\n0.1,-0.0,7,weak\n"

    def test_zero_dim_column_repeats_on_every_row(self, tmp_path):
        spectra.write_csv(tmp_path / "c.csv", ["t", "k"], (np.array([0.0, 0.5]), 0.25))
        assert (tmp_path / "c.csv").read_bytes() == b"t,k\n0.0,0.25\n0.5,0.25\n"

    def test_zero_rows_give_header_only(self, tmp_path):
        digest = spectra.write_csv(tmp_path / "c.csv", ["t", "a", "x"],
                                   (np.empty(0), np.c_[[1.0, 2.0]], np.empty((2, 0))))
        assert (tmp_path / "c.csv").read_bytes() == b"t,a,x\n"
        assert digest == hashlib.sha256(b"t,a,x\n").hexdigest()

    @pytest.mark.parametrize("n", [3, 1025, spectra._KERNEL_MIN_CELLS + 25])  # % path, then kernel
    def test_column_passed_twice(self, n, tmp_path):
        rng = np.random.default_rng(n)
        x, y, a = rng.normal(size=n), rng.normal(size=n), np.c_[[0.5, -1e-300]]
        labels = np.array(["weak", "strong"] * n)[:n]
        spectra.write_csv(tmp_path / "twice.csv", list("txxaayll"),
                          (y, x, x, a, a, y, labels, labels))
        spectra.write_csv(tmp_path / "copies.csv", list("txxaayll"),
                          (y, x, x.copy(), a, a.copy(), y.copy(), labels, labels.copy()))
        data = (tmp_path / "twice.csv").read_bytes()
        assert data == (tmp_path / "copies.csv").read_bytes()
        assert data.count(b"\n") == 1 + 2 * n
        assert data.split(b"\n")[1].endswith(b",weak,weak")

    def test_2d_array_as_columns(self, tmp_path):
        # Iterating a 2-D array gives a fresh view per row; each is its own column.
        table = np.arange(12.0).reshape(3, 4)
        spectra.write_csv(tmp_path / "c.csv", ["a", "b", "c"], table)
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines == ["a,b,c"] + [f"{float(j)},{4.0 + j},{8.0 + j}" for j in range(4)]

    @pytest.mark.parametrize("header", [["a"], ["a", "b", "c"]], ids=["short", "long"])
    def test_header_of_another_length_is_refused(self, header, tmp_path):
        # One header name per column: a missing or extra name is not written as a shifted row.
        x = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="header names for 2 columns"):
            spectra.write_csv(tmp_path / "c.csv", header, (x, -x))
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("columns", [(np.zeros(3), np.zeros(4)),
                                         (np.zeros((2, 3)), np.c_[[1.0, 2.0, 3.0]])])
    def test_columns_that_do_not_broadcast_raise(self, columns, tmp_path):
        with pytest.raises(ValueError):
            spectra.write_csv(tmp_path / "c.csv", ["a", "b"], columns)
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n", "\0"],
                             ids=["comma", "quote", "cr", "lf", "nul"])
    def test_text_that_needs_quoting_is_refused(self, char, tmp_path):
        # Text is written verbatim: a cell or header that would need quoting, or a NUL, which
        # the blocks' compaction would drop, raises before the file is opened, on either path.
        t, label = np.linspace(0, 1, spectra._KERNEL_MIN_CELLS), f"str{char}ong"
        cases = [(["t", "c"], (t, np.array(["weak", label] * (t.size // 2)))),
                 (["t", "c"], (t[:3], np.c_[["weak", label]])), (["t", "c"], (t[:3], label)),
                 (["t", f"c{char}"], (t, "weak"))]
        for header, columns in cases:
            with pytest.raises(ValueError, match="comma, quote, CR, LF or NUL"):
                spectra.write_csv(tmp_path / "c.csv", header, columns)
            assert not (tmp_path / "c.csv").exists()

    def test_text_check_walks_every_slice(self, tmp_path):
        # The text cells are checked a _WRITE_BLOCK_CELLS slice at a time, and the violation
        # still names the first three bad texts in sorted order, from whichever slices.
        block = spectra._WRITE_BLOCK_CELLS
        labels = np.full(3 * block + 5, "weak", dtype="<U9")
        labels[[block + 1, 2 * block + 3, 3 * block + 4, 2 * block + 7]] = ["d,1", "c,2", "b,3",
                                                                            "a,4"]
        with pytest.raises(ValueError, match=re.escape("['a,4', 'b,3', 'c,2']")):
            spectra.write_csv(tmp_path / "c.csv", ["t", "c"], (np.zeros(labels.size), labels))
        assert not (tmp_path / "c.csv").exists()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
                         max_size=40))
    @example(rows=[(-0.0, 5e-324, 1.7976931348623157e308), (2.2250738585072014e-308, -1e-310, 0.1)])
    def test_reader_bit_identical_to_float(self, rows, tmp_path):
        path = tmp_path / "cells.csv"
        columns = np.array(rows, dtype=float).reshape(-1, 3).T
        spectra.write_csv(path, ["a", "b", "c"], columns)
        got = spectra._read_columns(path, ("a", "b", "c"))
        oracle = csv_module_columns(path, ("a", "b", "c"))
        assert got.shape == oracle.shape == columns.shape
        # Bitwise: -0.0 and 0.0 differ in their sign bit.
        assert got.tobytes() == oracle.tobytes() == columns.tobytes()

    @pytest.mark.parametrize("name, columns", SHIPPED_INPUTS)
    def test_shipped_inputs_match_oracle(self, name, columns):
        got = spectra._read_columns(CONFIGS / name, columns)
        assert got.tobytes() == csv_module_columns(CONFIGS / name, columns).tobytes()

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda lines: [line + "\r" for line in lines],
            lambda lines: lines + ["", ""],
            lambda lines: lines[:3] + [""] + lines[3:-1] + ["", ""] + lines[-1:],
            lambda lines: [",".join(reversed(line.split(","))) for line in lines],
            lambda lines: [f"x{i},{line},y" for i, line in enumerate(lines)],
        ],
        ids=["crlf", "trailing_blank_lines", "interior_blank_lines", "reordered_columns",
             "extra_columns"],
    )
    @pytest.mark.parametrize("name, columns", SHIPPED_INPUTS)
    def test_layout_variants_read_the_same(self, rewrite, name, columns, tmp_path):
        lines = (CONFIGS / name).read_text(encoding="utf-8").splitlines()
        path = tmp_path / name
        path.write_bytes(("\n".join(rewrite(lines)) + "\n").encode("utf-8"))
        got = spectra._read_columns(path, columns)
        assert got.tobytes() == spectra._read_columns(CONFIGS / name, columns).tobytes()

    @pytest.mark.parametrize("name, columns", SHIPPED_INPUTS)
    def test_cr_line_endings_read_the_same(self, name, columns, tmp_path):
        path = tmp_path / name
        path.write_bytes((CONFIGS / name).read_bytes().replace(b"\n", b"\r"))
        want = spectra._read_columns(CONFIGS / name, columns).tobytes()
        for _ in range(3):  # parsed, parsed and kept, reused
            assert spectra._read_columns(path, columns).tobytes() == want


class TestRowCount:
    """_read_columns counts the rows of the open file, before any parse, as np.loadtxt does."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(st.sampled_from(["", "0.5,1,2", "-1e-300,0.0,3"]), max_size=12),
           ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=13, max_size=13),
           trailing=st.booleans())
    def test_counts_the_rows_np_loadtxt_parses(self, lines, ends, trailing, tmp_path):
        # Empty lines, in any of the three line endings, are skipped; the last line may be open.
        text = "".join(line + end for line, end in zip(["a,b,c"] + lines, ends))
        data = (text if trailing else text[:-len(ends[len(lines)])]).encode()
        path = tmp_path / "rows.csv"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            rows = spectra._data_rows(fh)
        assert rows == spectra._read_columns(path, ("a", "b", "c")).shape[1]
        assert spectra._read_columns(path, ("a", "b", "c"), max_rows=rows).shape[1] == rows
        if rows:
            refusal = f"^{rows} data rows exceed max_rows = {rows - 1}$"
            with pytest.raises(ValueError, match=refusal):
                spectra._read_columns(path, ("a", "b", "c"), max_rows=rows - 1)

    def test_pipe_over_max_rows_is_refused(self, tmp_path):
        # A pipe has no size until it is read: it is held whole and counted as a file is.
        path = tmp_path / "rows.csv"
        os.mkfifo(path)
        data = b"omega,density,phase\n" + b"0.5,1.0,0.0\n" * 11
        writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
        writer.start()
        with pytest.raises(ValueError, match="^11 data rows exceed max_rows = 10$"):
            spectra.read_profile_csv(path, max_rows=10)
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_over_max_rows_is_not_parsed(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_bytes(b"omega,density,phase\n" + b"0.5,1.0,0.0\n" * 11)
        with mock.patch.object(spectra.np, "loadtxt", side_effect=AssertionError("parsed")):
            with pytest.raises(ValueError, match="^11 data rows exceed max_rows = 10$"):
                spectra.read_profile_csv(path, max_rows=10)


def csv_module_bytes(header, columns):
    """Oracle: the csv module's rows of the broadcast table, cells as numpy scalars."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(np.broadcast_to(c, shape).ravel() for c in columns)))
    return buf.getvalue().encode("utf-8")


def mixed_columns(n, n_columns, seed):
    """Columns of n rows: floats, ints, labels, a 0-d float, the floats again, then more floats."""
    rng = np.random.default_rng(seed)
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
    floats[:4] = [-0.0, 5e-324, 1e16, 1e-05][:n]
    ints = rng.integers(-(10**12), 10**12, n)
    labels = np.array(["markovian", "weak", "strong", "singular"])[rng.integers(0, 4, n)]
    extra = [rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-6, 18, n) for _ in range(n_columns - 5)]
    return [floats, ints, labels, np.float64(-2.5e-7), floats, *extra]


def kernel_calls(monkeypatch):
    """The float cells of each _floatfmt.format_repr call from now on."""
    calls = []
    kernel = _floatfmt.format_repr
    monkeypatch.setattr(_floatfmt, "format_repr", lambda x: calls.append(x.size) or kernel(x))
    return calls


def writer_routes(monkeypatch):
    """The route of each write_csv call from now on: "_joined" or "_table_blocks"."""
    routes = []
    for name in ("_joined", "_table_blocks"):
        monkeypatch.setattr(spectra, name, lambda *args, name=name, f=getattr(spectra, name):
                            routes.append(name) or f(*args))
    return routes


SHORT = spectra._KERNEL_MIN_CELLS * 2 // 5  # a fig1-like (2, SHORT) table: each call below it


def scenario_table(scenario, **overrides):
    """(header, columns) of the first CSV a scenario writes from its shipped config."""
    params = dict(json.loads((CONFIGS / f"{scenario}.json").read_text()), **overrides)
    if scenario == "fig6":
        params["spectrum_csv"] = str(CONFIGS / "fig6_spectrum.csv")
    values, violations = cli._validated(scenario, params)
    assert not violations
    (_, header, columns), *_ = cli.SCENARIOS[scenario].runner(values)[0]
    return header, list(map(np.asarray, columns))


class TestWriterPaths:
    """The % path for tables of full-size columns only whose rows times distinct float
    columns (at least one) are fewer than _KERNEL_MIN_CELLS, and the block path for any
    other table, block by block."""

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
    def test_switch_edges(self, offset, tmp_path, monkeypatch):
        # One block: floats, ints, labels, a 0-d float (repr) and the floats again, so the
        # one kernel call would format the floats' cells once.
        cells = spectra._KERNEL_MIN_CELLS + offset
        columns = mixed_columns(cells, 5, cells)
        calls = kernel_calls(monkeypatch)
        header = [f"c{j}" for j in range(5)]
        digest = spectra.write_csv(tmp_path / "t.csv", header, columns)
        data = (tmp_path / "t.csv").read_bytes()
        assert data == csv_module_bytes(header, columns)
        assert digest == hashlib.sha256(data).hexdigest()
        assert calls == [cells] * (offset >= 0)

    def test_table_of_short_calls_is_joined(self, tmp_path, monkeypatch):
        # fig2-like: full-size columns whose rows times distinct float columns (c passed twice
        # counts once) are below the threshold are joined; one float column more, and they
        # are written in one block of one kernel call.
        n = spectra._KERNEL_MIN_CELLS // 3 - 1
        rng = np.random.default_rng(n)
        eps, (c, d, f) = np.linspace(0, 0.5, n), rng.uniform(size=(3, n))
        labels = np.array(["weak", "strong"])[rng.integers(0, 2, n)]
        calls, routes = kernel_calls(monkeypatch), writer_routes(monkeypatch)
        for header, columns in [(list("ecdxl"), [eps, c, d, c, labels]),
                                (list("ecdxlf"), [eps, c, d, c, labels, f])]:
            spectra.write_csv(tmp_path / "t.csv", header, columns)
            assert (tmp_path / "t.csv").read_bytes() == csv_module_bytes(header, columns)
        assert calls == [4 * n] and routes == ["_joined", "_table_blocks"]

    @pytest.mark.parametrize("header, columns", [
        # fig1-like: t and the block of kappa_mag each below the threshold, together above it.
        (["t", "a", "mag"], [np.linspace(0, 1, SHORT), np.c_[[0.5, 1.0]],
                             np.random.default_rng(SHORT).uniform(size=(2, SHORT))]),
        (["t", "a"], [np.linspace(0, 1, 3), np.c_[[0.5, 1.0]]]),  # no full-size column
        (["i", "l"], [np.arange(3), "weak"]),  # a small column and no float column
        (["i", "j"], list(np.arange(-spectra._KERNEL_MIN_CELLS, spectra._KERNEL_MIN_CELLS)
                          .reshape(2, -1)))],
        ids=["fig1_short", "t_x_a", "ints_and_label", "ints"])
    def test_small_or_no_float_columns_take_blocks(self, header, columns, tmp_path, monkeypatch):
        # Without the kernel: each call has fewer than _KERNEL_MIN_CELLS float cells.
        calls, routes = kernel_calls(monkeypatch), writer_routes(monkeypatch)
        spectra.write_csv(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_bytes() == csv_module_bytes(header, columns)
        assert calls == [] and routes == ["_table_blocks"]

    @pytest.mark.parametrize("rows", [spectra._WRITE_BLOCK_CELLS // 6 + d for d in (-1, 0, 1)]
                             + [2 * (spectra._WRITE_BLOCK_CELLS // 6) + 1])
    def test_block_edges(self, rows, tmp_path):
        # Six distinct full-size columns, so blocks of _WRITE_BLOCK_CELLS // 6 rows.
        header = list("fiLzFxyw")
        columns = mixed_columns(rows, 8, rows)
        spectra.write_csv(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_bytes() == csv_module_bytes(header, columns)

    @pytest.mark.parametrize("scenario, overrides, n_calls", [
        ("fig1", {"n_t": 3000, "a_theta_values": [0.0, 0.5, 1.0]}, 3),
        ("fig3", {"n_t": 9000}, 7), ("fig5", {"n_tau": 3010}, 2), ("fig6", {"n_t": 9766}, 7)],
        ids=["fig1_3000x3", "fig3_9000x3", "fig5_3010", "fig6_9766x4"])
    def test_kernel_calls(self, scenario, overrides, n_calls, tmp_path, monkeypatch):
        # Each call formats at least _KERNEL_MIN_CELLS cells (fig1's A_theta and fig3's phi
        # go through repr) and a whole block or chunk of _WRITE_BLOCK_CELLS, except the
        # last of the table or of a small column.
        header, columns = scenario_table(scenario, **overrides)
        size = math.prod(np.broadcast_shapes(*(c.shape for c in columns)))
        columns_last = {c.size % spectra._WRITE_BLOCK_CELLS for c in columns if c.size < size}
        table_last = size * len({id(c) for c in columns if c.size == size})
        calls = kernel_calls(monkeypatch)
        spectra.write_csv(tmp_path / "t.csv", header, columns)
        assert len(calls) == n_calls
        assert min(calls) >= spectra._KERNEL_MIN_CELLS
        assert all(n == spectra._WRITE_BLOCK_CELLS for n in calls[:-1] if n not in columns_last)
        assert calls[-1] == (table_last - 1) % spectra._WRITE_BLOCK_CELLS + 1
        assert (tmp_path / "t.csv").read_bytes() == csv_module_bytes(header, columns)

    @pytest.mark.parametrize("k, n", [pytest.param(k, n, id=str(n)) for k in (2, 3)
                                      for n in [spectra._WRITE_BLOCK_CELLS // k + d
                                                for d in (-1, 0, 1)]])
    def test_broadcast_block_edges(self, k, n, tmp_path):
        # A (k, n) table with one full-size column, so blocks of _WRITE_BLOCK_CELLS rows:
        # at n + 1 the second block starts inside the k-th repeat of the t-like columns.
        floats, ints, labels, zero_d, _, full = mixed_columns(n, 6, n)
        a = np.c_[[0.5, -1e-300, 7.25][:k]]
        kinds = np.c_[["weak", "strong", "singular"][:k]]
        full = np.stack([full, -full, 2 * full][:k])
        header = list("tiazaklff")
        columns = (floats, ints, a, zero_d, a, kinds, labels, full, full)
        spectra.write_csv(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_bytes() == csv_module_bytes(header, columns)

    @pytest.mark.parametrize("n", [spectra._WRITE_BLOCK_CELLS + 1,
                                   spectra._WRITE_BLOCK_CELLS + spectra._KERNEL_MIN_CELLS,
                                   2 * spectra._WRITE_BLOCK_CELLS + 7])
    def test_repeated_column_across_chunks(self, n, tmp_path):
        # A (2, n) table whose t-like column spans chunks of different template widths: its
        # first chunk is in [0, 1) (the kernel's narrowest crop), the rest spans +-1e-300 to
        # 1e300, and a last chunk below _KERNEL_MIN_CELLS (at n = 6145 and 12295) goes
        # through repr.
        rng = np.random.default_rng(n)
        t = rng.uniform(1, 10, n) * 10.0 ** rng.integers(-300, 301, n)
        t[rng.random(n) < 0.5] *= -1
        t[:spectra._WRITE_BLOCK_CELLS] = rng.uniform(0, 1, spectra._WRITE_BLOCK_CELLS)
        assert len({spectra._cells([t[i:i + spectra._WRITE_BLOCK_CELLS]])[0].shape[1]
                    for i in range(0, n, spectra._WRITE_BLOCK_CELLS)}) > 1
        header = ["t", "a", "mag"]
        columns = (t, np.c_[[0.5, -1e-300]], rng.uniform(size=(2, n)))
        spectra.write_csv(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_bytes() == csv_module_bytes(header, columns)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kinds=st.lists(st.sampled_from(["full", "t", "a", "0-d", "labels", "ints", "kinds",
                                           "again"]), min_size=1, max_size=6),
           k=st.integers(1, 3), edge=st.sampled_from(["switch", "block", "chunk"]),
           offset=st.integers(-2, 2), seed=st.integers(0, 2**32 - 1))
    @example(kinds=["t", "full", "again", "kinds"], k=2, edge="chunk", offset=1, seed=0)
    @example(kinds=["t", "a", "kinds", "0-d"], k=3, edge="block", offset=1, seed=1)
    @example(kinds=["t", "again", "a"], k=2, edge="switch", offset=0, seed=2)
    @example(kinds=["ints", "labels", "again"], k=1, edge="switch", offset=0, seed=3)
    @example(kinds=["ints", "a"], k=2, edge="block", offset=1, seed=4)
    def test_random_tables_match_csv_module(self, kinds, k, edge, offset, seed, tmp_path):
        # A (k, m) table of float columns, each of one magnitude range or of all, both signs;
        # broadcast columns, string and int columns, and the previous column passed again,
        # with or without a full-size column. m puts the table's kernel calls or the % path's
        # end at _KERNEL_MIN_CELLS, its rows at a block's edge, or a (m,) column at the edge
        # of the chunks it is formatted in.
        rng = np.random.default_rng(seed)
        full_floats = sum(kind == "full" or kind == "t" and k == 1 for kind in kinds)
        full = full_floats + kinds.count("labels") + kinds.count("ints")
        block = spectra._WRITE_BLOCK_CELLS // max(1, full)
        # The switch: a block's full-size float cells, or else a t column's, or else the
        # rows of a table of full-size columns, at the threshold.
        switch = (-(-spectra._KERNEL_MIN_CELLS // full_floats) if full_floats
                  else k * spectra._KERNEL_MIN_CELLS)
        rows = {"switch": switch, "block": block, "chunk": k * spectra._WRITE_BLOCK_CELLS}[edge]
        m = max(1, rows // k + offset)
        shapes = {"full": (k, m), "t": (m,), "a": (k, 1), "0-d": ()}
        columns = []
        for kind in kinds:
            if kind == "again":
                columns.append(columns[-1] if columns else np.float64(-0.0))
            elif kind in ("labels", "kinds"):
                shape = (k, m) if kind == "labels" else (k, 1)
                columns.append(np.array(["markovian", "weak", "strong", "singular"])[
                    rng.integers(0, 4, shape)])
            elif kind == "ints":
                columns.append(rng.integers(-(10**12), 10**12, (k, m)))
            else:
                shape = shapes[kind]
                lo, hi = [(-300, 300), (-1, 0), (-6, 18), (100, 101), (0, 1)][rng.integers(5)]
                values = rng.uniform(1, 10, shape) * 10.0 ** rng.integers(lo, hi, shape)
                columns.append(np.where(rng.random(shape) < 0.5, -values, values))
        header = [f"c{j}" for j in range(len(columns))]
        digest = spectra.write_csv(tmp_path / "t.csv", header, columns)
        data = (tmp_path / "t.csv").read_bytes()
        assert data == csv_module_bytes(header, columns)
        assert digest == hashlib.sha256(data).hexdigest()


@pytest.fixture
def column_cache():
    """The reader's cache, empty before and after the test."""
    spectra._column_cache.clear()
    yield spectra._column_cache
    spectra._column_cache.clear()


def rewrite_in_place(path, data):
    """Write data over path, which it must match in length, and restore path's times."""
    stat = path.stat()
    assert len(data) == stat.st_size and data != path.read_bytes()
    path.write_bytes(data)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))


class TestColumnCache:
    def write_profile(self, path):
        profile = double_gaussian_profile(make_spec(), n_points=256)
        spectra.write_profile_csv(profile, path)
        return profile

    def test_same_length_rewrite_under_old_mtime_reads_new_values(self, tmp_path, column_cache):
        path = tmp_path / "spectrum.csv"
        profile = self.write_profile(path)
        for _ in range(3):
            assert np.array_equal(spectra.read_profile_csv(path).phase, profile.phase)
        assert any(columns is not None for columns in column_cache.values())
        rewrite_in_place(path, path.read_bytes().replace(b",0.0\n", b",0.5\n"))
        for _ in range(3):
            assert np.all(spectra.read_profile_csv(path).phase == 0.5)

    def test_mutating_a_returned_profile_leaves_later_reads(self, tmp_path, column_cache):
        path = tmp_path / "spectrum.csv"
        profile = self.write_profile(path)
        for _ in range(4):
            got = spectra.read_profile_csv(path)
            assert np.array_equal(got.omega, profile.omega)
            assert np.array_equal(got.density, profile.density)
            assert np.array_equal(got.phase, profile.phase)
            got.omega[:], got.density[:], got.phase[:] = 0.0, -1.0, 7.0
            spectra._read_columns(path, spectra.PROFILE_COLUMNS)[:] = np.nan

    def test_first_read_returns_its_parse(self, tmp_path, column_cache):
        # A first read holds the file's bytes (41 B a row here) and its parse (24 B), not a
        # copy of the parse (24 B more): 66 B a row measured (Python 3.11, numpy 2.4), 89
        # with the copy. Mutating it reaches neither the second read, which parses again
        # and keeps that, nor the third, a copy of what the second kept.
        n = 10**5
        omega = np.linspace(-50, 50, n)
        density = np.exp(-omega**2 / 2)
        profile = SpectralProfile(omega, density / np.trapezoid(density, omega), np.zeros(n))
        path = tmp_path / "spectrum.csv"
        spectra.write_profile_csv(profile, path)
        tracemalloc.start()
        try:
            first = spectra._read_columns(path, spectra.PROFILE_COLUMNS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80 * n
        first[:] = np.nan
        for _ in range(2):
            got = spectra._read_columns(path, spectra.PROFILE_COLUMNS)
            assert np.array_equal(got, [profile.omega, profile.density, profile.phase])
            got[:] = np.nan

    @pytest.mark.parametrize(
        "corrupt, error, match",
        [
            (lambda data: data.replace(b"phase", b"phasf", 1), KeyError, "phase"),
            (lambda data: data.replace(b",0.0\n", b",nan\n", 1), ValueError,
             "phase must be finite"),
            (lambda data: data[:500] + b"\xff" + data[501:], UnicodeDecodeError, "position 500"),
        ],
        ids=["missing_column", "nan_cell", "non_utf8_byte"],
    )
    def test_bad_file_raises_on_every_read(self, corrupt, error, match, tmp_path, column_cache):
        # The good content is cached under this path, size and mtime first.
        path = tmp_path / "spectrum.csv"
        profile = self.write_profile(path)
        good = path.read_bytes()
        for _ in range(3):
            spectra.read_profile_csv(path)
        rewrite_in_place(path, corrupt(good))
        messages = set()
        for _ in range(3):
            with pytest.raises(error, match=match) as info:
                spectra.read_profile_csv(path)
            messages.add(str(info.value))
        assert len(messages) == 1
        rewrite_in_place(path, good)
        assert np.array_equal(spectra.read_profile_csv(path).density, profile.density)

    def test_column_names_are_part_of_the_key(self, tmp_path, column_cache):
        rng = np.random.default_rng(7)
        profile = random_profile(rng, np.linspace(-3, 3, 64))
        t = np.linspace(0, 5, 64)
        kappa = np.exp(-0.3 * t**2) * np.exp(1j * 0.8 * t)
        path = tmp_path / "both.csv"
        spectra.write_csv(path, ["t", "re_kappa", "im_kappa", "omega", "density", "phase"],
                          (t, kappa.real, kappa.imag, profile.omega, profile.density,
                           profile.phase))
        for _ in range(3):
            assert np.array_equal(spectra.read_profile_csv(path).density, profile.density)
        for _ in range(3):
            got = spectra.read_trajectory_csv(path)
            assert np.array_equal(got.t, t) and np.array_equal(got.kappa, kappa)

    def test_files_read_once_keep_no_array(self, tmp_path, column_cache):
        for i in range(200):
            t = np.linspace(0, 1 + i, 8)
            path = tmp_path / f"kappa{i}.csv"
            spectra.write_trajectory_csv(DecoherenceTrajectory(t, np.exp(-t)), path)
            assert np.array_equal(spectra.read_trajectory_csv(path).t, t)
            assert len(column_cache) <= spectra._CACHE_KEYS
        assert all(columns is None for columns in column_cache.values())
        # A second read of the files whose keys are still held keeps their arrays.
        for i in range(200 - spectra._CACHE_KEYS, 200):
            spectra.read_trajectory_csv(tmp_path / f"kappa{i}.csv")
        assert len(column_cache) == spectra._CACHE_KEYS
        assert all(columns is not None for columns in column_cache.values())


class TestKappaProperties:
    """kappa_numeric on random valid profiles that went through the CSV interchange."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n_t=st.integers(2, 2048),
        n_w=st.integers(2, 2048),
        log_phase=st.floats(-2, np.log10(0.99e5)),
        t_span=st.floats(0.1, 20),
        w0_frac=st.floats(0.25, 0.75),
        scale=SCALES,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chirp_matches_dense_and_magnitude_bounded(self, n_t, n_w, log_phase, t_span,
                                                       w0_frac, scale, seed, tmp_path):
        rng = np.random.default_rng(seed)
        t = np.linspace(0, t_span, n_t)
        d_omega = 2 * 10**log_phase / ((n_t + n_w) ** 2 * abs(scale) * (t_span / (n_t - 1)))
        width = d_omega * (n_w - 1)
        path = tmp_path / "spectrum.csv"
        spectra.write_profile_csv(
            random_profile(rng, np.linspace(-w0_frac * width, (1 - w0_frac) * width, n_w)), path)
        profile = spectra.read_profile_csv(path)
        assert uniform_to_rounding(t, profile.omega)
        chirp = kappa_numeric(profile, scale, t)
        dense = oracles.dense_kappa(profile, scale, t)
        assert np.max(np.abs(chirp - dense)) < 1e-11
        for kappa in (chirp, dense):
            assert np.max(np.abs(kappa)) <= 1 + spectra.KAPPA_MAG_TOL

    @settings(max_examples=60, deadline=None)
    @given(
        n_t=st.integers(2, 1024),
        n_w=st.integers(2, 1024),
        log_phase=st.floats(-2, 5.99),
        t_span=st.floats(0.1, 20),
        w0_frac=st.floats(0, 1),
        scale=SCALES,
        uniform_t=st.booleans(),
        zeros=st.floats(0, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_t=1024, n_w=1024, log_phase=3, t_span=10, w0_frac=0.5, scale=1.0,
             uniform_t=False, zeros=0, seed=1)
    def test_magnitude_at_most_the_density_integral(self, n_t, n_w, log_phase, t_span, w0_frac,
                                                     scale, uniform_t, zeros, seed):
        # |kappa(t)| <= trapz(density), the triangle inequality on the trapezoid sum, up to the
        # kernel's rounding (at most 4e-12 below 1e6 rad of chirp phase, which bounds these
        # grids) and its Taylor terms in the deviation of grids jittered within 1e-9 of a step.
        # kappa(0) is the trapezoid integral on the nodes, the one SpectralProfile checks.
        rng = np.random.default_rng(seed)
        t = np.linspace(0, t_span, n_t)
        d_omega = 2 * 10**log_phase / ((t.size + n_w) ** 2 * abs(scale) * (t_span / (t.size - 1)))
        width = d_omega * (n_w - 1)
        omega = np.linspace(-w0_frac * width, (1 - w0_frac) * width, n_w)
        if not uniform_t:
            t, omega = (jittered(rng, x, 0.9, drift=bool(seed % 2)) for x in (t, omega))
        # Densities from flat to a few spikes among zeros.
        density = rng.uniform(0, 1, n_w) * (rng.random(n_w) >= zeros)
        density[rng.integers(n_w)] += 1
        density /= np.trapezoid(density, omega)
        profile = SpectralProfile(omega, density, rng.uniform(-np.pi, np.pi, n_w))
        kappa = kappa_numeric(profile, scale, t)
        assert np.max(np.abs(kappa)) <= np.trapezoid(profile.density, profile.omega) + 1e-11
        assert abs(kappa[0] - np.trapezoid(density * np.exp(1j * profile.phase), omega)) < 1e-14


ONE_TO_TWO = np.linspace(1.0, 2.0, 5)
REJECTIONS = [
    pytest.param(lambda: DoubleGaussianSpec(1.0, 1.0, -0.1, 1.0), "delta_omega must be >= 0",
                 id="double_gaussian_negative_delta_omega"),
    pytest.param(lambda: DoubleGaussianSpec(1.0, 1.0, 2.0, 0.0), "delta_n must be nonzero",
                 id="double_gaussian_zero_delta_n"),
    pytest.param(lambda: SpectralProfile(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2))),
                 "1-D with at least 2 points", id="profile_2d_omega"),
    pytest.param(lambda: SpectralProfile([0.0], [1.0], [0.0]), "1-D with at least 2 points",
                 id="profile_one_point_omega"),
    pytest.param(lambda: SpectralProfile(ONE_TO_TWO, np.ones(5), np.zeros(4)),
                 "must match the omega grid", id="profile_mismatched_shapes"),
    pytest.param(lambda: DecoherenceTrajectory(np.linspace(0, 1, 5), np.ones(4, dtype=complex)),
                 "must match the time grid", id="trajectory_mismatched_shapes"),
    pytest.param(lambda: DephasingChannel(0.5).apply(oracles.bell_state()), "needs a 2x2 state",
                 id="dephasing_apply_4x4_state"),
    pytest.param(lambda: DephasingChannel(0.5j).as_pauli(), "only real kappa",
                 id="dephasing_as_pauli_complex_kappa"),
    pytest.param(lambda: blp_from_magnitudes([1.0]), "at least 2 samples",
                 id="blp_one_sample"),
]


@pytest.mark.parametrize("call, message", REJECTIONS)
def test_rejected_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
