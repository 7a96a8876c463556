import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmlab import nvmodel, spectra
from nmlab.nvmodel import Gate, NVParams

import oracles


def flat_env_params(coupling=2 * np.pi):
    # Envelope time huge compared to any simulated window: env ~ 1.
    return NVParams(coupling=coupling, envelope_time=1e12)


def contrast(params, phi, t, taus):
    """fig5's contrast column, P0(U3) - P0(U1), from one rdja_p0_table call."""
    p0 = nvmodel.rdja_p0_table(params, phi, t, taus)
    return p0[Gate.U3] - p0[Gate.U1]


class TestNvKappa:
    def test_initial_value(self):
        params = nvmodel.default_params()
        for phi in (0.0, 0.4, np.pi / 2, np.pi):
            assert nvmodel.nv_kappa(params, phi, 0.0) == pytest.approx(1.0)

    def test_polarized_nucleus_pure_phase(self):
        params = nvmodel.default_params()
        t = np.linspace(0, 3 * params.envelope_time, 400)
        r = nvmodel.bloch_magnitude(params, 0.0, t)
        assert np.allclose(r, nvmodel.envelope(params, t), atol=1e-12)
        assert np.all(np.diff(r) <= 0)

    def test_equator_prep_full_depth_oscillation(self):
        params = flat_env_params()
        t = np.linspace(0, 2, 500)
        r = nvmodel.bloch_magnitude(params, np.pi / 2, t)
        assert np.allclose(r, np.abs(np.cos(params.coupling * t / 2)), atol=1e-9)

    def test_phi_pi_merges_phasors(self):
        params = nvmodel.default_params()
        t = np.linspace(0, 5, 100)
        assert np.allclose(
            nvmodel.bloch_magnitude(params, np.pi, t), nvmodel.envelope(params, t), atol=1e-12
        )

    def test_closed_form_magnitude(self):
        params = nvmodel.default_params()
        t = np.linspace(0, 8, 200)
        for phi in (0.3, 1.0, 2.0):
            expected = nvmodel.envelope(params, t) * np.sqrt(
                1 - np.sin(phi) ** 2 * np.sin(params.coupling * t / 2) ** 2
            )
            assert np.allclose(nvmodel.bloch_magnitude(params, phi, t), expected, atol=1e-12)

    def test_magnitude_bounded_by_envelope(self):
        params = nvmodel.default_params()
        t = np.linspace(0, 10, 300)
        for phi in np.linspace(0, np.pi, 7):
            assert np.all(nvmodel.bloch_magnitude(params, phi, t) <= nvmodel.envelope(params, t) + 1e-12)

    def test_matches_trace_distance_of_dephased_pair(self):
        # r(t) equals the trace distance of dephased |+> / |-> states.
        params = nvmodel.default_params()
        plus = oracles.pure_state(np.array([1, 1]) / np.sqrt(2))
        minus = oracles.pure_state(np.array([1, -1]) / np.sqrt(2))
        for phi, t in ((0.7, 1.3), (np.pi / 2, 2.9), (2.2, 0.4)):
            kappa = nvmodel.nv_kappa(params, phi, t)
            ch = oracles.DephasingChannel(kappa)
            d = oracles.trace_distance(ch.apply(plus), ch.apply(minus))
            assert d == pytest.approx(nvmodel.bloch_magnitude(params, phi, t), abs=1e-12)


def oracle_bloch_rows(params, phis, t):
    """Oracle: r(t) = |kappa(t)| from the complex decoherence function, one phi at a time."""
    return np.array([np.abs(nvmodel.nv_kappa(params, phi, t)) for phi in phis])


def oracle_nm(params, phis, t):
    """Oracle: the BLP revival of each oracle row, one phi at a time."""
    return np.array([spectra.blp_from_magnitudes(row) for row in oracle_bloch_rows(params, phis, t)])


def oracle_p0(params, phi, t, taus):
    """Oracle: P0 = (1 + s Re kappa_eff)/2 per gate and per tau, s = +1 balanced, -1 constant."""
    return {gate: np.array([0.5 * (1 + (1.0 if nvmodel.is_balanced(gate) else -1.0)
                                   * nvmodel.rdja_kappa_eff(params, phi, t, tau).real)
                            for tau in taus])
            for gate in Gate}


nv_params = st.builds(
    NVParams,
    coupling=st.floats(0.1, 50.0),
    envelope_time=st.floats(0.05, 100.0),
    envelope_shape=st.sampled_from(["gaussian", "exponential"]),
)
angles = st.one_of(st.sampled_from([0.0, np.pi / 2, np.pi]), st.floats(0.0, np.pi))


class TestArrayPath:
    @settings(max_examples=60, deadline=None)
    @given(params=nv_params, phis=st.lists(angles, min_size=1, max_size=6),
           n_t=st.integers(2, 500), t_max=st.floats(1e-3, 50.0))
    # A scalar phi's cos(phi) ** 2 was libm pow, an ulp off the array row's square here.
    @example(params=NVParams(1.0, 1.0), phis=[1.9493452391388653], n_t=21, t_max=1.0)
    def test_bloch_rows_match_oracle(self, params, phis, n_t, t_max):
        t = np.linspace(0, t_max, n_t)
        rows = nvmodel.bloch_magnitude(params, phis, t)
        assert rows.shape == (len(phis), n_t)
        np.testing.assert_allclose(rows, oracle_bloch_rows(params, phis, t), rtol=0, atol=1e-12)
        for phi, row in zip(phis, rows):
            assert np.array_equal(nvmodel.bloch_magnitude(params, phi, t), row)

    def test_scalar_phi_and_t(self):
        params = nvmodel.default_params()
        r = nvmodel.bloch_magnitude(params, 0.7, 1.3)
        assert np.ndim(r) == 0
        assert r == pytest.approx(abs(nvmodel.nv_kappa(params, 0.7, 1.3)), abs=1e-15)
        with pytest.raises(ValueError):
            nvmodel.bloch_magnitude(params, 0.7, [0.0, -1.0])

    @settings(max_examples=60, deadline=None)
    @given(params=nv_params, phis=st.lists(angles, min_size=1, max_size=13),
           n_t=st.integers(2, 400), t_max=st.floats(1e-3, 50.0),
           block_rows=st.integers(1, 4), spare=st.floats(0, 0.999))
    def test_nm_matches_oracle_across_blocks(self, params, phis, n_t, t_max, block_rows, spare):
        # Blocks of block_rows phi rows: len(phis) up to 13 crosses several block boundaries.
        t = np.linspace(0, t_max, n_t)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nvmodel, "_PHI_BLOCK_CELLS", block_rows * n_t + int(spare * n_t))
            got = nvmodel.nm_measure_phi(params, phis, t)
        want = oracle_nm(params, phis, t)
        assert got.shape == want.shape == (len(phis),)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(params=nv_params, phis=st.lists(angles, min_size=1, max_size=13),
           n_t=st.integers(2, 400), t_max=st.floats(1e-3, 50.0),
           block_rows=st.integers(1, 4), spare=st.floats(0, 0.999))
    def test_nm_is_the_one_blp_sum(self, params, phis, n_t, t_max, block_rows, spare):
        # spectra.blp_from_magnitudes sums each row of a 2-D array as it sums that row alone,
        # and nm_measure_phi is that sum of the Bloch rows, bit for bit, at any block size.
        t = np.linspace(0, t_max, n_t)
        blp = spectra.blp_from_magnitudes(nvmodel.bloch_magnitude(params, phis, t))
        rows = [spectra.blp_from_magnitudes(nvmodel.bloch_magnitude(params, phi, t))
                for phi in phis]
        assert blp.shape == (len(phis),) and all(type(row) is float for row in rows)
        assert np.array_equal(blp, rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nvmodel, "_PHI_BLOCK_CELLS", block_rows * n_t + int(spare * n_t))
            assert np.array_equal(nvmodel.nm_measure_phi(params, phis, t), blp)

    @pytest.mark.parametrize("n_t", [2**15, 2**15 + 1, 2**16 + 1])
    def test_nm_matches_oracle_at_shipped_block_size(self, n_t):
        # 2 rows per block, then 1 row per block, then a single row above the cell budget.
        params = nvmodel.default_params()
        phis = np.linspace(0, np.pi, 5)
        t = np.linspace(0, 3 * params.envelope_time, n_t)
        np.testing.assert_allclose(nvmodel.nm_measure_phi(params, phis, t),
                                   oracle_nm(params, phis, t), rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(params=nv_params, phi=angles, t=st.floats(0.0, 20.0),
           taus=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=40))
    def test_p0_table_matches_oracle(self, params, phi, t, taus):
        table = nvmodel.rdja_p0_table(params, phi, t, taus)
        want = oracle_p0(params, phi, t, taus)
        assert list(table) == list(Gate)
        for gate in Gate:
            np.testing.assert_allclose(table[gate], want[gate], rtol=0, atol=1e-15)

    def test_p0_table_rejects_negative_delays(self):
        with pytest.raises(ValueError):
            nvmodel.rdja_p0_table(nvmodel.default_params(), 0.5, 0.1, [0.2, -0.1])


class TestNmMeasure:
    def test_zero_at_phi_zero(self):
        params = nvmodel.default_params()
        t = np.linspace(0, 3 * params.envelope_time, 4000)
        assert nvmodel.nm_measure_phi(params, [0.0], t)[0] == 0

    def test_nondecreasing_up_to_equator(self):
        params = nvmodel.default_params()
        t = np.linspace(0, 3 * params.envelope_time, 8000)
        phis = np.linspace(0, np.pi / 2, 10)
        values = nvmodel.nm_measure_phi(params, phis, t).tolist()
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_maximal_at_equator(self):
        params = nvmodel.default_params()
        t = np.linspace(0, 3 * params.envelope_time, 8000)
        phis = np.linspace(0, np.pi, 13)
        results = dict(zip(phis, nvmodel.nm_measure_phi(params, phis, t)))
        assert max(results, key=results.get) == pytest.approx(np.pi / 2)
        assert results[phis[3]] < results[np.pi / 2]

    @settings(max_examples=100, deadline=None)
    @given(params=nv_params, phi=angles, n_t=st.integers(2, 400), t_max=st.floats(1e-3, 50.0))
    def test_symmetric_about_the_equator(self, params, phi, n_t, t_max):
        # r depends on phi only through cos^2(phi): fig3 mirrors nm about pi/2 on this identity.
        t = np.linspace(0, t_max, n_t)
        nm = nvmodel.nm_measure_phi(params, [phi, np.pi - phi], t)
        np.testing.assert_allclose(nm[0], nm[1], rtol=0, atol=1e-12)


class TestGates:
    def test_u1_is_minus_pi_x_rotation(self):
        assert np.allclose(oracles.rdja_gate(Gate.U1), oracles.rotation("x", -np.pi), atol=1e-14)

    def test_u2_is_minus_u1(self):
        assert np.allclose(oracles.rdja_gate(Gate.U2), -oracles.rdja_gate(Gate.U1), atol=1e-14)

    def test_u4_is_minus_u3(self):
        assert np.allclose(oracles.rdja_gate(Gate.U4), -oracles.rdja_gate(Gate.U3), atol=1e-14)

    def test_gates_unitary(self):
        for gate in Gate:
            u = oracles.rdja_gate(gate)
            assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-14)

    def test_noiseless_protocol_contrast_is_one(self):
        # prepare |0>, (pi/2)_x, gate, (pi/2)_x, measure: constant and
        # balanced gates give orthogonal readout states.
        half = oracles.rotation("x", np.pi / 2)
        psi0 = np.array([1, 0], dtype=complex)

        def p0(gate):
            psi = half @ oracles.rdja_gate(gate) @ half @ psi0
            return abs(psi[0]) ** 2

        assert p0(Gate.U1) == pytest.approx(1.0, abs=1e-12)
        assert p0(Gate.U2) == pytest.approx(1.0, abs=1e-12)
        assert p0(Gate.U3) == pytest.approx(0.0, abs=1e-12)
        assert p0(Gate.U4) == pytest.approx(0.0, abs=1e-12)


def density_matrix_p0(params, phi, t, tau, gate):
    """Full simulation of the echo sequence, branch-resolved over the nucleus.

    Independent oracle for rdja_p0_table: explicit 2x2 unitaries for the pulses,
    exact +-A/2 phase branches for the nuclear spin, and the residual
    envelope applied to the coherence before readout.
    """
    c2 = np.cos(phi / 2) ** 2
    s2 = np.sin(phi / 2) ** 2
    half = oracles.rotation("x", np.pi / 2)
    pi_pulse = oracles.rotation("x", np.pi)
    env = nvmodel.envelope(params, t + tau)
    rho_total = np.zeros((2, 2), dtype=complex)
    for branch, weight in ((+1, c2), (-1, s2)):
        def wait(duration):
            phase = branch * params.coupling * duration / 4
            return np.diag([np.exp(1j * phase), np.exp(-1j * phase)])

        chain = wait(tau) @ pi_pulse @ wait(t) @ oracles.rdja_gate(gate) @ half
        psi = chain @ np.array([1, 0], dtype=complex)
        rho = np.outer(psi, psi.conj())
        rho[0, 1] *= env
        rho[1, 0] *= env
        rho_total += weight * (half @ rho @ half.conj().T)
    return rho_total[0, 0].real


class TestRdja:
    def test_p0_matches_density_matrix_oracle(self):
        params = NVParams(coupling=2 * np.pi * 1.7, envelope_time=3.0)
        for gate in Gate:
            for phi in (0.0, 0.8, np.pi / 2):
                for t, tau in ((0.3, 0.3), (0.5, 0.1), (0.0, 0.7), (1.2, 0.9)):
                    assert nvmodel.rdja_p0_table(params, phi, t, tau)[gate][0] == pytest.approx(
                        density_matrix_p0(params, phi, t, tau, gate), abs=1e-12
                    )

    def test_perfect_echo_at_matched_delays(self):
        params = flat_env_params()
        t = 0.37
        for phi in (0.0, 0.9, np.pi / 2):
            assert nvmodel.rdja_p0_table(params, phi, t, t)[Gate.U3][0] == pytest.approx(1.0)
            assert nvmodel.rdja_p0_table(params, phi, t, t)[Gate.U1][0] == pytest.approx(0.0)
            assert contrast(params, phi, t, t)[0] == pytest.approx(1.0)

    def test_equator_prep_cancellation(self):
        params = flat_env_params()
        t = 0.5
        tau = t - np.pi / params.coupling  # A(t - tau) = pi
        assert nvmodel.rdja_kappa_eff(params, np.pi / 2, t, tau) == pytest.approx(0.0, abs=1e-12)
        assert contrast(params, np.pi / 2, t, tau)[0] == pytest.approx(0.0, abs=1e-12)

    def test_constant_and_balanced_pairs_identical(self):
        params = nvmodel.default_params()
        for t, tau in ((0.4, 0.2), (1.0, 1.0)):
            p = {g: p0[0] for g, p0 in nvmodel.rdja_p0_table(params, 0.6, t, tau).items()}
            assert p[Gate.U1] == pytest.approx(p[Gate.U2], abs=1e-12)
            assert p[Gate.U3] == pytest.approx(p[Gate.U4], abs=1e-12)

    def test_contrast_peaks_at_matched_delay(self):
        params = flat_env_params()
        t = 0.61
        taus = np.linspace(0, 2 * t, 1001)
        best_tau = taus[np.argmax(contrast(params, 0.8, t, taus))]
        assert best_tau == pytest.approx(t, abs=taus[1] - taus[0])

    def test_contrast_period_in_tau(self):
        params = flat_env_params()
        t, phi = 0.9, 0.0
        period = 4 * np.pi / params.coupling
        taus = np.linspace(0, 3, 400)
        c = np.array([contrast(params, phi, t, tau)[0] for tau in taus])
        c_shift = np.array([contrast(params, phi, t, tau + period)[0]
                            for tau in taus])
        assert np.allclose(c, c_shift, atol=1e-10)

    def test_delayed_readout_beats_immediate(self):
        # Slowly decaying envelope: the echo optimum exceeds reading out at t.
        params = NVParams(coupling=2 * np.pi * 2.16, envelope_time=10.0)
        phi, t = np.pi / 2, 1.1
        baseline = abs(nvmodel.nv_kappa(params, phi, t).real)  # no pi pulse, read out at t
        taus = np.linspace(0, 2 * t, 600)
        best = contrast(params, phi, t, taus).max()
        assert best > baseline

    def test_bad_timing_rejected(self):
        with pytest.raises(ValueError):
            nvmodel.rdja_p0_table(flat_env_params(), 0.0, -1.0, 0.0)


class TestParams:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            NVParams(coupling=0, envelope_time=1)
        with pytest.raises(ValueError):
            NVParams(coupling=1, envelope_time=-2)
        with pytest.raises(ValueError):
            NVParams(coupling=1, envelope_time=1, envelope_shape="lorentzian")

    def test_exponential_envelope(self):
        params = NVParams(coupling=1, envelope_time=2.0, envelope_shape="exponential")
        assert nvmodel.envelope(params, 2.0) == pytest.approx(np.exp(-1))

    def test_default_params_scale(self):
        params = nvmodel.default_params()
        assert params.envelope_time == pytest.approx(10 * 2 * np.pi / params.coupling)


REJECTIONS = [
    pytest.param(lambda p: nvmodel.nv_kappa(p, 0.3, np.array([0.0, -1e-9])), "t must be >= 0",
                 id="nv_kappa_negative_t"),
    pytest.param(lambda p: nvmodel.nm_measure_phi(p, [], np.linspace(0, 1, 5)),
                 "phi_grid must be nonempty", id="nm_measure_phi_empty_phi_grid"),
]


@pytest.mark.parametrize("call, message", REJECTIONS)
def test_rejected_input(call, message):
    with pytest.raises(ValueError, match=message):
        call(nvmodel.default_params())
