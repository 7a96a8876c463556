import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmlab import sdc
from nmlab.sdc import CorrelatedSpectrum

import oracles


def make_spec(correlation, sigma=1.0, delta_n=1.0):
    return CorrelatedSpectrum(sigma=sigma, correlation=correlation, delta_n=delta_n)


# Brute-force oracle for oracles.bell_probabilities: the full 4x4 state after
# Alice noise, Alice's Pauli and Bob noise, projected on the Bell vectors.

# Basis-state action of each Pauli: index map and phase, P|a> = phase[a] |perm[a]>.
_PAULI_ACTION = {
    "I": ((0, 1), (1.0, 1.0)),
    "X": ((1, 0), (1.0, 1.0)),
    "Y": ((1, 0), (1j, -1j)),
    "Z": ((0, 1), (1.0, -1.0)),
}

_BELL_VECTORS = {
    "phi_plus": np.array([1, 0, 0, 1]) / np.sqrt(2),
    "phi_minus": np.array([1, 0, 0, -1]) / np.sqrt(2),
    "psi_plus": np.array([0, 1, 1, 0]) / np.sqrt(2),
    "psi_minus": np.array([0, 1, -1, 0]) / np.sqrt(2),
}


def _dephasing_factor(spec, s1, s2, t_a, t_b):
    # Element-wise factor for relative-phase labels s1, s2 in {-1, 0, +1}:
    # E[exp(i dn (s1 w1 t_a + s2 w2 t_b))] for the zero-mean bivariate Gaussian.
    quad = (s1 * t_a) ** 2 + (s2 * t_b) ** 2 + 2 * spec.correlation * (s1 * t_a) * (s2 * t_b)
    return float(np.exp(-0.5 * spec.delta_n**2 * spec.sigma**2 * quad))


def noisy_encoded_state(spec, t_a, t_b, encoding):
    """Two-qubit state after Alice noise, Alice's Pauli, and Bob noise.

    Each density matrix element carries relative-phase labels from the
    polarizations it held during the two noise segments; the labels on
    Alice's side are fixed before her encoding permutes the indices, and
    the correlated Gaussian average couples the two segments.
    """
    perm, ph = _PAULI_ACTION[encoding]
    rho0 = oracles.bell_state("phi_plus")
    out = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    val = rho0[2 * a + b, 2 * c + d]
                    if val == 0:
                        continue
                    factor = _dephasing_factor(spec, a - c, b - d, t_a, t_b)
                    amp = ph[a] * np.conj(ph[c]) * factor * val
                    out[2 * perm[a] + b, 2 * perm[c] + d] += amp
    return out


def brute_force_bell_probabilities(spec, t_a, t_b, encoding):
    rho = noisy_encoded_state(spec, t_a, t_b, encoding)
    probs = np.array([np.real(v.conj() @ rho @ v) for v in _BELL_VECTORS.values()])
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def capacity_at(spec, t):
    """The capacity at t_a = t_b = t: fig4's mi_4state column, also written as its capacity."""
    return sdc.fig4_columns(spec, t)[1]


def plain_mutual_information(rows):
    """I(X:Y) in bits for uniform inputs, one row p(outcome | input) per input."""
    n = len(rows)
    p_out = [sum(column) / n for column in zip(*rows)]
    return sum(p / n * math.log2(p / p_out[j]) for row in rows for j, p in enumerate(row) if p > 0)


class TestJointKappa:
    def test_anticorrelated_recoherence(self):
        spec = make_spec(-1.0)
        for t in (0.5, 2.0, 10.0):
            assert sdc.joint_kappa(spec, t, t) == pytest.approx(1.0)

    def test_no_bob_noise_gives_marginal(self):
        spec = make_spec(0.3, sigma=1.2, delta_n=0.8)
        for t in (0.0, 0.7, 2.5):
            assert sdc.joint_kappa(spec, t, 0.0) == pytest.approx(sdc.marginal_kappa(spec, t))

    def test_uncorrelated_factorizes(self):
        spec = make_spec(0.0)
        assert sdc.joint_kappa(spec, 1.0, 2.0) == pytest.approx(
            sdc.marginal_kappa(spec, 1.0) * sdc.marginal_kappa(spec, 2.0)
        )

    def test_monotone_in_correlation(self):
        t = 1.3
        values = [sdc.joint_kappa(make_spec(k), t, t) for k in np.linspace(-1, 1, 9)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestCapacity:
    def test_anticorrelated_is_always_two(self):
        for c_a in (0.01, 0.3, 1.0):
            assert sdc.capacity(c_a, -1.0) == pytest.approx(2.0)

    def test_limit_convention_at_origin(self):
        assert sdc.capacity(0.0, -1.0) == pytest.approx(2.0)

    def test_perfect_entanglement(self):
        for k in (-1.0, 0.0, 1.0):
            assert sdc.capacity(1.0, k) == pytest.approx(2.0)

    def test_reference_value(self):
        assert sdc.capacity(0.5, 0.0) == pytest.approx(1.0456, abs=1e-4)

    def test_against_independent_entropy_evaluation(self):
        for c_a, k in itertools.product((0.2, 0.5, 0.9), (-0.5, 0.0, 0.7)):
            x = (1 + c_a ** (2 * (1 + k))) / 2
            h = -x * np.log2(x) - (1 - x) * np.log2(1 - x)
            assert sdc.capacity(c_a, k) == pytest.approx(2 - h, abs=1e-12)

    def test_monotone_in_c_a(self):
        grid = np.linspace(0, 1, 100)
        for k in np.linspace(-0.99, 1, 100):
            values = [sdc.capacity(c, float(k)) for c in grid]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sdc.capacity(1.5, 0.0)
        with pytest.raises(ValueError):
            sdc.capacity(0.5, -1.2)


class TestConcurrenceAtEncoding:
    def test_no_noise(self):
        assert sdc.marginal_kappa(make_spec(0.0), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form(self):
        spec = make_spec(0.0)
        assert sdc.marginal_kappa(spec, 1.0) == pytest.approx(np.exp(-0.5), abs=1e-10)

    def test_long_time_limit(self):
        assert sdc.marginal_kappa(make_spec(0.0), 50.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_wootters(self):
        spec = make_spec(-0.4, sigma=0.9, delta_n=1.1)
        for t in (0.3, 0.8, 1.6):
            kappa = sdc.marginal_kappa(spec, t)
            bell = oracles.bell_state("phi_plus")
            ch = oracles.DephasingChannel(kappa).as_pauli()
            rho = oracles.apply_channel_one_sided(ch, bell)
            assert sdc.marginal_kappa(spec, t) == pytest.approx(
                oracles.concurrence(rho), abs=1e-10
            )


class TestProtocol:
    def test_noiseless_four_state(self):
        spec = make_spec(0.0)
        assert oracles.simulate_protocol(spec, 0.0, 0.0, 4) == pytest.approx(2.0, abs=1e-12)

    def test_noiseless_three_state(self):
        spec = make_spec(0.0)
        assert oracles.simulate_protocol(spec, 0.0, 0.0, 3) == pytest.approx(np.log2(3), abs=1e-12)

    def test_anticorrelated_stays_at_two_bits(self):
        spec = make_spec(-1.0)
        for t in (0.5, 1.5, 3.0):
            assert oracles.simulate_protocol(spec, t, t, 4) == pytest.approx(2.0, abs=1e-6)

    def test_full_dephasing_classical_limit(self):
        spec = make_spec(0.0)
        assert oracles.simulate_protocol(spec, 12.0, 12.0, 4) == pytest.approx(1.0, abs=1e-9)

    def test_four_state_dominates_three_state(self):
        spec = make_spec(-0.7)
        for t in np.linspace(0, 2.5, 8):
            mi4 = oracles.simulate_protocol(spec, t, t, 4)
            mi3 = oracles.simulate_protocol(spec, t, t, 3)
            assert mi4 >= mi3 - 1e-9

    def test_mutual_information_below_capacity(self):
        for k in (-1.0, -0.5, 0.0, 0.5):
            spec = make_spec(k)
            for t in np.linspace(0, 2.5, 8):
                c_a = sdc.marginal_kappa(spec, float(t))
                mi = oracles.simulate_protocol(spec, float(t), float(t), 4)
                assert mi <= sdc.capacity(c_a, k) + 1e-9

    def test_probability_rows_sum_to_one(self):
        spec = make_spec(0.4)
        for encoding in oracles.PAULI_4:
            probs = oracles.bell_probabilities(spec, 0.9, 0.7, encoding)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs >= 0)

    @settings(max_examples=300, deadline=None)
    @given(
        sigma=st.floats(1e-3, 5.0),
        correlation=st.floats(-1.0, 1.0),
        delta_n=st.floats(-5.0, 5.0),
        t_a=st.floats(0.0, 10.0),
        t_b=st.floats(0.0, 10.0),
        encoding=st.sampled_from(oracles.PAULI_4),
    )
    def test_closed_form_matches_brute_force_state(
        self, sigma, correlation, delta_n, t_a, t_b, encoding
    ):
        spec = CorrelatedSpectrum(sigma=sigma, correlation=correlation, delta_n=delta_n)
        probs = oracles.bell_probabilities(spec, t_a, t_b, encoding)
        oracle = brute_force_bell_probabilities(spec, t_a, t_b, encoding)
        assert np.max(np.abs(probs - oracle)) <= 1e-12
        assert np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_anticorrelated_rounding_keeps_probabilities_nonnegative(self):
        # t_a^2 + t_b^2 - 2 t_a t_b rounds to a negative number here (an f of 1 + 2^-52);
        # (t_a - t_b)^2 + 0 t_a t_b cannot be negative, so f <= 1 with no clamp.
        spec = make_spec(-1.0)
        t_a, t_b = 1.6487810630191784, 1.648781063019178
        assert sdc.joint_kappa(spec, t_a, t_b) <= 1.0
        for encoding in oracles.PAULI_4:
            assert np.all(oracles.bell_probabilities(spec, t_a, t_b, encoding) >= 0)

    def test_invariant_under_output_relabeling(self, rng):
        spec = make_spec(0.2)
        table = np.array(
            [oracles.bell_probabilities(spec, 0.8, 0.8, e) for e in oracles.PAULI_4]
        )
        base = oracles.mutual_information(table)
        for _ in range(5):
            perm = rng.permutation(4)
            assert oracles.mutual_information(table[:, perm]) == pytest.approx(base, abs=1e-12)

    def test_encoding_permutation_invariance(self, rng):
        spec = make_spec(0.2)
        table = np.array(
            [oracles.bell_probabilities(spec, 0.8, 0.8, e) for e in oracles.PAULI_4]
        )
        base = oracles.mutual_information(table)
        perm = rng.permutation(4)
        assert oracles.mutual_information(table[perm, :]) == pytest.approx(base, abs=1e-12)

    def test_alice_only_noise_decays(self):
        spec = make_spec(-1.0)
        values = [oracles.simulate_protocol(spec, float(t), 0.0, 4) for t in np.linspace(0, 3, 10)]
        assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]

    def test_invalid_n_states(self):
        with pytest.raises(ValueError):
            oracles.simulate_protocol(make_spec(0.0), 0.0, 0.0, 5)


class TestFig4Curve:
    def test_anticorrelated_curve_flat_at_two(self):
        spec = make_spec(-1.0)
        mi_4state = sdc.fig4_columns(spec, np.linspace(0, 2.5, 12))[1]
        for mi in mi_4state:
            assert mi == pytest.approx(2.0, abs=1e-6)

    def test_pairs_concurrence_with_mi(self):
        spec = make_spec(0.0)
        t_grid = np.linspace(0, 2, 5)
        c_a_column = sdc.fig4_columns(spec, t_grid)[0]
        for c_a, t in zip(c_a_column, t_grid):
            assert c_a == pytest.approx(sdc.marginal_kappa(spec, float(t)), abs=1e-12)


class TestValidation:
    def test_spectrum_parameters(self):
        with pytest.raises(ValueError):
            CorrelatedSpectrum(sigma=0.0, correlation=0.0, delta_n=1.0)
        with pytest.raises(ValueError):
            CorrelatedSpectrum(sigma=1.0, correlation=1.5, delta_n=1.0)

    def test_negative_times_rejected(self):
        spec = make_spec(0.0)
        with pytest.raises(ValueError):
            sdc.joint_kappa(spec, -1.0, 0.0)
        with pytest.raises(ValueError):
            sdc.marginal_kappa(spec, -1.0)


spectrum_strategy = st.builds(
    CorrelatedSpectrum,
    sigma=st.floats(1e-3, 5.0),
    correlation=st.floats(-1.0, 1.0),
    delta_n=st.floats(-5.0, 5.0).filter(lambda x: x != 0),
)
time_pairs = st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)), min_size=1, max_size=6)


class TestJointKappaExact:
    """joint_kappa against oracles.exact_joint_kappa, where its textbook form cancels."""

    @settings(max_examples=200, deadline=None)
    @given(correlation=st.floats(-1.0, -1 + 1e-6), t=st.floats(0.0, 1e5))
    @example(correlation=-0.9999999999, t=1e5)  # TestExactCells::test_fig4_near_anticorrelation
    def test_within_ulps_of_exact_near_anticorrelation(self, correlation, t):
        # sigma = dn = 1 and t_a = t_b = t: the exponent u = (1 + K) t^2 takes two roundings
        # (1 + K is exact), which exp scales by u, and exp rounds once more: at most 2 + 3u ulp.
        # t^2 + t^2 + 2K t^2 misses by up to 1e10 ulp here.
        u = float((1 + Fraction(correlation)) * Fraction(t) ** 2)
        spec = make_spec(correlation)
        got = sdc.joint_kappa(spec, t, t)
        assert oracles.ulps(got, oracles.exact_joint_kappa(spec, t, t)) <= 2 + 3 * u

    @settings(max_examples=300, deadline=None)
    @given(spec=spectrum_strategy, t_a=st.floats(0.0, 1e100), t_b=st.floats(0.0, 1e100))
    @example(spec=make_spec(-1.0), t_a=1.6487810630191784, t_b=1.648781063019178)
    def test_never_above_one(self, spec, t_a, t_b):
        # Every term of (t_a - t_b)^2 + 2(1 + K) t_a t_b is >= 0 (t below 1e100 keeps 2(1 + K) t_a
        # finite, so no inf meets a 0); the example is where t_a^2 + t_b^2 - 2 t_a t_b rounds < 0.
        assert 0 <= sdc.joint_kappa(spec, t_a, t_b) <= 1


class TestArrayPath:
    """The broadcast path against per-element oracles that share none of its code."""

    @settings(max_examples=200, deadline=None)
    @given(spec=spectrum_strategy, times=time_pairs, n_states=st.sampled_from([3, 4]),
           bob=st.sampled_from(["array", "equal", "zero", "outer"]))
    def test_simulate_protocol_matches_brute_force(self, spec, times, n_states, bob):
        t_a, t_b = np.array([a for a, _ in times]), np.array([b for _, b in times])
        t_a, t_b = {"array": (t_a, t_b), "equal": (t_a, t_a), "zero": (t_a, 0.0),
                    "outer": (t_a[:, None], t_b[None, :])}[bob]
        mi = oracles.simulate_protocol(spec, t_a, t_b, n_states)
        encodings = oracles.PAULI_4 if n_states == 4 else oracles.PAULI_3
        oracle = [plain_mutual_information(
            [brute_force_bell_probabilities(spec, a, b, e).tolist() for e in encodings])
            for a, b in np.broadcast(t_a, t_b)]
        assert mi.shape == np.broadcast(t_a, t_b).shape
        assert np.max(np.abs(mi.ravel() - oracle)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(spec=spectrum_strategy, times=time_pairs)
    @example(spec=make_spec(-0.99609375, sigma=2.0, delta_n=4.0), times=[(5.0, 5.0)])
    def test_invariants(self, spec, times):
        t = np.array([a for a, _ in times])
        c_a = sdc.marginal_kappa(spec, t)
        assert np.all((0 <= c_a) & (c_a <= 1))
        mi4 = oracles.simulate_protocol(spec, t, t, 4)
        mi3 = oracles.simulate_protocol(spec, t, t, 3)
        assert np.all((0 <= mi4) & (mi4 <= 2 + 1e-12))
        assert np.all((0 <= mi3) & (mi3 <= np.log2(3) + 1e-12))
        assert np.all(mi4 <= capacity_at(spec, t) + 1e-9)
        # c_a = exp(-(dn sigma t)^2/2) underflows (to a subnormal with few bits, then to 0)
        # before c_a^{2(1+K)} does when K is near -1, so the c_a form holds where c_a is normal.
        normal = c_a >= np.finfo(float).tiny
        assert np.all(mi4[normal] <= sdc.capacity(c_a[normal], spec.correlation) + 1e-9)

    def test_capacity_at_survives_c_a_underflow(self):
        spec, t = make_spec(-0.99609375, sigma=2.0, delta_n=4.0), np.array([1.0, 4.0, 5.0])
        c_a = sdc.marginal_kappa(spec, t)
        assert c_a[-1] == 0.0 and sdc.capacity(c_a[-1], spec.correlation) == 1.0
        mi4 = oracles.simulate_protocol(spec, t, t, 4)
        assert np.max(np.abs(capacity_at(spec, t) - mi4)) <= 1e-12
        assert np.max(np.abs(capacity_at(spec, t[:2]) - sdc.capacity(c_a[:2], -0.99609375))) <= 1e-12
        assert capacity_at(spec, 5.0) > 1 + 2e-6

    @pytest.mark.parametrize("correlation", [-1.0, math.nextafter(-1.0, 0), -1 + 2.0**-40])
    def test_capacity_at_bounded_near_perfect_anticorrelation(self, correlation):
        t = np.linspace(0, 10, 1001)
        cap = capacity_at(make_spec(correlation), t)
        assert np.all((1 <= cap) & (cap <= 2))
        assert type(capacity_at(make_spec(correlation), 0.7)) is float

    def test_capacity_at_is_nan_where_joint_kappa_is(self):
        # At K = -1 the cross term is left out and the difference term is (x - x)^2 / 2 = 0,
        # x = dn (sigma t): two bits exactly for any finite t, also where x^2 or x overflows.
        for spec in (make_spec(-1.0), make_spec(-1.0, delta_n=1e200)):
            assert sdc.joint_kappa(spec, 1e200, 1e200) == 1.0
            assert oracles.simulate_protocol(spec, 1e200, 1e200, 4) == 2.0
            with np.errstate(all="ignore"):  # the marginal c_a's x^2 or x overflows
                assert capacity_at(spec, 1e200) == 2.0
        # A nan coherence gives a nan capacity, which the CLI's output check refuses.
        spec = make_spec(0.5)
        assert math.isnan(sdc.joint_kappa(spec, math.nan, math.nan))
        assert math.isnan(capacity_at(spec, math.nan))
        assert math.isnan(oracles.simulate_protocol(spec, math.nan, math.nan, 4))

    def test_capacity_array_matches_independent_entropy(self):
        c_a = np.linspace(0, 1, 11)
        for k in (-1.0, -0.5, 0.0, 0.7):
            x = [(1 + c ** (2 * (1 + k))) / 2 for c in c_a.tolist()]
            h = [0.0 if v in (0.0, 1.0) else -v * math.log2(v) - (1 - v) * math.log2(1 - v)
                 for v in x]
            assert np.max(np.abs(sdc.capacity(c_a, k) - (2 - np.array(h)))) <= 1e-12

    def test_invalid_array_entries_rejected(self):
        spec = make_spec(0.0)
        with pytest.raises(ValueError):
            sdc.joint_kappa(spec, np.array([0.5, -1e-9]), 0.0)
        with pytest.raises(ValueError):
            sdc.marginal_kappa(spec, np.array([[0.0], [-2.0]]))
        with pytest.raises(ValueError):
            sdc.capacity(np.array([0.5, 1.5]), 0.0)


class TestScalarApi:
    @pytest.mark.parametrize("t", [0.4, np.float64(0.4), 0])
    def test_scalar_calls_return_python_floats(self, t):
        spec = make_spec(-0.3)
        values = [
            sdc.joint_kappa(spec, t, 0.2), sdc.marginal_kappa(spec, t),
            sdc.capacity(sdc.marginal_kappa(spec, t), -0.3),
            oracles.mutual_information(np.eye(4)),
            oracles.simulate_protocol(spec, t, t, 4), oracles.simulate_protocol(spec, t, 0.0, 3),
            *sdc.fig4_columns(spec, t),
        ]
        assert all(type(v) is float for v in values)
        assert oracles.bell_probabilities(spec, t, 0.2, "X").shape == (4,)
