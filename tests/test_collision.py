import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmlab import collision, qcore
from nmlab.collision import Classification
from nmlab.qcore import SingularChannelError

import oracles
from conftest import random_density
from oracles import IDENTITY, SIGMA_X, SIGMA_Z

OPS = {"0": IDENTITY, "x": SIGMA_X, "z": SIGMA_Z}


def brute_force_two_collision(eps, rho):
    """Direct evaluation of the correlated two-collision map by operator products."""
    out = np.zeros((2, 2), dtype=complex)
    for (i, j), p in oracles.joint_probabilities(eps).items():
        oi, oj = OPS[i], OPS[j]
        out += p * (oj @ oi @ rho @ oi @ oj)
    return out


class TestJointProbabilities:
    def test_eps_zero_is_deterministic_identity(self):
        p = oracles.joint_probabilities(0.0)
        assert p[("0", "0")] == 1
        assert all(v == 0 for k, v in p.items() if k != ("0", "0"))

    def test_reference_values_at_eps_01(self):
        p = oracles.joint_probabilities(0.1)
        assert p[("0", "0")] == pytest.approx(0.64)
        for key in (("0", "x"), ("0", "z"), ("x", "0"), ("z", "0")):
            assert p[key] == pytest.approx(0.08)
        assert p[("x", "x")] == pytest.approx(0.02)
        assert p[("z", "z")] == pytest.approx(0.02)
        assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)

    def test_eps_half_fully_correlated(self):
        p = oracles.joint_probabilities(0.5)
        assert p[("x", "x")] == pytest.approx(0.5)
        assert p[("z", "z")] == pytest.approx(0.5)
        assert p[("0", "0")] == 0

    def test_cross_terms_always_zero(self):
        for eps in np.linspace(0, 0.5, 11):
            p = oracles.joint_probabilities(eps)
            assert p[("x", "z")] == 0 and p[("z", "x")] == 0

    def test_row_sums_reproduce_marginals(self):
        for eps in (0.05, 0.2, 0.45):
            p = oracles.joint_probabilities(eps)
            for op, marginal in (("0", 1 - 2 * eps), ("x", eps), ("z", eps)):
                row = sum(v for (i, _), v in p.items() if i == op)
                assert row == pytest.approx(marginal, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            oracles.joint_probabilities(0.6)
        with pytest.raises(ValueError):
            oracles.joint_probabilities(-0.1)


class TestChannels:
    def test_first_collision_examples(self):
        assert oracles.first_collision_channel(0.0).as_tuple() == (1, 1, 1)
        assert np.allclose(oracles.first_collision_channel(0.1).as_tuple(), (0.8, 0.6, 0.8))
        assert np.allclose(oracles.first_collision_channel(0.25).as_tuple(), (0.5, 0.0, 0.5))

    def test_two_collision_examples(self):
        assert oracles.two_collision_channel(0.0).as_tuple() == (1, 1, 1)
        assert np.allclose(oracles.two_collision_channel(0.1).as_tuple(), (0.68, 0.36, 0.68))
        # sigma_x sigma_x = sigma_z sigma_z = identity: full revival.
        assert np.allclose(oracles.two_collision_channel(0.5).as_tuple(), (1, 1, 1))

    def test_two_collision_matches_operator_products(self, rng):
        for eps in (0.07, 0.25, 0.42):
            ch = oracles.two_collision_channel(eps)
            for _ in range(20):
                rho = random_density(rng, 2)
                assert np.allclose(
                    oracles.apply_channel(ch, rho), brute_force_two_collision(eps, rho), atol=1e-12
                )

    def test_no_sigma_y_component(self):
        for eps in np.linspace(0, 0.5, 26):
            w = qcore.kraus_weights(oracles.two_collision_channel(eps))
            assert w.q_y == pytest.approx(0.0, abs=1e-14)

    def test_intermediate_examples(self):
        assert np.allclose(collision.intermediate_channel(0.1).as_tuple(), (0.85, 0.6, 0.85))
        mid = collision.intermediate_channel(0.26)
        assert mid.lam_x == pytest.approx(1.0433333333333334, abs=1e-9)
        assert mid.lam_z == pytest.approx(1.0433333333333334, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(eps=st.floats(0.5 - 4e-4, 0.5 - 1e-9))
    @example(eps=0.4999923596)
    def test_intermediate_exact_near_half(self, eps):
        # 1 - 2 eps is small here, so any rounding of lam_x or lam_z is magnified.
        mid = collision.intermediate_channel(eps)
        want = ((1 - 2 * eps) ** 2 + 4 * eps**2) / (1 - 2 * eps)
        assert mid.lam_x == mid.lam_z
        assert abs(mid.lam_x - want) <= 1e-10
        assert collision.classify(eps).max_abs_bloch_eigenvalue == mid.lam_x

    def test_intermediate_singular_at_quarter(self):
        with pytest.raises(SingularChannelError):
            collision.intermediate_channel(0.25)

    @pytest.mark.parametrize("eps", [0.25 - 5e-10, 0.25 + 9e-10, 0.5, 0.5 - 1e-12, 0.5 - 1e-10,
                                     0.5 - 5e-10])
    def test_intermediate_singular_on_classify_edges(self, eps):
        with pytest.raises(SingularChannelError):
            collision.intermediate_channel(eps)

    @settings(max_examples=300, deadline=None)
    @given(eps=st.one_of(st.floats(0.0, 0.5), st.floats(0.25 - 4e-9, 0.25 + 4e-9),
                         st.floats(0.5 - 4e-4, 0.5)))
    @example(eps=0.4999923596)
    @example(eps=0.5 - 2e-9)
    @example(eps=0.25 + 2e-9)
    def test_intermediate_is_the_channel_quotient(self, eps):
        # Off both edges the closed form is the channel path's quotient, bit for bit.
        if abs(eps - 0.25) <= 1e-9 or abs(eps - 0.5) <= 1e-9:
            with pytest.raises(SingularChannelError):
                collision.intermediate_channel(eps)
            return
        want = oracles.divide_channels(oracles.two_collision_channel(eps),
                                       oracles.first_collision_channel(eps))
        assert collision.intermediate_channel(eps).as_tuple() == want.as_tuple()


class TestClassification:
    def test_markovian_at_zero(self):
        assert collision.classify(0.0).classification is Classification.MARKOVIAN

    def test_weak_at_eps_01(self):
        verdict = collision.classify(0.1)
        assert verdict.classification is Classification.WEAK_NM
        assert verdict.min_choi_eigenvalue == pytest.approx(-0.025, abs=1e-12)
        assert verdict.max_abs_bloch_eigenvalue <= 1

    def test_strong_at_eps_03(self):
        verdict = collision.classify(0.3)
        assert verdict.classification is Classification.STRONG_NM
        assert verdict.max_abs_bloch_eigenvalue > 1

    def test_singular_at_quarter(self):
        assert collision.classify(0.25).classification is Classification.SINGULAR

    def test_around_transition(self):
        assert collision.classify(0.25 - 1e-3).classification is Classification.WEAK_NM
        assert collision.classify(0.25 + 1e-3).classification is Classification.STRONG_NM

    def test_never_cp_for_positive_eps(self):
        # The qubit always experiences non-Markovian evolution in this family.
        for eps in np.arange(0.001, 0.5001, 0.001):
            if abs(eps - 0.25) < 1e-9:
                continue
            verdict = collision.classify(float(min(eps, 0.5)))
            assert verdict.classification in (Classification.WEAK_NM, Classification.STRONG_NM)

    def test_verdict_invariants(self):
        for eps in np.arange(0.01, 0.5, 0.01):
            if abs(eps - 0.25) < 1e-9:
                continue
            v = collision.classify(float(eps))
            if v.classification is Classification.STRONG_NM:
                assert v.max_abs_bloch_eigenvalue > 1
            if v.classification is Classification.WEAK_NM:
                assert v.min_choi_eigenvalue < 0
                assert v.max_abs_bloch_eigenvalue <= 1


class TestTransition:
    def test_transition_location(self):
        # The weak -> strong transition is the singular point SINGULAR_EPS = 1/4: weak just
        # below its tolerance band, singular inside it and strong just above it.
        eps, tol = collision.SINGULAR_EPS, collision.SINGULAR_EPS_TOL
        assert eps == 0.25
        labels = collision.classify(eps + tol * np.array([-2, -0.5, 0.5, 2])).classification
        assert labels.tolist() == ["weak", "singular", "singular", "strong"]

    def test_scan_confirms_threshold(self):
        for eps in np.arange(0.26, 0.5, 0.01):
            assert collision.classify(float(eps)).classification is Classification.STRONG_NM
        for eps in np.arange(0.01, 0.25, 0.01):
            assert collision.classify(float(eps)).classification is Classification.WEAK_NM


class TestEntanglement:
    def test_no_noise(self):
        assert collision.entanglement_dynamics(0.0) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_full_revival_at_half(self):
        c1, c2 = collision.entanglement_dynamics(0.5)
        assert c1 == pytest.approx(0.0, abs=1e-12)
        assert c2 == pytest.approx(1.0, abs=1e-12)

    def test_closed_forms(self):
        for eps in np.linspace(0, 0.5, 21):
            c1, c2 = collision.entanglement_dynamics(float(eps))
            assert c1 == pytest.approx(max(0.0, 1 - 4 * eps), abs=1e-12)
            assert c2 == pytest.approx((1 - 4 * eps) ** 2, abs=1e-12)

    def test_difference_formula_below_transition(self):
        for eps in np.linspace(0, 0.25, 26):
            c1, c2 = collision.entanglement_dynamics(float(eps))
            assert c2 - c1 == pytest.approx(4 * eps * (4 * eps - 1), abs=1e-12)
            assert c2 - c1 <= 1e-12

    def test_witness_coincides_with_strong_regime(self):
        for eps in np.arange(0.005, 0.5001, 0.005):
            eps = float(min(eps, 0.5))
            if abs(eps - 0.25) < 1e-9:
                continue
            c1, c2 = collision.entanglement_dynamics(eps)
            strong = collision.classify(eps).classification is Classification.STRONG_NM
            assert (c2 - c1 > 1e-12) == strong


class TestEntanglementArray:
    """The broadcast closed forms against the channel path, used here only as an oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 0.5), st.sampled_from([0.0, 0.25, 0.5])),
                    min_size=1, max_size=30))
    def test_matches_channel_oracle(self, eps):
        c1, c2 = collision.entanglement_dynamics(np.array(eps))
        oracle1 = [oracles.bell_concurrence(oracles.first_collision_channel(e)) for e in eps]
        oracle2 = [oracles.bell_concurrence(oracles.two_collision_channel(e)) for e in eps]
        assert np.max(np.abs(c1 - oracle1)) <= 1e-15
        assert np.max(np.abs(c2 - oracle2)) <= 1e-15
        assert np.all((0 <= c1) & (c1 <= 1)) and np.all((0 <= c2) & (c2 <= 1))

    def test_shape_and_scalar_types(self):
        eps = np.linspace(0, 0.5, 6).reshape(2, 3)
        c1, c2 = collision.entanglement_dynamics(eps)
        assert c1.shape == c2.shape == (2, 3)
        for value in (0.1, np.float64(0.3), 0):
            assert all(type(c) is float for c in collision.entanglement_dynamics(value))

    def test_scalar_matches_array_bit_for_bit(self):
        # A numpy float64 scalar's x**2 goes through pow; the array square is x*x.
        eps = np.random.default_rng(5).uniform(0, 0.5, 2000)
        c1, c2 = collision.entanglement_dynamics(eps)
        scalar = [collision.entanglement_dynamics(e) for e in eps.tolist()]
        assert scalar == list(zip(c1.tolist(), c2.tolist()))

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError):
            collision.entanglement_dynamics(np.array([0.1, 0.6]))
        with pytest.raises(ValueError):
            collision.entanglement_dynamics(np.array([-1e-12, 0.2]))


def classify_oracle(eps):
    """Per-eps (label, min Choi, max |lam|) from the channel path and the edge rules."""
    if eps == 0:
        return "markovian", 0.0, 1.0
    if abs(eps - 0.25) <= 1e-9:
        return "singular", float("nan"), float("nan")
    if abs(eps - 0.5) <= 1e-9:
        return "strong", float("-inf"), float("inf")
    mid = oracles.divide_channels(oracles.two_collision_channel(eps),
                                  oracles.first_collision_channel(eps))
    label = ("strong" if not oracles.is_positive(mid) else
             "weak" if not oracles.is_cp(mid) else "markovian")
    return label, min(qcore.kraus_weights(mid)), max(abs(l) for l in mid.as_tuple())


eps_lists = st.lists(
    st.one_of(st.floats(0.0, 0.5), st.floats(0.25 - 2e-9, 0.25 + 2e-9), st.floats(0.5 - 4e-4, 0.5),
              st.sampled_from([0.0, 0.25, 0.5])),
    min_size=1, max_size=40)


class TestClassifyArray:
    """The broadcast closed form against the per-eps channel path, used here only as an oracle."""

    @settings(max_examples=300, deadline=None)
    @given(eps_lists)
    @example([0.0, 0.25, 0.5, 0.25 - 1e-9, 0.25 + 1e-9, 0.5 - 1e-9, 0.4999923596])
    # Python's x**2 (libm pow) and x*x differ in the last bit of lam_x or lam_y here.
    @example([0.4442961860162883, 0.0018158134732790265, 0.008816523639126883,
              0.018471998855158156, 0.1291507930195051, 0.14298371622734507])
    def test_matches_channel_oracle(self, eps):
        verdict = collision.classify(np.array(eps))
        labels, min_choi, max_bloch = zip(*(classify_oracle(e) for e in eps))
        assert verdict.classification.tolist() == list(labels)
        assert np.array_equal(verdict.min_choi_eigenvalue, min_choi, equal_nan=True)
        assert np.array_equal(verdict.max_abs_bloch_eigenvalue, max_bloch, equal_nan=True)
        for e, label in zip(eps, labels):
            assert collision.classify(e).classification is Classification(label)

    def test_matches_channel_oracle_on_uniform_draws(self):
        # Uniform floats, which the hypothesis strategy rarely draws, exercise last-bit rounding.
        eps = np.random.default_rng(11).uniform(0, 0.5, 5000)
        verdict = collision.classify(eps)
        labels, min_choi, max_bloch = zip(*(classify_oracle(e) for e in eps.tolist()))
        assert verdict.classification.tolist() == list(labels)
        assert np.array_equal(verdict.min_choi_eigenvalue, min_choi)
        assert np.array_equal(verdict.max_abs_bloch_eigenvalue, max_bloch)

    def test_shape_and_scalar_types(self):
        eps = np.linspace(0, 0.5, 6).reshape(2, 3)
        verdict = collision.classify(eps)
        assert verdict.classification.shape == (2, 3)
        assert verdict.min_choi_eigenvalue.shape == verdict.max_abs_bloch_eigenvalue.shape == (2, 3)
        for value in (0.1, np.float64(0.3), 0, 0.25, 0.5, np.array(0.2)):
            verdict = collision.classify(value)
            assert isinstance(verdict.classification, Classification)
            assert type(verdict.min_choi_eigenvalue) is float
            assert type(verdict.max_abs_bloch_eigenvalue) is float

    def test_edges_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = collision.classify(np.array([0.0, 0.25, 0.5]))
        assert verdict.classification.tolist() == ["markovian", "singular", "strong"]

    def test_out_of_range_entry_rejected(self):
        for bad in ([0.1, 0.6], [-1e-12, 0.2], [0.1, float("nan")]):
            with pytest.raises(ValueError):
                collision.classify(np.array(bad))
