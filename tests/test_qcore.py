import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nmlab.qcore import PauliChannel, SingularChannelError

import oracles
from oracles import PSD_TOL, KrausWeights
from conftest import random_density

PLUS = oracles.pure_state(np.array([1, 1]) / np.sqrt(2))
MINUS = oracles.pure_state(np.array([1, -1]) / np.sqrt(2))
KET0 = oracles.pure_state(np.array([1, 0]))
KET1 = oracles.pure_state(np.array([0, 1]))


class TestTraceDistance:
    def test_identical_states(self):
        assert oracles.trace_distance(PLUS, PLUS) == 0

    def test_orthogonal_pure_states(self):
        assert oracles.trace_distance(KET0, KET1) == pytest.approx(1.0, abs=1e-14)

    def test_dephased_plus_minus_pair(self):
        # Dephasing with real kappa leaves D(|+>, |->) = kappa.
        kappa = 0.37
        rho_p, rho_m = PLUS.copy(), MINUS.copy()
        for rho in (rho_p, rho_m):
            rho[0, 1] *= kappa
            rho[1, 0] *= kappa
        assert oracles.trace_distance(rho_p, rho_m) == pytest.approx(0.37, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            oracles.trace_distance(KET0, np.eye(4) / 4)

    def test_metric_axioms_on_random_pairs(self, rng):
        for _ in range(200):
            a, b, c = (random_density(rng, 2) for _ in range(3))
            dab = oracles.trace_distance(a, b)
            assert dab >= 0
            assert dab == pytest.approx(oracles.trace_distance(b, a), abs=1e-12)
            assert dab <= oracles.trace_distance(a, c) + oracles.trace_distance(c, b) + 1e-10


def bell_diagonal(weights):
    names = ("phi_plus", "psi_plus", "psi_minus", "phi_minus")
    return sum(w * oracles.bell_state(n) for w, n in zip(weights, names))


class TestConcurrence:
    def test_bell_state(self):
        assert oracles.concurrence(oracles.bell_state("phi_plus")) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert oracles.concurrence(np.eye(4) / 4) == 0

    def test_rank_two_bell_mixture(self):
        rho = bell_diagonal([0.5, 0.5, 0.0, 0.0])
        assert oracles.concurrence(rho) == pytest.approx(0.0, abs=1e-10)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            oracles.concurrence(KET0)

    def test_bell_diagonal_shortcut(self, rng):
        # For Bell-diagonal states C = max(0, 2 q_max - 1).
        for _ in range(1000):
            q = rng.dirichlet(np.ones(4))
            rho = bell_diagonal(q)
            expected = max(0.0, 2 * np.max(q) - 1)
            assert oracles.concurrence(rho) == pytest.approx(expected, abs=1e-10)


cp_weights = st.tuples(*[st.floats(0, 1) for _ in range(4)]).filter(lambda q: sum(q) > 1e-9)


class TestBellConcurrence:
    @settings(max_examples=300, deadline=None)
    @given(cp_weights)
    def test_matches_wootters_on_evolved_state(self, raw):
        q = np.array(raw) / sum(raw)
        ch = oracles.channel_from_weights(KrausWeights(*q))
        c = oracles.bell_concurrence(ch)
        rho = oracles.apply_channel_one_sided(ch, oracles.bell_state("phi_plus"))
        assert abs(c - oracles.concurrence(rho)) <= 1e-12
        assert 0 <= c <= 1

    def test_dephasing_keeps_small_kappa_exact(self):
        for kappa in (1e-3, 3.9e-15, 1e-300):
            assert oracles.bell_concurrence(PauliChannel(kappa, kappa, 1.0)) == kappa

    def test_returns_python_float(self):
        ch = PauliChannel(*np.array([0.8, 0.6, 0.8]))
        assert type(oracles.bell_concurrence(ch)) is float


class TestApplyChannel:
    def test_identity_channel(self, rng):
        rho = random_density(rng, 2)
        assert np.allclose(oracles.apply_channel(PauliChannel.identity(), rho), rho)

    def test_full_depolarization(self, rng):
        rho = random_density(rng, 2)
        out = oracles.apply_channel(PauliChannel(0, 0, 0), rho)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_bloch_scaling(self):
        out = oracles.apply_channel(PauliChannel(0.8, 0.6, 0.8), PLUS)
        assert np.allclose(oracles.bloch_vector(out), [0.8, 0, 0], atol=1e-14)

    def test_trace_and_hermiticity_preserved_even_non_cp(self, rng):
        ch = PauliChannel(1.2, -0.9, 0.4)  # not CP, not even positive
        for _ in range(20):
            rho = random_density(rng, 2)
            out = oracles.apply_channel(ch, rho)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_one_sided_identity(self):
        bell = oracles.bell_state("phi_plus")
        assert np.allclose(oracles.apply_channel_one_sided(PauliChannel.identity(), bell), bell)

    def test_one_sided_sign_channel_maps_phi_plus_to_phi_minus(self):
        out = oracles.apply_channel_one_sided(
            PauliChannel(-1, -1, 1), oracles.bell_state("phi_plus")
        )
        assert np.allclose(out, oracles.bell_state("phi_minus"), atol=1e-14)

    def test_one_sided_first_collision(self):
        # eps = 0.1 channel on a Bell state: Bell-diagonal (0.8, 0.1, 0, 0.1).
        ch = PauliChannel(0.8, 0.6, 0.8)
        out = oracles.apply_channel_one_sided(ch, oracles.bell_state("phi_plus"))
        expected = (
            0.8 * oracles.bell_state("phi_plus")
            + 0.1 * oracles.bell_state("psi_plus")
            + 0.1 * oracles.bell_state("phi_minus")
        )
        assert np.allclose(out, expected, atol=1e-14)
        assert oracles.concurrence(out) == pytest.approx(0.6, abs=1e-12)

    def test_one_sided_wrong_dimension(self):
        with pytest.raises(ValueError):
            oracles.apply_channel_one_sided(PauliChannel.identity(), KET0)


class TestKrausWeights:
    def test_identity(self):
        assert oracles.kraus_weights(PauliChannel(1, 1, 1)) == KrausWeights(1, 0, 0, 0)

    def test_depolarizing(self):
        w = oracles.kraus_weights(PauliChannel(0, 0, 0))
        assert w == KrausWeights(0.25, 0.25, 0.25, 0.25)

    def test_negative_witness(self):
        w = oracles.kraus_weights(PauliChannel(0.85, 0.6, 0.85))
        assert w.q_y == pytest.approx(-0.025, abs=1e-14)
        assert w.q_i > 0 and w.q_x > 0 and w.q_z > 0

    def test_round_trip(self, rng):
        for _ in range(200):
            ch = PauliChannel(*rng.uniform(-1.5, 1.5, size=3))
            back = oracles.channel_from_weights(oracles.kraus_weights(ch))
            assert np.allclose(ch.as_tuple(), back.as_tuple(), atol=1e-12)

    def test_weights_sum_to_one(self, rng):
        for _ in range(50):
            ch = PauliChannel(*rng.uniform(-2, 2, size=3))
            assert sum(oracles.kraus_weights(ch)) == pytest.approx(1.0, abs=1e-12)


class TestPredicates:
    def test_identity_is_cp_and_positive(self):
        ch = PauliChannel.identity()
        assert oracles.is_cp(ch)
        assert oracles.is_positive(ch)

    def test_weakly_nonmarkovian_intermediate(self):
        ch = PauliChannel(0.85, 0.6, 0.85)
        assert not oracles.is_cp(ch)
        assert oracles.is_positive(ch)

    def test_depolarizing_family(self):
        assert oracles.is_cp(PauliChannel(0.5, 0.5, 0.5))
        assert oracles.is_positive(PauliChannel(0.5, 0.5, 0.5))

    def test_positivity_broken_above_transition(self):
        lam = ((1 - 2 * 0.26) ** 2 + 4 * 0.26**2) / (1 - 2 * 0.26)
        assert lam == pytest.approx(1.0433333333333334, abs=1e-12)
        assert not oracles.is_positive(PauliChannel(lam, 1 - 4 * 0.26, lam))

    @settings(max_examples=200, deadline=None)
    @given(cp_weights)
    def test_cp_channels_pass_both_predicates(self, raw):
        q = np.array(raw) / sum(raw)
        ch = oracles.channel_from_weights(KrausWeights(*q))
        assert oracles.is_cp(ch)
        assert oracles.is_positive(ch)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.floats(-1.5, 1.5) for _ in range(3)]))
    def test_is_positive_matches_sphere_oracle(self, lam):
        # Each axis has a grid point with |r_i| >= 0.995, so the grid finds every
        # violation with max |lam_i| >= 1.01; below that one can fall between points.
        assume(not 1 + 1e-10 < max(map(abs, lam)) < 1.01)
        ch = PauliChannel(*lam)
        assert oracles.is_positive(ch) == sphere_is_positive(ch, PSD_TOL)


def fibonacci_sphere(n):
    """Deterministic quasi-uniform grid of n unit vectors."""
    k = np.arange(n)
    z = 1 - (2 * k + 1) / n
    phi = np.pi * (3 - np.sqrt(5)) * k
    r = np.sqrt(np.maximum(0.0, 1 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def sphere_is_positive(ch, tol, grid_points=200):
    """Oracle: no pure input state on a sphere grid gets a negative output eigenvalue.

    An input with Bloch vector r leaves with lam * r and output eigenvalues
    (1 +- |lam * r|)/2.
    """
    out = np.linalg.norm(fibonacci_sphere(grid_points) * np.array(ch.as_tuple()), axis=1)
    return bool(np.all((1 - out) / 2 >= -tol))


class TestDivision:
    def test_self_division(self):
        ch = PauliChannel(0.3, -0.2, 0.7)
        assert oracles.divide_channels(ch, ch).as_tuple() == (1, 1, 1)

    def test_componentwise_quotient(self):
        out = oracles.divide_channels(PauliChannel(0.68, 0.36, 0.68), PauliChannel(0.8, 0.6, 0.8))
        assert np.allclose(out.as_tuple(), (0.85, 0.6, 0.85), atol=1e-12)

    def test_singular_divisor(self):
        with pytest.raises(SingularChannelError):
            oracles.divide_channels(PauliChannel.identity(), PauliChannel(0.5, 0, 0.5))

    def test_divide_undoes_compose(self, rng):
        for _ in range(100):
            a = PauliChannel(*rng.uniform(-1, 1, size=3))
            b = PauliChannel(*rng.uniform(0.1, 1, size=3))
            total = oracles.compose_channels(a, b)
            back = oracles.divide_channels(total, b)
            assert np.allclose(back.as_tuple(), a.as_tuple(), atol=1e-12)

    def test_composition_reproduces_later_exactly(self):
        later = PauliChannel(0.68, 0.36, 0.68)
        earlier = PauliChannel(0.8, 0.6, 0.8)
        mid = oracles.divide_channels(later, earlier)
        assert np.allclose(
            oracles.compose_channels(mid, earlier).as_tuple(), later.as_tuple(), atol=1e-15
        )


class TestValidation:
    def test_valid_state_passes(self, rng):
        oracles.validate_density_matrix(random_density(rng, 2))

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            oracles.validate_density_matrix(bad)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError):
            oracles.validate_density_matrix(np.eye(2, dtype=complex))

    def test_bloch_round_trip(self, rng):
        r = rng.uniform(-0.5, 0.5, size=3)
        assert np.allclose(oracles.bloch_vector(oracles.density_from_bloch(r)), r, atol=1e-14)

    def test_overlong_bloch_vector_rejected(self):
        with pytest.raises(ValueError):
            oracles.density_from_bloch([1, 1, 1])

    def test_bloch_norm_edge_is_psd_tol(self):
        # |r| up to 1 + PSD_TOL is a state: its smallest eigenvalue (1 - |r|)/2 is >= -PSD_TOL/2.
        rho = oracles.density_from_bloch([0.0, 0.0, 1 + PSD_TOL / 2])
        oracles.validate_density_matrix(rho)
        with pytest.raises(ValueError, match="exceeds 1"):
            oracles.density_from_bloch([0.0, 0.0, 1 + 2 * PSD_TOL])


REJECTIONS = [
    pytest.param(lambda: oracles.validate_density_matrix(np.eye(3) / 3), "2x2 or 4x4",
                 id="validate_wrong_shape"),
    pytest.param(lambda: oracles.validate_density_matrix(np.diag([1.5, -0.5])),
                 "not positive semidefinite", id="validate_not_psd"),
    pytest.param(lambda: oracles.bell_state("phi_zero"), "unknown Bell state",
                 id="bell_state_unknown_name"),
    pytest.param(lambda: oracles.apply_channel(PauliChannel(0.5, 0.5, 1.0), oracles.bell_state()),
                 "needs a 2x2 state", id="apply_channel_4x4_state"),
]


@pytest.mark.parametrize("call, message", REJECTIONS)
def test_rejected_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
