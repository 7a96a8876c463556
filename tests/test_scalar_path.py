"""Each closed form evaluated at one time equals its entry on a time array, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmlab import nvmodel, sdc, spectra


def closed_forms(rate, width, shape, phi, correlation, wait):
    """name -> (closed form of one time or a time array, the type of its scalar result)."""
    nv = nvmodel.NVParams(coupling=rate, envelope_time=width, envelope_shape=shape)
    dg = spectra.DoubleGaussianSpec(a_theta=phi, sigma=1 / width, delta_omega=rate, delta_n=1.0)
    cs = sdc.CorrelatedSpectrum(sigma=1 / width, correlation=correlation, delta_n=1.0)
    return {
        "envelope": (lambda x: nvmodel.envelope(nv, x), float),
        "nv_kappa": (lambda x: nvmodel.nv_kappa(nv, phi, x), complex),
        "bloch_magnitude": (lambda x: nvmodel.bloch_magnitude(nv, phi, x), float),
        # fig5's axis: a wait t, then the readout delay tau; a numpy complex.
        "rdja_kappa_eff": (lambda x: nvmodel.rdja_kappa_eff(nv, phi, wait, x), None),
        "kappa_double_gaussian_mag": (lambda x: spectra.kappa_double_gaussian_mag(dg, x), float),
        "joint_kappa": (lambda x: sdc.joint_kappa(cs, x, x), float),
        "marginal_kappa": (lambda x: sdc.marginal_kappa(cs, x), float),
        # The capacity at t: fig4's mi_4state column.
        "capacity_at": (lambda x: sdc.fig4_columns(cs, x)[1], float),
    }


NAMES = list(closed_forms(1.0, 1.0, "gaussian", 0.0, 0.0, 0.0))


class TestScalarTakesArrayPath:
    @pytest.mark.parametrize("name", NAMES)
    @settings(max_examples=60, deadline=None)
    @given(rate=st.floats(0.1, 10), width=st.floats(0.1, 10),
           shape=st.sampled_from(["gaussian", "exponential"]), phi=st.floats(0, np.pi),
           correlation=st.floats(-1, 1), wait=st.floats(0, 5), t_max=st.floats(0.1, 20),
           n_t=st.integers(2, 2001), index=st.integers(0, 2000))
    # At t[987], libm's pow(x, 2) and x * x of the envelope argument differ by an ulp.
    @example(rate=1.0, width=1.0, shape="gaussian", phi=0.7, correlation=0.5, wait=0.0,
             t_max=5.0, n_t=2001, index=987)
    def test_scalar_time_is_the_array_entry(self, name, rate, width, shape, phi, correlation,
                                            wait, t_max, n_t, index):
        closed_form, scalar_type = closed_forms(rate, width, shape, phi, correlation, wait)[name]
        t = np.linspace(0, t_max, n_t)
        i = index % n_t
        one = closed_form(t.tolist()[i])
        assert one == closed_form(t)[i]
        if scalar_type is not None:
            assert type(one) is scalar_type
