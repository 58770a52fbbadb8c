"""Metamorphic relations of the flow and its eigensolver, pinned bit for bit.

The field is homogeneous of degree 3, so the flow from 2^k a0 is 2^k times
the flow from a0 run for 4^k times as long. Multiplying by a power of two is
exact, and every run works on its input divided by its own unit, so the
relation holds to the bit: times scale by 4^(-k); states, the spectrum, its
drift and the predicted limit by 2^k; Lyapunov values, residuals and the
resolved eq_eps by 4^k. A state entry that decays below the smallest
normal float loses bits in either run, so states are compared where both
sides are normal; the kernel's rows, which carry every entry, are compared
whole. The flow also commutes with flipping the sign of any entry: the
flipped entries flip in every state and in the limit, and nothing else
changes. The cold Sturm solve of 2^k a to the tolerance 2^k tol is 2^k
times that of a, since its bracket pad is relative to its Gershgorin bound,
and equilibrium_residual of 2^k a is 4^k times that of a, since it works on
a / ||a||.

Both sides of each pair take the same numpy code paths, so these relations
hold whichever ``exp`` the CPU dispatches to.
"""

import math

import numpy as np
import pytest

from kvmflow import flow, jacobi, kernels, spectral
from kvmflow.flow import IntegratorConfig

from conftest import EX1, EX2, EX3

_SEEDED = [rng.choice([-1.0, 1.0], n - 1) * rng.uniform(0.5, 10.0, n - 1)
           for rng in [np.random.default_rng(2030)]
           for n in rng.integers(3, 13, 57)]
INPUTS = {"ex1": EX1, "ex2": EX2, "ex3": EX3,
          **{f"seeded{i}": a for i, a in enumerate(_SEEDED)}}


def _outputs(a0, t_max):
    """Every output of a checked run from a0, with the predicted limit."""
    traj = flow.integrate(a0, IntegratorConfig(t_max=t_max))
    return {
        "status": np.array([traj.status]),
        "rows": traj.rows,
        "times": traj.times,
        "states": traj.states,
        "spectrum": traj.spectrum.values,
        "spec_drift": traj.spec_drift,
        "limit": spectral.predict_limit(a0, traj.spectrum),
        "f_values": traj.f_values,
        "k_norms": traj.k_norms,
        "eq_eps": np.array([traj.eq_eps]),
    }


_TINY = np.finfo(np.float64).tiny

# output -> the power of 2^k it scales by
_DEGREE = {"status": 0, "rows": 0, "times": -2, "states": 1, "spectrum": 1,
           "spec_drift": 1, "limit": 1, "f_values": 2, "k_norms": 2, "eq_eps": 2}


@pytest.mark.parametrize("name", list(INPUTS))
def test_scaling_by_a_power_of_two_scales_every_output(name):
    a0, t_max = INPUTS[name], 10.0
    base = _outputs(a0, t_max)
    for k in (-3, 5):
        got = _outputs(2.0 ** k * a0, t_max * 2.0 ** (-2 * k))
        for key, power in _DEGREE.items():
            want = base[key] if power == 0 else 2.0 ** (power * k) * base[key]
            if key == "states":
                normal = (np.abs(base[key]) >= _TINY) & (np.abs(want) >= _TINY)
                got[key], want = got[key][normal], want[normal]
            np.testing.assert_array_equal(got[key], want, err_msg=f"{key} at k={k}")


@pytest.mark.parametrize("name", list(INPUTS))
def test_flipping_signs_flips_only_those_entries(name):
    a0 = INPUTS[name]
    flips = np.where(np.random.default_rng(len(a0)).random(a0.size) < 0.5, -1.0, 1.0)
    base = _outputs(a0, 10.0)
    got = _outputs(flips * a0, 10.0)
    for key in _DEGREE:
        want = flips * base[key] if key in ("states", "limit") else base[key]
        np.testing.assert_array_equal(got[key], want, err_msg=key)


_STURM_SEEDED = {f"seeded_n{n}": rng.choice([-1.0, 1.0], n - 1) * rng.uniform(0.5, 10.0, n - 1)
                 for rng in [np.random.default_rng(2031)] for n in (2, 3, 7, 12, 30)}
STURM_INPUTS = {"ex1": EX1, "ex2": EX2, "ex3": EX3, **_STURM_SEEDED}


@pytest.mark.parametrize("name", list(STURM_INPUTS))
def test_equilibrium_residual_scales_by_a_power_of_four(name):
    # at k = +-330 the squared entries leave the float range; the residual,
    # near 4^k, does not
    a = STURM_INPUTS[name]
    unit = jacobi.equilibrium_residual(a)
    for k in (-330, -40, 40, 330):
        got = jacobi.equilibrium_residual(2.0 ** k * a)
        assert got == math.ldexp(unit, 2 * k), f"k={k}"


@pytest.mark.parametrize("name", list(STURM_INPUTS))
def test_cold_sturm_solve_scales_by_a_power_of_two(name):
    # k = +-330 puts the entries near 1e+-99, where a pad with an absolute
    # term widens the bracket beyond what 128 halvings close
    a = STURM_INPUTS[name]
    diag = np.zeros(a.size + 1)
    tol = spectral.EIG_TOL * math.sqrt(2.0) * float(np.linalg.norm(a))  # EIG_TOL ||T||_F
    unit = kernels.sturm_batch(diag, a[None], tol)
    for k in (-330, -40, 40, 330):
        s = 2.0 ** k
        got = kernels.sturm_batch(diag, s * a[None], s * tol)
        np.testing.assert_array_equal(got, s * unit, err_msg=f"k={k}")
