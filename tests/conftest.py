import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run each kernel path once so timing assertions see warm caches and imports."""
    from kvmflow import flow, jacobi

    a = np.array([1.0, 2.0])
    flow.integrate(a, flow.IntegratorConfig(t_max=1e-3, eq_eps=0.0))
    flow.integrate(a, flow.IntegratorConfig(t_max=1e-3, method="rk4", dt=1e-4, eq_eps=0.0))
    flow.integrate_dense(jacobi.embed(a), flow.IntegratorConfig(t_max=1e-3, eq_eps=0.0))


EX1 = np.array([5.0, -6.0, -2.0])
EX2 = np.array([-3.0, 10.0, 1.0, -2.0, -6.0, -11.0, 5.0, 6.0, 12.0])
EX3 = np.array([
    -6.0, 7.0, -8.0, 2.0, -13.0, 7.0, -12.0, 7.0, -2.0, 9.0, 2.0, -4.0, 2.0,
    4.0, 6.0, -15.0, -7.0, 11.0, -7.0, 9.0, 9.0, 15.0, 1.0, 5.0, -3.0, 11.0,
    -1.0, -3.0,
])

EX1_LIMIT_2DP = np.array([1.26, 0.0, -7.96])
EX2_LIMIT_2DP = np.array([-0.21, 0.0, 2.71, 0.0, -10.48, 0.0, 12.34, 0.0, 14.36])
EX3_LIMIT_2DP = np.array([
    0.0, 2.81, 0.0, 2.98, 0.0, 4.17, 0.0, 4.66, 0.0, 4.84, 0.0, -6.26, 0.0,
    9.29, 0.0, -10.84, 0.0, 11.53, 0.0, 11.83, 0.0, 12.48, 0.0, 17.11, 0.0,
    17.98, 0.0, -18.85,
])


@pytest.fixture
def ex1():
    return EX1.copy()


@pytest.fixture
def ex2():
    return EX2.copy()


@pytest.fixture
def ex3():
    return EX3.copy()
