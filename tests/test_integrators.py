import numpy as np
import pytest

from pseudomode.integrators import (
    Dopri5,
    IntegratorConfig,
    IntegrationError,
    fixed_step,
    iter_instants,
    propagator,
)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=2.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_step=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(initial_step=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "max_step", "initial_step"])
def test_config_rejects_non_finite(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        IntegratorConfig(**{field: bad})


def test_propagator_of_a_defective_generator():
    # a Jordan block has no eigenbasis; exp(J h) = exp(lam h) [[1, h], [0, 1]]
    lam, h = -0.7 + 0.3j, 0.4
    jordan = np.array([[lam, 1.0], [0.0, lam]])
    exact = np.exp(lam * h) * np.array([[1.0, h], [0.0, 1.0]])
    step = propagator(jordan, h, IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12))
    assert np.max(np.abs(step - exact)) <= 1e-9


@pytest.mark.parametrize("dtype", [float, complex])
def test_state_keeps_its_kind(dtype):
    stepper = Dopri5(lambda y: -y, 0.0, np.ones(3, dtype=dtype), IntegratorConfig())
    stepper.step(1.0)
    assert stepper.y.dtype == np.dtype(dtype)


def test_real_generator_gives_a_real_propagator():
    # a real generator steps in real arithmetic, with the steps of its complex copy
    rng = np.random.default_rng(3)
    generator = rng.normal(size=(6, 6)) - 2.0 * np.eye(6)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    real = propagator(generator, 0.3, cfg, norm_size=36)
    complex_build = propagator(generator.astype(complex), 0.3, cfg, norm_size=36)
    assert real.dtype == np.float64 and complex_build.dtype == np.complex128
    assert np.max(np.abs(real - complex_build)) <= 1e-14


def test_exponential_decay_accuracy():
    lam = -1.3 + 0.9j
    out = list(iter_instants(lambda y: lam * y, np.array([1.0 + 0j]),
                             np.linspace(0.0, 2.0, 9), IntegratorConfig()))
    exact = np.exp(lam * np.linspace(0.0, 2.0, 9))
    err = max(abs(y[0] - e) for y, e in zip(out, exact))
    assert err < 1e-8


def test_zero_rhs_is_stationary():
    y0 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    out = list(iter_instants(lambda y: 0.0 * y, y0, [0.0, 5.0, 10.0], IntegratorConfig()))
    for y in out:
        assert np.array_equal(y, y0)


def test_lands_exactly_on_instants():
    instants = [0.0, 0.3, 1.7, 2.0]
    stepper = Dopri5(lambda y: -y, 0.0, np.array([1.0 + 0j]), IntegratorConfig())
    for target in instants[1:]:
        while stepper.t < target:
            stepper.step(target)
        assert stepper.t == target


def test_underflow_raises_with_last_time():
    def blow_up(y):
        return y * 1e200  # overflows within a step, forcing endless rejection

    with pytest.raises(IntegrationError) as info:
        list(iter_instants(blow_up, np.array([1.0 + 0j]), [0.0, 1.0], IntegratorConfig()))
    assert 0.0 <= info.value.t_last < 1.0


def test_strictly_increasing_instants_required():
    with pytest.raises(ValueError):
        list(iter_instants(lambda y: y, np.array([1.0 + 0j]), [0.0, 0.0], IntegratorConfig()))


def test_fixed_step_matches_stepper_order():
    lam = -0.5 + 1.1j
    rhs = lambda y: lam * y  # noqa: E731
    y1 = fixed_step(rhs, np.array([1.0 + 0j]), 0.1)
    assert abs(y1[0] - np.exp(lam * 0.1)) < 1e-9


class TestDenseOutput:
    def test_interpolant_matches_exponential(self):
        lam = -0.8 + 2.3j
        rhs = lambda y: lam * y  # noqa: E731
        h = 0.1
        cfg = IntegratorConfig(rel_tol=0.5, abs_tol=0.5, max_step=h, initial_step=h)
        st = Dopri5(rhs, 0.0, np.array([1.0 + 0j]), cfg)
        st.step(h)
        for theta in (0.25, 0.5, 0.75):
            u = st.interpolate(theta * h)
            assert abs(u[0] - np.exp(lam * theta * h)) < 1e-6

    def test_interpolant_fifth_order_locally(self):
        lam = -0.8 + 2.3j
        rhs = lambda y: lam * y  # noqa: E731
        errs = []
        for h in (0.2, 0.1):
            cfg = IntegratorConfig(rel_tol=0.5, abs_tol=0.5, max_step=h, initial_step=h)
            st = Dopri5(rhs, 0.0, np.array([1.0 + 0j]), cfg)
            st.step(h)
            errs.append(abs(st.interpolate(0.5 * h)[0] - np.exp(lam * 0.5 * h)))
        assert errs[0] / errs[1] > 16.0

    def test_endpoints_exact(self):
        rhs = lambda y: -y  # noqa: E731
        st = Dopri5(rhs, 0.0, np.array([1.0 + 0j]), IntegratorConfig())
        st.step(1.0)
        assert np.array_equal(st.interpolate(st.t), st.y)

    def test_outside_step_rejected(self):
        rhs = lambda y: -y  # noqa: E731
        st = Dopri5(rhs, 0.0, np.array([1.0 + 0j]), IntegratorConfig())
        st.step(1.0)
        with pytest.raises(ValueError):
            st.interpolate(st.t + 1.0)
