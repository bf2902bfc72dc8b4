import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pseudomode import DensityMatrix, EmbeddingSpec, cli, dynamics, embedding, integrators
from pseudomode import trajectories
from pseudomode.config import load_scenario
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


def _stiff_generator():
    # rates 1 to 100 in a non-normal basis: ||R||_1 h is 131 at h = 1, and the
    # steps are held at the stability boundary. At rate 1000 the two solves
    # can part by one accepted step in 500 and by 1e-11, as far as either is
    # from the exact exponential.
    rng = np.random.default_rng(0)
    basis = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
    return basis @ np.diag([-1.0, -3.0, -50.0, -100.0]) @ np.linalg.inv(basis)


_GENERATORS = {
    "random-real": (np.random.default_rng(3).normal(size=(6, 6)) - 2.0 * np.eye(6), 0.3),
    "random-complex": (
        (np.random.default_rng(3).normal(size=(6, 6)) - 2.0 * np.eye(6)).astype(complex), 0.3),
    "jordan": (np.array([[-0.7 + 0.3j, 1.0], [0.0, -0.7 + 0.3j]]), 0.4),
    "stiff": (_stiff_generator(), 1.0),
}


@pytest.mark.parametrize("case", _GENERATORS)
def test_propagator_is_the_stage_solve_on_the_identity(monkeypatch, case):
    # the stability polynomial takes the stage solve's steps and rounds within 1e-13 of it
    generator, h = _GENERATORS[case]
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    steps = []
    step = Dopri5.step

    def counted(self, t_limit):
        steps[-1] += 1
        step(self, t_limit)

    monkeypatch.setattr(Dopri5, "step", counted)
    steps.append(0)
    built = propagator(generator, h, cfg, norm_size=100)
    steps.append(0)
    identity = np.eye(len(generator), dtype=generator.dtype)
    *_, solved = iter_instants(lambda y: generator @ y, identity, [0.0, h], cfg, norm_size=100)
    assert built.dtype == solved.dtype
    assert steps[0] == steps[1] > 0
    assert np.max(np.abs(built - solved)) <= 1e-13 * np.max(np.abs(solved))


def _fraction(value):
    return Fraction(value).limit_denominator(10**6)


def test_stability_polynomials_are_the_tableau():
    # y' = z y in exact arithmetic: each stage h k_i is z times its stage value, a polynomial in z
    a = {name: _fraction(getattr(integrators, name)) for name in vars(integrators)
         if name[:2] in ("_A", "_E") and name[2:].isdigit()}

    def combine(*terms):
        out = [Fraction(0)] * 8
        for weight, poly in terms:
            for j, c in enumerate(poly):
                out[j] += weight * c
        return out

    def times_z(poly):
        return [Fraction(0)] + poly[:-1]

    one = [Fraction(1)] + [Fraction(0)] * 7
    k = {1: times_z(one)}
    for i in range(2, 7):
        k[i] = times_z(combine((1, one), *((a[f"_A{i}{j}"], k[j]) for j in range(1, i))))
    y_new = combine((1, one), *((a[f"_A7{j}"], k[j]) for j in (1, 3, 4, 5, 6)))
    k[7] = times_z(y_new)
    error = combine(*((a[f"_E{j}"], k[j]) for j in (1, 3, 4, 5, 6, 7)))
    assert y_new == [_fraction(c) for c in integrators._STEP_POLY]
    assert error == [_fraction(c) for c in integrators._ERROR_POLY]
    assert [float(c) for c in y_new] == integrators._STEP_POLY.tolist()
    assert [float(c) for c in error] == integrators._ERROR_POLY.tolist()


def test_overflowing_generator_raises_integration_error():
    # powers of an unscaled 1e300 generator overflow; the scaled ones stay finite,
    # and the build fails as an IntegrationError, without an OverflowError or a
    # numpy warning on the way
    generator = np.array([[-1e300, 3e299], [2e299, -5e299]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stepper = integrators._PolynomialDopri5(generator, np.eye(2), IntegratorConfig())
        assert np.isfinite(stepper._powers).all()
        with pytest.raises(IntegrationError):
            propagator(generator, 0.05, IntegratorConfig())


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


def _reference_step(self, t_limit):
    """Dopri5.step before |y| was carried over from the accepted step and one np.errstate
    covered every trial: each trial recomputes |y| and enters np.errstate itself."""
    if t_limit <= self.t:
        raise ValueError(f"t_limit {t_limit} not ahead of current time {self.t}")
    cfg = self.cfg
    y = self.y
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    while True:
        h = min(self.h, cfg.max_step, t_limit - self.t)
        hits_limit = h >= t_limit - self.t
        if h < integrators._UNDERFLOW * max(abs(self.t), 1.0):
            raise IntegrationError(f"step size underflow at t = {self.t:.6g}", t_last=self.t)
        with np.errstate(over="ignore", invalid="ignore"):
            y_new, err, k_next = self._trial(h)
            scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            ratio = np.abs(err) / scale
            err_norm = float(np.sqrt(np.mean(ratio * ratio) * self._norm_weight))
        if not np.isfinite(err_norm) or not np.isfinite(y_new).all():
            self.h = h * integrators._MIN_FACTOR
            continue
        if err_norm <= 1.0:
            t_old = self.t
            self.t = t_limit if hits_limit else self.t + h
            self._last = (t_old, h, y, self._k1)
            self._k1 = k_next
            self.y = y_new
            if err_norm == 0.0:
                factor = integrators._MAX_FACTOR
            else:
                factor = (integrators._SAFETY * err_norm ** (-integrators._PI_ALPHA)
                          * self._err_prev ** integrators._PI_BETA)
                factor = min(integrators._MAX_FACTOR, max(integrators._MIN_FACTOR, factor))
            self.h = h * factor
            self._err_prev = max(err_norm, 1e-4)
            return
        self.h = h * min(1.0, max(integrators._MIN_FACTOR,
                                  integrators._SAFETY * err_norm ** (-integrators._PI_ALPHA)))


def _shipped_generators():
    """The real generator R on the live coordinates, their initial values and the complex
    drift, of the shipped two-level d_A = 3 model and of the oscillator d_S = 6, d_A = 8."""
    cfg = load_scenario(Path(__file__).resolve().parents[1] / "configs"
                        / "pseudomode_strong_coupling.json")
    cases = {
        "tls-dA3": (EmbeddingSpec(cfg.system, cfg.bath, cfg.d_A), cli._initial_density(cfg)),
        "oscillator-dS6-dA8": (EmbeddingSpec(embedding.oscillator_system(6), cfg.bath, 8),
                               DensityMatrix.fock(6, 5)),
    }
    for name, (spec, rho) in cases.items():
        model, rho0 = embedding._composite(spec, rho)
        layout = dynamics._coordinate_layout(model, rho0)
        c = layout.live.size
        generator = np.bincount(*layout.generator, c * c).reshape(c, c)
        yield name, generator, layout.z0.real[layout.live], model.drift, rho0.size


@pytest.mark.parametrize("case", ["tls-dA3", "oscillator-dS6-dA8"])
def test_step_is_the_reference_step_bit_for_bit(monkeypatch, case):
    (_, generator, x0, drift, norm_size), = [g for g in _shipped_generators() if g[0] == case]
    cfg = IntegratorConfig()
    loose = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, initial_step=0.3)
    times = np.linspace(0.0, 10.0, 21)

    def runs(step):
        accepted = []

        def recorded(self, t_limit):
            step(self, t_limit)
            accepted.append((type(self).__name__, self.t))

        monkeypatch.setattr(Dopri5, "step", recorded)
        out = [integrators.propagator(generator, 0.05, cfg, norm_size=norm_size),
               integrators.propagator(generator, 2.0, loose, norm_size=norm_size),
               np.array(list(iter_instants(lambda y: generator @ y, x0, times, cfg,
                                           norm_size=norm_size))),
               np.array(list(iter_instants(lambda y: generator @ y, x0, times, loose))),
               trajectories.propagator(drift, 0.05, cfg),
               trajectories.propagator(drift, 0.5, loose)]
        return accepted, [a.tobytes() for a in out]

    new_steps, new_bytes = runs(Dopri5.step)
    reference_steps, reference_bytes = runs(_reference_step)
    assert len(new_steps) > 50
    assert new_steps == reference_steps
    assert new_bytes == reference_bytes


def test_finite_state_whose_modulus_overflows_steps_as_the_reference(monkeypatch):
    # |1.5e308 + 1.5e308j| is inf: a trial is rejected for a non-finite state, not for its modulus
    y0 = np.array([1.5e308 + 1.5e308j, 0.5 - 1j])

    def run(step):
        monkeypatch.setattr(Dopri5, "step", step)
        stepper = Dopri5(lambda y: -1e-3 * y, 0.0, y0, IntegratorConfig())
        stepper.step(1.0)
        return stepper.t, stepper.h, stepper.y.tobytes()

    with np.errstate(over="ignore"):
        new, reference = run(Dopri5.step), run(_reference_step)
    assert new == reference
    assert new[0] > 0.0


def test_polynomial_powers_are_the_stacked_products():
    # the powers of the scaled generator, each product written into its slot of one
    # array, against the list of products stacked afterwards
    for _, generator, *_ in _shipped_generators():
        stepper = integrators._PolynomialDopri5(generator, np.eye(len(generator)),
                                                IntegratorConfig())
        scaled = generator * np.ldexp(1.0, -stepper._shift)
        powers = [scaled]
        for _ in range(len(integrators._STEP_POLY) - 2):
            powers.append(powers[-1] @ scaled)
        assert stepper._powers.tobytes() == np.array(powers).reshape(len(powers), -1).tobytes()
