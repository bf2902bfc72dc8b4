import tracemalloc
import warnings

import numpy as np
import pytest

from pseudomode import (
    AmplitudeTrajectory,
    BathRecurrenceWarning,
    DensityMatrix,
    EmbeddingSpec,
    IntegratorConfig,
    Lorentzian,
    TimeGrid,
    build_discrete_bath,
    discrete_bath_evolve,
    simulate_lorentzian,
    solve_volterra_kernel,
    tls_system,
    volterra_amplitude,
)
from pseudomode.oracles import _LEAF, _tls_detuning

GRID = TimeGrid(0.0, 10.0, 101)


def _march_reference(kernel: np.ndarray, h: float, detuning: float = 0.0) -> np.ndarray:
    """The per-step trapezoid march, one history dot product per step: O(N^2)."""
    kernel = np.asarray(kernel, dtype=complex)
    n = kernel.shape[0] - 1
    c = np.empty(n + 1, dtype=complex)
    c[0] = 1.0
    k0 = kernel[0]
    integral = (h / 2.0) * k0  # times c[0] = 1
    denom = 1.0 + 1j * detuning * h / 2.0 + h * h * k0 / 4.0
    numer_old = 1.0 - 1j * detuning * h / 2.0
    for step in range(n):
        partial = h * (
            0.5 * kernel[step + 1] * c[0]
            + np.dot(kernel[step:0:-1], c[1 : step + 1])
        )
        c_next = (numer_old * c[step] - (h / 2.0) * (integral + partial)) / denom
        integral = partial + (h * k0 / 2.0) * c_next
        c[step + 1] = c_next
    return c


def _exponential_kernel(gamma: float, n: int, g: float = 1.0):
    h = min(0.002, 0.04 / gamma)
    return g**2 * np.exp(-0.5 * gamma * h * np.arange(n + 1)), h


def _delta_kernel(n: int):
    h = 0.001
    kernel = np.zeros(n + 1)
    kernel[0] = 0.8 / h
    return kernel, h


def _random_kernel(n: int):
    rng = np.random.default_rng(20261018)
    return rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1), 0.01


class TestVolterraSolverMatchesMarch:
    """The divide-and-conquer solve gives the per-step march's solution."""

    @pytest.mark.parametrize("kernel,h,detuning", [
        pytest.param(*_exponential_kernel(10.0, 5000), 0.0, id="gamma10"),
        pytest.param(*_exponential_kernel(4.0, 5000), 0.0, id="gamma4-exceptional-point"),
        pytest.param(*_exponential_kernel(0.2, 5000), 0.0, id="gamma0.2"),
        pytest.param(*_exponential_kernel(0.5, 2000, g=0.7), 1.3, id="detuned1.3"),
        pytest.param(*_delta_kernel(2000), 0.0, id="delta"),
        pytest.param(*_random_kernel(1500), 0.4, id="random-complex"),
    ])
    def test_kernels(self, kernel, h, detuning):
        new = solve_volterra_kernel(kernel, h, detuning=detuning)
        ref = _march_reference(kernel, h, detuning=detuning)
        assert np.max(np.abs(new - ref)) <= 1e-12

    @pytest.mark.parametrize("n", [0, 1, _LEAF - 1, _LEAF, _LEAF + 1, 10_000])
    def test_lengths(self, n):
        kernel, h = _exponential_kernel(10.0, n)
        new = solve_volterra_kernel(kernel, h, detuning=0.3)
        ref = _march_reference(kernel, h, detuning=0.3)
        assert new.shape == (n + 1,)
        assert np.max(np.abs(new - ref)) <= 1e-12

    @pytest.mark.parametrize("kernel,match", [
        (np.ones((3, 2)), "1-D"),
        (np.array([]), "nonempty"),
        (np.array([1.0, np.nan, 1.0]), "finite"),
        (np.array([1.0, np.inf, 1.0]), "finite"),
        (np.array([1.0, 1.0, complex(0.0, -np.inf)]), "finite"),
    ])
    def test_rejects_bad_kernels(self, kernel, match):
        with pytest.raises(ValueError, match=match):
            solve_volterra_kernel(kernel, 0.01)

    @pytest.mark.parametrize("h", [0.0, -0.01, np.nan, np.inf, -np.inf])
    def test_rejects_bad_steps(self, h):
        with pytest.raises(ValueError, match="step"):
            solve_volterra_kernel(np.ones(5), h)

    @pytest.mark.parametrize("detuning", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_detuning(self, detuning):
        with pytest.raises(ValueError, match="detuning"):
            solve_volterra_kernel(np.ones(5), 0.01, detuning=detuning)


class TestVolterraAmplitude:
    def test_zero_coupling_is_constant(self):
        traj = volterra_amplitude(Lorentzian(g=0.0, omega0=0, gamma=1.0), GRID, h=0.01)
        assert np.max(np.abs(traj.c - 1.0)) == 0.0

    def test_step_constraint_enforced(self):
        with pytest.raises(ValueError, match="reduce h"):
            volterra_amplitude(Lorentzian(g=1.0, omega0=0, gamma=10.0), GRID, h=0.05)

    @pytest.mark.parametrize("h", [0.0, np.nan, np.inf])
    def test_rejects_bad_steps(self, h):
        with pytest.raises(ValueError, match="finite and positive"):
            volterra_amplitude(Lorentzian(g=1.0, omega0=0, gamma=1.0), GRID, h=h)

    def test_requires_zero_start(self):
        with pytest.raises(ValueError, match="t0 = 0"):
            volterra_amplitude(Lorentzian(g=1.0, omega0=0, gamma=1.0),
                               TimeGrid(1.0, 2.0, 5), h=0.01)

    def test_delta_kernel_surrogate_recovers_markovian_decay(self):
        # delta kernel of weight f^2 at the origin: only the half-weight
        # endpoint sample survives the history trapezoid, so K[0] = f^2/h
        f2, h, n = 0.8, 0.001, 2000
        kernel = np.zeros(n + 1)
        kernel[0] = f2 / h
        c = solve_volterra_kernel(kernel, h)
        t = h * np.arange(n + 1)
        assert np.max(np.abs(c - np.exp(-f2 * t / 2.0))) < 1e-6

    def test_second_order_richardson_ratios(self):
        bath = Lorentzian(g=1.0, omega0=0.0, gamma=0.2)
        grid = TimeGrid(0.0, 10.0, 11)
        ref = volterra_amplitude(bath, grid, h=0.04 / 8).c
        errs = [np.max(np.abs(volterra_amplitude(bath, grid, h=h).c - ref))
                for h in (0.04, 0.02)]
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    def test_markovian_limit_of_wide_lines(self):
        # fixed peak 4g^2/gamma = 0.4 while the line broadens
        peak = 0.4
        grid = TimeGrid(0.0, 5.0, 21)
        devs = []
        for gamma in (10.0, 40.0):
            g = np.sqrt(peak * gamma / 4.0)
            traj = volterra_amplitude(Lorentzian(g=g, omega0=0, gamma=gamma), grid,
                                      h=0.04 / gamma)
            devs.append(np.max(np.abs(np.abs(traj.c) - np.exp(-peak * grid.times() / 2.0))))
        assert devs[1] < devs[0] < 0.05

    def test_detuned_amplitude_matches_embedding(self):
        bath = Lorentzian(g=0.7, omega0=0.0, gamma=0.5)
        sys = tls_system(detuning=1.3)
        grid = TimeGrid(0.0, 6.0, 61)
        traj = volterra_amplitude(bath, grid, h=0.005, detuning=1.3)
        states = simulate_lorentzian(EmbeddingSpec(sys, bath, 3), DensityMatrix.fock(2, 1),
                                     grid, IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12))
        pe = np.array([st.mat[1, 1].real for st in states])
        assert np.max(np.abs(pe - traj.p_excited)) < 1e-5

    def test_amplitude_trajectory_invariants(self):
        with pytest.raises(ValueError, match=r"\|c\(0\)\|"):
            AmplitudeTrajectory(times=np.array([0.0, 1.0]), c=np.array([0.5, 0.4]))
        with pytest.raises(ValueError, match="exceeded"):
            AmplitudeTrajectory(times=np.array([0.0, 1.0]), c=np.array([1.0, 1.5]))

    @pytest.mark.parametrize("shape", [(0,), (2, 2)])
    def test_amplitude_trajectory_rejects_empty_or_stacked_curves(self, shape):
        with pytest.raises(ValueError, match="nonempty 1-D"):
            AmplitudeTrajectory(times=np.zeros(shape), c=np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_amplitude_trajectory_rejects_non_finite_values(self, bad):
        times = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            AmplitudeTrajectory(times=times, c=np.array([1.0, bad, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            AmplitudeTrajectory(times=np.array([0.0, bad, 2.0]), c=np.array([1.0, 0.9, 0.5]))


class TestDiscreteBath:
    BATH = Lorentzian(g=1.0, omega0=3.0, gamma=0.2)

    def test_coupling_weights_capture_line_weight(self):
        bath = build_discrete_bath(self.BATH, n_modes=400, half_width=20 * 0.2)
        total = float(np.sum(bath.couplings**2))
        tail = self.BATH.g**2 * self.BATH.gamma / (np.pi * 20 * self.BATH.gamma)
        assert abs(total - self.BATH.g**2) < 1.5 * tail

    def test_frequencies_span_window(self):
        bath = build_discrete_bath(self.BATH, n_modes=100, half_width=4.0)
        assert bath.frequencies[0] == pytest.approx(3.0 - 4.0 + 0.5 * 0.08)
        assert bath.frequencies[-1] == pytest.approx(3.0 + 4.0 - 0.5 * 0.08)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="modes"):
            build_discrete_bath(self.BATH, n_modes=10, half_width=4.0)
        with pytest.raises(ValueError, match="half-width"):
            build_discrete_bath(self.BATH, n_modes=100, half_width=0.5)

    @pytest.mark.parametrize("n_modes", [100.5, 100.0, np.float64(100.0), "100"])
    def test_mode_count_must_be_an_integer(self, n_modes):
        # np.arange would take 100.0 as 100 modes, and 100.5 as 101
        with pytest.raises(ValueError, match="n_modes must be an integer >= 50"):
            build_discrete_bath(self.BATH, n_modes, 4.0)

    def test_zero_coupling_is_constant(self):
        bath = Lorentzian(g=0.0, omega0=0.0, gamma=0.2)
        traj = discrete_bath_evolve(tls_system(), bath, 100, 4.0, GRID)
        assert np.max(np.abs(traj.c - 1.0)) <= 1e-12

    def test_norm_conserved(self):
        traj = discrete_bath_evolve(tls_system(), self.BATH, 200, 4.0, GRID)
        assert traj.norm_defect <= 1e-9

    def test_agrees_with_memory_kernel_solver(self):
        bath = Lorentzian(g=1.0, omega0=0.0, gamma=0.2)
        traj_d = discrete_bath_evolve(tls_system(), bath, 400, 20 * 0.2, GRID)
        traj_v = volterra_amplitude(bath, GRID, h=0.002)
        assert np.max(np.abs(traj_d.p_excited - traj_v.p_excited)) < 2e-3

    def test_error_drops_when_modes_double(self):
        bath = Lorentzian(g=1.0, omega0=0.0, gamma=0.2)
        ref = volterra_amplitude(bath, GRID, h=0.001).p_excited
        devs = []
        for n_modes in (100, 200, 400):
            traj = discrete_bath_evolve(tls_system(), bath, n_modes, 20 * 0.2, GRID)
            devs.append(np.max(np.abs(traj.p_excited - ref)))
        assert devs[1] < devs[0] and devs[2] < devs[1]

    def test_recurrence_warning_on_long_horizons(self):
        bath = Lorentzian(g=1.0, omega0=0.0, gamma=10.0)
        with pytest.warns(BathRecurrenceWarning):
            discrete_bath_evolve(tls_system(), bath, 400, 200.0, GRID)

    def test_no_warning_inside_recurrence_window(self):
        bath = Lorentzian(g=1.0, omega0=0.0, gamma=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", BathRecurrenceWarning)
            discrete_bath_evolve(tls_system(), bath, 400, 4.0, GRID)

    def test_requires_lowering_coupling(self):
        from pseudomode import Operator, SystemSpec

        bad = SystemSpec(d_S=2, H_S=Operator(np.zeros((2, 2))),
                         V=Operator([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="sigma_minus"):
            discrete_bath_evolve(bad, self.BATH, 100, 4.0, GRID)


def _dense_reference(system, bath, n_modes, half_width, grid) -> AmplitudeTrajectory:
    """The dense route: one numpy.linalg.eigh of the (n_modes + 1)-square matrix, O(n^3)."""
    detuning = _tls_detuning(system)
    discrete = build_discrete_bath(bath, n_modes, half_width)
    n = discrete.n_modes
    m = np.zeros((n + 1, n + 1), dtype=float)
    m[0, 0] = detuning
    m[0, 1:] = discrete.couplings
    m[1:, 0] = discrete.couplings
    idx = np.arange(1, n + 1)
    m[idx, idx] = discrete.frequencies - bath.omega0
    evals, evecs = np.linalg.eigh(m)
    amp0 = evecs[0, :]
    times = grid.times()
    phases = np.exp(-1j * np.outer(evals, times))
    states = evecs @ (phases * amp0[:, None])
    norms = np.linalg.norm(states, axis=0)
    return AmplitudeTrajectory(
        times=times,
        c=states[0, :].copy(),
        norm_defect=float(np.max(np.abs(norms - 1.0))),
    )


def _mode_frequency(gamma, n_modes, w_factor, k):
    bath = Lorentzian(g=1.0, omega0=0.0, gamma=gamma)
    return float(build_discrete_bath(bath, n_modes, w_factor * gamma).frequencies[k])


class TestSecularMatchesDense:
    """The secular-equation route gives the dense eigh's amplitude."""

    GRID = TimeGrid(0.0, 10.0, 201)

    @pytest.mark.parametrize("gamma,n_modes,w_factor,detuning", [
        pytest.param(0.1, 400, 40, 0.0, id="gamma0.1"),
        pytest.param(1.0, 400, 20, 0.0, id="gamma1"),
        pytest.param(4.0, 800, 20, 0.0, id="gamma4-800"),
        pytest.param(10.0, 1600, 20, 0.0, id="gamma10-1600"),
        pytest.param(1.0, 50, 20, 0.0, id="50-modes"),
        pytest.param(1.0, 3200, 20, 0.0, id="3200-modes"),
        pytest.param(1.0, 400, 20, 1.3, id="detuned1.3"),
        pytest.param(1.0, 400, 20, _mode_frequency(1.0, 400, 20, 123), id="detuning-on-a-mode"),
        pytest.param(1.0, 400, 20, 50.0, id="detuned+50"),
        pytest.param(1.0, 400, 20, -50.0, id="detuned-50"),
    ])
    def test_cases(self, gamma, n_modes, w_factor, detuning):
        bath = Lorentzian(g=1.0, omega0=0.0, gamma=gamma)
        system = tls_system(detuning)
        with warnings.catch_warnings():
            # both routes solve the same finite bath, echo included (50 modes echo at t = 7.9)
            warnings.simplefilter("ignore", BathRecurrenceWarning)
            new = discrete_bath_evolve(system, bath, n_modes, w_factor * gamma, self.GRID)
        ref = _dense_reference(system, bath, n_modes, w_factor * gamma, self.GRID)
        assert np.max(np.abs(new.c - ref.c)) <= 1e-12

    def test_sum_rule_at_3200_modes(self):
        bath = Lorentzian(g=1.0, omega0=0.0, gamma=1.0)
        traj = discrete_bath_evolve(tls_system(), bath, 3200, 20.0, self.GRID)
        assert traj.norm_defect <= 1e-12

    def test_no_square_matrix_is_allocated(self):
        n_modes = 3200
        bath = Lorentzian(g=1.0, omega0=0.0, gamma=1.0)
        tracemalloc.start()
        try:
            discrete_bath_evolve(tls_system(), bath, n_modes, 20.0, self.GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (n_modes + 1) ** 2 / 4


class TestThreeWayAgreement:
    # discretization picked per regime: strong coupling needs the wider
    # window (line dressed out to +-g), the broad line needs the finer
    # spacing that keeps the finite-bath recurrence beyond the horizon;
    # gamma = 4 is the exceptional point g = gamma/4 between the two, where
    # 800 modes is the smallest doubling of 400 that stays echo-free
    @pytest.mark.parametrize("gamma,n_modes,w_factor",
                             [(0.1, 400, 40), (1.0, 400, 20), (4.0, 800, 20), (10.0, 1600, 20)])
    def test_regimes(self, gamma, n_modes, w_factor):
        bath = Lorentzian(g=1.0, omega0=0.0, gamma=gamma)
        grid = TimeGrid(0.0, 10.0, 101)
        h = min(0.002, 0.04 / gamma)
        vol = volterra_amplitude(bath, grid, h=h)
        with warnings.catch_warnings():
            warnings.simplefilter("error", BathRecurrenceWarning)
            disc = discrete_bath_evolve(tls_system(), bath, n_modes, w_factor * gamma, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            states = simulate_lorentzian(
                EmbeddingSpec(tls_system(), bath, 3), DensityMatrix.fock(2, 1), grid,
                IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12),
            )
        pe = np.array([st.mat[1, 1].real for st in states])
        assert np.max(np.abs(pe - vol.p_excited)) < 1e-4
        assert np.max(np.abs(pe - disc.p_excited)) < 2e-3
        assert np.max(np.abs(vol.p_excited - disc.p_excited)) < 2e-3
