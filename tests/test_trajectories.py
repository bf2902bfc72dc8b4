from pathlib import Path

import numpy as np
import pytest

from pseudomode import (
    DensityMatrix,
    EmbeddingSpec,
    IntegratorConfig,
    JumpDegeneracyError,
    LindbladModel,
    Lorentzian,
    Operator,
    TimeGrid,
    TrajectoryConfig,
    build_embedding,
    ensemble_average,
    evolve,
    expectation,
    identity,
    kron,
    load_scenario,
    mcwf_run,
    sigma_minus,
    tls_system,
)
from pseudomode import trajectories
from pseudomode.integrators import integrate_to_instants
from pseudomode.trajectories import _select_channel, _trajectory_rng

LOOSE = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9)
P_E = Operator(np.diag([0.0, 1.0]).astype(complex))


def tls_decay_model(rate=1.0):
    return LindbladModel(dim=2, H=Operator(np.zeros((2, 2))), jumps=((rate, sigma_minus()),))


def no_jump_norm_sq(t, gamma, g=1.0):
    """c^2 + b^2 of the no-jump state c|e,0> + b|g,1> (b = -c'/g) from |e,0>, on resonance.

    c solves c'' + (gamma/2) c' + g^2 c = 0 with c(0) = 1, c'(0) = 0; the
    form is continued through W = 0, the exceptional point gamma = 4g.
    """
    w = np.sqrt(complex(gamma**2 / 16 - g**2))
    decay = np.exp(-gamma * t / 4)
    if w == 0:
        c = decay * (1 + gamma * t / 4)
        dc = -(g**2) * t * decay
    else:
        c = (decay * (np.cosh(w * t) + gamma / (4 * w) * np.sinh(w * t))).real
        dc = (-(g**2) / w * decay * np.sinh(w * t)).real
    return c**2 + (dc / g) ** 2


def no_jump_crossing(u, gamma, t1):
    """Time at which the no-jump norm falls to u, by bisection; None if not by t1."""
    if no_jump_norm_sq(t1, gamma) >= u:
        return None
    lo, hi = 0.0, t1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if no_jump_norm_sq(mid, gamma) >= u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def embedded_setup(gamma=0.2, d_a=2):
    bath = Lorentzian(g=1.0, omega0=0.0, gamma=gamma)
    emb = build_embedding(EmbeddingSpec(tls_system(), bath, d_a), DensityMatrix.fock(2, 1))
    psi0 = np.zeros(emb.model.dim, dtype=complex)
    psi0[1 * d_a] = 1.0  # |excited, vacuum>
    return emb, psi0, kron(P_E, identity(d_a))


class TestMcwfRun:
    def test_no_jumps_without_dissipation(self):
        h = Operator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        model = LindbladModel(dim=2, H=h)
        cfg = TrajectoryConfig(n_traj=1, seed=3, grid=TimeGrid(0, 2, 9), integrator=LOOSE)
        traj = mcwf_run(model, np.array([1.0, 0.0], dtype=complex), cfg)
        assert len(traj.jump_times) == 0
        t = traj.times
        assert np.max(np.abs(np.abs(traj.states[:, 0]) - np.abs(np.cos(t)))) < 1e-5

    def test_states_normalized_and_jumps_increasing(self):
        emb, psi0, _ = embedded_setup()
        cfg = TrajectoryConfig(n_traj=1, seed=8, grid=TimeGrid(0, 10, 41), integrator=LOOSE)
        traj = mcwf_run(emb.model, psi0, cfg, traj_index=4)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9
        assert np.all(np.diff(traj.jump_times) > 0) or len(traj.jump_times) <= 1

    def test_reproducible_from_seed_and_index(self):
        emb, psi0, _ = embedded_setup()
        cfg = TrajectoryConfig(n_traj=4, seed=21, grid=TimeGrid(0, 5, 11), integrator=LOOSE)
        a = mcwf_run(emb.model, psi0, cfg, traj_index=2)
        b = mcwf_run(emb.model, psi0, cfg, traj_index=2)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.jump_times, b.jump_times)

    def test_distinct_indices_decorrelate(self):
        emb, psi0, _ = embedded_setup()
        cfg = TrajectoryConfig(n_traj=4, seed=21, grid=TimeGrid(0, 5, 11), integrator=LOOSE)
        a = mcwf_run(emb.model, psi0, cfg, traj_index=0)
        b = mcwf_run(emb.model, psi0, cfg, traj_index=1)
        assert not np.array_equal(a.states, b.states)

    def test_requires_normalized_state(self):
        cfg = TrajectoryConfig(n_traj=1, seed=0, grid=TimeGrid(0, 1, 3))
        with pytest.raises(ValueError, match="normalized"):
            mcwf_run(tls_decay_model(), np.array([2.0, 0.0], dtype=complex), cfg)

    def test_single_decay_has_at_most_one_jump(self):
        cfg = TrajectoryConfig(n_traj=64, seed=13, grid=TimeGrid(0, 1, 3), integrator=LOOSE)
        psi0 = np.array([0.0, 1.0], dtype=complex)
        for idx in range(64):
            traj = mcwf_run(tls_decay_model(), psi0, cfg, traj_index=idx)
            assert len(traj.jump_times) in (0, 1)

    def test_jump_channel_degeneracy_raises(self):
        with pytest.raises(JumpDegeneracyError):
            _select_channel(np.array([0.0, 0.0]), 0.3)

    def test_channel_selection_respects_weights(self):
        assert _select_channel(np.array([1.0, 0.0]), 0.99) == 0
        assert _select_channel(np.array([0.0, 1.0]), 0.01) == 1


class TestEnsembleAverage:
    def test_single_trajectory_stats(self):
        emb, psi0, obs = embedded_setup()
        cfg = TrajectoryConfig(n_traj=1, seed=5, grid=TimeGrid(0, 5, 11), integrator=LOOSE)
        stats = ensemble_average(emb.model, psi0, cfg, observables=(obs,))
        traj = mcwf_run(emb.model, psi0, cfg, traj_index=0)
        pe = np.einsum("ti,ij,tj->t", traj.states.conj(), obs.mat, traj.states)
        assert np.allclose(stats.means[0], pe)
        assert np.all(np.isnan(stats.stderrs))

    def test_worker_count_invariance(self, monkeypatch):
        emb, psi0, obs = embedded_setup()
        cfg = TrajectoryConfig(n_traj=300, seed=99, grid=TimeGrid(0, 5, 11), integrator=LOOSE)
        monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "1")
        s1 = ensemble_average(emb.model, psi0, cfg, observables=(obs,))
        monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "2")
        s2 = ensemble_average(emb.model, psi0, cfg, observables=(obs,))
        assert np.array_equal(s1.means, s2.means)
        assert np.array_equal(s1.stderrs, s2.stderrs)
        assert np.array_equal(s1.mean_states, s2.mean_states)
        assert np.array_equal(s1.jump_histogram, s2.jump_histogram)

    def test_mean_state_has_unit_trace(self):
        emb, psi0, obs = embedded_setup()
        cfg = TrajectoryConfig(n_traj=128, seed=17, grid=TimeGrid(0, 5, 11), integrator=LOOSE)
        stats = ensemble_average(emb.model, psi0, cfg, observables=(obs,))
        traces = np.trace(stats.mean_states, axis1=1, axis2=2)
        assert np.max(np.abs(traces - 1.0)) <= 1e-8

    def test_tls_jump_statistics_binomial(self):
        grid = TimeGrid(0.0, 1.0, 3)
        cfg = TrajectoryConfig(n_traj=10_000, seed=5, grid=grid, integrator=LOOSE)
        stats = ensemble_average(tls_decay_model(1.0), np.array([0.0, 1.0], dtype=complex), cfg)
        assert stats.jump_histogram.shape == (2,)
        p_emp = stats.jump_histogram[1] / cfg.n_traj
        p_true = 1.0 - np.exp(-1.0)
        se = np.sqrt(p_true * (1 - p_true) / cfg.n_traj)
        assert abs(p_emp - p_true) <= 3 * se

    def test_tls_decay_mean_tracks_analytic(self):
        grid = TimeGrid(0.0, 2.0, 21)
        cfg = TrajectoryConfig(n_traj=4000, seed=23, grid=grid, integrator=LOOSE)
        stats = ensemble_average(tls_decay_model(1.0), np.array([0.0, 1.0], dtype=complex),
                                 cfg, observables=(P_E,))
        ref = np.exp(-grid.times())
        dev = np.abs(stats.means[0].real - ref)
        ok = dev <= 3 * np.maximum(stats.stderrs[0], 1e-12)
        assert ok.mean() >= 0.99

    def test_identical_trajectories_have_zero_stderr(self):
        h = Operator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        model = LindbladModel(dim=2, H=h)
        cfg = TrajectoryConfig(n_traj=300, seed=3, grid=TimeGrid(0, 2, 21), integrator=LOOSE)
        stats = ensemble_average(model, np.array([1.0, 0.0], dtype=complex), cfg,
                                 observables=(P_E,))
        assert np.array_equal(stats.jump_histogram, [300])
        assert np.max(np.abs(stats.means[0].real - np.sin(stats.times) ** 2)) < 1e-5
        assert np.max(stats.stderrs) <= 1e-15

    def test_deviation_shrinks_with_ensemble_size(self):
        emb, psi0, obs = embedded_setup()
        grid = TimeGrid(0.0, 10.0, 21)
        det = evolve(emb.model, emb.rho0, grid, IntegratorConfig())
        ref = np.array([expectation(obs, st).real for st in det])
        devs = []
        for n in (100, 1000, 10_000):
            cfg = TrajectoryConfig(n_traj=n, seed=2024, grid=grid, integrator=LOOSE)
            stats = ensemble_average(emb.model, psi0, cfg, observables=(obs,))
            devs.append(np.max(np.abs(stats.means[0].real - ref)))
        assert devs[2] < devs[1] < devs[0]


class TestClosedFormGate:
    """The batched core against the closed-form no-jump decay of the embedded two-level model."""

    # gamma = 4g is the exceptional point; the 6-point grid needs sub-steps
    @pytest.mark.parametrize("n_points", [101, 6])
    @pytest.mark.parametrize("gamma", [0.2, 4.0])
    def test_single_jump_time_is_closed_form_root(self, gamma, n_points):
        emb, psi0, _ = embedded_setup(gamma=gamma)
        cfg = TrajectoryConfig(n_traj=1, seed=31, grid=TimeGrid(0, 10, n_points))
        n_jumped = 0
        for idx in range(40):
            traj = mcwf_run(emb.model, psi0, cfg, traj_index=idx)
            u = _trajectory_rng(cfg.seed, idx).random()
            root = no_jump_crossing(u, gamma, cfg.grid.t1)
            if root is None:
                assert len(traj.jump_times) == 0
            else:
                n_jumped += 1
                assert len(traj.jump_times) == 1
                assert abs(traj.jump_times[0] - root) <= 1e-8
        assert n_jumped >= 10

    def test_ensemble_equals_mean_of_single_runs(self):
        emb, psi0, obs = embedded_setup()
        cfg = TrajectoryConfig(n_traj=300, seed=77, grid=TimeGrid(0, 10, 41), integrator=LOOSE)
        stats = ensemble_average(emb.model, psi0, cfg, observables=(obs,))
        runs = [mcwf_run(emb.model, psi0, cfg, traj_index=idx) for idx in range(cfg.n_traj)]
        states = np.array([r.states for r in runs])
        pe = np.einsum("kti,ij,ktj->kt", states.conj(), obs.mat, states)
        rho = np.einsum("kti,ktj->tij", states, states.conj()) / cfg.n_traj
        assert np.max(np.abs(stats.means[0] - pe.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(stats.mean_states - rho)) <= 1e-12
        sample_se = np.sqrt(np.sum(np.abs(pe - pe.mean(axis=0)) ** 2, axis=0)
                            / ((cfg.n_traj - 1) * cfg.n_traj))
        assert np.max(np.abs(stats.stderrs[0] - sample_se)) <= 1e-12
        hist = np.bincount([len(r.jump_times) for r in runs])
        assert np.array_equal(stats.jump_histogram, hist)


class TestSharedPropagatorBuilder:
    """The no-jump propagator comes from integrators.propagator, bit for bit
    the Dopri5 solve on the identity that trajectories inlined before, so the
    shipped ensemble (configs/trajectories_embedded.json) does not move."""

    # seed -> jump histogram recorded with the solve inlined in trajectories
    RECORDED_HISTOGRAMS = {7: [367, 633], 11: [369, 631]}

    @staticmethod
    def shipped(seed):
        cfg = load_scenario(Path(__file__).parents[1] / "configs" / "trajectories_embedded.json")
        d_a = cfg.d_A
        emb = build_embedding(EmbeddingSpec(cfg.system, cfg.bath, d_a),
                              DensityMatrix.fock(cfg.system.d_S, cfg.initial_fock))
        psi0 = np.zeros(emb.model.dim, dtype=complex)
        psi0[cfg.initial_fock * d_a] = 1.0
        obs = kron(cfg.system.V.dagger() @ cfg.system.V, identity(d_a))
        tcfg = TrajectoryConfig(n_traj=cfg.n_traj, seed=seed, grid=cfg.grid,
                                integrator=cfg.integrator)
        return emb.model, psi0, tcfg, obs

    @staticmethod
    def inline_solve(generator, h, cfg):
        identity_ = np.eye(len(generator), dtype=complex)
        return integrate_to_instants(lambda y: generator @ y, identity_, [0.0, h], cfg)[-1]

    def test_step_equals_the_inline_solve(self, monkeypatch):
        calls = []
        build = trajectories.propagator

        def recorded(generator, h, cfg):
            calls.append((generator, h, cfg, build(generator, h, cfg)))
            return calls[-1][-1]

        monkeypatch.setattr(trajectories, "propagator", recorded)
        model, _, tcfg, _ = self.shipped(7)
        prop = trajectories._grid_propagator(model, tcfg)
        (generator, h, cfg, step), = calls
        assert np.array_equal(step, self.inline_solve(generator, h, cfg))
        assert np.array_equal(prop.step_t, step.T)

    @pytest.mark.parametrize("seed", sorted(RECORDED_HISTOGRAMS))
    def test_ensemble_equals_the_inline_solve(self, monkeypatch, seed):
        monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "1")
        model, psi0, tcfg, obs = self.shipped(seed)
        shared = ensemble_average(model, psi0, tcfg, observables=(obs,))
        monkeypatch.setattr(trajectories, "propagator", self.inline_solve)
        inline = ensemble_average(model, psi0, tcfg, observables=(obs,))
        assert np.array_equal(shared.means, inline.means)
        assert np.array_equal(shared.stderrs, inline.stderrs)
        assert np.array_equal(shared.jump_histogram, inline.jump_histogram)
        assert shared.jump_histogram.tolist() == self.RECORDED_HISTOGRAMS[seed]
