import multiprocessing
import os
import signal
import subprocess
import sys
import tracemalloc
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
    oscillator_system,
    sigma_minus,
    tls_system,
)
from pseudomode import trajectories
from pseudomode.cli import main
from pseudomode.integrators import fixed_step, iter_instants
from pseudomode.trajectories import _select_channel, _Streams, _trajectory_rng, _worker_count

REPO = Path(__file__).resolve().parents[1]

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


def pump_model():
    """Two-level system driven by 0.7 sigma_x, with decay (rate 1) and pumping (rate 0.5)."""
    sigma_x = Operator(np.array([[0.0, 0.7], [0.7, 0.0]], dtype=complex))
    return LindbladModel(dim=2, H=sigma_x,
                         jumps=((1.0, sigma_minus()), (0.5, sigma_minus().dagger())))


def oscillator_setup():
    """Oscillator d_S = 4 in Fock 3, ancilla d_A = 4, g = gamma = 1: up to three jumps."""
    bath = Lorentzian(g=1.0, omega0=0.0, gamma=1.0)
    emb = build_embedding(EmbeddingSpec(oscillator_system(4), bath, 4), DensityMatrix.fock(4, 3))
    psi0 = np.zeros(emb.model.dim, dtype=complex)
    psi0[3 * 4] = 1.0  # |3, vacuum>
    return emb.model, psi0


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_requires_finite_state(self, bad):
        emb, _, _ = embedded_setup()
        psi0 = np.array([bad, 0.0, 0.0, 0.0], dtype=complex)
        cfg = TrajectoryConfig(n_traj=2, seed=0, grid=TimeGrid(0, 1, 3))
        with pytest.raises(ValueError, match="finite"):
            ensemble_average(emb.model, psi0, cfg)
        with pytest.raises(ValueError, match="finite"):
            mcwf_run(emb.model, psi0, cfg)

    @pytest.mark.parametrize("index", [-1, 1 << 64, 1.5, True])
    def test_rejects_traj_index_outside_the_stream_keys(self, index):
        cfg = TrajectoryConfig(n_traj=1, seed=0, grid=TimeGrid(0, 1, 3))
        with pytest.raises(ValueError, match="traj_index"):
            mcwf_run(tls_decay_model(), np.array([0.0, 1.0], dtype=complex), cfg, index)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5, True, False])
    def test_rejects_seed_outside_the_stream_keys(self, seed):
        # the seed is one 64-bit word of the Philox key, so 2^64 + 7 would alias 7
        with pytest.raises(ValueError, match="seed"):
            TrajectoryConfig(n_traj=1, seed=seed, grid=TimeGrid(0, 1, 3))

    @pytest.mark.parametrize("n_traj", [0, 2.5, True])
    def test_rejects_n_traj_that_is_not_a_count(self, n_traj):
        # a bool is an int to Python, but n_traj=True is a caller's slip, not one trajectory
        with pytest.raises(ValueError, match="n_traj"):
            TrajectoryConfig(n_traj=n_traj, seed=0, grid=TimeGrid(0, 1, 3))

    def test_largest_traj_index_runs(self):
        cfg = TrajectoryConfig(n_traj=1, seed=0, grid=TimeGrid(0, 1, 3), integrator=LOOSE)
        traj = mcwf_run(tls_decay_model(), np.array([0.0, 1.0], dtype=complex), cfg,
                        (1 << 64) - 1)
        assert len(traj.states) == 3

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


def test_instant_zero_is_psi0_as_given(monkeypatch):
    # a superposition whose squared norm rounds below 1: normalizing it again moves its bits
    psi0 = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    assert trajectories._norm_sq(psi0) != 1.0
    model = pump_model()
    cfg = TrajectoryConfig(n_traj=5, seed=13, grid=TimeGrid(0, 2, 9), integrator=LOOSE)
    monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "1")
    instant_zero = []
    run_block = trajectories._run_block

    def recorded(*args):
        windows = run_block(*args)
        first = next(windows)
        instant_zero.append(first[0].copy())
        yield first
        yield from windows

    for entries in (trajectories._WINDOW_ENTRIES, 1):
        monkeypatch.setattr(trajectories, "_WINDOW_ENTRIES", entries)
        traj = mcwf_run(model, psi0, cfg, traj_index=3)
        assert len(traj.jump_times) > 0
        assert np.array_equal(traj.states[0], psi0)
        with monkeypatch.context() as patch:
            patch.setattr(trajectories, "_run_block", recorded)
            ensemble_average(model, psi0, cfg)
        assert np.array_equal(instant_zero.pop(), np.tile(psi0, (cfg.n_traj, 1)))


class TestEnsembleAverage:
    def test_single_trajectory_stats(self):
        emb, psi0, obs = embedded_setup()
        cfg = TrajectoryConfig(n_traj=1, seed=5, grid=TimeGrid(0, 5, 11), integrator=LOOSE)
        stats = ensemble_average(emb.model, psi0, cfg, observables=(obs,))
        traj = mcwf_run(emb.model, psi0, cfg, traj_index=0)
        pe = np.einsum("ti,ij,tj->t", traj.states.conj(), obs.mat, traj.states)
        assert np.allclose(stats.means[0], pe)
        assert np.all(np.isnan(stats.stderrs))

    @pytest.mark.parametrize("observables, message", [
        ((P_E, Operator(np.eye(3))), "observable 1 dim 3 != model dim 2"),
        ((np.eye(2),), "observable 0 must be an Operator, got ndarray"),
    ])
    def test_rejects_bad_observables_before_any_work(self, monkeypatch, observables, message):
        def no_work(*args):
            raise AssertionError("the propagator was built")

        monkeypatch.setattr(trajectories, "_grid_propagator", no_work)
        cfg = TrajectoryConfig(n_traj=2, seed=0, grid=TimeGrid(0, 1, 3))
        with pytest.raises(ValueError, match=message):
            ensemble_average(tls_decay_model(), np.array([0.0, 1.0], dtype=complex), cfg,
                             observables=observables)

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

    # the pump model's rows have 2 entries, where a lone row would round
    # differently without _rows_times
    @pytest.mark.parametrize("setup", ["embedded", "pump"])
    def test_batching_does_not_move_the_ensemble(self, monkeypatch, setup):
        # 385 = 3 x 128 + 1: the last block is one row, alone when batches are single blocks
        if setup == "embedded":
            emb, psi0, obs = embedded_setup()
            model = emb.model
        else:
            model, psi0, obs = pump_model(), np.array([0.0, 1.0], dtype=complex), P_E
        cfg = TrajectoryConfig(n_traj=385, seed=99, grid=TimeGrid(0, 5, 11), integrator=LOOSE)
        runs = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", workers)
            runs.append(ensemble_average(model, psi0, cfg, observables=(obs,)))
        monkeypatch.setattr(trajectories, "_BATCH_BLOCKS", 1)
        monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "1")
        runs.append(ensemble_average(model, psi0, cfg, observables=(obs,)))
        first = runs[0]
        assert first.jump_histogram.sum() == 385
        for other in runs[1:]:
            assert np.array_equal(first.means, other.means)
            assert np.array_equal(first.stderrs, other.stderrs)
            assert np.array_equal(first.mean_states, other.mean_states)
            assert np.array_equal(first.jump_histogram, other.jump_histogram)

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("PSEUDOMODE_NUM_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _worker_count(8) == 1

    def test_pool_never_outgrows_the_cpus(self, monkeypatch):
        # a worker count past the block count cuts 1000 trajectories into eight one-block
        # batches; at two CPUs the caller runs one share and one worker process the other
        started = []

        def recorded(*args, **kwargs):
            started.append(kwargs)
            return multiprocessing.Process(*args, **kwargs)

        model, psi0, tcfg, obs = TestSharedPropagatorBuilder.shipped(7)
        monkeypatch.setattr(trajectories, "Process", recorded)
        monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "1")
        alone = ensemble_average(model, psi0, tcfg, observables=(obs,))
        assert started == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "1000000")
        split = ensemble_average(model, psi0, tcfg, observables=(obs,))
        assert len(started) == 1
        assert multiprocessing.active_children() == []
        assert np.array_equal(alone.means, split.means)
        assert np.array_equal(alone.mean_states, split.mean_states)

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


# Stand-ins for trajectories._accumulate_batch, at module level so that they pickle.
_accumulate_batch = trajectories._accumulate_batch
_TEST_PROCESS = os.getpid()


def _interrupted_in_caller(args):
    if os.getpid() == _TEST_PROCESS:
        raise KeyboardInterrupt
    return _accumulate_batch(args)


def _dying_past_first_batch(args):
    if args[4] != 0:  # the batch's first trajectory
        os._exit(1)
    return _accumulate_batch(args)


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched function must reach the worker, which only fork copies",
)


class TestWorkers:
    """The caller runs batch 0 and one worker batch 1 (two CPUs, two workers)."""

    @pytest.fixture
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "2")

    @pytest.fixture
    def deadline(self):
        """Fail, instead of blocking the suite, if the run is still waiting after 10 s."""

        def expired(signum, frame):
            pytest.fail("ensemble_average still waiting on its worker after 10 s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(10)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def fail_in_worker(monkeypatch):
        """_select_channel raises JumpDegeneracyError in every process but this one."""
        caller = os.getpid()
        select = trajectories._select_channel

        def failing(weights, u):
            if os.getpid() != caller:
                raise JumpDegeneracyError("worker batch failed")
            return select(weights, u)

        monkeypatch.setattr(trajectories, "_select_channel", failing)

    def test_interrupted_caller_stops_its_worker(self, monkeypatch, two_workers, deadline):
        monkeypatch.setattr(trajectories, "_accumulate_batch", _interrupted_in_caller)
        model, psi0, tcfg, obs = TestSharedPropagatorBuilder.shipped(7)
        with pytest.raises(KeyboardInterrupt):
            ensemble_average(model, psi0, tcfg, observables=(obs,))
        assert multiprocessing.active_children() == []

    @fork_only
    def test_dead_worker_raises(self, monkeypatch, two_workers, deadline):
        monkeypatch.setattr(trajectories, "_accumulate_batch", _dying_past_first_batch)
        model, psi0, tcfg, obs = TestSharedPropagatorBuilder.shipped(7)
        with pytest.raises(RuntimeError, match="exited with code 1"):
            ensemble_average(model, psi0, tcfg, observables=(obs,))
        assert multiprocessing.active_children() == []

    @fork_only
    def test_worker_error_keeps_its_type(self, monkeypatch, two_workers, deadline):
        self.fail_in_worker(monkeypatch)
        model, psi0, tcfg, obs = TestSharedPropagatorBuilder.shipped(7)
        with pytest.raises(JumpDegeneracyError, match="worker batch failed"):
            ensemble_average(model, psi0, tcfg, observables=(obs,))
        assert multiprocessing.active_children() == []

    @fork_only
    def test_worker_error_exits_3(self, monkeypatch, two_workers, deadline, tmp_path, capsys):
        self.fail_in_worker(monkeypatch)
        config = REPO / "configs" / "trajectories_embedded.json"
        assert main(["run", str(config), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "jump failure: worker batch failed\n"
        assert multiprocessing.active_children() == []


# (rows, n) per draw call: one draw, then pairs as a jump takes them; the 4-word block is crossed
_JUMP_DRAWS = [([2, 0, 1], 1)] + [([1, 2, 0], 2)] * 4


class TestIndexedStreams:
    """_Streams reads draw j of stream (seed, idx) by index; _trajectory_rng defines the stream."""

    @pytest.mark.parametrize("seed, indices, calls", [
        *(pytest.param(seed, [0, 1, 999], _JUMP_DRAWS, id=str(seed)) for seed in (0, 7, 2**64 - 1)),
        pytest.param(7, [2**63, 2**64 - 1], [([1, 0], 1), ([0, 1], 2), ([1, 0], 2)],
                     id="largest-indices"),
        # the rows of one call sit at different draw counts, so in different blocks
        pytest.param(11, [0, 5, 9], [([0], 3), ([1], 1), ([0, 1, 2], 2), ([2, 0, 1], 5)],
                     id="uneven-counts"),
        pytest.param(5, [42], [([0], 1), ([0], 2), ([0], 2), ([0], 3)], id="single-row"),
        # 13 draws in one call span the blocks at counters 1 to 4
        pytest.param(2**64 - 1, [3, 2**64 - 1], [([1], 1), ([0, 1], 13), ([1, 0], 2)],
                     id="four-blocks"),
    ])
    def test_draws_equal_the_generator(self, seed, indices, calls):
        streams = _Streams(seed, indices)
        got = {row: [] for row in range(len(indices))}
        for rows, n in calls:
            for row, draws in zip(rows, streams.draw(rows, n)):
                got[row].extend(draws)
        for row, idx in enumerate(indices):
            expected = _trajectory_rng(seed, idx).random(len(got[row]))
            assert np.array_equal(got[row], expected)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_blocks_are_the_philox_words(self, seed):
        indices = np.array([0, 1, 999, 2**63, 2**64 - 1], dtype=np.uint64)
        for counter in (1, 2, 3):
            words = trajectories._philox(np.full(len(indices), counter), seed, indices)
            for idx, got in zip(indices, words):
                bitgen = np.random.Philox(key=np.array([seed, idx], dtype=np.uint64))
                assert np.array_equal(got, bitgen.random_raw(4 * counter)[-4:])


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
    """The no-jump propagator comes from trajectories.propagator, bit for bit
    the Dopri5 solve on the identity that trajectories inlined before, so the
    shipped ensemble (configs/trajectories_embedded.json) does not move."""

    # seed -> jump histogram recorded with the solve inlined in trajectories
    RECORDED_HISTOGRAMS = {7: [367, 633], 11: [369, 631]}

    @staticmethod
    def shipped(seed):
        cfg = load_scenario(REPO / "configs" / "trajectories_embedded.json")
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
        return list(iter_instants(lambda y: generator @ y, identity_, [0.0, h], cfg))[-1]

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


def _reference_locate_crossings(rhs, y_a, widths, thresholds, norm_end, tol):
    """_locate_crossings as it was before waves: one scalar tolerance for the group."""
    k1 = rhs(y_a)
    lo = np.zeros(len(y_a))
    hi = widths.copy()
    f_a = trajectories._norm_sq(y_a) - thresholds
    x = np.clip(widths * f_a / (f_a - (norm_end - thresholds)), 0.5 * tol, widths - 0.5 * tol)
    steps = 0
    active = np.flatnonzero(hi - lo > tol)
    while active.size:
        steps += 1
        x_a = x[active]
        y = fixed_step(rhs, y_a[active], x_a[:, None], k1[active])
        f = trajectories._norm_sq(y) - thresholds[active]
        above = f >= 0.0
        lo_a = np.where(above, x_a, lo[active])
        hi_a = np.where(above, hi[active], x_a)
        lo[active] = lo_a
        hi[active] = hi_a
        slope = 2.0 * np.sum((y.conj() * rhs(y)).real, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x_a - f / slope
        ok = (newton > lo_a) & (newton < hi_a) & (steps < trajectories._NEWTON_STEPS)
        x[active] = np.where(ok, np.clip(newton, lo_a + 0.5 * tol, hi_a - 0.5 * tol),
                             0.5 * (lo_a + hi_a))
        active = active[hi_a - lo_a > tol]
    tau = 0.5 * (lo + hi)
    return tau, fixed_step(rhs, y_a, tau[:, None], k1)


def _reference_jump_rows(prop, rows, y_a, norm_end, t_a, thresholds, rngs, jump_log):
    """The jump routine (_jump, which once called a _jump_rows layer) as it was before
    waves: one t_a and one tolerance per group.

    Two things differ from that code: the channel broadcast is fixed, and
    products go through _rows_times, so that both cores round alike.
    """
    rhs = lambda y: trajectories._rows_times(y, prop.drift_t)  # noqa: E731
    t_end = t_a + prop.h
    tol = trajectories._JUMP_TIME_REL_TOL * max(abs(t_end), 1.0)
    starts = np.full(len(rows), t_a)
    y_start = y_a.copy()
    y_end = np.empty_like(y_a)
    norm_end = norm_end.copy()
    pending = np.arange(len(rows))
    while pending.size:
        owners = rows[pending]
        widths = t_end - starts[pending]
        tau, y_star = _reference_locate_crossings(rhs, y_start[pending], widths,
                                                  thresholds[owners], norm_end[pending], tol)
        t_jump = starts[pending] + tau
        branches = np.einsum("kd,cde->kce", y_star, prop.jumps_t)
        weights = prop.rates * trajectories._norm_sq(branches)
        collapsed = np.empty_like(y_star)
        for j, row in enumerate(owners):
            rng = rngs[row]
            channel = int(_select_channel(weights[j], rng.random()))
            collapsed[j] = branches[j, channel] / np.linalg.norm(branches[j, channel])
            thresholds[row] = rng.random()
            jump_log.append((int(row), float(t_jump[j]), channel))
        remaining = (t_end - t_jump)[:, None]
        y_next = fixed_step(rhs, collapsed, remaining)
        y_end[pending] = y_next
        y_start[pending] = collapsed
        starts[pending] = t_jump
        norm_end[pending] = trajectories._norm_sq(y_next)
        pending = pending[norm_end[pending] < thresholds[owners]]
    return y_end


def _per_substep_reference(prop, psi0, seed, indices, jump_log):
    """The block core before waves: it stops at every sub-step in which a row crossed.

    Yields the block's (n, dim) states one instant at a time.
    """
    rngs = [_trajectory_rng(seed, idx) for idx in indices]
    thresholds = np.array([rng.random() for rng in rngs])
    y = np.tile(psi0, (len(rngs), 1))
    yield y
    times = prop.times
    for i in range(1, len(times)):
        for s in range(prop.substeps):
            y_a = y
            y = y_a @ prop.step_t
            norms = trajectories._norm_sq(y)
            crossed = np.flatnonzero(norms < thresholds)
            if crossed.size:
                t_a = times[i - 1] + s * prop.h
                y[crossed] = _reference_jump_rows(prop, crossed, y_a[crossed], norms[crossed],
                                                  t_a, thresholds, rngs, jump_log)
        yield y / np.sqrt(trajectories._norm_sq(y))[:, None]


def _reference_windows(prop, psi0, seed, indices, jump_log):
    """The reference core behind _run_block's interface: windows of one instant."""
    for y in _per_substep_reference(prop, psi0, seed, indices, jump_log):
        yield y[None]


def _both_cores(monkeypatch, model, psi0, cfg, observables):
    monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "1")
    waves = ensemble_average(model, psi0, cfg, observables=observables)
    monkeypatch.setattr(trajectories, "_run_block", _reference_windows)
    return waves, ensemble_average(model, psi0, cfg, observables=observables)


class TestWavesMatchPerSubstepCore:
    """The wave-batched block core against the per-sub-step core it replaced."""

    @pytest.mark.parametrize("seed", [7, 11])
    def test_shipped_ensemble_is_bit_identical(self, monkeypatch, seed):
        model, psi0, tcfg, obs = TestSharedPropagatorBuilder.shipped(seed)
        waves, reference = _both_cores(monkeypatch, model, psi0, tcfg, (obs,))
        assert np.array_equal(waves.means, reference.means)
        assert np.array_equal(waves.stderrs, reference.stderrs)
        assert np.array_equal(waves.mean_states, reference.mean_states)
        assert np.array_equal(waves.jump_histogram, reference.jump_histogram)

    @pytest.mark.parametrize("n_points", [101, 6])  # the 6-point grid needs sub-steps
    @pytest.mark.parametrize("setup", ["pump", "oscillator"])
    def test_multi_jump_ensembles_agree(self, monkeypatch, setup, n_points):
        if setup == "pump":
            model, psi0 = pump_model(), np.array([0.0, 1.0], dtype=complex)
            obs = P_E
        else:
            model, psi0 = oscillator_setup()
            obs = kron(Operator(np.diag(np.arange(4.0)).astype(complex)), identity(4))
        cfg = TrajectoryConfig(n_traj=200, seed=41, grid=TimeGrid(0, 10, n_points),
                               integrator=LOOSE)
        waves, reference = _both_cores(monkeypatch, model, psi0, cfg, (obs,))
        assert len(waves.jump_histogram) > 3
        assert np.array_equal(waves.jump_histogram, reference.jump_histogram)
        assert np.max(np.abs(waves.means - reference.means)) <= 1e-12
        assert np.max(np.abs(waves.mean_states - reference.mean_states)) <= 1e-12

    def test_window_size_does_not_move_the_ensemble(self, monkeypatch):
        # one instant per window: every wave ends at a window edge
        model, psi0, tcfg, obs = TestSharedPropagatorBuilder.shipped(7)
        monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "1")
        whole = ensemble_average(model, psi0, tcfg, observables=(obs,))
        monkeypatch.setattr(trajectories, "_WINDOW_ENTRIES", 1)
        windowed = ensemble_average(model, psi0, tcfg, observables=(obs,))
        assert np.array_equal(whole.means, windowed.means)
        assert np.array_equal(whole.mean_states, windowed.mean_states)
        assert np.array_equal(whole.jump_histogram, windowed.jump_histogram)

    def test_window_size_does_not_move_dark_and_moving_rows(self, monkeypatch):
        # on the 6-point grid, with sub-steps, a row that jumps in a window's last sub-step
        # starts exactly on the next window's edge
        model, psi0 = oscillator_setup()
        obs = kron(Operator(np.diag(np.arange(4.0)).astype(complex)), identity(4))
        cfg = TrajectoryConfig(n_traj=200, seed=41, grid=TimeGrid(0, 10, 6), integrator=LOOSE)
        monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "1")
        whole = ensemble_average(model, psi0, cfg, observables=(obs,))
        on_edge = []
        advance = trajectories._advance

        def recorded(prop, path, starts, dark, y, first, *rest):
            on_edge.append(np.count_nonzero(starts == first * prop.substeps))
            return advance(prop, path, starts, dark, y, first, *rest)

        monkeypatch.setattr(trajectories, "_WINDOW_ENTRIES", 1)
        monkeypatch.setattr(trajectories, "_advance", recorded)
        windowed = ensemble_average(model, psi0, cfg, observables=(obs,))
        assert trajectories._grid_propagator(model, cfg).substeps > 1
        assert len(on_edge) == 6 and sum(on_edge) > 0  # one window per instant
        assert whole.jump_histogram[3] > 0  # the vacuum is dark
        assert whole.jump_histogram[1:3].sum() > 0  # rows still moving after a jump
        assert np.array_equal(whole.means, windowed.means)
        assert np.array_equal(whole.mean_states, windowed.mean_states)
        assert np.array_equal(whole.jump_histogram, windowed.jump_histogram)

    def test_one_crossing_search_per_wave(self, monkeypatch):
        # the per-sub-step core made about 46 searches per block here
        model, psi0, tcfg, obs = TestSharedPropagatorBuilder.shipped(7)
        monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "1")
        calls = []
        search = trajectories._locate_crossings

        def counted(*args):
            calls.append(len(args[1]))
            return search(*args)

        monkeypatch.setattr(trajectories, "_locate_crossings", counted)
        stats = ensemble_average(model, psi0, tcfg, observables=(obs,))
        n_blocks = -(-tcfg.n_traj // trajectories._BLOCK)
        assert len(calls) <= 2 * n_blocks
        assert sum(calls) == np.dot(np.arange(len(stats.jump_histogram)), stats.jump_histogram)

    @pytest.mark.parametrize("n_points", [101, 6])  # the 6-point grid needs sub-steps
    @pytest.mark.parametrize("setup", ["pump", "oscillator"])
    def test_first_jumps_join_later_windows(self, monkeypatch, setup, n_points):
        # every first jump is made before the first window; a row that its jump leaves on
        # moving states joins the wave of the window that its start falls in
        if setup == "pump":
            model, psi0, obs = pump_model(), np.array([0.0, 1.0], dtype=complex), P_E
        else:
            model, psi0 = oscillator_setup()
            obs = kron(Operator(np.diag(np.arange(4.0)).astype(complex)), identity(4))
        cfg = TrajectoryConfig(n_traj=200, seed=41, grid=TimeGrid(0, 10, n_points),
                               integrator=LOOSE)
        monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "1")
        prop = trajectories._grid_propagator(model, cfg)
        checked = range(0, cfg.n_traj, 10)
        singles = [mcwf_run(model, psi0, cfg, traj_index=index).states for index in checked]
        windowed = []
        for instants in (1, 3):
            monkeypatch.setattr(trajectories, "_WINDOW_ENTRIES", instants * cfg.n_traj * model.dim)
            jump_log = []
            states = np.concatenate(list(trajectories._run_block(prop, psi0, cfg.seed,
                                                                 range(cfg.n_traj), jump_log)))
            first_jumps = {}
            for row, t, _ in jump_log:
                first_jumps.setdefault(row, t)
            assert max(first_jumps.values()) > prop.times[instants - 1]  # past the first window
            for index, single in zip(checked, singles):
                assert np.array_equal(states[:, index], single)
            windowed.append(ensemble_average(model, psi0, cfg, observables=(obs,)))
        monkeypatch.setattr(trajectories, "_run_block", _reference_windows)
        reference = ensemble_average(model, psi0, cfg, observables=(obs,))
        for waves in windowed:
            assert np.array_equal(waves.jump_histogram, reference.jump_histogram)
            assert np.max(np.abs(waves.means - reference.means)) <= 1e-12
            assert np.max(np.abs(waves.mean_states - reference.mean_states)) <= 1e-12


class TestDarkRows:
    """A row that a jump leaves on fixed states only is written by broadcast, not carried."""

    @staticmethod
    def count_waves(monkeypatch, model, psi0, cfg, obs):
        """(_wave calls, windows) of the ensemble at one worker."""
        monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "1")
        calls = {"_wave": 0, "_advance": 0}  # one _advance call per window
        for name in calls:
            def counted(*args, _name=name, _inner=getattr(trajectories, name)):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(trajectories, name, counted)
        stats = ensemble_average(model, psi0, cfg, observables=(obs,))
        return calls["_wave"], calls["_advance"], stats

    def test_step_keeps_the_fixed_states(self):
        model, _, tcfg, _ = TestSharedPropagatorBuilder.shipped(7)
        prop = trajectories._grid_propagator(model, tcfg)
        assert np.flatnonzero(~prop.moving).tolist() == [0]  # |g, 0>
        assert np.array_equal(prop.step_t[~prop.moving], np.eye(model.dim)[~prop.moving])

    def test_shipped_ensemble_runs_one_wave_per_window(self, monkeypatch):
        model, psi0, tcfg, obs = TestSharedPropagatorBuilder.shipped(7)
        waves, windows, stats = self.count_waves(monkeypatch, model, psi0, tcfg, obs)
        assert stats.jump_histogram[1] > 0
        assert waves == windows > 1

    def test_rows_without_fixed_states_run_later_waves(self, monkeypatch):
        cfg = TrajectoryConfig(n_traj=200, seed=41, grid=TimeGrid(0, 10, 101), integrator=LOOSE)
        model, psi0 = pump_model(), np.array([0.0, 1.0], dtype=complex)
        assert trajectories._grid_propagator(model, cfg).moving.all()
        waves, windows, _ = self.count_waves(monkeypatch, model, psi0, cfg, P_E)
        assert waves > windows


class TestMultiChannelJumps:
    """Models with more than one jump channel (decay and pumping)."""

    PSI0 = np.array([0.0, 1.0], dtype=complex)

    def test_ensemble_tracks_master_equation(self):
        model = pump_model()
        grid = TimeGrid(0.0, 5.0, 26)
        cfg = TrajectoryConfig(n_traj=2000, seed=19, grid=grid, integrator=LOOSE)
        stats = ensemble_average(model, self.PSI0, cfg, observables=(P_E,))
        rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        ref = np.array([expectation(P_E, st).real for st in evolve(model, rho0, grid)])
        dev = np.abs(stats.means[0].real - ref)
        assert np.all(dev <= 3 * stats.stderrs[0] + 1e-12)

    def test_single_run_records_both_channels(self):
        cfg = TrajectoryConfig(n_traj=1, seed=19, grid=TimeGrid(0, 10, 41), integrator=LOOSE)
        traj = mcwf_run(pump_model(), self.PSI0, cfg, traj_index=0)
        assert set(traj.jump_channels.tolist()) == {0, 1}
        assert np.all(np.diff(traj.jump_times) > 0)

    def test_ensemble_equals_mean_of_single_runs(self):
        model = pump_model()
        cfg = TrajectoryConfig(n_traj=150, seed=19, grid=TimeGrid(0, 10, 41), integrator=LOOSE)
        stats = ensemble_average(model, self.PSI0, cfg, observables=(P_E,))
        runs = [mcwf_run(model, self.PSI0, cfg, traj_index=idx) for idx in range(cfg.n_traj)]
        states = np.array([r.states for r in runs])
        pe = np.einsum("kti,ij,ktj->kt", states.conj(), P_E.mat, states)
        rho = np.einsum("kti,ktj->tij", states, states.conj()) / cfg.n_traj
        assert np.max(np.abs(stats.means[0] - pe.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(stats.mean_states - rho)) <= 1e-12
        hist = np.bincount([len(r.jump_times) for r in runs])
        assert np.array_equal(stats.jump_histogram, hist)

    def test_channel_selection_is_per_row(self):
        weights = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        u = np.array([0.99, 0.01, 0.25, 0.75])
        assert _select_channel(weights, u).tolist() == [0, 1, 0, 1]
        with pytest.raises(JumpDegeneracyError, match="total 0"):
            _select_channel(np.array([[1.0, 0.0], [0.0, 0.0]]), u[:2])


def test_unraveling_convergence_script_runs():
    script = REPO / "scripts" / "run_unraveling_convergence.py"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, str(script), "--sizes", "100", "200"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.strip().splitlines()
    assert header.split()[0] == "n_traj"
    assert [int(row.split()[0]) for row in rows] == [100, 200]
    assert all(np.isfinite(float(v)) for row in rows for v in row.split()[1:])


def _shipped_search_rows():
    """Search inputs on the shipped model: its no-jump state after 0, 3, 7, 12 and 20 sub-steps."""
    model, psi0, tcfg, _ = TestSharedPropagatorBuilder.shipped(7)
    prop = trajectories._grid_propagator(model, tcfg)
    states = [psi0]
    for _ in range(20):
        states.append(states[-1] @ prop.step_t)
    return prop, np.array([states[p] for p in (0, 3, 7, 12, 20)])


def _pump_search_rows():
    """Search inputs on pump_model(): five normalized two-level states."""
    cfg = TrajectoryConfig(n_traj=1, seed=0, grid=TimeGrid(0, 10, 101), integrator=LOOSE)
    prop = trajectories._grid_propagator(pump_model(), cfg)
    y = np.array([[0.0, 1.0], [0.6, 0.8], [0.8j, 0.6], [0.28, 0.96j], [1.0, 0.0]], dtype=complex)
    return prop, y


class TestBisectionTail:
    """The search resolves several bisection levels per call, with the jump times of one per call."""

    # log2(width / tol) is 29.9, 33.5, 41.0 and 30.1 halvings; the last bracket starts within tol
    WIDTHS = np.array([0.1, 0.37, 1.0, 0.8, 5e-11])
    TOLS = np.array([1e-10, 3e-11, 5e-13, 7e-10, 1e-10])
    FRACTIONS = np.array([0.3, 0.5, 0.9, 0.01, 0.5])

    @pytest.mark.parametrize("newton_steps", [1, 3])
    @pytest.mark.parametrize("rows", [_shipped_search_rows, _pump_search_rows])
    def test_tail_equals_one_bisection_per_call(self, monkeypatch, rows, newton_steps):
        monkeypatch.setattr(trajectories, "_NEWTON_STEPS", newton_steps)
        prop, y_a = rows()
        rhs = lambda y: trajectories._rows_times(y, prop.drift_t)  # noqa: E731
        norm_a = trajectories._norm_sq(y_a)
        norm_end = trajectories._norm_sq(fixed_step(rhs, y_a, self.WIDTHS[:, None]))
        assert np.all(norm_end < norm_a)
        thresholds = norm_end + self.FRACTIONS * (norm_a - norm_end)
        tau, y_star = trajectories._locate_crossings(rhs, y_a, self.WIDTHS, thresholds,
                                                     norm_end, self.TOLS)
        for j, tol in enumerate(self.TOLS):
            at = slice(j, j + 1)
            ref_tau, ref_y = _reference_locate_crossings(rhs, y_a[at], self.WIDTHS[at],
                                                         thresholds[at], norm_end[at], tol)
            assert np.array_equal(tau[at], ref_tau)
            assert np.array_equal(y_star[at], ref_y)
        assert tau[-1] == 0.5 * self.WIDTHS[-1]


class TestBatchWork:
    """What the batch core does per row: bounded searches, one shared product for rows alike."""

    @staticmethod
    def step_rows(monkeypatch, model, psi0, cfg, obs):
        """The row count of every product by the ensemble's step_t, at one worker."""
        monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "1")
        props, counts = [], []
        build, times = trajectories._grid_propagator, trajectories._rows_times

        def recorded_build(*args):
            props.append(build(*args))
            return props[-1]

        def recorded_times(y, mat_t):
            if mat_t is props[-1].step_t:
                counts.append(len(y))
            return times(y, mat_t)

        monkeypatch.setattr(trajectories, "_grid_propagator", recorded_build)
        monkeypatch.setattr(trajectories, "_rows_times", recorded_times)
        ensemble_average(model, psi0, cfg, observables=(obs,))
        return counts

    def test_search_calls_are_bounded(self, monkeypatch):
        model, psi0, tcfg, obs = TestSharedPropagatorBuilder.shipped(7)
        monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "1")
        h = trajectories._grid_propagator(model, tcfg).h
        halvings = int(np.ceil(np.log2(h / trajectories._JUMP_TIME_REL_TOL)))
        bound = trajectories._NEWTON_STEPS + -(-halvings // trajectories._BISECT_LEVELS) + 1
        searches = []  # fixed_step calls per _locate_crossings call
        inside = [False]
        search, step = trajectories._locate_crossings, trajectories.fixed_step

        def counted_search(*args):
            searches.append(0)
            inside[0] = True
            try:
                return search(*args)
            finally:
                inside[0] = False

        def counted_step(*args):
            if inside[0]:
                searches[-1] += 1
            return step(*args)

        monkeypatch.setattr(trajectories, "_locate_crossings", counted_search)
        monkeypatch.setattr(trajectories, "fixed_step", counted_step)
        ensemble_average(model, psi0, tcfg, observables=(obs,))
        assert searches and max(searches) <= bound

    def test_shipped_ensemble_steps_one_row(self, monkeypatch):
        # never-jumped rows share one path, and every jump leaves a dark row
        model, psi0, tcfg, obs = TestSharedPropagatorBuilder.shipped(7)
        counts = self.step_rows(monkeypatch, model, psi0, tcfg, obs)
        assert counts and max(counts) == 1

    def test_moving_jumps_still_share_products(self, monkeypatch):
        model, psi0 = oscillator_setup()
        obs = kron(Operator(np.diag(np.arange(4.0)).astype(complex)), identity(4))
        cfg = TrajectoryConfig(n_traj=200, seed=41, grid=TimeGrid(0, 10, 101), integrator=LOOSE)
        counts = self.step_rows(monkeypatch, model, psi0, cfg, obs)
        assert max(counts) > 1

    @pytest.mark.parametrize("batch_blocks", [8, 2])
    def test_first_jumps_are_searched_once_per_batch(self, monkeypatch, batch_blocks):
        # every shipped jump leaves a dark row, so no row jumps twice within a sub-step
        model, psi0, tcfg, obs = TestSharedPropagatorBuilder.shipped(7)
        monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "1")
        monkeypatch.setattr(trajectories, "_BATCH_BLOCKS", batch_blocks)
        batches, searches = [], []
        accumulate, search = trajectories._accumulate_batch, trajectories._locate_crossings

        def counted_batch(args):
            batches.append(args)
            return accumulate(args)

        def counted_search(*args):
            searches.append(len(args[1]))
            return search(*args)

        monkeypatch.setattr(trajectories, "_accumulate_batch", counted_batch)
        monkeypatch.setattr(trajectories, "_locate_crossings", counted_search)
        stats = ensemble_average(model, psi0, tcfg, observables=(obs,))
        per_batch = batch_blocks * trajectories._BLOCK
        assert len(searches) == len(batches) == -(-tcfg.n_traj // per_batch)
        assert sum(searches) == np.dot(np.arange(len(stats.jump_histogram)), stats.jump_histogram)

    def test_batch_memory_is_bounded(self):
        # the whole-run no-jump path (101 states of dim 4 here) sits beside the window
        # and the block sums
        model, psi0, tcfg, obs = TestSharedPropagatorBuilder.shipped(7)
        prop = trajectories._grid_propagator(model, tcfg)
        tracemalloc.start()
        try:
            trajectories._accumulate_batch((prop, psi0, tcfg.seed, [obs.mat], 0, 512))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20
