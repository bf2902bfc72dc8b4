from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudomode import (
    DensityMatrix,
    EmbeddingSpec,
    IntegratorConfig,
    LindbladModel,
    Lorentzian,
    Operator,
    TimeGrid,
    annihilation,
    build_embedding,
    evolve,
    expectation,
    generator_defect,
    hermiticity_defect,
    identity,
    kron,
    lindblad_rhs,
    oscillator_system,
    regression_correlator,
    sigma_minus,
    tls_system,
)
from pseudomode import cli, dynamics, embedding, integrators
from pseudomode.config import load_scenario
from pseudomode.dynamics import (
    _HermitianCoordinates,
    _integrate_coordinates,
    _reachable,
    _reachable_entries,
    _restricted,
    rhs_function,
)
from pseudomode.integrators import Dopri5

TIGHT = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)


def zero_op(d):
    return Operator(np.zeros((d, d), dtype=complex))


def decay_model(rate=1.0):
    return LindbladModel(dim=2, H=zero_op(2), jumps=((rate, sigma_minus()),))


def random_model(seed, d=3):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = h + h.conj().T
    l1 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return LindbladModel(dim=d, H=Operator(h), jumps=((0.7, Operator(l1)),))


class TestLindbladModel:
    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            LindbladModel(dim=2, H=Operator([[0, 1], [0, 0]]))

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="rate"):
            LindbladModel(dim=2, H=zero_op(2), jumps=((-0.1, sigma_minus()),))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match="finite"):
            LindbladModel(dim=2, H=zero_op(2), jumps=((rate, sigma_minus()),))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            LindbladModel(dim=3, H=zero_op(3), jumps=((1.0, sigma_minus()),))

    # each dim equals H.dim (True == 1), so only the type check refuses it
    @pytest.mark.parametrize("dim, d", [(2.0, 2), (np.float64(2.0), 2), ("2", 2), (True, 1)])
    def test_rejects_non_integer_dim(self, dim, d):
        with pytest.raises(ValueError, match="model dim must be an integer"):
            LindbladModel(dim=dim, H=zero_op(d))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_hamiltonian(self, bad):
        with pytest.raises(ValueError, match="finite"):
            LindbladModel(dim=2, H=Operator(np.diag([0.0, bad])))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    def test_rejects_non_finite_jump_operator(self, bad):
        lower = np.array([[0.0, 1.0], [bad, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="jump operator must have finite entries"):
            LindbladModel(dim=2, H=zero_op(2), jumps=((1.0, Operator(lower)),))

    def test_drift_and_channels_hold_the_damped_channels_only(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        ls = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3)]
        model = LindbladModel(dim=3, H=Operator(h + h.conj().T),
                              jumps=tuple(zip((0.7, 0.0, 0.3), map(Operator, ls))))
        assert [rate for rate, _ in model.channels] == [0.7, 0.3]
        expected = -1j * model.H.mat - 0.5 * sum(
            rate * L.conj().T @ L for rate, L in zip((0.7, 0.3), (ls[0], ls[2])))
        assert np.max(np.abs(model.drift - expected)) <= 1e-12
        assert model.drift is model.drift
        with pytest.raises(ValueError, match="read-only"):
            model.drift[0, 0] = 0.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rhs_is_the_commutator_plus_dissipators(self, seed):
        # -i[H, rho] + sum rate (L rho L^dag - {L^dag L, rho} / 2), a zero-rate channel included
        rng = np.random.default_rng(seed)
        base = random_model(seed)
        l2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        model = LindbladModel(dim=3, H=base.H, jumps=(*base.jumps, (0.0, Operator(l2))))
        rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        H = model.H.mat
        expected = -1j * (H @ rho - rho @ H)
        for rate, L in model.jumps:
            LdL = L.mat.conj().T @ L.mat
            expected = expected + rate * (L.mat @ rho @ L.mat.conj().T
                                          - 0.5 * (LdL @ rho + rho @ LdL))
        assert np.max(np.abs(rhs_function(model)(rho) - expected)) <= 1e-12


class TestTimeGrid:
    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.5, 10)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_endpoints(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(0.0, bad, 3)
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(bad, 1.0, 3)

    def test_rejects_overflowing_span(self):
        # both ends finite, but t1 - t0 is inf and times() would start at nan
        with pytest.raises(ValueError, match="overflows"):
            TimeGrid(-1e308, 1e308, 3)

    @pytest.mark.parametrize("n_points", [2.5, 3.0, np.float64(3.0), "3", True])
    def test_rejects_non_integer_point_count(self, n_points):
        # a float count used to pass and fail later in times(); "3" failed in a comparison
        with pytest.raises(ValueError, match="n_points must be an integer"):
            TimeGrid(0.0, 1.0, n_points)

    def test_accepts_numpy_integer_point_count(self):
        assert np.array_equal(TimeGrid(0.0, 1.0, np.int64(3)).times(), [0.0, 0.5, 1.0])

    def test_times_uniform(self):
        t = TimeGrid(0.0, 1.0, 5).times()
        assert np.allclose(np.diff(t), 0.25)


class TestLindbladRhs:
    def test_trivial_generator_vanishes(self):
        rho = DensityMatrix.fock(2, 1)
        out = lindblad_rhs(LindbladModel(dim=2, H=zero_op(2)), rho.op)
        assert np.array_equal(out.mat, np.zeros((2, 2)))

    def test_decay_populations(self):
        # rate 0.5 dissipator on |e><e|: excited loses 0.5, ground gains 0.5
        out = lindblad_rhs(decay_model(0.5), DensityMatrix.fock(2, 1).op)
        assert out.mat[1, 1].real == pytest.approx(-0.5)
        assert out.mat[0, 0].real == pytest.approx(0.5)

    def test_coherence_decays_at_half_rate(self):
        coh = Operator([[0, 0], [1, 0]])  # |e><g|
        out = lindblad_rhs(decay_model(0.5), coh)
        assert out.mat[1, 0] == pytest.approx(-0.25)

    @given(st.integers(min_value=0, max_value=2**31))
    def test_traceless_and_hermiticity_preserving(self, seed):
        model = random_model(seed)
        rng = np.random.default_rng(seed + 1)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        herm = Operator(m + m.conj().T)
        out = lindblad_rhs(model, herm)
        assert abs(out.trace()) <= 1e-12
        assert hermiticity_defect(out) <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            lindblad_rhs(decay_model(), zero_op(3))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generator_acts_as_the_rhs_on_the_coordinates(self, seed):
        # two channels, one of them at rate zero, and a channel operator that is not normal
        rng = np.random.default_rng(seed)
        l2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        base = random_model(seed, d=4)
        model = LindbladModel(dim=4, H=base.H, jumps=base.jumps + ((0.0, Operator(l2)),
                                                                   (1.3, Operator(l2 @ l2))))
        coords = _HermitianCoordinates(np.arange(16), 4)
        x = rng.normal(size=(5, 16))
        expected = coords.of_matrix(rhs_function(model)(coords.matrix(x)))
        r = np.bincount(*coords.generator(dynamics._moves(model)), 16 * 16).reshape(16, 16)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(x @ r.T - expected)) <= 1e-14 * scale
        field = dynamics._field(*coords.generator(dynamics._moves(model)), 16)
        assert np.max(np.abs(np.array([field(row) for row in x]) - expected)) <= 1e-14 * scale

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generator_on_the_reachable_entries_is_the_submatrix(self, seed):
        # the same embedded model on all d^2 entries and on the entries reachable from
        # a superposition of two system levels, whose coordinates keep their flat indices
        psi = np.zeros(4)
        psi[np.random.default_rng(seed).choice(4, size=2, replace=False)] = 1.0
        spec = EmbeddingSpec(oscillator_system(4), Lorentzian(g=1.0, omega0=0.0, gamma=1.0), 4)
        emb = build_embedding(spec, DensityMatrix.from_state(psi))
        d = emb.model.dim
        moves = dynamics._moves(emb.model)
        entries = _reachable_entries(moves, emb.rho0.mat)
        assert entries.size < d * d
        sub = np.bincount(*_HermitianCoordinates(entries, d).generator(moves),
                          entries.size ** 2).reshape(entries.size, -1)
        full = np.bincount(*_HermitianCoordinates(np.arange(d * d), d).generator(moves),
                           d ** 4).reshape(d * d, -1)
        assert np.max(np.abs(sub - full[np.ix_(entries, entries)])) <= 1e-15
        outside = np.ones(d * d, dtype=bool)
        outside[entries] = False
        assert np.count_nonzero(full[np.ix_(outside, entries)]) == 0

    def test_reachable_entries_are_closed_under_the_generator(self):
        # oscillator (d_S = 4) with ancilla (d_A = 4) from (|0> + |3>)/sqrt 2 x vacuum
        psi = np.zeros(4)
        psi[[0, 3]] = 1.0
        spec = EmbeddingSpec(oscillator_system(4), Lorentzian(g=1.0, omega0=0.0, gamma=1.0), 4)
        emb = build_embedding(spec, DensityMatrix.from_state(psi))
        entries = _reachable_entries(dynamics._moves(emb.model), emb.rho0.mat)
        assert np.all(np.isin(np.flatnonzero(emb.rho0.mat), entries))
        assert entries.size < emb.model.dim ** 2
        rng = np.random.default_rng(3)
        rho = np.zeros(emb.model.dim ** 2, dtype=complex)
        rho[entries] = rng.normal(size=entries.size) + 1j * rng.normal(size=entries.size)
        out = rhs_function(emb.model)(rho.reshape(emb.model.dim, -1)).reshape(-1)
        outside = np.ones(out.size, dtype=bool)
        outside[entries] = False
        assert np.all(out[outside] == 0)


class TestEvolve:
    def test_stationary_without_generator(self):
        rho0 = DensityMatrix.from_state(np.array([1.0, 1.0]) / np.sqrt(2))
        states = evolve(LindbladModel(dim=2, H=zero_op(2)), rho0, TimeGrid(0, 5, 6))
        for st_ in states:
            assert np.max(np.abs(st_.mat - rho0.mat)) <= 1e-12

    def test_tls_decay_matches_exponential(self):
        states = evolve(decay_model(1.0), DensityMatrix.fock(2, 1), TimeGrid(0, 1, 3))
        assert states[-1].mat[1, 1].real == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_damped_ladder_occupation(self):
        a = annihilation(5)
        model = LindbladModel(dim=5, H=zero_op(5), jumps=((1.0, a),))
        states = evolve(model, DensityMatrix.fock(5, 1), TimeGrid(0, 1, 5))
        n_op = a.dagger() @ a
        for st_, t in zip(states, TimeGrid(0, 1, 5).times()):
            assert expectation(n_op, st_).real == pytest.approx(np.exp(-t), abs=1e-6)

    def test_ground_state_of_damped_ladder_is_stationary(self):
        a = annihilation(5)
        model = LindbladModel(dim=5, H=zero_op(5), jumps=((1.0, a),))
        rho0 = DensityMatrix.fock(5, 0)
        states = evolve(model, rho0, TimeGrid(0, 10, 11))
        drift = max(np.max(np.abs(st_.mat - rho0.mat)) for st_ in states)
        assert drift <= 1e-10

    def test_first_element_is_initial_state(self):
        rho0 = DensityMatrix.fock(2, 1)
        states = evolve(decay_model(), rho0, TimeGrid(0, 1, 4))
        assert np.array_equal(states[0].mat, rho0.mat)

    def test_cptp_sanity_along_trajectory(self):
        model = random_model(7)
        rho0 = DensityMatrix.fock(3, 2)
        for st_ in evolve(model, rho0, TimeGrid(0, 3, 31)):
            assert abs(st_.op.trace() - 1.0) <= 1e-8
            assert hermiticity_defect(st_.op) <= 1e-8
            assert np.linalg.eigvalsh(st_.mat)[0] >= -1e-8

    def test_tolerance_halving_reduces_error(self):
        # standard case: analytic TLS decay, rel_tol 1e-5 -> 5e-6
        grid = TimeGrid(0.0, 4.0, 9)
        ref = np.exp(-grid.times())
        errs = []
        for rel in (1e-5, 5e-6):
            cfg = IntegratorConfig(rel_tol=rel, abs_tol=rel / 100, max_step=10.0)
            states = evolve(decay_model(1.0), DensityMatrix.fock(2, 1), grid, cfg)
            pe = np.array([s.mat[1, 1].real for s in states])
            errs.append(np.max(np.abs(pe - ref)))
        assert errs[0] / errs[1] >= 2.0

    def test_error_shrinks_monotonically_over_decades(self):
        grid = TimeGrid(0.0, 4.0, 9)
        ref = np.exp(-grid.times())
        errs = []
        for rel in (1e-5, 1e-9):
            cfg = IntegratorConfig(rel_tol=rel, abs_tol=rel / 100, max_step=10.0)
            states = evolve(decay_model(1.0), DensityMatrix.fock(2, 1), grid, cfg)
            pe = np.array([s.mat[1, 1].real for s in states])
            errs.append(np.max(np.abs(pe - ref)))
        assert errs[0] / errs[1] > 100.0


class _ResymmetrizingDopri5(Dopri5):
    """The stepper of evolve's former complex-matrix path: each accepted state is
    re-symmetrized, so the next step recomputes its first stage (no FSAL)."""

    def step(self, t_limit):
        super().step(t_limit)
        self.y = (self.y + self.y.conj().T) / 2.0
        self._k1 = self.rhs(self.y)


def _matrix_path_reference(model, rho0, grid, cfg=IntegratorConfig()):
    """evolve as it ran on the complex n x n block of the reachable states."""
    idx = _reachable(model, rho0.mat)
    on_block = np.ix_(idx, idx)
    stepper = _ResymmetrizingDopri5(rhs_function(_restricted(model, idx)), grid.t0,
                                    rho0.mat[on_block], cfg, norm_size=rho0.mat.size)
    states = [rho0.mat]
    for target in grid.times()[1:]:
        while stepper.t < target:
            stepper.step(target)
        full = np.zeros_like(rho0.mat)
        full[on_block] = stepper.y
        states.append(full)
    return np.array(states)


def _cross_sector_superposition(d_s):
    psi = np.zeros(d_s)
    psi[[0, 3]] = 1.0
    return DensityMatrix.from_state(psi)


class TestCoordinateEvolve:
    """evolve integrates the real coordinates of the reachable entries."""

    CASES = {
        "fock5-dS6-dA8": (oscillator_system(6), 1.0, 8, DensityMatrix.fock(6, 5)),
        "exceptional-point": (tls_system(), 4.0, 3, DensityMatrix.fock(2, 1)),
        "cross-sector-dS6-dA8": (oscillator_system(6), 1.0, 8, _cross_sector_superposition(6)),
        "detuned-coherent": (tls_system(0.7), 1.0, 3, DensityMatrix.from_state([1.0, 1.0])),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_resymmetrized_matrix_path(self, case):
        system, gamma, d_a, rho = self.CASES[case]
        emb = build_embedding(
            EmbeddingSpec(system, Lorentzian(g=1.0, omega0=0.0, gamma=gamma), d_a), rho)
        grid = TimeGrid(0.0, 10.0, 201)
        got = np.array([st_.mat for st_ in evolve(emb.model, emb.rho0, grid)])
        assert np.max(np.abs(got - _matrix_path_reference(emb.model, emb.rho0, grid))) <= 1e-9

    def test_reuses_the_last_stage(self, monkeypatch):
        evals, stages = [0], [0]
        factory, run_stages = dynamics._field, integrators._stages

        def counted_factory(*args):
            field = factory(*args)

            def counted(x):
                evals[0] += 1
                return field(x)
            return counted

        def counted_stages(*args):
            stages[0] += 1
            return run_stages(*args)

        monkeypatch.setattr(dynamics, "_field", counted_factory)
        monkeypatch.setattr(integrators, "_stages", counted_stages)
        system, gamma, d_a, rho = self.CASES["detuned-coherent"]
        emb = build_embedding(
            EmbeddingSpec(system, Lorentzian(g=1.0, omega0=0.0, gamma=gamma), d_a), rho)
        evolve(emb.model, emb.rho0, TimeGrid(0.0, 5.0, 11))
        assert stages[0] > 10
        assert evals[0] == 1 + 6 * stages[0]

    @pytest.mark.parametrize("case", CASES)
    def test_matrix_inverts_the_coordinates(self, case):
        system, gamma, d_a, rho = self.CASES[case]
        model, rho0 = embedding._composite(
            EmbeddingSpec(system, Lorentzian(g=1.0, omega0=0.0, gamma=gamma), d_a), rho)
        states, coords, z0, *_ = dynamics._coordinate_layout(model, rho0)
        assert np.max(np.abs(coords.matrix(z0.real) - rho0[np.ix_(states, states)])) <= 1e-15
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, coords.entries.size))
        m = coords.matrix(x)
        assert np.array_equal(m, m.conj().swapaxes(-1, -2))
        assert np.max(np.abs(coords.of_matrix(m) - x)) <= 1e-15
        outside = np.ones(states.size ** 2, dtype=bool)
        outside[coords.entries] = False
        assert np.count_nonzero(m.reshape(3, -1)[:, outside]) == 0


class TestOneLayout:
    """_coordinate_layout lists the moves once and hands every deterministic path its
    live coordinates."""

    SPEC = EmbeddingSpec(oscillator_system(6), Lorentzian(g=1.0, omega0=0.0, gamma=1.0), 8)
    GRID = TimeGrid(0.0, 0.5, 3)

    @staticmethod
    def counted_moves(monkeypatch):
        calls, moves = [], dynamics._moves

        def counted(model):
            calls.append(model.dim)
            return moves(model)

        monkeypatch.setattr(dynamics, "_moves", counted)
        return calls

    @pytest.mark.parametrize("d_s", [6, 11], ids=["grid-step-dS6", "adaptive-dS11"])
    def test_moves_listed_once_per_reduced_curve(self, monkeypatch, d_s):
        # Fock d_S - 1 beside 16 ancilla levels: 91 entries, and 506 past the cut
        model, rho0 = embedding._composite(
            EmbeddingSpec(oscillator_system(d_s), self.SPEC.bath, 16),
            DensityMatrix.fock(d_s, d_s - 1))
        calls = self.counted_moves(monkeypatch)
        embedding._reduced_curve(model, rho0, 16, self.GRID, IntegratorConfig())
        assert len(calls) == 1

    def test_moves_listed_once_per_evolve_and_correlator(self, monkeypatch):
        emb = build_embedding(self.SPEC, DensityMatrix.fock(6, 5))
        calls = self.counted_moves(monkeypatch)
        evolve(emb.model, emb.rho0, self.GRID)
        assert len(calls) == 1
        a = annihilation(4)
        model = LindbladModel(dim=4, H=zero_op(4), jumps=((0.7, a),))
        regression_correlator(model, a, a.dagger(), DensityMatrix.fock(4, 0), self.GRID)
        assert len(calls) == 2

    def test_evolve_integrates_only_the_live_coordinates(self, monkeypatch):
        # 91 reachable entries; at zero detuning only one coordinate of each transposed
        # pair moves
        sizes, run = [], dynamics.iter_instants

        def recorded(rhs, y0, *args, **kwargs):
            sizes.append(y0.size)
            return run(rhs, y0, *args, **kwargs)

        emb = build_embedding(self.SPEC, DensityMatrix.fock(6, 5))
        monkeypatch.setattr(dynamics, "iter_instants", recorded)
        evolve(emb.model, emb.rho0, self.GRID)
        assert sizes == [56]
        assert dynamics._coordinate_layout(emb.model, emb.rho0.mat).coords.entries.size == 91


class TestReachableSubspace:
    BATH = Lorentzian(g=1.0, omega0=0.0, gamma=1.0)

    def embedded(self, system, d_a, rho_s0):
        emb = build_embedding(EmbeddingSpec(system, self.BATH, d_a), rho_s0)
        return emb.model, emb.rho0

    @pytest.mark.parametrize("system, d_a, n0, size", [
        (oscillator_system(6), 16, 5, 21),
        (tls_system(), 3, 1, 3),
    ])
    def test_fock_times_vacuum_reaches_no_more_quanta(self, system, d_a, n0, size):
        model, rho0 = self.embedded(system, d_a, DensityMatrix.fock(system.d_S, n0))
        # product-basis index: system s, ancilla n -> s * d_A + n
        expected = [s * d_a + n for s in range(system.d_S) for n in range(d_a) if s + n <= n0]
        assert len(expected) == size
        assert _reachable(model, rho0.mat).tolist() == expected

    def full_space_run(self, model, rho0, grid):
        """Reference: the coordinates of all d^2 entries of the whole matrix, same integrator."""
        d = model.dim
        coords = _HermitianCoordinates(np.arange(d * d), d)
        curve = _integrate_coordinates(coords.generator(dynamics._moves(model)),
                                       coords.of_matrix(rho0.mat), grid.times(), TIGHT, d * d)
        return coords.matrix(curve)

    def assert_evolve_matches_full_space(self, model, rho0):
        grid = TimeGrid(0.0, 3.0, 31)
        ref = self.full_space_run(model, rho0, grid)
        got = np.array([st_.mat for st_ in evolve(model, rho0, grid, TIGHT)])
        assert np.max(np.abs(got - ref)) <= 1e-12
        return ref

    def test_oscillator_fock_state(self):
        model, rho0 = self.embedded(oscillator_system(6), 8, DensityMatrix.fock(6, 5))
        ref = self.assert_evolve_matches_full_space(model, rho0)
        outside = np.ones(ref.shape[1:], dtype=bool)
        idx = _reachable(model, rho0.mat)
        outside[np.ix_(idx, idx)] = False
        assert np.count_nonzero(ref[:, outside]) == 0

    def test_superposition_across_excitation_sectors(self):
        psi = np.zeros(6)
        psi[[0, 3]] = 1.0 / np.sqrt(2.0)
        model, rho0 = self.embedded(oscillator_system(6), 8, DensityMatrix.from_state(psi))
        assert _reachable(model, rho0.mat).size < model.dim
        self.assert_evolve_matches_full_space(model, rho0)

    def test_dissipator_anticommutator_reaches_beyond_the_jumps(self):
        # L = |0><1| + |0><2| never jumps into 2, but L^dag L couples 1 and 2,
        # so rho[2, 1] grows from |1><1|
        lower = np.zeros((3, 3))
        lower[0, 1] = lower[0, 2] = 1.0
        model = LindbladModel(dim=3, H=zero_op(3), jumps=((0.5, Operator(lower)),))
        rho0 = DensityMatrix.fock(3, 1)
        assert _reachable(model, rho0.mat).tolist() == [0, 1, 2]
        ref = self.assert_evolve_matches_full_space(model, rho0)
        assert abs(ref[-1, 2, 1]) > 0.1

    def test_model_reaching_the_whole_space(self):
        model = random_model(7)
        rho0 = DensityMatrix.fock(3, 2)
        assert _reachable(model, rho0.mat).tolist() == [0, 1, 2]
        self.assert_evolve_matches_full_space(model, rho0)


def _drift_closure(model, rho0):
    """The reachable states as found from the dense drift's own pattern."""
    g = model.drift != 0
    links = g | g.T
    for _, L in model.channels:
        links |= L != 0
    occupied = rho0 != 0
    reached = occupied.any(axis=0) | occupied.any(axis=1)
    while True:
        grown = reached | links[:, reached].any(axis=1)
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


def _shipped_models():
    """The Lindblad models the shipped configs build, at their own and neighbouring d_A."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    for path in sorted(configs.glob("*.json")):
        cfg = load_scenario(path)
        rho = cli._initial_density(cfg)
        yield path.stem, cli._markovian_model(cfg), rho.mat
        if not isinstance(cfg.bath, Lorentzian):
            continue
        for d_a in sorted({2, 3, 8, 16} | ({cfg.d_A} if cfg.d_A != "auto" else set())):
            yield f"{path.stem}-dA{d_a}", *embedding._composite(
                EmbeddingSpec(cfg.system, cfg.bath, d_a), rho)


class TestReachableFromPatterns:
    """_reachable builds its links from the patterns of H and L^T L, never from the
    dense drift; the set must equal the drift-pattern closure."""

    def test_shipped_configs(self):
        for name, model, rho0 in _shipped_models():
            assert _reachable(model, rho0).tolist() == _drift_closure(model, rho0).tolist(), name

    def test_does_not_form_the_drift(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("_reachable formed the dense drift")

        model, rho0 = embedding._composite(
            EmbeddingSpec(oscillator_system(6), Lorentzian(g=1.0, omega0=0.0, gamma=1.0), 16),
            DensityMatrix.fock(6, 5))
        monkeypatch.setattr(LindbladModel, "drift", property(forbidden))
        assert _reachable(model, rho0).size == 21

    @pytest.mark.parametrize("seed", range(40))
    def test_random_sparse_models(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 12))
        density = 0.4 * rng.random()

        def sparse():
            mask = rng.random((d, d)) < density
            return np.where(mask, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 0.0)

        h = sparse()
        jumps = tuple((float(rate), Operator(sparse()))
                      for rate in rng.choice([0.0, 0.3, 1.0], size=int(rng.integers(0, 3))))
        model = LindbladModel(dim=d, H=Operator(h + h.conj().T), jumps=jumps)
        rho0 = np.zeros((d, d), dtype=complex)
        start = rng.choice(d, size=int(rng.integers(1, 3)), replace=False)
        rho0[np.ix_(start, start)] = 1.0
        assert _reachable(model, rho0).tolist() == _drift_closure(model, rho0).tolist()


def _dense_entry_closure(model, seed):
    """The reachable entries as found by dense n x n pattern products, one round per layer."""
    one_sided = (model.drift != 0).astype(float)
    two_sided = [(L != 0).astype(float) for _, L in model.channels]
    reached = seed != 0
    while True:
        grown = one_sided @ reached + reached @ one_sided.T
        for p in two_sided:
            grown += p @ reached @ p.T
        grown = reached | (grown != 0)
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


def _random_sparse_model(seed):
    """The model and initial state of TestReachableFromPatterns.test_random_sparse_models."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 12))
    density = 0.4 * rng.random()

    def sparse():
        mask = rng.random((d, d)) < density
        return np.where(mask, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 0.0)

    h = sparse()
    jumps = tuple((float(rate), Operator(sparse()))
                  for rate in rng.choice([0.0, 0.3, 1.0], size=int(rng.integers(0, 3))))
    model = LindbladModel(dim=d, H=Operator(h + h.conj().T), jumps=jumps)
    rho0 = np.zeros((d, d), dtype=complex)
    start = rng.choice(d, size=int(rng.integers(1, 3)), replace=False)
    rho0[np.ix_(start, start)] = 1.0
    return model, rho0


class TestEntryClosure:
    """_reachable_entries closes the entries under the moves and transposition with one
    breadth-first search; the set must equal the dense pattern products' on the seed
    and its transpose, on the whole model and on the block _coordinate_layout runs."""

    @staticmethod
    def assert_matches(model, seed, name=""):
        both = (seed != 0) | (seed.T != 0)
        assert _reachable_entries(dynamics._moves(model), seed).tolist() == \
            _dense_entry_closure(model, both).tolist(), name
        states, coords, *_ = dynamics._coordinate_layout(model, seed)
        block = dynamics._restricted(model, states)
        block0 = both[np.ix_(states, states)]
        assert coords.entries.tolist() == _dense_entry_closure(block, block0).tolist(), name

    def test_shipped_configs(self):
        for name, model, rho0 in _shipped_models():
            self.assert_matches(model, rho0, name)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_sparse_models(self, seed):
        self.assert_matches(*_random_sparse_model(seed))

    def test_non_hermitian_correlator_seed(self):
        # B rho for B = a x 1 on (|0> + |3>) / sqrt 2 x vacuum: |0><3| has no |3><0| partner
        psi = np.zeros(4)
        psi[[0, 3]] = 1.0
        spec = EmbeddingSpec(oscillator_system(4), Lorentzian(g=1.0, omega0=0.0, gamma=1.0), 4)
        emb = build_embedding(spec, DensityMatrix.from_state(psi))
        seed = kron(annihilation(4), identity(4)).mat @ emb.rho0.mat
        assert np.count_nonzero((seed != 0) & (seed.T == 0)) > 0
        self.assert_matches(emb.model, seed)


class TestRegressionCorrelator:
    def damped_ladder(self, gamma, d=4):
        return LindbladModel(dim=d, H=zero_op(d), jumps=((gamma, annihilation(d)),))

    def test_zero_delay_reduces_to_expectation(self):
        model = self.damped_ladder(0.7)
        a = annihilation(4)
        rho = DensityMatrix.fock(4, 0)
        c = regression_correlator(model, a, a.dagger(), rho, TimeGrid(0, 1, 5), TIGHT)
        assert c[0] == pytest.approx(expectation(a @ a.dagger(), rho), abs=1e-10)

    def test_damped_ladder_correlation_decay(self):
        gamma = 0.7
        model = self.damped_ladder(gamma)
        a = annihilation(4)
        taus = TimeGrid(0.0, 6.0 / gamma, 61)
        c = regression_correlator(model, a, a.dagger(), DensityMatrix.fock(4, 0), taus, TIGHT)
        ref = np.exp(-gamma * taus.times() / 2.0)
        assert np.max(np.abs(c - ref)) <= 1e-7

    def test_undamped_ladder_correlation_is_one(self):
        model = LindbladModel(dim=4, H=zero_op(4))
        a = annihilation(4)
        taus = TimeGrid(0.0, 10.0, 11)
        c = regression_correlator(model, a, a.dagger(), DensityMatrix.fock(4, 0), taus, TIGHT)
        assert np.max(np.abs(c - 1.0)) <= 1e-10

    def test_seed_without_hermitian_part(self):
        # B = i 1 makes B rho = i rho anti-Hermitian; on a stationary state of a pumped,
        # decaying two-level system beside a damped ancilla, <A(tau) B(0)> = i <A>
        # at every delay
        one_s, one_a, a = np.eye(2), np.eye(3), annihilation(3).mat
        lower = sigma_minus().mat
        model = LindbladModel(dim=6, H=Operator(np.kron(np.diag([0.0, 0.4]), one_a)), jumps=(
            (1.0, Operator(np.kron(lower, one_a))), (0.5, Operator(np.kron(lower.T, one_a))),
            (0.8, Operator(np.kron(one_s, a)))))
        vacuum = np.zeros((3, 3))
        vacuum[0, 0] = 1.0
        rho = DensityMatrix(Operator(np.kron(np.diag([2.0, 1.0]) / 3.0, vacuum)))
        obs = Operator(np.kron(np.diag([0.0, 1.0]), one_a) + np.kron(one_s, a.T @ a)
                       + np.kron(np.ones((2, 2)), one_a))
        c = regression_correlator(model, obs, Operator(1j * np.eye(6)), rho,
                                  TimeGrid(0.0, 4.0, 9), TIGHT)
        assert np.max(np.abs(c - 1j * expectation(obs, rho))) <= 1e-12

    def test_zero_seed_gives_zero(self):
        model = self.damped_ladder(0.7)
        a = annihilation(4)
        c = regression_correlator(model, a.dagger(), a, DensityMatrix.fock(4, 0),
                                  TimeGrid(0.5, 1.0, 3), TIGHT)
        assert c.shape == (3,) and np.count_nonzero(c) == 0

    def test_rejects_non_stationary_state(self):
        model = self.damped_ladder(0.7)
        a = annihilation(4)
        with pytest.raises(ValueError, match="stationary"):
            regression_correlator(model, a, a.dagger(), DensityMatrix.fock(4, 1),
                                  TimeGrid(0, 1, 3), TIGHT)

    def test_rejects_negative_delays(self):
        model = self.damped_ladder(0.7)
        a = annihilation(4)
        with pytest.raises(ValueError, match="nonnegative"):
            regression_correlator(model, a, a.dagger(), DensityMatrix.fock(4, 0),
                                  TimeGrid(-1.0, 1.0, 3), TIGHT)

    def test_stationarity_defect_measure(self):
        model = self.damped_ladder(0.7)
        assert generator_defect(model, DensityMatrix.fock(4, 0)) == 0.0
        assert generator_defect(model, DensityMatrix.fock(4, 1)) > 1e-3
