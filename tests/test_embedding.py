import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pseudomode import (
    DensityMatrix,
    DensityMatrixError,
    EmbeddingSpec,
    FockTruncationWarning,
    IntegratorConfig,
    LindbladModel,
    Lorentzian,
    Operator,
    SystemSpec,
    TimeGrid,
    TruncationError,
    annihilation,
    build_embedding,
    choose_truncation,
    evolve,
    identity,
    kron,
    oscillator_system,
    partial_trace,
    simulate_lorentzian,
    tls_system,
    trace_distance,
    volterra_amplitude,
)
from pseudomode import cli, dynamics, embedding, integrators
from pseudomode.config import MAX_OUTPUT_POINTS, load_scenario

TIGHT = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
EXCITED = DensityMatrix.fock(2, 1)


def p_excited(states):
    return np.array([st.mat[1, 1].real for st in states])


class TestSystemSpec:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_hamiltonian(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SystemSpec(d_S=2, H_S=Operator(np.diag([0.0, bad])), V=annihilation(2))

    def test_overflowing_oscillator_detuning_rejected(self):
        # 1e308 is finite, but 2 * 1e308 on the next Fock level is not
        with pytest.raises(ValueError, match="finite"):
            oscillator_system(4, 1e308)


class TestBuildEmbedding:
    def test_zero_coupling_leaves_system_hamiltonian(self):
        sys = tls_system(detuning=0.4)
        emb = build_embedding(EmbeddingSpec(sys, Lorentzian(g=0.0, omega0=0, gamma=1.0), 2), EXCITED)
        expected = kron(sys.H_S, identity(2))
        assert np.max(np.abs(emb.model.H.mat - expected.mat)) == 0.0

    def test_exchange_matrix_elements(self):
        sys = tls_system()
        emb = build_embedding(EmbeddingSpec(sys, Lorentzian(g=0.5, omega0=0, gamma=1.0), 3), EXCITED)
        h = emb.model.H.mat
        # product-basis index: system s, ancilla n -> s * d_A + n
        assert h[1 * 3 + 0, 0 * 3 + 1] == pytest.approx(0.5)  # <e,0|H|g,1>
        assert h[1 * 3 + 1, 0 * 3 + 2] == pytest.approx(0.5 * np.sqrt(2))  # <e,1|H|g,2>

    def test_single_damping_channel(self):
        gamma = 0.8
        emb = build_embedding(
            EmbeddingSpec(tls_system(), Lorentzian(g=1.0, omega0=0, gamma=gamma), 3), EXCITED
        )
        assert len(emb.model.jumps) == 1
        rate, op = emb.model.jumps[0]
        assert rate == pytest.approx(gamma)
        assert np.array_equal(op.mat, kron(identity(2), annihilation(3)).mat)

    def test_initial_state_is_system_times_vacuum(self):
        emb = build_embedding(
            EmbeddingSpec(tls_system(), Lorentzian(g=1.0, omega0=0, gamma=1.0), 3), EXCITED
        )
        expected = np.kron(EXCITED.mat, np.diag([1.0, 0.0, 0.0]))
        assert np.max(np.abs(emb.rho0.mat - expected)) == 0.0
        assert emb.factorization.dims == (2, 3)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_embedding(
                EmbeddingSpec(tls_system(), Lorentzian(g=1, omega0=0, gamma=1), 2),
                DensityMatrix.fock(3, 0),
            )

    def test_small_ancilla_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingSpec(tls_system(), Lorentzian(g=1, omega0=0, gamma=1), 1)


class TestSimulateLorentzian:
    def test_decoupled_system_is_frozen(self):
        spec = EmbeddingSpec(tls_system(), Lorentzian(g=0.0, omega0=0, gamma=1.0), 2)
        states = simulate_lorentzian(spec, EXCITED, TimeGrid(0, 5, 6), TIGHT)
        for st in states:
            assert np.max(np.abs(st.mat - EXCITED.mat)) <= 1e-12

    def test_initial_instant_returns_input(self):
        spec = EmbeddingSpec(tls_system(), Lorentzian(g=1.0, omega0=0, gamma=0.5), 3)
        states = simulate_lorentzian(spec, EXCITED, TimeGrid(0, 1, 3), TIGHT)
        assert np.max(np.abs(states[0].mat - EXCITED.mat)) <= 1e-12

    def test_strong_coupling_rabi_minimum(self):
        bath = Lorentzian(g=1.0, omega0=0.0, gamma=0.2)
        grid = TimeGrid(0.0, 3.0, 301)
        states = simulate_lorentzian(EmbeddingSpec(tls_system(), bath, 3), EXCITED, grid, TIGHT)
        pe = p_excited(states)
        t_min = grid.times()[np.argmin(pe)]
        assert abs(t_min - np.pi / 2.0) < 0.1
        # cross-check the whole curve against the memory-kernel reference
        vol = volterra_amplitude(bath, grid, h=0.002)
        assert np.max(np.abs(pe - vol.p_excited)) < 1e-5

    def test_weak_coupling_matches_golden_rule_decay(self):
        g, gamma = 0.1, 10.0
        rate = 4 * g * g / gamma
        bath = Lorentzian(g=g, omega0=0.0, gamma=gamma)
        grid = TimeGrid(0.0, 2.0 / rate, 101)
        states = simulate_lorentzian(EmbeddingSpec(tls_system(), bath, 3), EXCITED, grid, TIGHT)
        pe = p_excited(states)
        ref = np.exp(-rate * grid.times())
        assert np.max(np.abs(pe - ref) / ref) < 0.02

    def test_states_pass_density_matrix_invariants(self):
        bath = Lorentzian(g=1.0, omega0=0.0, gamma=1.0)
        states = simulate_lorentzian(
            EmbeddingSpec(tls_system(), bath, 3), EXCITED, TimeGrid(0, 5, 21), TIGHT
        )
        for st in states:
            assert abs(st.op.trace() - 1.0) <= 1e-8
            assert np.linalg.eigvalsh(st.mat)[0] >= -1e-8

    def test_truncation_warning_fires_when_top_level_fills(self):
        spec = EmbeddingSpec(tls_system(), Lorentzian(g=1.0, omega0=0, gamma=0.2), 2)
        with pytest.warns(FockTruncationWarning):
            simulate_lorentzian(spec, EXCITED, TimeGrid(0, 2, 5), TIGHT)

    def test_no_warning_with_headroom(self):
        spec = EmbeddingSpec(tls_system(), Lorentzian(g=1.0, omega0=0, gamma=0.2), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FockTruncationWarning)
            simulate_lorentzian(spec, EXCITED, TimeGrid(0, 2, 5), TIGHT)


def _cross_sector_superposition(d_s):
    psi = np.zeros(d_s)
    psi[[0, 3]] = 1.0
    return DensityMatrix.from_state(psi)


class TestGridStepPath:
    """simulate_lorentzian propagates the reachable entries with one grid-step propagator."""

    GRID = TimeGrid(0.0, 10.0, 201)
    CASES = {
        "fock-gamma0.2": (tls_system(), 0.2, 3, EXCITED),
        "exceptional-point": (tls_system(), 4.0, 3, EXCITED),
        "cross-sector-dS6-dA8": (oscillator_system(6), 1.0, 8, _cross_sector_superposition(6)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_adaptive_evolve(self, case):
        system, gamma, d_a, rho0 = self.CASES[case]
        spec = EmbeddingSpec(system, Lorentzian(g=1.0, omega0=0.0, gamma=gamma), d_a)
        emb = build_embedding(spec, rho0)
        reference = [partial_trace(st, emb.factorization, keep=0)
                     for st in evolve(emb.model, emb.rho0, self.GRID)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FockTruncationWarning)
            fast = simulate_lorentzian(spec, rho0, self.GRID)
        dev = max(np.max(np.abs(a.mat - b.mat)) for a, b in zip(fast, reference))
        assert dev <= 1e-8

    def test_never_calls_evolve_and_builds_only_returned_states(self, monkeypatch):
        spec = EmbeddingSpec(oscillator_system(4), Lorentzian(g=1.0, omega0=0, gamma=1.0), 8)
        rho0 = _cross_sector_superposition(4)

        def forbidden(*args, **kwargs):
            raise AssertionError("simulate_lorentzian fell back to dynamics.evolve")

        for module in (dynamics, embedding):
            monkeypatch.setattr(module, "evolve", forbidden, raising=False)
            monkeypatch.setattr(module, "_integrate_coordinates", forbidden)
        built = []
        validate = DensityMatrix.__post_init__

        def counted(self):
            built.append(self.dim)
            validate(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        states = simulate_lorentzian(spec, rho0, self.GRID)
        assert len(states) == self.GRID.n_points
        assert built == [4] * self.GRID.n_points

    @pytest.mark.parametrize("system, d_a, rho0, entries, propagated", [
        (tls_system(), 3, EXCITED, 5, 4),
        (oscillator_system(4), 8, DensityMatrix.fock(4, 3), 30, 20),
        (oscillator_system(6), 16, DensityMatrix.fock(6, 5), 91, 56),
        (oscillator_system(6), 8, _cross_sector_superposition(6), 38, 24),
        (oscillator_system(8), 16, DensityMatrix.fock(8, 7), 204, 120),
    ], ids=["tls-dA3", "fock3-dS4-dA8", "fock5-dS6-dA16", "cross-sector-dS6-dA8",
            "fock7-dS8-dA16"])
    def test_propagates_only_reachable_entries(self, monkeypatch, system, d_a, rho0, entries,
                                               propagated):
        # at zero detuning every entry keeps a fixed phase, so of each transposed
        # pair's sqrt(2) Re / sqrt(2) Im coordinates only one is ever nonzero
        spec = EmbeddingSpec(system, Lorentzian(g=1.0, omega0=0, gamma=1.0), d_a)
        states, _, _, layout = _entry_layout(*embedding._composite(spec, rho0))
        row, col = np.divmod(layout, states.size)
        assert layout.size == entries
        assert np.count_nonzero(row <= col) == propagated
        sizes, widths = [], []
        build, check = embedding.propagator, embedding._check_curve

        def recorded(generator, *args, **kwargs):
            sizes.append(generator.shape)
            return build(generator, *args, **kwargs)

        def measured(curve, coords):
            widths.append(curve.shape[1])
            check(curve, coords)

        monkeypatch.setattr(embedding, "propagator", recorded)
        monkeypatch.setattr(embedding, "_check_curve", measured)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FockTruncationWarning)
            simulate_lorentzian(spec, rho0, TimeGrid(0.0, 0.1, 3))
        assert sizes == [(propagated, propagated)]
        assert widths == [entries]

    @pytest.mark.parametrize("chunk", [1 << 20, 9], ids=["one-pass", "one-instant-per-pass"])
    def test_invalid_composite_state_raises(self, monkeypatch, chunk):
        # a propagator that does not preserve the trace must fail validation,
        # and the message names the instant whichever chunk it falls in
        monkeypatch.setattr(embedding, "_VALIDATION_CHUNK", chunk)
        monkeypatch.setattr(embedding, "propagator",
                            lambda generator, *args, **kwargs: 1.01 * np.eye(len(generator)))
        spec = EmbeddingSpec(tls_system(), Lorentzian(g=1.0, omega0=0, gamma=1.0), 3)
        with pytest.raises(ValueError, match=r"trace .* \(matrix 1 of 3\)"):
            simulate_lorentzian(spec, EXCITED, TimeGrid(0.0, 1.0, 3))


def _entry_layout(model, rho0):
    """The reachable states, their block model and initial block, and the reachable entries."""
    states = dynamics._reachable(model, rho0)
    block = dynamics._restricted(model, states)
    block0 = rho0[np.ix_(states, states)]
    return states, block, block0, dynamics._reachable_entries(dynamics._moves(block), block0)


def _complex_entry_reference(model, rho0, d_a, grid, cfg):
    """The grid-step curve core as it was before real coordinates: k complex entries,
    a complex k x k propagator, and the partial trace taken on the complex curve.
    Column e of the generator is the matrix rhs of the unit matrix at entry e."""
    d_s = model.dim // d_a
    states, block, block0, entries = _entry_layout(model, rho0)
    rhs = dynamics.rhs_function(block)
    units = np.zeros((entries.size, states.size ** 2), dtype=complex)
    units[np.arange(entries.size), entries] = 1.0
    step = np.array([rhs(u.reshape(states.size, -1)).reshape(-1)[entries] for u in units]).T
    step = integrators.propagator(step, grid.dt, cfg, norm_size=rho0.size)
    curve = np.empty((grid.n_points, entries.size), dtype=complex)
    curve[0] = block0.reshape(-1)[entries]
    for i in range(1, grid.n_points):
        curve[i] = step @ curve[i - 1]
    row, col = np.divmod(entries, states.size)
    sys_row, anc_row = np.divmod(states[row], d_a)
    sys_col, anc_col = np.divmod(states[col], d_a)
    traced = np.flatnonzero(anc_row == anc_col)
    to_reduced = np.zeros((traced.size, d_s * d_s))
    to_reduced[np.arange(traced.size), sys_row[traced] * d_s + sys_col[traced]] = 1.0
    return (curve[:, traced] @ to_reduced).reshape(-1, d_s, d_s)


def _quiet_curve(model, rho0, d_a, grid, cfg=IntegratorConfig()):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FockTruncationWarning)
        return embedding._reduced_curve(model, rho0, d_a, grid, cfg)


PLUS = DensityMatrix.from_state([1.0, 1.0])  # (|g> + |e>) / sqrt(2)


class TestRealCoordinates:
    """The curve core runs on the real coordinates of the Hermitian state; it must
    reproduce the complex-entry core it replaced."""

    GRID = TimeGrid(0.0, 10.0, 201)
    CASES = {
        "tls-gamma10": (tls_system(), 10.0, 3, EXCITED),
        "tls-gamma4": (tls_system(), 4.0, 3, EXCITED),
        "tls-gamma1": (tls_system(), 1.0, 3, EXCITED),
        "tls-gamma0.2": (tls_system(), 0.2, 3, EXCITED),
        "fock3-dS4-gamma0.2-dA4": (oscillator_system(4), 0.2, 4, DensityMatrix.fock(4, 3)),
        "fock5-dS6-gamma1-dA8": (oscillator_system(6), 1.0, 8, DensityMatrix.fock(6, 5)),
        "fock5-dS6-gamma1-dA16": (oscillator_system(6), 1.0, 16, DensityMatrix.fock(6, 5)),
        "plus-resonant-gamma0.2": (tls_system(), 0.2, 3, PLUS),
        "plus-resonant-exceptional": (tls_system(), 4.0, 3, PLUS),
        "plus-detuned-gamma1": (tls_system(0.7), 1.0, 3, PLUS),
        "plus-detuned-exceptional": (tls_system(-1.3), 4.0, 3, PLUS),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_complex_entry_core(self, case):
        system, gamma, d_a, rho = self.CASES[case]
        model, rho0 = embedding._composite(
            EmbeddingSpec(system, Lorentzian(g=1.0, omega0=0.0, gamma=gamma), d_a), rho)
        fast = _quiet_curve(model, rho0, d_a, self.GRID)
        reference = _complex_entry_reference(model, rho0, d_a, self.GRID, IntegratorConfig())
        assert np.max(np.abs(fast - reference)) <= 1e-10

    def test_markovian_matches_the_complex_entry_core(self):
        model = LindbladModel(dim=2, H=Operator(np.zeros((2, 2))), jumps=((0.7, annihilation(2)),))
        for rho in (EXCITED, PLUS):
            fast = embedding._reduced_curve(model, rho.mat, 1, self.GRID, IntegratorConfig())
            reference = _complex_entry_reference(model, rho.mat, 1, self.GRID, IntegratorConfig())
            assert np.max(np.abs(fast - reference)) <= 1e-10

    @pytest.mark.parametrize("detuning", [0.0, 0.7])
    @pytest.mark.parametrize("gamma", [0.2, 4.0], ids=["gamma0.2", "exceptional"])
    def test_coherent_state_matches_evolve(self, detuning, gamma):
        # a superposition populates both members of each transposed pair, so the
        # sqrt(2) Re / sqrt(2) Im coordinates carry the coherence
        spec = EmbeddingSpec(tls_system(detuning), Lorentzian(g=1.0, omega0=0.0, gamma=gamma), 3)
        emb = build_embedding(spec, PLUS)
        reference = [partial_trace(st, emb.factorization, keep=0).mat
                     for st in evolve(emb.model, emb.rho0, self.GRID)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FockTruncationWarning)
            fast = [st.mat for st in simulate_lorentzian(spec, PLUS, self.GRID)]
        assert np.max(np.abs(np.array(fast) - np.array(reference))) <= 1e-8
        assert np.min(np.abs(np.array(fast)[:20, 0, 1])) > 1e-3
        if detuning:
            assert np.max(np.abs(np.array(fast)[:, 0, 1].imag)) > 1e-2

    def test_hermitian_part_of_the_initial_state_is_propagated(self):
        # a coherence below DensityMatrix's Hermiticity tolerance, without its
        # transpose partner, is symmetrized on entry, so the entry set stays
        # closed under transposition
        model, rho0 = embedding._composite(
            EmbeddingSpec(tls_system(), Lorentzian(g=1.0, omega0=0.0, gamma=1.0), 3), EXCITED)
        tilted = rho0.copy()
        tilted[0, 3] = 4e-13
        curve = _quiet_curve(model, tilted, 3, self.GRID)
        assert np.max(np.abs(curve - _quiet_curve(model, rho0, 3, self.GRID))) <= 1e-12
        assert np.max(np.abs(curve[:, 0, 1] - curve[:, 1, 0].conj())) <= 1e-15
        assert np.max(np.abs(curve[:, 0, 1])) > 0.0

    @pytest.mark.parametrize("d_s, gamma, d_a", [(4, 0.2, 4), (6, 1.0, 8)])
    def test_oscillator_ladder_certifies_the_same_truncation(self, d_s, gamma, d_a):
        chosen, _ = embedding._truncation_ladder(
            oscillator_system(d_s), Lorentzian(g=1.0, omega0=5.0, gamma=gamma),
            DensityMatrix.fock(d_s, d_s - 1), self.GRID, IntegratorConfig(), 1e-7)
        assert chosen == d_a


class TestCoordinateClosure:
    """Only the coordinates reached from the initial state under the generator's pattern
    are propagated; every other one is exactly zero in the full propagation."""

    GRID = TimeGrid(0.0, 10.0, 201)
    CASES = {
        "fock5-dS6-dA16": (oscillator_system(6), 1.0, 16, DensityMatrix.fock(6, 5), 56),
        "cross-sector-dS6-dA8": (oscillator_system(6), 1.0, 8, _cross_sector_superposition(6), 24),
        "exceptional-point": (tls_system(), 4.0, 3, EXCITED, 4),
        "detuned-tls": (tls_system(0.7), 1.0, 3, EXCITED, 5),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_closure_is_exact(self, monkeypatch, case):
        system, gamma, d_a, rho, reached = self.CASES[case]
        model, rho0 = embedding._composite(
            EmbeddingSpec(system, Lorentzian(g=1.0, omega0=0.0, gamma=gamma), d_a), rho)
        curves = []
        check, layout_of = embedding._check_curve, dynamics._coordinate_layout

        def recorded(curve, coords):
            curves.append(curve)
            check(curve, coords)

        def every_coordinate(model, seed):
            # the layout as it was before the closure: R on all k coordinates
            layout = layout_of(model, seed)
            moves = dynamics._moves(dynamics._restricted(model, layout.states))
            return layout._replace(live=np.arange(layout.coords.entries.size),
                                   generator=layout.coords.generator(moves))

        monkeypatch.setattr(embedding, "_check_curve", recorded)
        reduced = _quiet_curve(model, rho0, d_a, self.GRID)
        monkeypatch.setattr(embedding, "_coordinate_layout", every_coordinate)
        full_reduced = _quiet_curve(model, rho0, d_a, self.GRID)
        live, (curve, full) = layout_of(model, rho0).live, curves
        assert live.size == reached
        outside = np.ones(full.shape[1], dtype=bool)
        outside[live] = False
        assert np.count_nonzero(full[:, outside]) == 0
        assert np.count_nonzero(curve[:, outside]) == 0
        assert np.max(np.abs(reduced - full_reduced)) <= 1e-12


class TestBlockValidation:
    """The composite state is validated on the diagonal blocks its entries link."""

    @staticmethod
    def coordinates():
        # Fock 5 of a six-level oscillator: the blocks are the excitation sectors
        model, rho0 = embedding._composite(
            EmbeddingSpec(oscillator_system(6), Lorentzian(g=1.0, omega0=0, gamma=1.0), 8),
            DensityMatrix.fock(6, 5))
        states, _, _, entries = _entry_layout(model, rho0)
        return embedding._HermitianCoordinates(entries, states.size), entries, states.size

    @staticmethod
    def mixed_curve(entries, n, m=7):
        # the maximally mixed state on the reachable states, at m instants
        curve = np.zeros((m, entries.size))
        diag = np.flatnonzero(entries // n == entries % n)
        curve[:, diag] = 1.0 / diag.size
        return curve

    def test_blocks_are_the_excitation_sectors(self):
        coords, _, _ = self.coordinates()
        assert [g.shape for g in coords.groups] == [(1, s, s) for s in range(1, 7)]
        assert coords.block_entries == 91

    def test_blocks_are_the_connected_components(self):
        # random transposition-closed entry sets against a breadth-first search
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            linked = rng.random((n, n)) < 0.3 * rng.random()
            linked = linked | linked.T | np.eye(n, dtype=bool)
            coords = embedding._HermitianCoordinates(np.flatnonzero(linked), n)
            component = np.full(n, -1)
            for first in range(n):
                frontier = [first] if component[first] < 0 else []
                component[frontier] = first
                while frontier:
                    nxt = np.flatnonzero(linked[frontier].any(axis=0) & (component < 0))
                    component[nxt] = first
                    frontier = list(nxt)
            sizes = sorted(np.bincount(component)[np.flatnonzero(np.bincount(component))])
            assert sorted(g.shape[1] for g in coords.groups for _ in g) == sizes
            gathered = np.concatenate([g.ravel() for g in coords.groups])
            assert sorted(gathered[gathered < linked.sum()]) == list(range(linked.sum()))

    def test_negative_eigenvalue_in_one_block_is_named(self):
        coords, entries, n = self.coordinates()
        curve = self.mixed_curve(entries, n)
        embedding._check_curve(curve, coords)
        # couple the two states of the two-state block beyond their populations
        pair = coords.groups[1][0, 0, 1]
        curve[4, pair] = np.sqrt(2.0) * 2.0 / 21
        with pytest.raises(DensityMatrixError, match=r"eigenvalue .* \(matrix 4 of 7\)"):
            embedding._check_curve(curve, coords)

    def test_trace_defect_spread_over_blocks_is_caught(self):
        # each block moves by less than the trace tolerance, the whole state by more
        coords, entries, n = self.coordinates()
        curve = self.mixed_curve(entries, n)
        top_sector = coords.groups[-1][0]
        curve[2, coords.groups[0][0, 0, 0]] += 0.6e-9
        curve[2, top_sector[0, 0]] += 0.6e-9
        with pytest.raises(DensityMatrixError, match=r"trace .* \(matrix 2 of 7\)"):
            embedding._check_curve(curve, coords)

    @pytest.mark.parametrize("config", ["markovian_tls", "pseudomode_strong_coupling",
                                        "compare_gamma_1", "compare_gamma_10"])
    def test_block_spectrum_is_the_full_spectrum(self, monkeypatch, config):
        cfg = load_scenario(Path(__file__).resolve().parents[1] / "configs" / f"{config}.json")
        rho = cli._initial_density(cfg)
        if cfg.scenario == "markovian":
            model, rho0, d_a = cli._markovian_model(cfg), rho.mat, 1
        else:
            d_a = cfg.d_A
            model, rho0 = embedding._composite(EmbeddingSpec(cfg.system, cfg.bath, d_a), rho)
        seen = []
        check = embedding._check_curve

        def recorded(curve, coords):
            seen.append((curve, coords))
            check(curve, coords)

        monkeypatch.setattr(embedding, "_check_curve", recorded)
        _quiet_curve(model, rho0, d_a, cfg.grid, cfg.integrator)
        (curve, coords), = seen
        blockwise = np.min([np.linalg.eigvalsh(b)[..., 0].min(axis=1)
                            for b in coords.blocks(curve)], axis=0)
        full_min = np.linalg.eigvalsh(coords.matrix(curve))[:, 0]
        assert np.max(np.abs(blockwise - full_min)) <= 1e-14


class TestPinnedRungMargin:
    """test_unreachable_tolerance_raises and test_truncation_failure_is_4 raise only
    while consecutive ladder rungs differ by more than their 1e-12 tolerance."""

    CASES = {
        "test_unreachable_tolerance_raises": TimeGrid(0, 0.2, 2),
        "test_truncation_failure_is_4": TimeGrid(0.0, 0.5, 3),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_rung_distances_keep_a_margin(self, case):
        grid = self.CASES[case]
        cfg = IntegratorConfig(rel_tol=1e-5, abs_tol=1e-8)
        bath = Lorentzian(g=1.0, omega0=0.0, gamma=0.5)

        def curve(d_a):
            model, rho0 = embedding._composite(EmbeddingSpec(tls_system(), bath, d_a), EXCITED)
            return _quiet_curve(model, rho0, d_a, grid, cfg)

        rungs = [curve(d_a) for d_a in (2, 4, 8, 16, 32, 64, 128)]
        smallest = min(
            max(trace_distance(DensityMatrix(Operator(a)), DensityMatrix(Operator(b)))
                for a, b in zip(lo, hi))
            for lo, hi in zip(rungs, rungs[1:]))
        assert smallest >= 1e-11, (
            f"smallest consecutive-rung distance {smallest:.3e} on the {case} config is "
            "within 1e-11 of the 1e-12 tolerance that "
            "TestChooseTruncation::test_unreachable_tolerance_raises and "
            "TestExitCodes::test_truncation_failure_is_4 rely on to exhaust the ladder")


def _sigma_x_system():
    # couples through V = sigma_x, so the excitation number is not conserved
    return SystemSpec(d_S=2, H_S=Operator(np.zeros((2, 2))),
                      V=Operator(np.array([[0.0, 1.0], [1.0, 0.0]])))


class TestLargeBlocks:
    """Past 256 live coordinates the block is integrated adaptively, in memory O(n^2) per instant."""

    GRID = TimeGrid(0.0, 1.0, 11)

    @pytest.mark.parametrize("system, d_a, rho0", [
        (_sigma_x_system(), 32, EXCITED),
        (oscillator_system(11), 16, DensityMatrix.fock(11, 10)),
    ], ids=["sigma-x-dA32", "fock10-dS11-dA16"])
    def test_adaptive_in_bounded_memory(self, monkeypatch, system, d_a, rho0):
        # 2048 and 506 entries: a k x k superoperator would take 64 MiB and 4 MiB
        # per copy, the Kronecker one on the block 256 MiB and 290 MiB
        def forbidden(*args, **kwargs):
            raise AssertionError("large block took the grid-step path")

        spec = EmbeddingSpec(system, Lorentzian(g=1.0, omega0=0, gamma=1.0), d_a)
        emb = build_embedding(spec, rho0)
        reference = [partial_trace(st, emb.factorization, keep=0)
                     for st in evolve(emb.model, emb.rho0, self.GRID)]
        monkeypatch.setattr(embedding, "propagator", forbidden)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", FockTruncationWarning)
                states = simulate_lorentzian(spec, rho0, self.GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        dev = max(np.max(np.abs(a.mat - b.mat)) for a, b in zip(states, reference))
        assert dev <= 1e-12


class TestCutOnLiveCoordinates:
    """The grid-step path is chosen by the c live coordinates its dense arrays
    hold, not by the k entries: past 256 entries but within 256 live
    coordinates a curve still takes one c x c propagator."""

    GRID = TimeGrid(0.0, 0.5, 11)

    @pytest.mark.parametrize("d_s, live", [(9, 165), (10, 220)], ids=["dS9", "dS10"])
    def test_grid_step_up_to_the_cut(self, monkeypatch, d_s, live):
        spec = EmbeddingSpec(oscillator_system(d_s), Lorentzian(g=1.0, omega0=0, gamma=1.0), 16)
        model, rho0 = embedding._composite(spec, DensityMatrix.fock(d_s, d_s - 1))
        assert embedding._MAX_PROPAGATED_ENTRIES < dynamics._coordinate_layout(
            model, rho0).coords.entries.size
        sizes = []
        build = embedding.propagator

        def recorded(generator, *args, **kwargs):
            sizes.append(generator.shape)
            return build(generator, *args, **kwargs)

        monkeypatch.setattr(embedding, "propagator", recorded)
        fast = _quiet_curve(model, rho0, 16, self.GRID)
        assert sizes == [(live, live)]
        monkeypatch.setattr(embedding, "_MAX_PROPAGATED_ENTRIES", 0)
        adaptive = _quiet_curve(model, rho0, 16, self.GRID)
        assert len(sizes) == 1
        assert np.max(np.abs(fast - adaptive)) <= 1e-8


def _per_instant_loop(step, x0, n_points):
    """The grid loop with one matrix-vector product per instant."""
    reached = np.empty((n_points, x0.size))
    reached[0] = x0
    for i in range(1, n_points):
        np.matmul(step, reached[i - 1], out=reached[i])
    return reached


def _grid_step(system, d_a, gamma, n_points):
    """The grid-step propagator of a Fock-state curve to t = 10, and its live x0."""
    d_s = system.d_S
    spec = EmbeddingSpec(system, Lorentzian(g=1.0, omega0=0, gamma=gamma), d_a)
    model, rho0 = embedding._composite(spec, DensityMatrix.fock(d_s, d_s - 1))
    layout = dynamics._coordinate_layout(model, rho0)
    c = layout.live.size
    generator = np.bincount(*layout.generator, c * c).reshape(c, c)
    step = integrators.propagator(generator, TimeGrid(0.0, 10.0, n_points).dt,
                                  IntegratorConfig(), norm_size=rho0.size)
    return step, layout.z0.real[layout.live]


class TestBatchedGridLoop:
    """_grid_curve fills B instants per product from the stacked powers of the step;
    it must match the per-instant loop, and be that loop where B = 1."""

    CASES = {
        "tls-gamma10": (tls_system(), 3, 10.0),
        "tls-exceptional-point": (tls_system(), 3, 4.0),
        "tls-gamma1": (tls_system(), 3, 1.0),
        "fock5-dS6-dA16": (oscillator_system(6), 16, 1.0),
    }

    # None: the width _batch_width picks; 13 leaves a ragged last batch at every n_points
    @pytest.mark.parametrize("width", [None, 13], ids=["rule", "ragged"])
    @pytest.mark.parametrize("n_points", [2, 3, 201, 211])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_per_instant_loop(self, monkeypatch, case, n_points, width):
        step, x0 = _grid_step(*self.CASES[case], n_points)
        if width is not None:
            monkeypatch.setattr(embedding, "_batch_width", lambda c, n: width)
        batched = embedding._grid_curve(step, x0, n_points)
        assert batched.shape == (n_points, x0.size)
        assert np.max(np.abs(batched - _per_instant_loop(step, x0, n_points))) <= 1e-13

    @pytest.mark.parametrize("live", [4, 56])
    def test_the_rule_batches_the_small_curves(self, live):
        # so that the "rule" comparisons above are not all the per-instant loop
        assert embedding._batch_width(live, 201) > 1

    def test_one_instant_per_product_is_the_loop_bit_for_bit(self):
        step, x0 = _grid_step(oscillator_system(8), 16, 1.0, 201)
        assert x0.size == 120
        assert embedding._batch_width(x0.size, 201) == 1
        assert np.array_equal(embedding._grid_curve(step, x0, 201),
                              _per_instant_loop(step, x0, 201))

    @pytest.mark.parametrize("live", [1, 4, 56, 120, 165, 220, 256])
    def test_powers_stay_bounded_on_any_grid(self, live):
        for n_points in (2, 3, 201, 2001, MAX_OUTPUT_POINTS):
            width = embedding._batch_width(live, n_points)
            assert 1 <= width <= n_points - 1
            assert width == 1 or width * live ** 2 <= embedding._MAX_POWER_ENTRIES
            # the powers' flops stay within 1 / B of the per-instant calls
            assert (width - 1) * 2 * live ** 3 * width <= (n_points - 1) * embedding._CALL_FLOPS


class TestTopOfLadderAccuracy:
    """At d_A = 128 the grid-step propagator's norm weight k^2 / d^2 is at its
    smallest; its curve must still track a rel_tol 1e-12 run closely."""

    @pytest.mark.parametrize("system, gamma, rho0", [
        (tls_system(), 0.2, EXCITED),
        (oscillator_system(4), 0.2, DensityMatrix.fock(4, 3)),
    ], ids=["tls-gamma0.2", "fock3-dS4-gamma0.2"])
    def test_grid_step_curve_against_a_tight_run(self, monkeypatch, system, gamma, rho0):
        spec = EmbeddingSpec(system, Lorentzian(g=1.0, omega0=0, gamma=gamma), 128)
        grid = TimeGrid(0.0, 10.0, 201)
        fast = simulate_lorentzian(spec, rho0, grid)
        monkeypatch.setattr(embedding, "_MAX_PROPAGATED_ENTRIES", 0)
        tight = simulate_lorentzian(spec, rho0, grid, IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14))
        dev = max(np.max(np.abs(a.mat - b.mat)) for a, b in zip(fast, tight))
        assert dev <= 1e-9


class TestAncillaCorrelationMechanism:
    def test_damped_ancilla_reproduces_bath_correlation(self):
        # the construction works because the damped ancilla's vacuum
        # correlation, times g^2 and the center-frequency phase, equals the
        # Lorentzian line's correlation function
        from pseudomode import LindbladModel, correlation_function, regression_correlator

        bath = Lorentzian(g=0.6, omega0=3.0, gamma=0.9)
        d_a = 4
        a = annihilation(d_a)
        zero = Operator(np.zeros((d_a, d_a)))
        ancilla = LindbladModel(dim=d_a, H=zero, jumps=((bath.gamma, a),))
        taus = TimeGrid(0.0, 6.0 / bath.gamma, 61)
        c = regression_correlator(ancilla, a, a.dagger(), DensityMatrix.fock(d_a, 0),
                                  taus, TIGHT)
        restored = bath.g**2 * c * np.exp(-1j * bath.omega0 * taus.times())
        expected = correlation_function(bath, taus.times())
        assert np.max(np.abs(restored - expected)) <= 1e-7 * bath.g**2

    def test_damped_ancilla_reproduces_bath_correlation_from_a_later_delay(self):
        # delays starting after 0: the seed is propagated from 0 and the first instant dropped
        from pseudomode import LindbladModel, correlation_function, regression_correlator

        bath = Lorentzian(g=0.6, omega0=3.0, gamma=0.9)
        d_a = 4
        a = annihilation(d_a)
        ancilla = LindbladModel(dim=d_a, H=Operator(np.zeros((d_a, d_a))),
                                jumps=((bath.gamma, a),))
        taus = TimeGrid(1.5 / bath.gamma, 6.0 / bath.gamma, 46)
        c = regression_correlator(ancilla, a, a.dagger(), DensityMatrix.fock(d_a, 0),
                                  taus, TIGHT)
        assert c.shape == (46,)
        restored = bath.g**2 * c * np.exp(-1j * bath.omega0 * taus.times())
        expected = correlation_function(bath, taus.times())
        assert np.max(np.abs(restored - expected)) <= 1e-7 * bath.g**2


class TestChooseTruncation:
    CFG = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11)

    def test_single_excitation_needs_two_levels(self):
        d = choose_truncation(tls_system(), Lorentzian(g=1.0, omega0=0, gamma=0.5),
                              EXCITED, TimeGrid(0, 4, 9), self.CFG, tol=1e-7)
        assert d == 2

    def test_ground_state_needs_two_levels(self):
        d = choose_truncation(tls_system(), Lorentzian(g=1.0, omega0=0, gamma=0.5),
                              DensityMatrix.fock(2, 0), TimeGrid(0, 4, 9), self.CFG, tol=1e-7)
        assert d == 2

    def test_multi_quantum_initial_state_needs_more(self):
        sys = oscillator_system(4)
        d = choose_truncation(sys, Lorentzian(g=1.0, omega0=0, gamma=0.5),
                              DensityMatrix.fock(4, 2), TimeGrid(0, 3, 7), self.CFG, tol=1e-7)
        assert d >= 3

    def test_distances_shrink_monotonically(self):
        sys = oscillator_system(4)
        bath = Lorentzian(g=1.0, omega0=0, gamma=0.5)
        grid = TimeGrid(0, 3, 7)
        rho0 = DensityMatrix.fock(4, 2)

        def curve(d_a):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", FockTruncationWarning)
                return simulate_lorentzian(EmbeddingSpec(sys, bath, d_a), rho0, grid, self.CFG)

        dists = []
        prev = curve(2)
        for d_a in (4, 8, 16):
            nxt = curve(d_a)
            dists.append(max(trace_distance(a, b) for a, b in zip(prev, nxt)))
            prev = nxt
        # non-increasing until the integrator noise floor is reached
        noise_floor = 1e-8
        assert all(b <= a or b <= noise_floor for a, b in zip(dists, dists[1:]))
        assert dists[-1] <= noise_floor

    def test_ladder_distance_is_the_per_instant_trace_distance(self):
        # the ladder stacks the rung differences into one eigvalsh; a
        # tolerance on either side of the per-instant maximum pins it exactly
        sys = oscillator_system(4)
        bath = Lorentzian(g=1.0, omega0=0, gamma=0.5)
        grid = TimeGrid(0, 3, 7)
        rho0 = DensityMatrix.fock(4, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FockTruncationWarning)
            two, four = (simulate_lorentzian(EmbeddingSpec(sys, bath, d_a), rho0, grid, self.CFG)
                         for d_a in (2, 4))
        dist = max(trace_distance(a, b) for a, b in zip(two, four))
        above = float(np.nextafter(dist, np.inf))
        assert choose_truncation(sys, bath, rho0, grid, self.CFG, tol=above) == 2
        assert choose_truncation(sys, bath, rho0, grid, self.CFG, tol=dist) > 2

    def test_unreachable_tolerance_raises(self):
        # consecutive truncations agree only to integrator roundoff; a
        # tolerance below that floor exhausts the doubling ladder
        with pytest.raises(TruncationError):
            choose_truncation(tls_system(), Lorentzian(g=1.0, omega0=0, gamma=0.5),
                              EXCITED, TimeGrid(0, 0.2, 2),
                              IntegratorConfig(rel_tol=1e-5, abs_tol=1e-8), tol=1e-12)

    def test_ladder_stops_at_the_composite_bound(self, monkeypatch):
        # unbounded, this ladder built composites of dimension 8 up to 512
        monkeypatch.setattr(embedding, "MAX_COMPOSITE_DIM", 64)
        built = []
        composite = embedding._composite

        def recorded(spec, rho_s0):
            built.append(spec.system.d_S * spec.d_A)
            return composite(spec, rho_s0)

        monkeypatch.setattr(embedding, "_composite", recorded)
        with pytest.raises(TruncationError, match=r"by d_A = 16, .* 4 x 32 is above "
                                                  r"MAX_COMPOSITE_DIM = 64"):
            choose_truncation(oscillator_system(4), Lorentzian(g=1.0, omega0=0, gamma=0.2),
                              DensityMatrix.fock(4, 3), TimeGrid(0, 3, 7), self.CFG, tol=1e-14)
        assert built == [8, 16]

    def test_ladder_bound_is_checked_before_the_first_rung(self, monkeypatch):
        monkeypatch.setattr(embedding, "MAX_COMPOSITE_DIM", 7)
        monkeypatch.setattr(embedding, "_composite", None)  # any rung built fails
        with pytest.raises(TruncationError, match="4 x 2 is above MAX_COMPOSITE_DIM = 7"):
            choose_truncation(oscillator_system(4), Lorentzian(g=1.0, omega0=0, gamma=0.2),
                              DensityMatrix.fock(4, 3), TimeGrid(0, 3, 7), self.CFG)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), 0.0, -1e-7,
                                     True, "1e-7", None])
    def test_bad_tolerance_rejected_before_the_first_rung(self, monkeypatch, tol):
        # NaN fails every comparison, so a `tol <= 0` guard lets it through to
        # the whole ladder and a TruncationError naming "below nan"
        def forbidden(*args, **kwargs):
            raise AssertionError("the ladder ran a rung")

        monkeypatch.setattr(embedding, "_reduced_curve", forbidden)
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            choose_truncation(tls_system(), Lorentzian(g=1.0, omega0=0, gamma=0.5),
                              EXCITED, TimeGrid(0, 0.2, 2), self.CFG, tol=tol)


class TestLadderReuse:
    """Once no reachable state on a rung's top ancilla level has a nonzero column of V, no
    larger rung reaches more: every later rung reuses that layout and builds no composite."""

    GRID = TimeGrid(0.0, 10.0, 101)
    CFG = IntegratorConfig()
    # system, gamma, initial state, rungs whose composite is built, rungs that reuse a layout
    CASES = {
        "tls-2-4": (tls_system(), 0.5, EXCITED, [2], [4]),
        "oscillator-dS4-4-8": (oscillator_system(4), 0.2, DensityMatrix.fock(4, 3), [2, 4], [8]),
        "oscillator-dS6-8-16": (oscillator_system(6), 1.0, DensityMatrix.fock(6, 5), [2, 4, 8],
                                [16]),
        "detuned-oscillator": (oscillator_system(4, 0.7), 0.5, DensityMatrix.fock(4, 2), [2, 4],
                               [8]),
        "superposition": (oscillator_system(4), 0.5,
                          DensityMatrix.from_state([0.0, 1.0, 1j, 1.0]), [2, 4], [8]),
    }

    @staticmethod
    def recorded_ladder(monkeypatch):
        """The d_A of each composite built, and each rung's (arguments past d_A, stack) by d_A."""
        composite, curve = embedding._composite, embedding._reduced_curve
        built, rungs = [], {}

        def recorded_composite(spec, rho_s0):
            built.append(spec.d_A)
            return composite(spec, rho_s0)

        def recorded_curve(model, rho0, d_A, *args):
            rungs[d_A] = (args, curve(model, rho0, d_A, *args))
            return rungs[d_A][-1]

        monkeypatch.setattr(embedding, "_composite", recorded_composite)
        monkeypatch.setattr(embedding, "_reduced_curve", recorded_curve)
        return built, rungs

    @pytest.mark.parametrize("case", CASES)
    def test_reused_rung_is_the_built_composite_bit_for_bit(self, monkeypatch, case):
        system, gamma, rho, built_rungs, reused_rungs = self.CASES[case]
        bath = Lorentzian(g=1.0, omega0=0.0, gamma=gamma)
        built, rungs = self.recorded_ladder(monkeypatch)
        choose_truncation(system, bath, rho, self.GRID, self.CFG)
        monkeypatch.undo()
        assert built == built_rungs
        assert sorted(rungs) == built_rungs + reused_rungs
        for d_a in reused_rungs:
            (grid, cfg, layout), stack = rungs[d_a]
            full_model, rho0 = embedding._composite(EmbeddingSpec(system, bath, d_a), rho)
            full = dynamics._coordinate_layout(full_model, rho0)
            assert layout.dim == full.dim
            pairs = [(layout.states, full.states), (layout.coords.entries, full.coords.entries),
                     (layout.z0, full.z0), (layout.live, full.live),
                     *zip(layout.generator, full.generator)]
            for a, b in pairs:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            reference = _quiet_curve(full_model, rho0, d_a, grid, cfg)
            assert stack.shape == reference.shape
            assert stack.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("d_a, grows", [(2, True), (4, True), (8, False), (16, False)])
    def test_finality_is_where_the_reachable_states_stop_growing(self, d_a, grows):
        # Fock 5 of six levels: its excitations climb past the top of d_A = 2 and 4
        system, rho = oscillator_system(6), DensityMatrix.fock(6, 5)
        bath = Lorentzian(g=1.0, omega0=0.0, gamma=1.0)

        def reached(d):
            model, rho0 = embedding._composite(EmbeddingSpec(system, bath, d), rho)
            return dynamics._coordinate_layout(model, rho0).states.size

        assert (reached(2 * d_a) > reached(d_a)) == grows

    def test_oscillator_ladder_configs_build_two_and_three_composites(self, tmp_path,
                                                                      monkeypatch):
        # the benchmark's oscillator_ladder scenarios: they built 3 and 4 before the reuse
        counts = {"_composite": 0, "_coordinate_layout": 0}
        for name in counts:
            real = getattr(embedding, name)

            def counted(*args, name=name, real=real):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(embedding, name, counted)
        per_config = []
        for d_s, gamma in ((4, 0.2), (6, 1.0)):
            doc = {"scenario": "pseudomode",
                   "system": {"preset": "oscillator", "d_S": d_s, "initial_fock": d_s - 1},
                   "bath": {"kind": "lorentzian", "g": 1.0, "omega0": 5.0, "gamma": gamma},
                   "time": {"t0": 0.0, "t1": 10.0, "n_points": 201},
                   "numerics": {"d_A": "auto"},
                   "output": f"oscillator_dS{d_s}.csv"}
            path = tmp_path / f"oscillator_dS{d_s}.json"
            path.write_text(json.dumps(doc))
            before = dict(counts)
            assert cli.main(["run", str(path), "--out", str(tmp_path), "--quiet"]) == 0
            per_config.append({name: counts[name] - before[name] for name in counts})
        assert per_config == [{"_composite": 2, "_coordinate_layout": 2},
                              {"_composite": 3, "_coordinate_layout": 3}]

    def test_bound_is_checked_before_a_reused_rung(self, monkeypatch):
        # d_A = 4 is final, so d_A = 8 is reused; d_A = 16 would be as well, but is past the bound
        monkeypatch.setattr(embedding, "MAX_COMPOSITE_DIM", 32)
        built, rungs = self.recorded_ladder(monkeypatch)
        with pytest.raises(TruncationError, match=r"by d_A = 8, .* 4 x 16 is above "
                                                  r"MAX_COMPOSITE_DIM = 32"):
            choose_truncation(oscillator_system(4), Lorentzian(g=1.0, omega0=0, gamma=0.2),
                              DensityMatrix.fock(4, 3), TimeGrid(0, 3, 7), self.CFG, tol=1e-14)
        assert built == [2, 4]
        assert sorted(rungs) == [2, 4, 8]


class TestIntegerSizes:
    """Sizes given from Python must be integers (numpy's too); a bool or a float is refused."""

    BATH = Lorentzian(g=1.0, omega0=0.0, gamma=0.5)

    @pytest.mark.parametrize("d_a", [2.5, 3.0, np.float64(3.0), "3", True])
    def test_embedding_spec_rejects_non_integer_d_a(self, d_a):
        with pytest.raises(ValueError, match="d_A must be an integer"):
            EmbeddingSpec(tls_system(), self.BATH, d_a)

    def test_embedding_spec_accepts_numpy_integer_d_a(self):
        grid = TimeGrid(0.0, 1.0, 5)
        numpy_int, python_int = (
            simulate_lorentzian(EmbeddingSpec(tls_system(), self.BATH, d_a), EXCITED, grid)
            for d_a in (np.int64(3), 3))
        assert all(np.array_equal(a.mat, b.mat) for a, b in zip(numpy_int, python_int))

    def test_choose_truncation_accepts_a_numpy_tolerance(self):
        grid = TimeGrid(0.0, 1.0, 5)
        assert (choose_truncation(tls_system(), self.BATH, EXCITED, grid, tol=np.float64(1e-7))
                == choose_truncation(tls_system(), self.BATH, EXCITED, grid, tol=1e-7))

    # each d_S equals the operators' dim (True == 1), so only the type check refuses it
    @pytest.mark.parametrize("d_s, d", [(2.0, 2), (np.float64(2.0), 2), ("2", 2), (True, 1)])
    def test_system_spec_rejects_non_integer_d_s(self, d_s, d):
        zero = Operator(np.zeros((d, d)))
        with pytest.raises(ValueError, match="d_S must be an integer"):
            SystemSpec(d_S=d_s, H_S=zero, V=zero)
