import tracemalloc
import warnings

import numpy as np
import pytest

from pseudomode import (
    DensityMatrix,
    EmbeddingSpec,
    FockTruncationWarning,
    IntegratorConfig,
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
from pseudomode import dynamics, embedding

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
            monkeypatch.setattr(module, "_evolve_block", forbidden)
        built = []
        validate = DensityMatrix.__post_init__

        def counted(self):
            built.append(self.dim)
            validate(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        states = simulate_lorentzian(spec, rho0, self.GRID)
        assert len(states) == self.GRID.n_points
        assert built == [4] * self.GRID.n_points

    @pytest.mark.parametrize("system, d_a, rho0, entries", [
        (tls_system(), 3, EXCITED, 5),
        (oscillator_system(4), 8, DensityMatrix.fock(4, 3), 30),
        (oscillator_system(6), 16, DensityMatrix.fock(6, 5), 91),
        (oscillator_system(6), 8, _cross_sector_superposition(6), 38),
        (oscillator_system(8), 16, DensityMatrix.fock(8, 7), 204),
    ], ids=["tls-dA3", "fock3-dS4-dA8", "fock5-dS6-dA16", "cross-sector-dS6-dA8",
            "fock7-dS8-dA16"])
    def test_propagates_only_reachable_entries(self, monkeypatch, system, d_a, rho0, entries):
        sizes = []
        build = embedding.propagator

        def recorded(generator, *args, **kwargs):
            sizes.append(generator.shape)
            return build(generator, *args, **kwargs)

        monkeypatch.setattr(embedding, "propagator", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FockTruncationWarning)
            simulate_lorentzian(EmbeddingSpec(system, Lorentzian(g=1.0, omega0=0, gamma=1.0), d_a),
                                rho0, TimeGrid(0.0, 0.1, 3))
        assert sizes == [(entries, entries)]

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


def _sigma_x_system():
    # couples through V = sigma_x, so the excitation number is not conserved
    return SystemSpec(d_S=2, H_S=Operator(np.zeros((2, 2))),
                      V=Operator(np.array([[0.0, 1.0], [1.0, 0.0]])))


class TestLargeBlocks:
    """Past 256 reachable entries the block is integrated adaptively, in memory O(n^2) per instant."""

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
        monkeypatch.setattr(embedding, "superoperator", forbidden)
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
