import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudomode import (
    DensityMatrix,
    HilbertFactorization,
    Operator,
    annihilation,
    expectation,
    identity,
    kron,
    partial_trace,
    sigma_minus,
    trace_distance,
)
from pseudomode.algebra import (
    POSITIVITY_TOL,
    DensityMatrixError,
    _certified_positive,
    _kron,
    check_block_diagonal,
    check_density_matrices,
)


def random_operator(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return Operator(m)


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return DensityMatrix(Operator(rho / np.trace(rho)))


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((2, 3)))

    def test_entries_read_only(self):
        a = identity(2)
        with pytest.raises(ValueError):
            a.mat[0, 0] = 5.0

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31))
    def test_dagger_involution(self, d, seed):
        a = random_operator(np.random.default_rng(seed), d)
        assert np.array_equal(a.dagger().dagger().mat, a.mat)


class TestAnnihilation:
    def test_two_level_matrix(self):
        assert np.array_equal(annihilation(2).mat, [[0, 1], [0, 0]])

    def test_sqrt2_element(self):
        assert annihilation(3).mat[1, 2] == pytest.approx(np.sqrt(2.0))

    def test_number_operator_diagonal(self):
        a = annihilation(4)
        n = a.dagger() @ a
        assert np.allclose(n.mat, np.diag([0.0, 1.0, 2.0, 3.0]))

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            annihilation(1)

    @pytest.mark.parametrize("d", [2.5, 3.0, np.float64(3.0), "3", True])
    def test_rejects_non_integer_dimension(self, d):
        # numpy would raise its own TypeError on a float; True would pass as 1
        with pytest.raises(ValueError, match="ladder needs an integer dimension"):
            annihilation(d)

    @given(st.integers(min_value=2, max_value=12))
    def test_commutator_breaks_only_at_truncation_edge(self, d):
        a = annihilation(d).mat
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(d)
        expected[d - 1, d - 1] = -(d - 1)
        assert np.max(np.abs(comm - expected)) <= 1e-12


class TestIdentity:
    @pytest.mark.parametrize("d", [2.5, 2.0, "2", True])
    def test_rejects_non_integer_dimension(self, d):
        with pytest.raises(ValueError, match="identity dimension must be an integer"):
            identity(d)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(identity(2), identity(2)).mat, np.eye(4))

    def test_trace_multiplicative(self, rng):
        a = random_operator(rng, 2)
        b = random_operator(rng, 2)
        assert kron(a, b).trace() == pytest.approx(a.trace() * b.trace())

    def test_sigma_minus_with_ladder(self):
        prod = kron(sigma_minus(), annihilation(3))
        assert prod.dim == 6
        assert np.linalg.matrix_rank(prod.mat) == 2

    @given(st.integers(min_value=0, max_value=2**31))
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_operator(rng, d) for d in (2, 3, 2))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.max(np.abs(left.mat - right.mat)) <= 1e-12

    # entries whose products np.kron rounds, signs and propagates in its own way
    SPECIAL = (0.0, -0.0, 1.5, -2.0 / 3.0, 1e-310, np.inf, -np.inf, np.nan)

    @pytest.mark.parametrize("shapes", [((3, 3), (4, 4)), ((2, 3), (4, 1)), ((1, 1), (5, 2))])
    @pytest.mark.parametrize("kinds", [(complex, complex), (float, complex), (complex, float)])
    def test_direct_product_is_np_kron_bit_for_bit(self, shapes, kinds):
        rng = np.random.default_rng(7)
        values = [complex(re, im) for re in self.SPECIAL for im in self.SPECIAL]
        a, b = (rng.choice(np.array(values, dtype=kind) if kind is complex else
                           np.array(self.SPECIAL), size=shape)
                for shape, kind in zip(shapes, kinds))
        square = shapes[0][0] == shapes[0][1] and shapes[1][0] == shapes[1][1]
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            direct, reference = _kron(a, b), np.kron(a, b)
            if square:
                ops = kron(Operator(a), Operator(b)).mat
                ops_reference = np.kron(a.astype(complex), b.astype(complex))
        assert direct.shape == reference.shape and direct.dtype == reference.dtype
        assert direct.tobytes() == reference.tobytes()
        if square:
            assert ops.tobytes() == ops_reference.tobytes()


class TestPartialTrace:
    def test_product_state_recovers_system(self, rng):
        rho_s = random_density(rng, 3)
        vac = DensityMatrix.fock(2, 0)
        joint = DensityMatrix(Operator(np.kron(rho_s.mat, vac.mat)))
        reduced = partial_trace(joint, HilbertFactorization((3, 2)), keep=0)
        assert np.max(np.abs(reduced.mat - rho_s.mat)) <= 1e-12

    def test_bell_state_reduces_to_mixed(self):
        bell = DensityMatrix.from_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced = partial_trace(bell, HilbertFactorization((2, 2)), keep=0)
        assert np.max(np.abs(reduced.mat - np.eye(2) / 2)) <= 1e-12

    def test_trace_preserved(self, rng):
        rho = random_density(rng, 6)
        reduced = partial_trace(rho, HilbertFactorization((2, 3)), keep=1)
        assert abs(reduced.op.trace() - 1.0) <= 1e-12

    def test_inconsistent_factorization(self, rng):
        rho = random_density(rng, 6)
        with pytest.raises(ValueError):
            partial_trace(rho, HilbertFactorization((2, 2)), keep=0)

    @pytest.mark.parametrize("dims", [(), (4,), (2, 2, 2), (2, 0)])
    def test_factorization_is_two_positive_factors(self, dims):
        with pytest.raises(ValueError, match="two positive"):
            HilbertFactorization(dims)

    @pytest.mark.parametrize("dims", [(2.5, 2), (True, 2.9), (2, 2.0), (2, True), ("2", 3),
                                      (np.float64(3.0), 2)])
    def test_factor_dimensions_must_be_integers(self, dims):
        # int(d) truncated these silently: (2.5, 2) became (2, 2), (True, 2.9) (1, 2)
        with pytest.raises(ValueError, match=re.escape(f"got {dims!r}")):
            HilbertFactorization(dims)

    def test_numpy_integer_dimensions_are_stored_as_ints(self):
        fact = HilbertFactorization((np.int64(2), np.int32(3)))
        assert fact.dims == (2, 3)
        assert [type(d) for d in fact.dims] == [int, int]

    @pytest.mark.parametrize("keep", [-1, 2, True, 1.0])
    def test_keep_outside_factorization(self, rng, keep):
        with pytest.raises(ValueError, match="keep index"):
            partial_trace(random_density(rng, 6), HilbertFactorization((2, 3)), keep=keep)

    @given(st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=0, max_value=1))
    def test_either_factor_of_product_state(self, seed, keep):
        rng = np.random.default_rng(seed)
        parts = [random_density(rng, 2), random_density(rng, 3)]
        joint = DensityMatrix(Operator(np.kron(parts[0].mat, parts[1].mat)))
        reduced = partial_trace(joint, HilbertFactorization((2, 3)), keep=keep)
        assert np.max(np.abs(reduced.mat - parts[keep].mat)) <= 1e-12


class TestExpectation:
    def test_lowering_vanishes_in_vacuum(self):
        assert expectation(annihilation(3), DensityMatrix.fock(3, 0)) == 0.0

    def test_number_in_first_excited(self):
        a = annihilation(3)
        assert expectation(a.dagger() @ a, DensityMatrix.fock(3, 1)) == pytest.approx(1.0)

    def test_sigma_z_in_maximally_mixed(self):
        sz = Operator(np.diag([1.0, -1.0]).astype(complex))
        mixed = DensityMatrix(Operator(np.eye(2) / 2))
        assert expectation(sz, mixed) == pytest.approx(0.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            expectation(annihilation(3), DensityMatrix.fock(2, 0))

    def test_real_for_hermitian_observable(self, rng):
        a = random_operator(rng, 4)
        herm = a + a.dagger()
        rho = random_density(rng, 4)
        assert abs(expectation(herm, rho).imag) <= 1e-12


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(Operator([[0.5, 0.2], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(Operator(np.eye(2)))

    def test_trace_failure_reads_as_a_real_number(self):
        with pytest.raises(ValueError, match=r"^density matrix trace 2 differs from 1 beyond"):
            DensityMatrix(Operator(np.eye(2)))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(Operator(np.diag([1.5, -0.5]).astype(complex)))

    def test_fock_range(self):
        with pytest.raises(ValueError):
            DensityMatrix.fock(3, 3)

    @pytest.mark.parametrize("n", [1.5, 1.0, np.float64(1.0), True])
    def test_fock_index_must_be_an_integer(self, n):
        # numpy would raise its own IndexError on 1.5, and take True as index 1
        with pytest.raises(ValueError, match="Fock index must be an integer"):
            DensityMatrix.fock(2, n)

    @pytest.mark.parametrize("dim", [2.0, 2.5, True])
    def test_fock_dimension_must_be_an_integer(self, dim):
        with pytest.raises(ValueError, match="Fock dimension must be an integer"):
            DensityMatrix.fock(dim, 0)

    def test_from_state_whose_norm_overflows(self):
        # the norm of (1e200, 1e200) is past the float range
        rho = DensityMatrix.from_state([1e200, 1e200])
        assert np.max(np.abs(rho.mat - 0.5)) <= 1e-15

    def test_from_state_whose_norm_underflows(self):
        # the norm of (1e-200, 0) rounds to zero
        assert DensityMatrix.from_state([1e-200, 0.0]).mat.tobytes() == \
            DensityMatrix.fock(2, 0).mat.tobytes()

    @pytest.mark.parametrize("psi", [[np.inf, 0.0], [np.nan, 1.0], [1.0, complex(0.0, -np.inf)]])
    def test_from_state_refuses_non_finite_entries(self, psi):
        with pytest.raises(ValueError, match="non-finite entries"):
            DensityMatrix.from_state(psi)

    @pytest.mark.parametrize("psi", [[0.0, 0.0], []])
    def test_from_state_refuses_the_zero_vector(self, psi):
        with pytest.raises(ValueError, match="zero vector"):
            DensityMatrix.from_state(psi)

    def test_from_state_keeps_the_bits_of_plain_normalization(self, rng):
        # scaling by a power of two changes no bit while the norm stays in range
        for _ in range(200):
            n = int(rng.integers(1, 9))
            psi = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.integers(-30, 31)
            vec = psi / np.linalg.norm(psi)
            assert DensityMatrix.from_state(psi).mat.tobytes() == \
                np.outer(vec, vec.conj()).tobytes()


class TestCheckDensityMatrices:
    def test_accepts_a_valid_stack(self, rng):
        check_density_matrices(np.array([random_density(rng, 3).mat for _ in range(4)]))

    @pytest.mark.parametrize("broken, match", [
        (np.array([[0.5, 0.2], [0.0, 0.5]]), "Hermitian"),
        (np.eye(2), "trace"),
        (np.diag([1.5, -0.5]), "eigenvalue"),
    ])
    def test_names_the_first_bad_matrix(self, broken, match):
        stack = np.array([np.eye(2) / 2, np.eye(2) / 2, broken, broken], dtype=complex)
        with pytest.raises(ValueError, match=match + r".*\(matrix 2 of 4\)"):
            check_density_matrices(stack)

    def test_names_the_matrix_within_a_longer_sequence(self):
        stack = np.array([np.eye(2) / 2, np.eye(2)], dtype=complex)
        with pytest.raises(ValueError, match=r"trace .*\(matrix 6 of 9\)"):
            check_density_matrices(stack, start=5, total=9)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            DensityMatrix(Operator(np.diag([bad, 1.0])))


def with_spectrum(rng, eigenvalues):
    """A Hermitian matrix with the given eigenvalues in a random unitary basis."""
    d = len(eigenvalues)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    m = (q * np.asarray(eigenvalues)) @ q.conj().T
    return (m + m.conj().T) / 2.0


class TestPositivityCertificate:
    """Positivity is certified by a Cholesky factorization of B + POSITIVITY_TOL * I;
    eigvalsh runs only when that fails, and the outcome is eigvalsh's."""

    @staticmethod
    def eigvalsh_accepts(blocks):
        return min(np.linalg.eigvalsh(b)[..., 0].min() for b in blocks) >= -POSITIVITY_TOL

    @staticmethod
    def count_eigvalsh(monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    @pytest.mark.parametrize("size", [1, 2, 3, 6])
    @pytest.mark.parametrize("margin", [-1e-3, 1e-3], ids=["above-tol", "below-tol"])
    def test_decides_as_eigvalsh_at_the_tolerance(self, monkeypatch, rng, size, margin):
        # three matrices, each a 1 x 1 block and two size x size blocks; the
        # smallest eigenvalue of matrix 1 sits just inside or just outside -tol
        lam = -POSITIVITY_TOL * (1.0 + margin)
        blocks = np.array([[with_spectrum(rng, np.full(size, 0.8 / (2 * size)))] * 2] * 3)
        blocks[1, 1] = with_spectrum(rng, [lam] + [(0.4 - lam) / (size - 1)] * (size - 1)
                                     if size > 1 else [0.4])
        ones = np.full((3, 1, 1, 1), 0.2, dtype=complex)
        if size == 1:
            ones[1, 0, 0, 0] = lam
            blocks[1, 1] = 0.6 - lam
        stacks = [ones, blocks]
        accepts = self.eigvalsh_accepts(stacks)
        assert accepts == (margin < 0)
        calls = self.count_eigvalsh(monkeypatch)
        if accepts:
            check_block_diagonal(stacks)
            assert calls == []
        else:
            with pytest.raises(DensityMatrixError,
                               match=rf"eigenvalue {lam:.3e} below .* \(matrix 1 of 3\)"):
                check_block_diagonal(stacks)
            assert calls

    @pytest.mark.parametrize("size", [2, 4])
    def test_certificate_leaves_the_stack_as_given(self, rng, size):
        # the diagonal is shifted in place on a copy: neither a writable stack nor a
        # read-only view of one is touched
        stack = np.array([[with_spectrum(rng, np.full(size, 1.0 / size))] * 2] * 3)
        before = stack.tobytes()
        assert _certified_positive(stack)
        assert stack.tobytes() == before
        view = stack[:, :1]
        view.flags.writeable = False
        assert _certified_positive(view)
        assert stack.tobytes() == before

    def test_one_by_one_blocks_are_read_off_the_diagonal(self):
        assert _certified_positive(np.array([[[[0.5]], [[-0.999 * POSITIVITY_TOL]]]]))
        assert not _certified_positive(np.array([[[[0.5]], [[-1.001 * POSITIVITY_TOL]]]]))

    @pytest.mark.parametrize("size", [1, 3])
    def test_non_finite_entries_are_not_certified(self, size):
        b = np.eye(size, dtype=complex)[None, None] / size
        b[0, 0, -1, -1] = np.nan
        assert not _certified_positive(b)
        with pytest.raises(DensityMatrixError), np.errstate(invalid="ignore"):
            check_block_diagonal([b])

    def test_failure_names_the_matrix_eigvalsh_names(self, rng):
        # matrices 2 and 4 of 5 break positivity, in different block sizes
        small = np.full((5, 2, 1, 1), 0.1, dtype=complex)
        large = np.array([[with_spectrum(rng, [0.1, 0.1, 0.2])] * 2] * 5)
        large[2, 1] = with_spectrum(rng, [-3e-8, 0.2, 0.2 + 3e-8])
        small[4, 0] = -2e-6
        small[4, 1] = 0.2 + 2e-6
        stacks = [small, large]
        lam_min = np.min([np.linalg.eigvalsh(b)[..., 0].min(axis=1) for b in stacks], axis=0)
        first = int(np.flatnonzero(lam_min < -POSITIVITY_TOL)[0])
        assert first == 2
        with pytest.raises(DensityMatrixError,
                           match=rf"eigenvalue {lam_min[first]:.3e} .*\(matrix 12 of 20\)"):
            check_block_diagonal(stacks, start=10, total=20)


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        a = DensityMatrix.fock(2, 0)
        b = DensityMatrix.fock(2, 1)
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_zero_on_identical(self, rng):
        rho = random_density(rng, 4)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
