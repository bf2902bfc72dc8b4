"""Dense complex operator algebra on small tensor-product Hilbert spaces.

Everything here is a pure function over immutable values; density matrices
validate their physical invariants once per construction or once per stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-8


def _is_int(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_square_complex(entries) -> np.ndarray:
    mat = np.array(entries, dtype=complex, order="C")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"operator entries must be a square matrix, got shape {mat.shape}")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense complex square matrix with its Hilbert-space dimension."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _as_square_complex(self.mat))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dagger(self) -> Operator:
        return Operator(self.mat.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def __add__(self, other: Operator) -> Operator:
        return Operator(self.mat + other.mat)

    def __sub__(self, other: Operator) -> Operator:
        return Operator(self.mat - other.mat)

    def __neg__(self) -> Operator:
        return Operator(-self.mat)

    def __matmul__(self, other: Operator) -> Operator:
        return Operator(self.mat @ other.mat)

    def __mul__(self, scalar) -> Operator:
        return Operator(self.mat * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim})"


def hermiticity_defect(op: Operator | np.ndarray) -> float:
    """Max-entry deviation of A from its adjoint."""
    mat = op.mat if isinstance(op, Operator) else np.asarray(op)
    return float(np.max(np.abs(mat - mat.conj().T)))


class DensityMatrixError(ValueError):
    """A matrix breaks one of the density-matrix invariants; the message names it."""


def check_density_matrices(stack: np.ndarray, start: int = 0, total: int | None = None) -> None:
    """Raise DensityMatrixError unless each matrix of an (m, n, n) stack is a density matrix.

    The invariants and tolerances are DensityMatrix's, checked in one batched
    pass; a non-finite entry fails them. The stack may be matrices start ..
    start + m - 1 of a sequence of `total` (default m); when that sequence
    holds more than one matrix, the message names the first that breaks one.
    """
    check_block_diagonal([stack[:, None]], start, total)


def check_block_diagonal(blocks: list[np.ndarray], start: int = 0, total: int | None = None,
                         defect: np.ndarray | None = None) -> None:
    """check_density_matrices for m block-diagonal matrices given by their blocks.

    Each entry of `blocks` is an (m, b, s, s) stack: matrix t holds the b
    blocks [t, 0] .. [t, b - 1] of every stack on its diagonal and zeros
    elsewhere. The invariants are those of the whole matrix: Hermiticity is
    checked on each matrix's largest entry defect (the (m,) `defect` if the
    caller has it, else read block by block), the trace summed over all
    blocks, and positivity on the smallest eigenvalue of any block, certified
    without a spectrum: a 1 x 1 block is its real diagonal entry, and a stack
    of larger blocks passes when one batched Cholesky factorization of
    B + POSITIVITY_TOL * I succeeds (it exists exactly when every eigenvalue
    of B lies above -POSITIVITY_TOL, up to roundoff). Only when a certificate
    fails are the smallest eigenvalues computed, one batched eigvalsh per
    stack, and they decide and name the failure.
    """
    m = len(blocks[0])
    total = m if total is None else total

    def first_bad(ok: np.ndarray) -> tuple[int, str]:
        i = int(np.argmin(ok))
        return i, (f" (matrix {start + i} of {total})" if total > 1 else "")

    if defect is None:
        defect = np.max([np.abs(b - b.conj().swapaxes(-1, -2)).reshape(m, -1).max(axis=1)
                         for b in blocks], axis=0)
    # `not x <= tol` rather than `x > tol`, so that NaN fails
    if not defect.max() <= HERMITICITY_TOL:
        i, where = first_bad(defect <= HERMITICITY_TOL)
        raise DensityMatrixError(f"density matrix not Hermitian: defect {defect[i]:.3e}{where}")
    tr = sum(b.trace(axis1=2, axis2=3).sum(axis=1) for b in blocks)
    if not np.abs(tr - 1.0).max() <= TRACE_TOL:
        i, where = first_bad(np.abs(tr - 1.0) <= TRACE_TOL)
        raise DensityMatrixError(
            f"density matrix trace {tr[i].real:.12g} differs from 1 beyond {TRACE_TOL:g}{where}")
    if all(_certified_positive(b) for b in blocks):
        return
    lam_min = np.min([np.linalg.eigvalsh(b)[..., 0].min(axis=1) for b in blocks], axis=0)
    if not lam_min.min() >= -POSITIVITY_TOL:
        i, where = first_bad(lam_min >= -POSITIVITY_TOL)
        raise DensityMatrixError(
            f"density matrix has eigenvalue {lam_min[i]:.3e} below -{POSITIVITY_TOL:g}{where}")


def _certified_positive(b: np.ndarray) -> bool:
    """True when no eigenvalue of the Hermitian (..., s, s) stack b lies below -POSITIVITY_TOL:
    the Cholesky factorization of a copy of b, its diagonal shifted in place, succeeds."""
    s = b.shape[-1]
    if s == 1:
        return bool((b.real >= -POSITIVITY_TOL).all())
    shifted = b.copy()
    shifted.reshape(b.shape[:-2] + (s * s,))[..., ::s + 1] += POSITIVITY_TOL
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())  # LAPACK passes NaN entries through


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator.

    Construction raises if the payload violates any of the three invariants
    (tolerances: hermiticity 1e-12, trace 1e-9, smallest eigenvalue -1e-8).
    """

    op: Operator

    def __post_init__(self):
        if not isinstance(self.op, Operator):
            object.__setattr__(self, "op", Operator(self.op))
        check_density_matrices(self.op.mat[None])

    @classmethod
    def from_state(cls, psi) -> DensityMatrix:
        """Projector |psi><psi| onto a normalized pure state."""
        parts = np.array(psi, dtype=complex).reshape(-1).view(float)
        peak = float(np.abs(parts).max(initial=0.0))  # NaN if any entry is NaN
        if not math.isfinite(peak):
            raise ValueError("cannot build a density matrix from a vector with non-finite entries")
        if peak == 0.0:
            raise ValueError("cannot build a density matrix from the zero vector")
        # 2^e ~ the largest entry scales out exactly, so the norm neither overflows nor underflows
        vec = np.ldexp(parts, -math.frexp(peak)[1]).view(complex)
        vec = vec / np.linalg.norm(vec)
        return cls(Operator(np.outer(vec, vec.conj())))

    @classmethod
    def fock(cls, dim: int, n: int) -> DensityMatrix:
        """Number state |n><n| on a dim-level ladder."""
        if not (_is_int(dim) and dim >= 1):
            raise ValueError(f"Fock dimension must be an integer >= 1, got {dim!r}")
        if not _is_int(n):
            raise ValueError(f"Fock index must be an integer, got {n!r}")
        if not 0 <= n < dim:
            raise ValueError(f"Fock index {n} outside 0..{dim - 1}")
        vec = np.zeros(dim, dtype=complex)
        vec[n] = 1.0
        return cls.from_state(vec)

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def dim(self) -> int:
        return self.op.dim

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def _density_matrices(stack: np.ndarray) -> list[DensityMatrix]:
    """One DensityMatrix per matrix of an (m, n, n) stack, checked once by check_density_matrices."""
    check_density_matrices(stack)
    states = [object.__new__(DensityMatrix) for _ in range(len(stack))]
    for state, mat in zip(states, stack):
        object.__setattr__(state, "op", Operator(mat))
    return states


@dataclass(frozen=True)
class HilbertFactorization:
    """Dimensions (d0, d1) of a two-factor space, system (0) tensor ancilla (1)."""

    dims: tuple[int, int]

    def __post_init__(self):
        dims = tuple(self.dims)
        if len(dims) != 2 or not all(_is_int(d) and d >= 1 for d in dims):
            raise ValueError(f"need two positive integer factor dimensions, got {self.dims!r}")
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))

    @property
    def total_dim(self) -> int:
        return self.dims[0] * self.dims[1]

    def check(self, dim: int) -> None:
        if self.total_dim != dim:
            raise ValueError(
                f"factorization {self.dims} has product {self.total_dim}, "
                f"inconsistent with operator dimension {dim}"
            )


def identity(d: int) -> Operator:
    if not (_is_int(d) and d >= 1):
        raise ValueError(f"identity dimension must be an integer >= 1, got {d!r}")
    return Operator(np.eye(d, dtype=complex))


def annihilation(d: int) -> Operator:
    """Lowering operator on a d-level truncated ladder, <n-1|a|n> = sqrt(n)."""
    if not (_is_int(d) and d >= 2):
        raise ValueError(f"ladder needs an integer dimension >= 2, got {d!r}")
    mat = np.zeros((d, d), dtype=complex)
    ns = np.arange(1, d)
    mat[ns - 1, ns] = np.sqrt(ns)
    return Operator(mat)


def sigma_minus() -> Operator:
    """Two-level lowering operator |g><e| (index 0 = ground, 1 = excited)."""
    return annihilation(2)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices bit for bit, as the broadcast product np.kron forms."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def kron(a: Operator, b: Operator) -> Operator:
    return Operator(_kron(a.mat, b.mat))


def partial_trace(rho: DensityMatrix, fact: HilbertFactorization, keep: int) -> DensityMatrix:
    """Reduced state on factor `keep` (0 or 1), tracing out the other factor."""
    fact.check(rho.dim)
    if not (_is_int(keep) and keep in (0, 1)):
        raise ValueError(f"keep index {keep} outside factorization {fact.dims}")
    # axes (i0, i1, j0, j1): trace over the pair (i, j) of the factor not kept
    traced = 1 - keep
    tensor = rho.mat.reshape(fact.dims + fact.dims)
    return DensityMatrix(Operator(np.trace(tensor, axis1=traced, axis2=traced + 2)))


def expectation(a: Operator, rho: DensityMatrix) -> complex:
    """tr(A rho); real up to roundoff when A is Hermitian."""
    if a.dim != rho.dim:
        raise ValueError(f"operator dim {a.dim} != state dim {rho.dim}")
    return complex(np.trace(a.mat @ rho.mat))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) sum of |eigenvalues| of rho - sigma."""
    if rho.dim != sigma.dim:
        raise ValueError(f"state dims differ: {rho.dim} vs {sigma.dim}")
    diff = rho.mat - sigma.mat
    diff = (diff + diff.conj().T) / 2.0
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
