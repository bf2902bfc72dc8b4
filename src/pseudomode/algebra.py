"""Dense complex operator algebra on small tensor-product Hilbert spaces.

Everything here is a pure function over immutable values; density matrices
validate their physical invariants once, at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-8


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


def check_density_matrices(stack: np.ndarray, start: int = 0, total: int | None = None) -> None:
    """Raise ValueError unless each matrix of an (m, n, n) stack is a density matrix.

    The invariants and tolerances are DensityMatrix's, checked in one batched
    pass; a non-finite entry fails them. The stack may be matrices start ..
    start + m - 1 of a sequence of `total` (default m); when that sequence
    holds more than one matrix, the message names the first that breaks one.
    """
    total = len(stack) if total is None else total

    def first_bad(ok: np.ndarray) -> tuple[int, str]:
        i = int(np.argmin(ok))
        return i, (f" (matrix {start + i} of {total})" if total > 1 else "")

    # `not x <= tol` rather than `x > tol`, so that NaN fails
    defect = np.abs(stack - stack.conj().transpose(0, 2, 1))
    if not defect.max() <= HERMITICITY_TOL:
        defect = defect.reshape(len(stack), -1).max(axis=1)
        i, where = first_bad(defect <= HERMITICITY_TOL)
        raise ValueError(f"density matrix not Hermitian: defect {defect[i]:.3e}{where}")
    tr = stack.trace(axis1=1, axis2=2)
    if not np.abs(tr - 1.0).max() <= TRACE_TOL:
        i, where = first_bad(np.abs(tr - 1.0) <= TRACE_TOL)
        raise ValueError(
            f"density matrix trace {tr[i]:.12g} differs from 1 beyond {TRACE_TOL:g}{where}")
    lam_min = np.linalg.eigvalsh(stack)[:, 0]
    if not lam_min.min() >= -POSITIVITY_TOL:
        i, where = first_bad(lam_min >= -POSITIVITY_TOL)
        raise ValueError(
            f"density matrix has eigenvalue {lam_min[i]:.3e} below -{POSITIVITY_TOL:g}{where}")


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
        vec = np.asarray(psi, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(vec)
        if nrm == 0.0:
            raise ValueError("cannot build a density matrix from the zero vector")
        vec = vec / nrm
        return cls(Operator(np.outer(vec, vec.conj())))

    @classmethod
    def fock(cls, dim: int, n: int) -> DensityMatrix:
        """Number state |n><n| on a dim-level ladder."""
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


@dataclass(frozen=True)
class HilbertFactorization:
    """Ordered tensor-product factor dimensions; the system factor is leftmost."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def check(self, dim: int) -> None:
        if self.total_dim != dim:
            raise ValueError(
                f"factorization {self.dims} has product {self.total_dim}, "
                f"inconsistent with operator dimension {dim}"
            )


def identity(d: int) -> Operator:
    return Operator(np.eye(d, dtype=complex))


def annihilation(d: int) -> Operator:
    """Lowering operator on a d-level truncated ladder, <n-1|a|n> = sqrt(n)."""
    if d < 2:
        raise ValueError(f"ladder needs dimension >= 2, got {d}")
    mat = np.zeros((d, d), dtype=complex)
    ns = np.arange(1, d)
    mat[ns - 1, ns] = np.sqrt(ns)
    return Operator(mat)


def sigma_minus() -> Operator:
    """Two-level lowering operator |g><e| (index 0 = ground, 1 = excited)."""
    return annihilation(2)


def kron(a: Operator, b: Operator) -> Operator:
    return Operator(np.kron(a.mat, b.mat))


def _partial_trace_mat(mat: np.ndarray, dims: tuple[int, ...], keep: int) -> np.ndarray:
    n = len(dims)
    tensor = mat.reshape(dims + dims)
    out = tensor
    removed = 0
    for idx in range(n):
        if idx == keep:
            continue
        axis = idx - removed
        out = np.trace(out, axis1=axis, axis2=axis + (n - removed))
        removed += 1
    return out.reshape(dims[keep], dims[keep])


def partial_trace(rho: DensityMatrix, fact: HilbertFactorization, keep: int) -> DensityMatrix:
    """Reduced state on factor `keep`, tracing out all other factors."""
    fact.check(rho.dim)
    if not 0 <= keep < len(fact.dims):
        raise ValueError(f"keep index {keep} outside factorization {fact.dims}")
    return DensityMatrix(Operator(_partial_trace_mat(rho.mat, fact.dims, keep)))


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
