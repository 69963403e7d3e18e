"""Sparse complex operators on finite truncations, plus the small dense
eigensolvers, null-space extraction and exact block-sparse norms used
everywhere else.

All operators here are banded or shift-like, so the sparse format is a
column-major adjacency (column -> list of (row, value)).  Values are
immutable after construction and every function is pure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph


# Entries below DEDUP_RTOL * (largest modulus) are dropped on construction.
DEDUP_RTOL = 1e-14
DENSE_EIG_CAP = 4096


class DimensionMismatch(ValueError):
    pass


class NonHermitianInput(ValueError):
    pass


class SingularLinearPart(ValueError):
    pass


class EigenSolveFailure(RuntimeError):
    """Eigensolver did not converge; carries the best residuals seen."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


def _clean(mat: sp.spmatrix) -> sp.csc_matrix:
    m = sp.csc_matrix(mat, dtype=np.complex128)
    m.sum_duplicates()
    if m.nnz:
        mx = np.abs(m.data).max()
        if mx > 0.0:
            m.data[np.abs(m.data) < DEDUP_RTOL * mx] = 0.0
        m.eliminate_zeros()
    m.sort_indices()
    return m


class LinOp:
    """Complex linear operator on a truncated space, stored sparsely."""

    __slots__ = ("dim", "_m")

    def __init__(self, dim: int, entries=None, _mat=None):
        self.dim = int(dim)
        if _mat is not None:
            if _mat.shape != (self.dim, self.dim):
                raise DimensionMismatch(f"matrix shape {_mat.shape} != dim {self.dim}")
            self._m = _clean(_mat)
            return
        rows, cols, vals = [], [], []
        if entries:
            for col, pairs in entries.items():
                for row, val in pairs:
                    if not (0 <= row < self.dim and 0 <= col < self.dim):
                        raise DimensionMismatch(
                            f"entry ({row},{col}) outside dim {self.dim}")
                    rows.append(row)
                    cols.append(col)
                    vals.append(val)
        self._m = _clean(sp.coo_matrix(
            (np.asarray(vals, dtype=np.complex128), (rows, cols)),
            shape=(self.dim, self.dim)))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_triples(cls, dim, triples):
        """Build from an iterable of (row, col, value)."""
        rows, cols, vals = [], [], []
        for r, c, v in triples:
            rows.append(r)
            cols.append(c)
            vals.append(v)
        mat = sp.coo_matrix((np.asarray(vals, dtype=np.complex128), (rows, cols)),
                            shape=(dim, dim))
        return cls(dim, _mat=mat)

    @classmethod
    def from_dense(cls, arr):
        arr = np.asarray(arr, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"not square: {arr.shape}")
        return cls(arr.shape[0], _mat=sp.csc_matrix(arr))

    @classmethod
    def identity(cls, dim):
        return cls(dim, _mat=sp.identity(dim, dtype=np.complex128, format="csc"))

    @classmethod
    def zeros(cls, dim):
        return cls(dim, _mat=sp.csc_matrix((dim, dim), dtype=np.complex128))

    @classmethod
    def diagonal(cls, diag):
        diag = np.asarray(diag, dtype=np.complex128)
        return cls(diag.size, _mat=sp.diags(diag, format="csc"))

    # -- views ---------------------------------------------------------

    @property
    def nnz(self):
        return self._m.nnz

    def csc(self):
        return self._m

    def entries(self):
        """Column -> tuple of (row, value), the canonical sparse view."""
        m = self._m
        out = {}
        for c in range(self.dim):
            lo, hi = m.indptr[c], m.indptr[c + 1]
            if hi > lo:
                out[c] = tuple((int(r), complex(v))
                               for r, v in zip(m.indices[lo:hi], m.data[lo:hi]))
        return out

    def to_dense(self):
        return self._m.toarray()

    def apply(self, vec):
        return self._m @ np.asarray(vec, dtype=np.complex128)

    def max_entry(self):
        return float(np.abs(self._m.data).max()) if self._m.nnz else 0.0

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} != {other.dim}")

    def __matmul__(self, other):
        self._check(other)
        return LinOp(self.dim, _mat=self._m @ other._m)

    def __add__(self, other):
        self._check(other)
        return LinOp(self.dim, _mat=self._m + other._m)

    def __sub__(self, other):
        self._check(other)
        return LinOp(self.dim, _mat=self._m - other._m)

    def __neg__(self):
        return LinOp(self.dim, _mat=-self._m)

    def __mul__(self, scalar):
        return LinOp(self.dim, _mat=self._m * complex(scalar))

    __rmul__ = __mul__

    def adjoint(self):
        return LinOp(self.dim, _mat=self._m.conjugate().transpose())

    def conj(self):
        """Entrywise complex conjugate (no transpose)."""
        return LinOp(self.dim, _mat=self._m.conjugate())

    def __repr__(self):
        return f"LinOp(dim={self.dim}, nnz={self.nnz})"


@dataclass(frozen=True)
class AntiLinOp:
    """Antilinear operator stored through its linear part L.

    The action on a vector v is L @ conj(v); conjugating a linear operator T
    by this map gives L @ conj(T) @ inv(L).
    """

    linear_part: LinOp

    @property
    def dim(self):
        return self.linear_part.dim

    def apply(self, vec):
        return self.linear_part.apply(np.conj(np.asarray(vec, dtype=np.complex128)))

    def squared(self) -> LinOp:
        """The linear operator (this map) applied twice: L @ conj(L)."""
        return self.linear_part @ self.linear_part.conj()


@dataclass(frozen=True)
class EigResult:
    eigenvalues: np.ndarray
    residuals: np.ndarray
    vectors: np.ndarray | None = None

    def within(self, tol):
        return bool(np.all(self.residuals <= tol))


def compose(a: LinOp, b: LinOp) -> LinOp:
    """Sparse product a . b."""
    return a @ b


def adjoint(a: LinOp) -> LinOp:
    return a.adjoint()


def commutator(a: LinOp, b: LinOp) -> LinOp:
    return a @ b - b @ a


def anticommutator(a: LinOp, b: LinOp) -> LinOp:
    return a @ b + b @ a


def masked_columns(a: LinOp, mask) -> LinOp:
    """Zero out every column whose mask entry is False."""
    sel = np.asarray(mask, dtype=float)
    if sel.size != a.dim:
        raise DimensionMismatch("mask length != dim")
    return LinOp(a.dim, _mat=a.csc() @ sp.diags(sel, format="csc"))


def _monomial_columns(a: LinOp):
    """Return {col: (row, val)} if every column and row carry at most one
    entry, else None."""
    m = a.csc()
    cols = {}
    seen_rows = set()
    for c in range(a.dim):
        lo, hi = m.indptr[c], m.indptr[c + 1]
        if hi - lo > 1:
            return None
        if hi > lo:
            r = int(m.indices[lo])
            if r in seen_rows:
                return None
            seen_rows.add(r)
            cols[c] = (r, complex(m.data[lo]))
    return cols


def _inverse(a: LinOp) -> LinOp:
    """Inverse of the linear part of an antiunitary sandwich.

    Monomial operators (at most one entry per row and column, the only case
    the built-in geometries produce) invert columnwise; empty columns stem
    from truncation leakage and simply stay empty, which is harmless on
    interior vectors.  Anything else falls back to a dense inverse.
    """
    cols = _monomial_columns(a)
    if cols is not None:
        if not cols:
            raise SingularLinearPart("zero linear part")
        triples = [(c, r, 1.0 / v) for c, (r, v) in cols.items() if v != 0]
        return LinOp.from_triples(a.dim, triples)
    dense = a.to_dense()
    condition = np.linalg.cond(dense)
    if not np.isfinite(condition) or condition > 1e12:
        raise SingularLinearPart(f"linear part has condition number {condition:.3g}")
    return LinOp.from_dense(np.linalg.inv(dense))


def conj_by_antilinear(j: AntiLinOp, t: LinOp) -> LinOp:
    """The linear operator J T J^{-1} for antilinear J: L conj(T) inv(L)."""
    lp = j.linear_part
    if lp.dim != t.dim:
        raise DimensionMismatch(f"dims {lp.dim} != {t.dim}")
    return lp @ t.conj() @ _inverse(lp)


def eig_dense(a: LinOp, tol: float = 1e-9) -> EigResult:
    """All eigenvalues of the densified matrix, with per-pair residuals.

    Results are sorted by (real, imag).  Residuals exceeding tol are kept
    and reported; only an outright LAPACK failure raises.
    """
    if a.dim > DENSE_EIG_CAP:
        raise DimensionMismatch(f"dim {a.dim} exceeds dense cap {DENSE_EIG_CAP}")
    dense = a.to_dense()
    if a.dim == 0:
        return EigResult(np.zeros(0, complex), np.zeros(0), None)
    try:
        vals, vecs = np.linalg.eig(dense)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveFailure(f"dense eigensolve failed: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    vals, vecs = vals[order], vecs[:, order]
    residuals = np.linalg.norm(dense @ vecs - vecs * vals, axis=0)
    if np.any(residuals > tol):
        scale = max(1.0, float(np.abs(dense).max()))
        bad = residuals > tol * scale
        if np.any(bad):
            warnings.warn(f"{int(bad.sum())} eigenpairs above residual tolerance",
                          RuntimeWarning, stacklevel=2)
    return EigResult(vals, residuals, vecs)


def eig_hermitian(a: LinOp, herm_tol: float = 1e-10) -> EigResult:
    """Real ascending eigenvalues of a Hermitian operator."""
    if a.dim > DENSE_EIG_CAP:
        raise DimensionMismatch(f"dim {a.dim} exceeds dense cap {DENSE_EIG_CAP}")
    dense = a.to_dense()
    scale = max(1.0, float(np.abs(dense).max()) if dense.size else 0.0)
    gap = np.abs(dense - dense.conj().T).max() if dense.size else 0.0
    if gap > herm_tol * scale:
        raise NonHermitianInput(f"deviation from hermiticity {gap:.3g}")
    dense = 0.5 * (dense + dense.conj().T)
    vals, vecs = np.linalg.eigh(dense)
    residuals = np.linalg.norm(dense @ vecs - vecs * vals, axis=0)
    return EigResult(vals.astype(complex), residuals, vecs)


def nullspace(rows, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal kernel basis (columns) of a stack of real row vectors.

    Singular values below tol * sigma_max count as zero.  An empty row set
    returns the identity basis of the full space.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise DimensionMismatch("rows must be a 2-d array")
    nunk = rows.shape[1]
    if rows.shape[0] == 0 or not np.any(rows):
        return np.eye(nunk)
    # QR first keeps the SVD at unknown-count size even for tall systems.
    r = np.linalg.qr(rows, mode="r")
    _, svals, vh = np.linalg.svd(r, full_matrices=True)
    smax = svals[0] if svals.size else 0.0
    rank = int(np.sum(svals > tol * smax))
    return vh[rank:].conj().T


def _members(labels, ncomp):
    """Indices grouped by component label, in increasing index order.

    Returns (order, starts, counts, local): component k holds
    order[starts[k]:starts[k] + counts[k]], and local[i] is the position of
    index i inside its component.
    """
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=ncomp)
    starts = np.cumsum(counts) - counts
    local = np.empty_like(order)
    local[order] = np.arange(order.size) - starts[labels[order]]
    return order, starts, counts, local


def block_stacks(mat, square: bool = False):
    """Dense blocks of a sparse matrix, one per connected component.

    Rows and columns are the nodes of a graph whose edges are the nonzeros;
    up to row and column permutations the matrix is the direct sum of the
    blocks mat[rows, cols] of its components, so its singular values are
    the union of theirs.  Components without a nonzero are dropped.  With
    square=True row i and column i are one node: every block is then a
    principal submatrix (a Hermitian matrix's eigenvalues are the union of
    its blocks') and every index lands in a block, an empty one as a 1x1
    zero.

    Blocks of equal shape come back stacked, as (rows, cols, blocks) with
    shapes (k, r), (k, c) and (k, r, c), ready for batched LAPACK.  A
    component with more than DENSE_EIG_CAP rows or columns raises
    DimensionMismatch.
    """
    m = sp.coo_matrix(mat)
    m.sum_duplicates()
    n_rows, n_cols = m.shape
    if square:
        graph = sp.coo_matrix((np.ones(m.nnz), (m.row, m.col)), shape=m.shape)
        ncomp, row_comp = csgraph.connected_components(graph, directed=False)
        col_comp = row_comp
    else:
        size = n_rows + n_cols
        graph = sp.coo_matrix((np.ones(m.nnz), (m.row, n_rows + m.col)), shape=(size, size))
        ncomp, labels = csgraph.connected_components(graph, directed=False)
        row_comp, col_comp = labels[:n_rows], labels[n_rows:]
    if ncomp == 0:
        return []
    row_members = _members(row_comp, ncomp)
    col_members = row_members if square else _members(col_comp, ncomp)
    row_order, row_start, row_count, row_local = row_members
    col_order, col_start, col_count, col_local = col_members
    widest = int(np.argmax(np.maximum(row_count, col_count)))
    if max(row_count[widest], col_count[widest]) > DENSE_EIG_CAP:
        raise DimensionMismatch(
            f"component of {row_count[widest]}x{col_count[widest]} exceeds "
            f"dense cap {DENSE_EIG_CAP}")
    live = np.flatnonzero((row_count > 0) & (col_count > 0))
    keys, group = np.unique(row_count[live] * (n_cols + 1) + col_count[live],
                            return_inverse=True)
    entry_comp = row_comp[m.row]
    comp_group = np.full(ncomp, -1)
    comp_group[live] = group
    entry_group = comp_group[entry_comp]
    slot = np.zeros(ncomp, dtype=np.intp)
    out = []
    for g, (r, c) in enumerate(zip(*np.divmod(keys, n_cols + 1))):
        comps = live[group == g]
        slot[comps] = np.arange(comps.size)
        sel = entry_group == g
        blocks = np.zeros((comps.size, r, c), dtype=np.complex128)
        blocks[slot[entry_comp[sel]], row_local[m.row[sel]], col_local[m.col[sel]]] = m.data[sel]
        rows = row_order[row_start[comps][:, None] + np.arange(r)]
        cols = col_order[col_start[comps][:, None] + np.arange(c)]
        out.append((rows, cols, blocks))
    return out


def op_norm(a: LinOp) -> float:
    """Largest singular value, exact up to rounding.

    When the rigorous bound sqrt(norm1 * norminf) is below 1e-12 that bound
    is returned, which is the regime of pure roundoff violations.
    Otherwise the norm is the largest singular value over the blocks of
    block_stacks, by batched SVD; monomial operators (all shift-like
    operators and their commutator words here) give 1x1 blocks, whose norm
    is the modulus of the entry.
    """
    if a.nnz == 0:
        return 0.0
    m = a.csc()
    absm = abs(m)
    schur = float(np.sqrt(absm.sum(axis=0).max() * absm.sum(axis=1).max()))
    if schur <= 1e-12:
        return schur
    norms = [np.abs(blocks[:, 0, 0]) if blocks.shape[1:] == (1, 1)
             else np.linalg.norm(blocks, 2, axis=(1, 2))
             for _, _, blocks in block_stacks(m)]
    return float(max(n.max() for n in norms))
