"""Face-level random walks materialized as row-stochastic Markov operators.

Every operator pairs a transition matrix with the stationary measures of its
source and target levels; the joint distribution source(u) * P(u, v) is what
the spectra module symmetrizes.  Each walk is written down as its joint over
the two levels by one builder, ``_walk_joint``, from (row, column, mass)
entries handed over one sub-face pattern block at a time, and turned into an
operator by one constructor, ``_from_joint`` (P = diag(1/source) J), which
scales that fresh joint in place, so a walk is held once while it is built.
One storage rule, ``_stores_dense(shape, entries)``, chosen before the build:
a matrix whose shape ``_solves_dense`` admits, or whose dense array takes no
more bytes than its CSR (8 a cell against 12 an entry), is stored dense and
filled block by block in entry order; any other is canonical CSR from
``_joint``.  So a near-full walk past the dense limit is held dense, and
still solved by Lanczos in the spectra module, which reads ``_solves_dense``
alone.  Every sparse matrix a constructor returns, products of
``MarkovOperator.compose`` included, is canonical CSR: sorted columns in
each row, no repeated cell.  ``_containment_joint`` builds the joint of "s
by level measure, then an l-face inside s", which is also the (S, T) main
distribution of the agreement tests, always as CSR.  The lower walk, down to
X(l) and back up, is a ``FactoredWalk``: it holds the containment walk and
its reverse, applies the two in turn to vectors (``held``), checks its rows
and detailed balance through them, and forms their product with the
arithmetic of ``compose`` only when its ``matrix`` is read.  ``reverse``
copies a transpose once and scales it in place.  ``_diag_scale``,
``_marginal``, ``_dense`` and ``_asymmetry`` (the detailed-balance residual,
of one matrix or of a pair that should be each other's reverse) take either
storage, so no other code asks which one it holds; the dense marginals and
the residual run in row blocks, so a large walk gets no full-size copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .complexes import _GATHER_ENTRIES, Complex, _group, position_subsets
from .errors import (
    EmptyWalk,
    HdxError,
    InconsistentMarginals,
    LevelOutOfRange,
    NotPartite,
    OverlappingColors,
)

# no side above this: solved dense (the measured crossover), and stored dense
DENSE_EIG_LIMIT = 400
ROW_TOL = 1e-10


def _solves_dense(shape) -> bool:
    """Whether a matrix of this shape is solved dense: no side above
    ``DENSE_EIG_LIMIT``."""
    return max(shape) <= DENSE_EIG_LIMIT


def _stores_dense(shape, entries: int) -> bool:
    """Whether a matrix of this shape with this many stored entries is held
    dense: where ``_solves_dense`` admits its shape, or where the dense array
    (8 bytes a cell) takes no more bytes than the CSR (12 bytes an entry), so
    that a stored matrix never grows."""
    return _solves_dense(shape) or 8 * int(shape[0]) * int(shape[1]) <= 12 * int(entries)


def _joint(rows, cols, vals, shape) -> sp.csr_matrix:
    """The canonical CSR matrix of the entries (rows, cols, vals); repeated
    entries add up.  Int32 positions are taken as they are, with no copy."""
    return sp.coo_matrix((vals, (rows, cols)), shape=shape, dtype=float).tocsr()


def _walk_joint(shape, blocks: int, size: int, entries):
    """The joint of a walk from ``blocks`` blocks of ``size`` (row, column,
    mass) entries each, ``entries(lo, hi)`` giving those of blocks lo to hi-1
    in order; repeated cells add up.  Stored as ``_stores_dense`` says: a
    zeroed array that each block in turn is added into by flat cell id, in
    entry order, so that only one block's entries are held beside it, or the
    CSR of all the entries from ``_joint``.  No entry at all raises
    ``EmptyWalk``."""
    if blocks * size == 0:
        raise EmptyWalk("no face joins the source and target levels")
    if not _stores_dense(shape, blocks * size):
        return _joint(*entries(0, blocks), shape)
    out = np.zeros(shape)
    for lo in range(blocks):
        rows, cols, vals = entries(lo, lo + 1)
        cells = rows.astype(np.intp)
        cells *= shape[1]
        cells += cols
        np.add.at(out.reshape(-1), cells, vals)
        del rows, cols, vals, cells  # before ``entries`` builds the next block
    return out


def _dense(mat) -> np.ndarray:
    return mat.toarray() if sp.issparse(mat) else np.asarray(mat)


def _maybe_dense(mat):
    """A sparse matrix densified where ``_stores_dense`` admits it; a dense
    one as it is."""
    if sp.issparse(mat) and not _stores_dense(mat.shape, mat.nnz):
        return mat
    return _dense(mat)


def _product(a, b):
    """a @ b as an operator stores it: canonical CSR, densified where
    ``_stores_dense`` admits it."""
    mat = a @ b
    if sp.issparse(mat):  # the sparse product leaves each row's columns unsorted
        mat.sum_duplicates()
    return _maybe_dense(mat)


class _Product:
    """The product a @ b of two stored matrices, held as the two: ``@``
    applies it to a vector right to left, ``T`` is its transpose b^T a^T
    held the same way, and ``formed()`` forms it (``_product``) on its first
    call and keeps it."""

    def __init__(self, a, b):
        self.a, self.b, self._formed = a, b, None

    @property
    def shape(self):
        return (self.a.shape[0], self.b.shape[1])

    @property
    def T(self):
        return _Product(self.b.T, self.a.T)

    def __matmul__(self, x):
        return self.a @ (self.b @ x)

    def formed(self):
        if self._formed is None:
            self._formed = _product(self.a, self.b)
        return self._formed


def _scale_in_place(mat, rows=None, cols=None):
    """``_diag_scale`` of a dense array or a CSR matrix in place: each entry
    times rows[i], then times cols[j]; a CSR matrix drops zero results."""
    if not sp.issparse(mat):
        if rows is not None:
            mat *= rows[:, None]
        if cols is not None:
            mat *= cols
        return mat
    if rows is not None:
        mat.data *= np.repeat(rows, np.diff(mat.indptr))
    if cols is not None:
        mat.data *= cols[mat.indices]
    mat.eliminate_zeros()
    return mat


def _diag_scale(mat, rows=None, cols=None):
    """diag(rows) @ mat @ diag(cols) as a copy: entry (i, j) times rows[i],
    then times cols[j].  A dense matrix is scaled by broadcasting; a sparse
    one by a pass over a CSR copy's data, the sparse products' values bit for
    bit, with zero results dropped, as the products drop them."""
    if not sp.issparse(mat):
        return _scale_in_place(np.array(mat, dtype=float), rows, cols)
    return _scale_in_place(sp.csr_matrix(mat, dtype=float, copy=True), rows, cols)


def _row_blocks(shape):
    """(lo, hi) row ranges of a dense matrix of this shape, each of about
    ``_GATHER_ENTRIES`` cells, or of one row where that alone is more."""
    step = max(1, _GATHER_ENTRIES // max(1, int(shape[1])))
    return [(lo, min(lo + step, shape[0])) for lo in range(0, shape[0], step)]


def _asymmetry(mat, rows, other=None, other_rows=None) -> float:
    """max |J[i, j] - K[j, i]| of J = diag(rows) @ mat and K = diag(other_rows)
    @ other, a matrix of the transposed shape stored alike (by default J
    itself, the asymmetry of a square J), over every entry that J or K
    stores, without forming J, K or their difference.  A dense matrix is
    compared row block by row block (``_row_blocks``) with the matching
    column block of ``other``.  A sparse one is compared in row blocks of
    about ``_GATHER_ENTRIES / 4`` stored entries, each with the same rows of
    K^T, read through the column order of ``other``'s entries, found once by
    a CSR-to-CSC conversion of their int32 positions, so that ``other``'s
    values are not copied: where a block of a canonical matrix stores the
    same cells as K^T, entry by entry; elsewhere cell by cell, repeated
    entries added up and a cell stored on one side only compared with 0."""
    if other is None:
        other, other_rows = mat, rows
    if not sp.issparse(mat):
        mat, other = (np.asarray(_dense(m), dtype=float) for m in (mat, other))
        worst = 0.0
        for lo, hi in _row_blocks(mat.shape):
            gap = mat[lo:hi] * rows[lo:hi, None]  # J[i, j]
            gap -= (other[:, lo:hi] * other_rows[:, None]).T  # K[j, i]
            worst = max(worst, float(np.abs(gap, out=gap).max(initial=0.0)))
        return worst
    mat, other = sp.csr_matrix(mat), sp.csr_matrix(other)
    n = mat.shape[1]
    canonical = mat.has_canonical_format
    # K^T, listed as other[:, lo:hi].T.tocsr() lists it: the int32 position
    # in other (data) and row (indices) of each entry
    tr = sp.csr_matrix((np.arange(other.nnz, dtype=np.int32), other.indices, other.indptr),
                       shape=other.shape).tocsc()
    step = max(1, _GATHER_ENTRIES // 4)
    starts = np.searchsorted(mat.indptr, np.arange(0, mat.nnz, step), "right") - 1
    bounds = np.concatenate([[0], starts, [mat.shape[0]]])
    bounds = bounds[_group(bounds)[1]]
    worst = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        a, b = slice(mat.indptr[lo], mat.indptr[hi]), slice(tr.indptr[lo], tr.indptr[hi])
        n_a, n_b = np.diff(mat.indptr[lo:hi + 1]), np.diff(tr.indptr[lo:hi + 1])
        tr_cols = tr.indices[b]
        gap = np.repeat(rows[lo:hi], n_a)
        gap *= mat.data[a]  # J[i, j]
        back = other_rows[tr_cols]
        back *= other.data[tr.data[b]]  # K[j, i]
        if (canonical and np.array_equal(n_a, n_b)
                and np.array_equal(mat.indices[a], tr_cols)):
            gap -= back
        else:
            cells = np.concatenate([np.repeat(np.arange(lo, hi), count) * n + cols
                                    for count, cols in ((n_a, mat.indices[a]),
                                                        (n_b, tr_cols))])
            gap = np.bincount(_group(cells)[0], np.concatenate([gap, -back]))
        worst = max(worst, float(np.abs(gap, out=gap).max(initial=0.0)))
    return worst


def _marginal(joint, axis: int) -> np.ndarray:
    """Row (axis 1) or column (axis 0) sums, each added entry after entry
    along the other axis: a dense matrix and its canonical CSR copy give the
    same bits, since the zeros the CSR skips add nothing.  A dense matrix is
    summed in row blocks (``_row_blocks``), each column sum carried from one
    block into the next; the last sums of a block are copied out of its
    cumulative sums, which ``take`` would first copy whole where the matrix
    is laid out by columns."""
    if sp.issparse(joint):
        ones = np.ones(joint.shape[axis])
        return joint @ ones if axis == 1 else ones @ joint
    joint = np.asarray(joint, dtype=float)
    if joint.size == 0:
        return np.zeros(joint.shape[1 - axis])
    sums, carry = [], None
    for lo, hi in _row_blocks(joint.shape):
        block = joint[lo:hi]
        if axis == 1:
            sums.append(np.cumsum(block, axis=1)[:, -1].copy())
            continue
        if carry is not None:
            block = block.copy()
            block[0] += carry
        carry = np.cumsum(block, axis=0)[-1].copy()
    return np.concatenate(sums) if axis == 1 else carry


@dataclass
class MarkovOperator:
    """Row-stochastic transition matrix between two indexed face levels."""

    source_faces: np.ndarray
    source_measure: np.ndarray
    target_faces: np.ndarray
    target_measure: np.ndarray
    matrix: object  # (m_source, m_target) dense ndarray or scipy CSR

    def __post_init__(self):
        rows = self.row_sums()
        if np.any(np.abs(rows - 1.0) > ROW_TOL):
            raise HdxError(f"rows must be stochastic; worst residual "
                           f"{np.max(np.abs(rows - 1.0)):.3g}")

    # -- shape ------------------------------------------------------------------

    @property
    def shape(self):
        return (len(self.source_measure), len(self.target_measure))

    @property
    def is_square(self) -> bool:
        return (self.source_faces.shape == self.target_faces.shape
                and np.array_equal(self.source_faces, self.target_faces))

    @property
    def held(self):
        """The matrix as held, which ``@`` applies to a vector and ``T``
        transposes: here the stored matrix."""
        return self.matrix

    def row_sums(self) -> np.ndarray:
        return _marginal(self.matrix, 1)

    # -- distributions -------------------------------------------------------------

    def joint(self):
        """Joint distribution source(u) * P(u, v); sums to 1."""
        return _diag_scale(self.matrix, self.source_measure)

    def reverse(self) -> "MarkovOperator":
        """Time-reversed operator from target to source, diag(1/target)
        joint^T: the transpose copied once and scaled in place by the source
        measure, then by 1/target, the bits of the joint's scaled transpose."""
        back = _diag_scale(self.matrix.T, cols=self.source_measure)
        return MarkovOperator(self.target_faces, self.target_measure,
                              self.source_faces, self.source_measure,
                              _scale_in_place(back, rows=1.0 / self.target_measure))

    def compose(self, other: "MarkovOperator") -> "MarkovOperator":
        if self.shape[1] != other.shape[0]:
            raise HdxError("operator shapes do not compose")
        return MarkovOperator(self.source_faces, self.source_measure,
                              other.target_faces, other.target_measure,
                              _product(self.matrix, other.matrix))

    def apply(self, g: np.ndarray) -> np.ndarray:
        """Average a function on the target level back to the source level."""
        return self.held @ g

    def detailed_balance_residual(self) -> float:
        """max|J - J^T| of a walk from a level to itself; between two levels,
        how far the joint's target marginal is from the target measure."""
        if self.is_square:
            return _asymmetry(self.matrix, self.source_measure)
        diff = _marginal(self.joint(), 0) - self.target_measure
        return float(np.abs(diff).max(initial=0.0))

    def triplets(self):
        """Yield (source_face, target_face, prob) rows for CSV export, one per
        nonzero entry, row by row."""
        mat = sp.coo_matrix(self.matrix)
        for i, j, p in zip(mat.row, mat.col, mat.data):
            yield (tuple(self.source_faces[i]), tuple(self.target_faces[j]), float(p))


class FactoredWalk(MarkovOperator):
    """The walk ``down`` then ``up`` from a level to itself, X(k) -> X(l) ->
    X(k), held as the two factors A and B of P = A B: ``held`` applies P and
    its transpose through them, and the row check at construction reads
    A (B 1).  Detailed balance is B being the reverse of A: diag(pi_k) A
    equal to (diag(pi_l) B)^T, which makes diag(pi_k) A B = J diag(1/pi_l)
    J^T symmetric; ``detailed_balance_residual`` reads the gap, with no
    full-size copy.  ``matrix`` forms P on its first read, with the
    arithmetic of ``compose``, and keeps it."""

    def __init__(self, down: MarkovOperator, up: MarkovOperator):
        if down.shape != up.shape[::-1]:
            raise HdxError("operator shapes do not compose")
        self.source_faces, self.source_measure = down.source_faces, down.source_measure
        self.target_faces, self.target_measure = up.target_faces, up.target_measure
        self._middle = down.target_measure
        self._factors = _Product(down.matrix, up.matrix)
        self.__post_init__()

    @property
    def held(self) -> _Product:
        return self._factors

    @property
    def matrix(self):
        return self._factors.formed()

    def row_sums(self) -> np.ndarray:
        return self._factors @ np.ones(self.shape[1])

    def detailed_balance_residual(self) -> float:
        """max |diag(pi_k) A - (diag(pi_l) B)^T| over the stored entries."""
        return _asymmetry(self._factors.a, self.source_measure,
                          self._factors.b, self._middle)


@dataclass
class BipartiteGraph:
    """Bipartite edge distribution; each side is its own probability space."""

    left_items: object
    right_items: object
    joint: object  # (|L|, |R|) nonnegative, sums to 1

    def __post_init__(self):
        total = self.joint.sum()
        if abs(total - 1.0) > 1e-8:
            raise InconsistentMarginals(f"edge distribution sums to {total:.12g}")

    @property
    def left_measure(self) -> np.ndarray:
        return _marginal(self.joint, 1)

    @property
    def right_measure(self) -> np.ndarray:
        return _marginal(self.joint, 0)


@dataclass
class WeightedGraph:
    """Symmetric joint distribution over ordered vertex pairs."""

    items: object
    joint: object  # (m, m), symmetric, sums to 1

    def __post_init__(self):
        resid = _asymmetry(self.joint, np.ones(self.joint.shape[0]))
        if resid > 1e-9:
            raise HdxError(f"graph joint must be symmetric; residual {resid:.3g}")

    @property
    def vertex_measure(self) -> np.ndarray:
        return _marginal(self.joint, 1)

    def transition(self):
        return _diag_scale(self.joint, 1.0 / self.vertex_measure)

    def cut(self, a, b) -> float:
        """Ordered-pair mass J(A x B)."""
        a = np.asarray(sorted(a), dtype=int)
        b = np.asarray(sorted(b), dtype=int)
        return float(self.joint[np.ix_(a, b)].sum())


# -- constructors -----------------------------------------------------------------


def _check_level(c: Complex, k: int, hi: int | None = None):
    top = c.d if hi is None else hi
    if not 0 <= k <= top:
        raise LevelOutOfRange(f"level {k} out of range [0, {top}]")


def _from_joint(src_faces, src_meas, tgt_faces, tgt_meas, joint) -> MarkovOperator:
    """Operator P = diag(1/src_meas) J of the joint J, a dense array or CSR
    matrix of the caller's own making, scaled in place into P; a CSR one is
    densified where ``_stores_dense`` admits it."""
    return MarkovOperator(src_faces, src_meas, tgt_faces, tgt_meas,
                          _maybe_dense(_scale_in_place(joint, 1.0 / src_meas)))


def _containment_entries(c: Complex, k: int, l: int, up: bool = False):
    """The entries of the joint of X(k) and X(l), a k-face s by level measure,
    then one of its l-faces uniformly: J[s, t] = measure(s) / C(k+1, l+1) for
    t in s, one block per l-subset pattern of a k-face, as (blocks, size,
    entries) for ``_walk_joint``; with ``up``, of its transpose."""
    src, tgt = c.level(k), c.level(l)
    pattern = position_subsets(k + 1, l + 1)[0]
    mass = src.measure / len(pattern)

    def entries(lo, hi):
        rows = np.tile(np.arange(src.size), hi - lo)
        cols = tgt.sub_faces(src.faces, pattern[lo:hi]).ravel()
        vals = np.tile(mass, hi - lo)
        return (cols, rows, vals) if up else (rows, cols, vals)
    return len(pattern), src.size, entries


def _containment_joint(c: Complex, k: int, l: int) -> sp.csr_matrix:
    """Joint of X(k) and X(l) (``_containment_entries``), always CSR."""
    blocks, _, entries = _containment_entries(c, k, l)
    return _joint(*entries(0, blocks), (c.level(k).size, c.level(l).size))


def _containment_walk(c: Complex, k: int, l: int, up: bool = False) -> MarkovOperator:
    """Walk X(k) -> X(l) of the containment joint, or with ``up`` its reverse
    X(l) -> X(k)."""
    src, tgt = (c.level(l), c.level(k)) if up else (c.level(k), c.level(l))
    return _from_joint(src.faces, src.measure, tgt.faces, tgt.measure,
                       _walk_joint((src.size, tgt.size), *_containment_entries(c, k, l, up)))


def up_operator(c: Complex, k: int) -> MarkovOperator:
    """Walk one level up; P(t -> s) = measure(s) / ((k+2) measure(t))."""
    if not 0 <= k <= c.d - 1:
        raise LevelOutOfRange(f"up operator needs 0 <= k <= d-1, got {k}")
    return _containment_walk(c, k + 1, k, up=True)


def down_operator(c: Complex, k: int) -> MarkovOperator:
    """Walk one level down; uniform over the k+2 facets."""
    if not 0 <= k <= c.d - 1:
        raise LevelOutOfRange(f"down operator needs 0 <= k <= d-1, got {k}")
    return _containment_walk(c, k + 1, k)


def containment_operator(c: Complex, k: int, l: int) -> MarkovOperator:
    """Multi-level down walk X(k) -> X(l); uniform over contained l-faces."""
    if not (-1 <= l < k <= c.d):
        raise LevelOutOfRange(f"containment needs -1 <= l < k <= d, got k={k}, l={l}")
    if l == -1:
        src, tgt = c.level(k), c.level(l)
        return MarkovOperator(src.faces, src.measure, tgt.faces, tgt.measure,
                              np.ones((src.size, 1)))
    return _containment_walk(c, k, l)


def lower_walk(c: Complex, k: int, l: int) -> FactoredWalk:
    """Down to X(l), back up: a self-adjoint PSD walk on X(k), held as its
    two factors (``FactoredWalk``)."""
    down = containment_operator(c, k, l)
    return FactoredWalk(down, down.reverse())


def complement_walk(c: Complex, l1: int, l2: int) -> MarkovOperator:
    """Bipartite walk X(l1) -> X(l2) through a disjoint union face."""
    _check_level(c, l1)
    _check_level(c, l2)
    u_level = l1 + l2 + 1
    if u_level > c.d:
        raise LevelOutOfRange(
            f"complement walk needs l1+l2+1 <= d, got {l1}+{l2}+1 > {c.d}")
    union = c.level(u_level)
    src = c.level(l1)
    tgt = c.level(l2)
    keep, rest = position_subsets(u_level + 1, l1 + 1)
    mass = union.measure * (1.0 / len(keep))

    def entries(lo, hi):
        return (src.sub_faces(union.faces, keep[lo:hi]).ravel(),
                tgt.sub_faces(union.faces, rest[lo:hi]).ravel(), np.tile(mass, hi - lo))
    return _from_joint(src.faces, src.measure, tgt.faces, tgt.measure,
                       _walk_joint((src.size, tgt.size), len(keep), union.size, entries))


def colored_walk(c: Complex, colors_i, colors_j) -> MarkovOperator:
    """Bipartite walk X[I] -> X[J] through a face of color I | J."""
    if not c.is_partite:
        raise NotPartite("colored walk needs a partite complex")
    I = frozenset(int(x) for x in colors_i)
    J = frozenset(int(x) for x in colors_j)
    if not I or not J:
        raise HdxError("color sets must be nonempty")
    if I & J:
        raise OverlappingColors(f"colors overlap: {sorted(I & J)}")
    lev_i, lev_j, lev_u = (c.colored_level(x) for x in (I, J, I | J))
    in_i = c._color_mask(I)[lev_u.faces]
    # rows of a level are sorted, so each color block of a union face is too
    s_idx = lev_i.index_rows(lev_u.faces[in_i].reshape(lev_u.size, len(I)))
    t_idx = lev_j.index_rows(lev_u.faces[~in_i].reshape(lev_u.size, len(J)))
    return _from_joint(lev_i.faces, lev_i.measure, lev_j.faces, lev_j.measure,
                       _walk_joint((lev_i.size, lev_j.size), 1, lev_u.size,
                                   lambda lo, hi: (s_idx, t_idx, lev_u.measure)))


def fixed_union_walk(c: Complex, l: int, j: int) -> MarkovOperator:
    """Walk on X(l) through a common (l+j)-face, keeping |t & t'| = l+1-j."""
    _check_level(c, l)
    if not 1 <= j <= l + 1:
        raise LevelOutOfRange(f"fixed union walk needs 1 <= j <= l+1, got j={j}")
    if l + j + 1 > c.d + 1:
        raise LevelOutOfRange(f"fixed union walk needs l+j <= d, got {l}+{j} > {c.d}")
    union = c.level(l + j)
    lev = c.level(l)
    norm = 1.0 / (math.comb(l + j + 1, l + 1) * math.comb(l + 1, j))
    keep = position_subsets(l + j + 1, l + 1)[0]
    sub = lev.sub_faces(union.faces, keep)
    # t' takes the j positions outside t plus l+1-j inside it: every pair of
    # (l+1)-subsets that together cover the union
    member = np.eye(l + j + 1, dtype=bool)[keep].any(axis=1)
    t1, t2 = np.nonzero((member[:, None] | member[None]).all(axis=2))
    mass = union.measure * norm

    def entries(lo, hi):
        return sub[t1[lo:hi]].ravel(), sub[t2[lo:hi]].ravel(), np.tile(mass, hi - lo)
    return _from_joint(lev.faces, lev.measure, lev.faces, lev.measure,
                       _walk_joint((lev.size, lev.size), len(t1), union.size, entries))


def nonlazy_upper_walk(c: Complex, l: int) -> MarkovOperator:
    """Up one level then down to a different l-face: the fixed-union walk
    with j = 1."""
    if not 0 <= l <= c.d - 1:
        raise LevelOutOfRange(f"non-lazy upper walk needs 0 <= l <= d-1, got {l}")
    return fixed_union_walk(c, l, 1)


def neighborhood_system(c: Complex, k: int):
    """Ball of each k-face: the vertex set of its link, in original ids."""
    if not 0 <= k <= c.d - 1:
        raise LevelOutOfRange(f"neighborhood system needs 0 <= k <= d-1, got {k}")
    lev = c.level(k)
    upper = c.level(k + 1)
    drop, keep = position_subsets(k + 2, 1)
    faces = lev.sub_faces(upper.faces, keep).ravel()
    verts = upper.faces[:, drop[:, 0]].T.ravel()
    ball = verts[np.lexsort((verts, faces))].tolist()
    ends = np.cumsum(np.bincount(faces, minlength=lev.size)).tolist()
    return dict(zip(lev.iter_faces(), (tuple(ball[lo:hi]) for lo, hi in zip([0, *ends], ends))))


def underlying_graph(c: Complex) -> WeightedGraph:
    """Weighted graph on X(0) whose ordered-pair joint splits each edge evenly."""
    if c.d < 1:
        raise LevelOutOfRange("underlying graph needs d >= 1")
    verts = c.level(0)
    edges = c.level(1)
    ends = verts.sub_faces(edges.faces, position_subsets(2, 1)[0])
    mass = edges.measure / 2.0

    def entries(lo, hi):  # each edge both ways
        return ends[lo:hi].ravel(), ends[::-1][lo:hi].ravel(), np.tile(mass, hi - lo)
    return WeightedGraph(verts.faces, _walk_joint((verts.size, verts.size), 2, edges.size,
                                                  entries))
