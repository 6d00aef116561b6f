"""Face-level random walks materialized as row-stochastic Markov operators.

Every operator pairs a transition matrix with the stationary measures of its
source and target levels; the joint distribution source(u) * P(u, v) is what
the spectra module symmetrizes.  Each walk is written down as its joint over
the two levels and turned into an operator by one constructor, ``_from_joint``
(P = diag(1/source) J).  ``_containment_joint`` builds the joint of "s by level
measure, then an l-face inside s", which is also the (S, T) main distribution
of the agreement tests.  Operators are dense when both levels have at most
``DENSE_EIG_LIMIT`` faces, exactly when the spectra module solves them dense,
and sparse (CSR) otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .complexes import Complex, _encode_rows, _lookup_rows, position_subsets
from .errors import (
    EmptyWalk,
    HdxError,
    InconsistentMarginals,
    LevelOutOfRange,
    NotPartite,
    OverlappingColors,
)

# no side above this: stored dense, solved dense (the measured crossover)
DENSE_EIG_LIMIT = 400
ROW_TOL = 1e-10


def _maybe_dense(mat):
    if sp.issparse(mat) and max(mat.shape) <= DENSE_EIG_LIMIT:
        return np.asarray(mat.todense())
    return mat


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

    def row_sums(self) -> np.ndarray:
        if sp.issparse(self.matrix):
            return np.asarray(self.matrix.sum(axis=1)).ravel()
        return self.matrix.sum(axis=1)

    # -- distributions -------------------------------------------------------------

    def joint(self):
        """Joint distribution source(u) * P(u, v); sums to 1."""
        if sp.issparse(self.matrix):
            return sp.diags(self.source_measure) @ self.matrix
        return self.source_measure[:, None] * self.matrix

    def reverse(self) -> "MarkovOperator":
        """Time-reversed operator from target to source."""
        j = self.joint()
        if sp.issparse(j):
            mat = (sp.diags(1.0 / self.target_measure) @ j.T).tocsr()
        else:
            mat = j.T / self.target_measure[:, None]
        return MarkovOperator(self.target_faces, self.target_measure,
                              self.source_faces, self.source_measure, mat)

    def compose(self, other: "MarkovOperator") -> "MarkovOperator":
        if self.shape[1] != other.shape[0]:
            raise HdxError("operator shapes do not compose")
        mat = self.matrix @ other.matrix
        return MarkovOperator(self.source_faces, self.source_measure,
                              other.target_faces, other.target_measure,
                              _maybe_dense(mat))

    def apply(self, g: np.ndarray) -> np.ndarray:
        """Average a function on the target level back to the source level."""
        return self.matrix @ g

    def detailed_balance_residual(self) -> float:
        """max|J - J^T| of a walk from a level to itself; between two levels,
        how far the joint's target marginal is from the target measure."""
        j = self.joint()
        if self.is_square:
            diff = j - j.T
        else:
            diff = np.asarray(j.sum(axis=0)).ravel() - self.target_measure
        if sp.issparse(diff):
            return float(abs(diff).max()) if diff.nnz else 0.0
        return float(np.max(np.abs(diff))) if diff.size else 0.0

    def triplets(self):
        """Yield (source_face, target_face, prob) rows for CSV export."""
        mat = self.matrix.tocoo() if sp.issparse(self.matrix) else None
        if mat is None:
            for i in range(self.shape[0]):
                for j in range(self.shape[1]):
                    p = float(self.matrix[i, j])
                    if p > 0:
                        yield (tuple(self.source_faces[i]), tuple(self.target_faces[j]), p)
        else:
            for i, j, p in zip(mat.row, mat.col, mat.data):
                yield (tuple(self.source_faces[i]), tuple(self.target_faces[j]), float(p))


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
        if sp.issparse(self.joint):
            return np.asarray(self.joint.sum(axis=1)).ravel()
        return self.joint.sum(axis=1)

    @property
    def right_measure(self) -> np.ndarray:
        if sp.issparse(self.joint):
            return np.asarray(self.joint.sum(axis=0)).ravel()
        return self.joint.sum(axis=0)


@dataclass
class WeightedGraph:
    """Symmetric joint distribution over ordered vertex pairs."""

    items: object
    joint: object  # (m, m), symmetric, sums to 1

    def __post_init__(self):
        diff = self.joint - self.joint.T
        resid = float(abs(diff).max()) if sp.issparse(diff) else float(np.max(np.abs(diff)))
        if resid > 1e-9:
            raise HdxError(f"graph joint must be symmetric; residual {resid:.3g}")

    @property
    def vertex_measure(self) -> np.ndarray:
        if sp.issparse(self.joint):
            return np.asarray(self.joint.sum(axis=1)).ravel()
        return self.joint.sum(axis=1)

    def transition(self):
        pi = self.vertex_measure
        if sp.issparse(self.joint):
            return sp.diags(1.0 / pi) @ self.joint
        return self.joint / pi[:, None]

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


def _from_joint(src_faces, src_meas, tgt_faces, tgt_meas, rows, cols,
                vals) -> MarkovOperator:
    """Operator P = diag(1/src_meas) J of the joint J with COO entries
    (rows, cols, vals), each a list of arrays; repeated entries add up."""
    joint = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(len(src_meas), len(tgt_meas))).tocsr()
    joint.sum_duplicates()
    if joint.nnz == 0:
        raise EmptyWalk("no face joins the source and target levels")
    mat = sp.diags(1.0 / src_meas) @ joint
    return MarkovOperator(src_faces, src_meas, tgt_faces, tgt_meas,
                          _maybe_dense(mat.tocsr()))


def _containment_joint(c: Complex, k: int, l: int) -> sp.csr_matrix:
    """Joint of X(k) and X(l): a k-face s by level measure, then one of its
    l-faces uniformly, so J[s, t] = measure(s) / C(k+1, l+1) for t in s."""
    src = c.level(k)
    tgt = c.level(l)
    cols = tgt.sub_faces(src.faces, position_subsets(k + 1, l + 1)[0])
    return sp.coo_matrix((np.tile(src.measure / len(cols), len(cols)),
                          (np.tile(np.arange(src.size), len(cols)), cols.ravel())),
                         shape=(src.size, tgt.size)).tocsr()


def up_operator(c: Complex, k: int) -> MarkovOperator:
    """Walk one level up; P(t -> s) = measure(s) / ((k+2) measure(t))."""
    if not 0 <= k <= c.d - 1:
        raise LevelOutOfRange(f"up operator needs 0 <= k <= d-1, got {k}")
    src, tgt = c.level(k), c.level(k + 1)
    j = _containment_joint(c, k + 1, k).tocoo()
    return _from_joint(src.faces, src.measure, tgt.faces, tgt.measure,
                       [j.col], [j.row], [j.data])


def down_operator(c: Complex, k: int) -> MarkovOperator:
    """Walk one level down; uniform over the k+2 facets."""
    if not 0 <= k <= c.d - 1:
        raise LevelOutOfRange(f"down operator needs 0 <= k <= d-1, got {k}")
    src, tgt = c.level(k + 1), c.level(k)
    j = _containment_joint(c, k + 1, k).tocoo()
    return _from_joint(src.faces, src.measure, tgt.faces, tgt.measure,
                       [j.row], [j.col], [j.data])


def containment_operator(c: Complex, k: int, l: int) -> MarkovOperator:
    """Multi-level down walk X(k) -> X(l); uniform over contained l-faces."""
    if not (-1 <= l < k <= c.d):
        raise LevelOutOfRange(f"containment needs -1 <= l < k <= d, got k={k}, l={l}")
    src, tgt = c.level(k), c.level(l)
    if l == -1:
        return MarkovOperator(src.faces, src.measure, tgt.faces, tgt.measure,
                              np.ones((src.size, 1)))
    j = _containment_joint(c, k, l).tocoo()
    return _from_joint(src.faces, src.measure, tgt.faces, tgt.measure,
                       [j.row], [j.col], [j.data])


def lower_walk(c: Complex, k: int, l: int) -> MarkovOperator:
    """Down to X(l), back up: a self-adjoint PSD walk on X(k)."""
    down = containment_operator(c, k, l)
    return down.compose(down.reverse())


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
    split = 1.0 / len(keep)
    return _from_joint(src.faces, src.measure, tgt.faces, tgt.measure,
                       [src.sub_faces(union.faces, keep).ravel()],
                       [tgt.sub_faces(union.faces, rest).ravel()],
                       [np.tile(union.measure * split, len(keep))])


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
    faces_i, meas_i = c.colored_level(I)
    faces_j, meas_j = c.colored_level(J)
    faces_u, meas_u = c.colored_level(I | J)
    col = np.asarray(c.coloring)
    in_i = np.isin(col[faces_u], sorted(I))
    s_rows = np.sort(faces_u[in_i].reshape(len(faces_u), len(I)), axis=1)
    t_rows = np.sort(faces_u[~in_i].reshape(len(faces_u), len(J)), axis=1)

    # colored levels are stored in key order, as every level is
    s_idx = _lookup_rows(_encode_rows(faces_i, c.n_vertices), s_rows, c.n_vertices)
    t_idx = _lookup_rows(_encode_rows(faces_j, c.n_vertices), t_rows, c.n_vertices)
    return _from_joint(faces_i, meas_i, faces_j, meas_j, [s_idx], [t_idx], [meas_u])


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
    return _from_joint(lev.faces, lev.measure, lev.faces, lev.measure,
                       [sub[t1].ravel()], [sub[t2].ravel()],
                       [np.tile(union.measure * norm, len(t1))])


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
    order = np.lexsort((verts, faces))
    balls = np.split(verts[order], np.cumsum(np.bincount(faces, minlength=lev.size))[:-1])
    return {lev.face(i): tuple(int(v) for v in ball) for i, ball in enumerate(balls)}


def underlying_graph(c: Complex) -> WeightedGraph:
    """Weighted graph on X(0) whose ordered-pair joint splits each edge evenly."""
    if c.d < 1:
        raise LevelOutOfRange("underlying graph needs d >= 1")
    verts = c.level(0)
    edges = c.level(1)
    ends = verts.sub_faces(edges.faces, position_subsets(2, 1)[0])
    half = edges.measure / 2.0
    joint = sp.coo_matrix((np.tile(half, 2), (ends.ravel(), ends[::-1].ravel())),
                          shape=(verts.size, verts.size)).tocsr()
    joint.sum_duplicates()
    return WeightedGraph(verts.faces, _maybe_dense(joint))
