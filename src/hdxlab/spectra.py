"""Eigenvalue computation and numerical verifiers for spectral inequalities.

All spectra are computed on measure-symmetrized operators: a reversible walk P
with stationary measure pi becomes D^{1/2} P D^{-1/2}, which is symmetric, and
bipartite operators become J / sqrt(pi_L x pi_R) whose second singular value
is the bipartite expansion.  An operator whose shape ``walks._solves_dense``
admits gets its whole spectrum from one dense solve; a larger one only its
extremal eigenvalues from Lanczos, whichever storage ``walks._stores_dense``
gave it (a near-full walk past the limit is held dense, and Lanczos runs on
that dense matrix): lambda_min of the operator M, lambda2 of M
with its constant eigenvector moved from 1 to -1 (so a negative lambda2
survives), and lambda_bip^2 of D^T D, D the bipartite operator without its
top singular pair.  The report carries the iteration residual; a residual
above 1e-8, or ARPACK running out of iterations, raises ``NotConverged``.
``square_lambda`` and ``bipartite_lambda`` take a joint, or a
``MarkovOperator`` standing for its joint diag(source) P, which
``square_spectrum`` and ``bipartite_norm`` pass: the matrix as held with a
row scale of ones or of the source measure.  Lanczos applies the row scale
and D^{+-1/2} as vector scalings around the matrix as held, which for the
lower walk is its two factors applied in turn, never their product; the
symmetry check compares a joint with its transpose in row blocks
(``walks._asymmetry``) and reads an operator's detailed-balance residual,
for the lower walk the gap between its second factor and the reverse of its
first.  So no scaled, symmetrised, difference or product copy of a large
walk is formed; the fixed-union bound applies the difference of its two
walks the same way.
Dense and CSR operators go through the same arithmetic, the scalings,
marginals and densification of ``walks``, so no solver asks which it holds.

Many small graphs are solved together as one local-graph family, built by
``_entry_graphs`` from entries grouped by graph.  One loop walks a family:
``_distinct_batches`` groups the graphs by shape into batches, fills each
once and keeps its bit-distinct joints (``_distinct`` groups them by a fixed
weighted sum of their entries and confirms each group bit for bit, so no
tolerance merges two graphs).  ``_stacked_spectra`` solves each batch as one
stacked dense eigenproblem (square) or singular value problem (bipartite),
with the checks and clipping of ``square_lambda`` and ``bipartite_lambda``,
whose dense path is the same solver on a stack of one; each copy takes the
values of its first.  A solve, dense or Lanczos, whose eigenvalues or
singular values lie more than 1e-8 outside [-1, 1] raises ``NotReversible``
before any value is clipped.  Link spectra are one family per level, read off
the X(k+1) and X(k+2) arrays, and cached on the complex, so every verifier
that takes link expansion as its hypothesis reuses them; the trickling check
reads its eta from level 0.  The local graphs of ``stav`` and ``agreement``
are families too.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .complexes import (Complex, _encode_rows, _lookup_rows, complete_complex,
                        position_subsets)
from .errors import (
    HypothesisViolated,
    InconsistentMarginals,
    NotApplicable,
    NotConverged,
    NotPartite,
    NotReversible,
    OrderingViolated,
    TooLarge,
)
from .walks import (
    BipartiteGraph,
    MarkovOperator,
    WeightedGraph,
    _Product,
    _asymmetry,
    _dense,
    _diag_scale,
    _joint,
    _marginal,
    _solves_dense,
    colored_walk,
    complement_walk,
    fixed_union_walk,
    lower_walk,
    underlying_graph,
)

SLACK = 1e-9
RESIDUAL_TOL = 1e-8
# newer SciPy draws ARPACK restart vectors from ``rng``, older from ARPACK's own
_EIGSH_TAKES_RNG = "rng" in inspect.signature(spla.eigsh).parameters
# stacked eigenproblems are solved in batches of at most this many bytes; a
# solve holds about three more copies of its batch while it runs
_LINK_BATCH_BYTES = 1 << 21
# exact edge expansion enumerates every vertex set of a graph up to this size
BRUTE_FORCE_VERTICES = 24


@dataclass
class SpectralReport:
    """Spectral summary of one operator."""

    lambda2: float | None = None
    lambda_min: float | None = None
    lambda_bip: float | None = None
    method: str = "dense"
    residual: float = 0.0

    def __post_init__(self):
        if self.lambda2 is not None and self.lambda_min is not None:
            if not (-1 - 1e-8 <= self.lambda_min <= self.lambda2 <= 1 + 1e-8):
                raise NotReversible(
                    f"eigenvalues out of range: min={self.lambda_min}, l2={self.lambda2}")
        if self.lambda_bip is not None and not -1e-12 <= self.lambda_bip <= 1 + 1e-8:
            raise NotReversible(f"bipartite norm out of range: {self.lambda_bip}")

    @property
    def two_sided(self) -> float:
        return max(abs(self.lambda2), abs(self.lambda_min))

    def to_json_dict(self) -> dict:
        return {"lambda2": self.lambda2, "lambda_min": self.lambda_min,
                "lambda_bip": self.lambda_bip, "method": self.method,
                "residual": self.residual}


@dataclass
class BoundCheck:
    """One verified inequality: pass iff lhs <= rhs + slack."""

    name: str
    lhs: float
    rhs: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "passed": bool(self.passed), "details": self.details}


# -- core eigen helpers --------------------------------------------------------


def _positive(pi: np.ndarray, what: str) -> np.ndarray:
    if np.any(pi <= 0):
        raise InconsistentMarginals(f"{what} has zero-mass elements")
    return pi


def _check_converged(resid: float) -> None:
    if not resid <= RESIDUAL_TOL:
        raise NotConverged(f"iterative eigensolve residual {resid:.3g} exceeds "
                           f"{RESIDUAL_TOL:g}")


def _sym_square(joint, pi):
    s = 1.0 / np.sqrt(pi)
    return _diag_scale(joint, s, s)


def _check_symmetric(resid: float) -> None:
    if resid > 1e-8:
        raise NotReversible(f"joint not symmetric; residual {resid:.3g}")


def _check_marginals(jl, jr, pi_l, pi_r) -> None:
    _positive(pi_l, "left measure")
    _positive(pi_r, "right measure")
    if max(np.max(np.abs(jl - pi_l)), np.max(np.abs(jr - pi_r))) > 1e-8:
        raise InconsistentMarginals("joint marginals do not match the side measures")


def _check_square_stack(joints: np.ndarray, pi: np.ndarray) -> None:
    """Positive measures and symmetric joints, for a (B, m, m) stack."""
    _positive(pi, "stationary measure")
    if joints.size:
        gap = joints - joints.transpose(0, 2, 1)
        _check_symmetric(float(max(gap.max(), -gap.min())))


def _check_unit_range(vals: np.ndarray, what: str) -> None:
    """A walk's eigenvalues and singular values lie in [-1, 1]; one further
    than 1e-8 outside means the joint is no walk, and is never clipped in."""
    worst = float(np.max(np.abs(vals)))
    if worst > 1 + 1e-8:
        raise NotReversible(f"{what} of modulus {worst:.12g} outside [-1, 1]")


def _square_stack(joints: np.ndarray, pi: np.ndarray):
    """(lambda2, lambda_min) arrays of a (B, m, m) stack of reversible walks
    with stationary measures (B, m), in one stacked dense solve."""
    _check_square_stack(joints, pi)
    if pi.shape[1] == 1:
        return np.zeros(len(pi)), np.zeros(len(pi))
    s = np.sqrt(pi)
    m = joints / (s[:, :, None] * s[:, None, :])
    m += m.transpose(0, 2, 1)
    m *= 0.5
    vals = np.linalg.eigvalsh(m)
    _check_unit_range(vals, "eigenvalue")
    lam2 = np.clip(vals[:, -2], -1.0, 1.0)
    return lam2, np.clip(vals[:, 0], -1.0, lam2)


def _bipartite_stack(joints: np.ndarray, pi_l: np.ndarray, pi_r: np.ndarray):
    """Second singular values of a (B, m, n) stack of bipartite joints with
    side measures (B, m) and (B, n), in one stacked dense solve."""
    _check_marginals(joints.sum(axis=2), joints.sum(axis=1), pi_l, pi_r)
    if min(joints.shape[1:]) == 1:
        return np.zeros(len(joints))
    m = joints / (np.sqrt(pi_l)[:, :, None] * np.sqrt(pi_r)[:, None, :])
    vals = np.linalg.svd(m, compute_uv=False)
    _check_unit_range(vals, "singular value")
    return np.minimum(vals[:, 1], 1.0)


def _stored(joint):
    """The matrix of a joint as held and its row scale: a joint with a row
    scale of ones, or a ``MarkovOperator`` standing for its joint
    diag(source measure) P, which is never formed: its matrix as held
    (``MarkovOperator.held``), for a lower walk its two factors."""
    if isinstance(joint, MarkovOperator):
        return joint.held, joint.source_measure
    return joint, np.ones(joint.shape[0])


def _formed(mat):
    """A held matrix as one matrix: two factors multiplied out, once."""
    return mat.formed() if isinstance(mat, _Product) else mat


def square_lambda(joint, pi) -> SpectralReport:
    """lambda2 (excluding constants) and lambda_min of a reversible walk,
    given by its joint or as a ``MarkovOperator`` (``_stored``).  Lanczos
    applies D^{-1/2} J D^{-1/2} as vector scalings around the matrix as
    held, after the operator's detailed-balance check."""
    pi = np.asarray(pi, dtype=float)
    mat, scale = _stored(joint)
    m = mat.shape[0]
    if _solves_dense(mat.shape):
        l2, lmin = _square_stack(_dense(_diag_scale(_formed(mat), scale))[None], pi[None])
        return SpectralReport(lambda2=float(l2[0]), lambda_min=float(lmin[0]),
                              method="trivial" if m == 1 else "dense")
    _positive(pi, "stationary measure")
    _check_symmetric(joint.detailed_balance_residual() if isinstance(joint, MarkovOperator)
                     else _asymmetry(mat, scale))
    s = 1.0 / np.sqrt(pi)
    left = scale * s
    u = np.sqrt(pi / pi.sum())

    def sym(x):  # M x, M = D^{-1/2} diag(scale) mat D^{-1/2}
        return left * (mat @ (s * x))

    # the constant eigenvector u moved from 1 to -1, the rest of M kept
    l2, _, r2 = _lanczos(lambda x: sym(x) - 2.0 * u * float(u @ x), m, "LA")
    lmin, _, rmin = _lanczos(sym, m, "SA")
    resid = max(r2, rmin)
    _check_converged(resid)
    _check_unit_range([l2, lmin], "eigenvalue")
    l2 = float(np.clip(l2, -1.0, 1.0))
    return SpectralReport(lambda2=l2, lambda_min=float(np.clip(lmin, -1.0, l2)),
                          method="iterative", residual=resid)


def _lanczos(matvec, n: int, which: str):
    """Largest ("LA") or smallest ("SA") eigenvalue, eigenvector and residual
    of a symmetric n x n ``matvec`` with spectrum in [-1, 1].

    ARPACK converges relative to |eigenvalue|, never at 0, so it runs shifted
    by 2; fixed start and restart vectors make repeated solves bit-identical.
    """
    def shifted(x):
        x = np.asarray(x).ravel()
        return matvec(x) + 2.0 * x

    rng = np.random.default_rng(0)
    try:
        vals, vecs = spla.eigsh(spla.LinearOperator((n, n), matvec=shifted, dtype=float),
                                k=1, which=which, v0=rng.standard_normal(n),
                                **({"rng": rng} if _EIGSH_TAKES_RNG else {}))
    except spla.ArpackNoConvergence as exc:
        raise NotConverged(f"Lanczos iteration did not converge: {exc}") from None
    x = vecs[:, 0]
    return float(vals[0]) - 2.0, x, float(np.linalg.norm(shifted(x) - vals[0] * x))


def bipartite_lambda(joint, pi_l, pi_r) -> SpectralReport:
    """Second singular value of the symmetrized bipartite operator, given by
    its joint or as a ``MarkovOperator`` (``_stored``).  Lanczos applies
    D_L^{-1/2} J D_R^{-1/2} and its transpose as vector scalings around the
    stored matrix."""
    pi_l = np.asarray(pi_l, dtype=float)
    pi_r = np.asarray(pi_r, dtype=float)
    mat, scale = _stored(joint)
    mat = _formed(mat)
    if _solves_dense(mat.shape):
        lam = _bipartite_stack(_dense(_diag_scale(mat, scale))[None], pi_l[None],
                               pi_r[None])[0]
        return SpectralReport(lambda_bip=float(lam),
                              method="trivial" if min(mat.shape) == 1 else "dense")
    _check_marginals(scale * _marginal(mat, 1), scale @ mat, pi_l, pi_r)
    if min(mat.shape) == 1:
        return SpectralReport(lambda_bip=0.0, method="trivial")
    sl, sr = np.sqrt(pi_l), np.sqrt(pi_r)
    left, right = scale / sl, 1.0 / sr

    def fwd(x):
        return left * (mat @ (right * x))

    def bwd(y):
        return right * (mat.T @ (left * y))

    if mat.shape[0] < mat.shape[1]:  # D^T D on the smaller side
        fwd, bwd, sl, sr = bwd, fwd, sr, sl

    def deflated(x):
        return fwd(x) - sl * float(sr @ x)

    def normal(x):
        y = deflated(x)
        return bwd(y) - sr * float(sl @ y)

    _, x, resid = _lanczos(normal, len(sr), "LA")
    _check_converged(resid)
    # |Dx| keeps the precision a square root of the eigenvalue loses near 0
    lam = float(np.linalg.norm(deflated(x)))
    _check_unit_range(lam, "singular value")
    return SpectralReport(lambda_bip=min(lam, 1.0), method="iterative", residual=resid)


# -- stacked solves of many small graphs ------------------------------------------


def _runs(ptr: np.ndarray, ids: np.ndarray):
    """Positions of the entries of runs ``ids`` (run k spans ptr[k]:ptr[k+1]),
    run after run, and the position in ``ids`` of the run of each."""
    n = ptr[ids + 1] - ptr[ids]
    start = np.cumsum(n) - n
    return (np.arange(int(n.sum())) + np.repeat(ptr[ids] - start, n),
            np.repeat(np.arange(len(ids)), n))


def _scatter(entries, ids: np.ndarray, shape) -> np.ndarray:
    """Dense (len(ids), rows, cols) stack of graphs ``ids`` from ``entries``
    (ptr, row, col, value) grouped by graph; repeated cells add up."""
    ptr, row, col, val = entries
    idx, b = _runs(ptr, ids)
    r, c = shape
    return np.bincount((b * r + row[idx]) * c + col[idx], weights=val[idx],
                       minlength=len(ids) * r * c).reshape(len(ids), r, c)


def _distinct(stack: np.ndarray):
    """The first of each set of bit-identical matrices of a (B, ...) stack,
    in stack order, and the position in that list of each matrix's set, so
    that ``stack[first][group]`` equals ``stack`` bit for bit.

    Matrices are grouped by a fixed weighted sum of their entries, and each
    is compared bit for bit with the first of its group; one whose bits
    differ stands alone, so no tolerance and no shared sum ever merges two
    different matrices.
    """
    flat = stack.reshape(len(stack), -1)
    # einsum sums each row by one loop, whatever its place in the stack, so
    # equal rows get equal sums
    key = np.einsum("ij,j->i", flat, np.sin(np.arange(1, flat.shape[1] + 1)))
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.concatenate([[True], key[1:] != key[:-1]])
    if head.all():  # no two sums are equal, so no two matrices are
        return np.arange(len(flat)), np.arange(len(flat))
    rep = np.empty(len(flat), dtype=np.int64)
    rep[order] = order[head][np.cumsum(head) - 1]
    dup = np.flatnonzero(rep != np.arange(len(flat)))
    bits = flat.view(np.uint64)
    # in slices of about 2^15 entries, whose copies stay in cache
    step = max(1, (1 << 15) // flat.shape[1])
    for lo in range(0, len(dup), step):
        d = dup[lo:lo + step]
        d = d[(bits[d] != bits[rep[d]]).any(axis=1)]
        rep[d] = d
    first = np.flatnonzero(rep == np.arange(len(flat)))
    return first, np.searchsorted(first, rep)


def _distinct_batches(shapes, fill):
    """The batch loop of a family of graphs with these (rows, cols) shapes:
    graphs grouped by shape into batches whose dense stack stays under
    ``_LINK_BATCH_BYTES``, each filled once by ``fill(ids, shape)``.  Yields
    (shape, ids, joints, group) per batch: the bit-distinct joints of the
    batch (``_distinct``) and the position in them of each graph's.  A graph
    that ``_solves_dense`` does not admit is a batch of its own and is not
    compared; its fill, a stack of one or a CSR matrix, is the one joint."""
    shapes = np.asarray(shapes, dtype=np.int64).reshape(-1, 2)
    code = shapes[:, 0] * (int(shapes[:, 1].max(initial=0)) + 1) + shapes[:, 1]
    order = np.argsort(code, kind="stable")
    bounds = np.flatnonzero(np.diff(code[order], prepend=-1, append=-1)).tolist()
    for lo_g, hi_g in zip(bounds[:-1], bounds[1:]):
        shape = tuple(shapes[order[lo_g]].tolist())
        dense = _solves_dense(shape)
        step = max(1, _LINK_BATCH_BYTES // (8 * shape[0] * shape[1])) if dense else 1
        for lo in range(lo_g, hi_g, step):
            ids = order[lo:min(lo + step, hi_g)]
            joints = fill(ids, shape)
            if not dense:
                yield shape, ids, joints if joints.ndim == 3 else [joints], np.zeros(1, int)
                continue
            first, group = _distinct(joints)
            if len(first) < len(joints):  # the full batch is freed before its use
                joints = joints[first]
            yield shape, ids, joints, group


def _stacked_spectra(shapes, fill, bipartite: bool = False) -> np.ndarray:
    """Spectra of many graphs with few distinct shapes, in graph order: a
    (2, n) array of (lambda2, lambda_min) for square graphs, the (n,) array
    of lambda_bip for bipartite ones.

    ``fill(ids, shape)`` gives the joints of graphs ``ids``, all of that
    (rows, cols) shape, as a dense stack; their measures are the row and
    column sums.  Each batch of ``_distinct_batches`` is one stacked dense
    solve of its bit-distinct joints, with every check of ``square_lambda``
    and ``bipartite_lambda``; each copy gets the values of its first.  A
    graph that ``_solves_dense`` does not admit is scaled to mass 1 and goes
    to one of them, and from there to the iterative path; its fill may be a
    CSR matrix in place of a stack of one.
    """
    out = np.zeros((len(shapes), 1 if bipartite else 2))
    for shape, ids, joints, group in _distinct_batches(shapes, fill):
        if _solves_dense(shape):
            vals = (_bipartite_stack(joints, joints.sum(axis=2), joints.sum(axis=1))[:, None]
                    if bipartite else np.column_stack(_square_stack(joints, joints.sum(axis=2))))
        else:
            j = joints[0] / joints[0].sum()
            rep = (bipartite_lambda(j, _marginal(j, 1), _marginal(j, 0)) if bipartite
                   else square_lambda(j, _marginal(j, 1)))
            vals = np.array([[rep.lambda_bip] if bipartite else [rep.lambda2, rep.lambda_min]])
        out[ids] = vals[group]
    return out[:, 0] if bipartite else out.T


@dataclass
class _Graphs:
    """A family of local graphs, one per conditioning element.

    Graph k has the layer positions ``rows[1][rows[0][k]:rows[0][k+1]]`` as
    rows and ``cols`` likewise as columns; a graph without rows has no mass.
    ``fill(ids, shape)`` gives the unscaled joints of graphs ``ids``, all of
    that shape: a dense stack, or a CSR matrix where ``_solves_dense`` does
    not admit the shape.
    ``entries`` are the (ptr, row, col, mass) entries grouped by graph, where
    the family is built from them; a family without them fills joints of mass 1.
    Bit-identical graphs of a shape batch are solved once (``_distinct_batches``).
    """

    rows: tuple
    cols: tuple
    fill: object
    entries: tuple | None = None

    def __post_init__(self):
        self.shapes = np.column_stack([np.diff(self.rows[0]), np.diff(self.cols[0])])

    def live(self) -> np.ndarray:
        return np.flatnonzero(self.shapes[:, 0] > 0)

    def spectra(self, ids: np.ndarray, bipartite: bool = False) -> np.ndarray:
        return _stacked_spectra(self.shapes[ids],
                                lambda b, shape: self.fill(ids[b], shape), bipartite)

    def joints(self, ids: np.ndarray, shape) -> np.ndarray:
        """The dense (len(ids), rows, cols) stack of the joints of graphs
        ``ids``, all of that shape, each of mass 1: scaled by the sum of its
        entries in entry order, as a canonical sparse matrix sums them."""
        j = _dense(self.fill(ids, shape)).reshape(len(ids), *shape)
        if self.entries is None:
            return j
        ptr, _, _, p = self.entries
        return j / np.array([p[ptr[k]:ptr[k + 1]].sum() for k in ids])[:, None, None]

    def joint(self, k: int) -> np.ndarray:
        return self.joints(np.array([k]), tuple(self.shapes[k]))[0]


def _entry_graphs(n: int, g, r, c, p, rows, cols) -> _Graphs:
    """n graphs from entries (graph, local row, local column, mass) grouped by
    graph; repeated cells add up."""
    entries = (np.concatenate([[0], np.cumsum(np.bincount(g, minlength=n))]), r, c, p)

    def fill(ids, shape):
        if _solves_dense(shape):
            return _scatter(entries, ids, shape)
        idx, _ = _runs(entries[0], ids)
        return _joint(r[idx], c[idx], p[idx], shape)

    return _Graphs(rows, cols, fill, entries)


def square_spectrum(op) -> SpectralReport:
    """Spectrum of a square reversible Markov operator or weighted graph."""
    if isinstance(op, WeightedGraph):
        return square_lambda(op.joint, op.vertex_measure)
    if not op.is_square:
        raise NotReversible("operator is not square")
    return square_lambda(op, op.source_measure)


def bipartite_norm(op) -> SpectralReport:
    if isinstance(op, BipartiteGraph):
        return bipartite_lambda(op.joint, op.left_measure, op.right_measure)
    return bipartite_lambda(op, op.source_measure, op.target_measure)


# -- link expansion --------------------------------------------------------------


@dataclass
class LinkExpansionReport:
    value: float
    two_sided: bool
    per_level: dict
    worst_face: tuple | None
    disconnected: list
    deduplicated: bool = False

    def __float__(self):
        return self.value

    def to_json_dict(self) -> dict:
        return {"value": self.value, "two_sided": self.two_sided,
                "per_level": {str(k): v for k, v in self.per_level.items()},
                "worst_face": list(self.worst_face) if self.worst_face else None,
                "disconnected": [list(f) for f in self.disconnected],
                "deduplicated": self.deduplicated}


def _link_spectra(c: Complex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(lambda2, lambda_min) of the underlying graph of the link of every
    k-face, in level order; computed once per level and cached on ``c``.

    k = -1 is the complex itself.  On a uniform complete complex every link
    of a k-face is complete(n-k-1, d-k-1), so one representative per level is
    built from the vertex count and solved (arrays of length 1), and no level
    of ``c`` is enumerated.
    """
    if k not in c._link_spectra:
        if k == -1 or c.uniform_complete:
            g = underlying_graph(complete_complex(c.n_vertices - k - 1, c.d - k - 1)
                                 if c.uniform_complete else c)
            rep = square_lambda(g.joint, g.vertex_measure)
            c._link_spectra[k] = (np.array([rep.lambda2]), np.array([rep.lambda_min]))
        else:
            c._link_spectra[k] = _batched_link_spectra(c, k)
    return c._link_spectra[k]


def _batched_link_spectra(c: Complex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Link spectra of all k-faces, 0 <= k <= d-2, from the level arrays.

    The link of s has a vertex v for every (k+1)-face s + v and an edge uv
    for every (k+2)-face s + uv, weighted by its measure; the link's edge
    measure is proportional to it, and the spectrum does not see the scale.
    """
    lev, up1, up2 = c.level(k), c.level(k + 1), c.level(k + 2)
    base = max(c.n_vertices, lev.size)

    # (s, v) pairs in key order give each link its vertices, sorted, at
    # consecutive positions; a vertex's local id is its offset in that run
    drop, keep = position_subsets(k + 2, 1)
    faces_s = lev.sub_faces(up1.faces, keep).ravel()
    verts = up1.faces[:, drop[:, 0]].T.ravel()
    keys = np.sort(_encode_rows(np.column_stack([faces_s, verts]), base))
    sizes = np.bincount(faces_s, minlength=lev.size)
    start = np.cumsum(sizes) - sizes
    ends, keep = position_subsets(k + 3, 2)
    edge_s = lev.sub_faces(up2.faces, keep).ravel()
    edge_u, edge_v = (_lookup_rows(keys, np.column_stack(
        [edge_s, up2.faces[:, ends[:, i]].T.ravel()]), base) - start[edge_s] for i in (0, 1))
    edge_w = np.tile(up2.measure, len(ends))

    # each face's edges, both directions, as one contiguous run
    face = np.concatenate([edge_s, edge_s])
    order = np.argsort(face, kind="stable")
    rows = (np.concatenate([[0], np.cumsum(sizes)]), keys % base)
    graphs = _entry_graphs(lev.size, face[order], np.concatenate([edge_u, edge_v])[order],
                           np.concatenate([edge_v, edge_u])[order], np.tile(edge_w, 2)[order],
                           rows, rows)
    return tuple(graphs.spectra(np.arange(lev.size)))


def link_expansion(c: Complex, two_sided: bool = True) -> LinkExpansionReport:
    """Worst underlying-graph expansion over all links (empty face included).

    Disconnected links report lambda2 = 1 with a warning rather than an error.
    The worst face is the first in level order with the largest value.  For
    the complete complex all links at one level are isomorphic, so a single
    representative per level is solved.
    """
    def face(k, i):
        # a uniform complete complex has one representative per level, (0, ..., k)
        return tuple(range(k + 1)) if c.uniform_complete else c.level(k).face(i)

    worst = -np.inf
    worst_face = None
    per_level = {}
    disconnected = []
    for k in range(-1, c.d - 1):
        lam2, lam_min = _link_spectra(c, k)
        vals = np.maximum(np.abs(lam2), np.abs(lam_min)) if two_sided else lam2
        for i in np.flatnonzero(lam2 > 1 - 1e-9):
            disconnected.append(face(k, i))
            warnings.warn(f"link of {face(k, i)} is disconnected; lambda2 = 1",
                          stacklevel=2)
        i = int(np.argmax(vals))
        per_level[k] = float(vals[i])
        if vals[i] > worst:
            worst, worst_face = vals[i], face(k, i)
    return LinkExpansionReport(value=float(worst), two_sided=two_sided,
                               per_level=per_level, worst_face=worst_face,
                               disconnected=disconnected,
                               deduplicated=c.uniform_complete)


# -- theorem verifiers -------------------------------------------------------------


def verify_complement_bound(c: Complex, l1: int, l2: int) -> BoundCheck:
    """Complement-walk expansion against (l1+1)(l2+1) * link expansion."""
    lam_link = link_expansion(c, two_sided=True)
    lhs = bipartite_norm(complement_walk(c, l1, l2)).lambda_bip
    rhs = (l1 + 1) * (l2 + 1) * lam_link.value
    return BoundCheck("complement_walk", lhs, rhs, lhs <= rhs + SLACK,
                      {"link_expansion": lam_link.value, "l1": l1, "l2": l2})


def _colored_norm(c: Complex, colors_i, colors_j) -> float:
    """Norm of ``colored_walk(c, I, J)``, solved once per (I, J) and cached on
    ``c``: ``verify --all`` reads X[0] -> X[1] in the colored bound and again
    as trickling's lambda_01."""
    key = (frozenset(map(int, colors_i)), frozenset(map(int, colors_j)))
    if key not in c._colored_norms:
        walk = colored_walk(c, colors_i, colors_j)
        c._colored_norms[key] = bipartite_norm(walk).lambda_bip
    return c._colored_norms[key]


def verify_colored_bound(c: Complex, colors_i, colors_j) -> BoundCheck:
    """Colored-walk expansion against |I||J| * lambda.

    The hypothesis gives the links expansion lambda/((d+1) lambda + 1); the
    measured one-sided link expansion is inverted to recover lambda.  When the
    measured value sits at or above the 1/(d+1) boundary (or the recovered
    lambda reaches 1/2) the bound does not apply.
    """
    if not c.is_partite:
        raise NotPartite("colored bound needs a partite complex")
    # a complex with negative second eigenvalues is a 0-one-sided expander
    lam_prime = max(link_expansion(c, two_sided=False).value, 0.0)
    boundary = 1.0 / (c.d + 1)
    if lam_prime >= boundary - 1e-12:
        raise NotApplicable(
            f"measured link expansion {lam_prime:.6g} >= 1/(d+1) boundary")
    lam = lam_prime / (1.0 - (c.d + 1) * lam_prime)
    if lam >= 0.5:
        raise NotApplicable(f"recovered lambda {lam:.6g} >= 1/2")
    lhs = _colored_norm(c, colors_i, colors_j)
    rhs = len(set(colors_i)) * len(set(colors_j)) * lam
    return BoundCheck("colored_walk", lhs, rhs, lhs <= rhs + SLACK,
                      {"link_expansion_one_sided": lam_prime, "lambda": lam})


def verify_trickling(y: Complex) -> BoundCheck:
    """Three-partite inequality lambda(A23) <= eta + lambda(A01) lambda(A02)."""
    if not (y.is_partite and y.d == 2):
        raise NotPartite("trickling check needs a 2-dimensional 3-partite complex")
    # the link of a color-0 vertex is bipartite between colors 1 and 2, so its
    # underlying graph has spectrum +-sigma and lambda2 is the colored-walk
    # norm, except on star links, where it is <= 0 and the norm is 0
    lam2, _ = _link_spectra(y, 0)
    col = np.asarray(y.coloring)[y.level(0).faces[:, 0]]
    eta = float(np.max(lam2[col == 0], initial=0.0))
    lam_01 = _colored_norm(y, [0], [1])
    lam_02 = _colored_norm(y, [0], [2])
    lhs = _colored_norm(y, [1], [2])
    rhs = eta + lam_01 * lam_02
    return BoundCheck("trickling", lhs, rhs, lhs <= rhs + SLACK,
                      {"eta": eta, "lambda_01": lam_01, "lambda_02": lam_02})


def verify_fixed_union_bound(c: Complex, l: int, j: int) -> BoundCheck:
    """Norm of (fixed-union walk - lower walk) against j^2 * link expansion.

    The norm is the largest |eigenvalue| of the symmetrised difference, whose
    spectrum lies in [-2, 1] (a walk minus a positive semidefinite one);
    where ``_solves_dense`` does not admit it, it is read from Lanczos on half
    the operator, applied through the two walks as held (the lower walk
    through its two factors) and their transposes with the measure scalings
    on vectors, as ``square_lambda`` does.
    """
    a = fixed_union_walk(c, l, j)
    low = lower_walk(c, l, l - j)
    pi = a.source_measure
    if _solves_dense(a.shape):
        diff = _dense(_sym_square(a.joint(), pi) - _sym_square(low.joint(), pi))
        lhs = float(np.max(np.abs(np.linalg.eigvalsh((diff + diff.T) / 2.0))))
    else:
        s = 1.0 / np.sqrt(pi)
        left = pi * s
        fwd, low_fwd = a.held, low.held
        bwd, low_bwd = fwd.T, low_fwd.T

        def half(x):  # (M + M^T) x / 4, M = D^{-1/2} diag(pi) (A - L) D^{-1/2}
            y, z = s * x, left * x
            return (left * (fwd @ y - low_fwd @ y) + s * (bwd @ z - low_bwd @ z)) / 4.0

        ends = [_lanczos(half, len(pi), which) for which in ("LA", "SA")]
        _check_converged(max(r for _, _, r in ends))
        lhs = 2.0 * max(abs(val) for val, _, _ in ends)
    lam = link_expansion(c, two_sided=True).value
    rhs = j * j * lam
    return BoundCheck("fixed_union", lhs, rhs, lhs <= rhs + SLACK,
                      {"link_expansion": lam, "l": l, "j": j})


# -- mixing lemmas -----------------------------------------------------------------


@dataclass
class MixingReport:
    measured: float
    predicted: float
    deviation: float
    bound_rhs: float
    observed_constant: float | None

    def to_json_dict(self) -> dict:
        return {"measured": self.measured, "predicted": self.predicted,
                "deviation": self.deviation, "bound_rhs": self.bound_rhs,
                "observed_constant": self.observed_constant}


def _set_rows(c: Complex, faces, width: int, what: str) -> np.ndarray:
    """The faces of one set as ascending vertex rows; each must have ``width``
    vertex ids in [0, n), and ``what`` names the set in the error."""
    faces = list(faces)
    if set(map(len, faces)) - {width}:
        raise HypothesisViolated(f"{what} has a face without {width} vertices")
    rows = np.sort(np.array(faces, dtype=np.int64).reshape(len(faces), width), axis=1)
    outside = np.flatnonzero(((rows < 0) | (rows >= c.n_vertices)).any(axis=1))
    if outside.size:
        raise HypothesisViolated(f"face {tuple(rows[outside[0]].tolist())} of {what} "
                                 f"has a vertex outside [0, {c.n_vertices})")
    return rows


def _member_mask(lev, rows: np.ndarray, strict: bool) -> np.ndarray:
    """The faces of ``lev`` that are rows of a set, each once."""
    idx = lev.index_rows(rows, strict=strict)
    member = np.zeros(lev.size, dtype=bool)
    member[idx[idx >= 0]] = True
    return member


def _hit_mass(lev, label: np.ndarray, levels, members) -> float:
    """The mass of the faces of ``lev`` whose vertices with label i form a
    member of set i, for every set i; ``label`` gives each vertex a set or -1,
    and a face whose label counts differ from the set widths counts for
    nothing."""
    lab = label[lev.faces]
    widths = [l.k + 1 for l in levels]
    fit = (np.sort(lab, axis=1) == np.repeat(np.arange(len(widths)), widths)).all(axis=1)
    faces, lab = lev.faces[fit], lab[fit]
    hit = np.logical_and.reduce([m[l.index_rows(faces[lab == i].reshape(len(faces), w))]
                                 for i, (w, l, m) in enumerate(zip(widths, levels, members))])
    return float(lev.measure[fit] @ hit)


def _mixing_report(c: Complex, measured: float, levels, members, multinomial: int,
                   two_sided: bool) -> MixingReport:
    """The measured mass against the product prediction, and the deviation
    against link expansion times the geometric mean of the set
    probabilities; the constant is observed, never asserted."""
    probs = [float(l.measure[m].sum()) for l, m in zip(levels, members)]
    predicted = multinomial * math.prod(probs)
    deviation = abs(measured - predicted)
    lam = link_expansion(c, two_sided=two_sided).value
    geo = math.prod(probs) ** (1.0 / len(probs)) if all(p > 0 for p in probs) else 0.0
    bound_rhs = lam * geo
    const = deviation / bound_rhs if bound_rhs > 0 else None
    return MixingReport(measured, predicted, deviation, bound_rhs, const)


def mixing_check(c: Complex, sets) -> MixingReport:
    """Count faces containing a member of each set vs the product prediction.

    ``sets`` is a list of (dimension, faces).  Faces from different sets must
    be pairwise disjoint.  The deviation bound constant is reported from the
    observation, never asserted.

    Disjoint members of the sets fill a face of level k = sum (j_i + 1) - 1.
    Each vertex in a member of set i is owned by set i, so a face counts when,
    for every i, its vertices owned by set i are a member of set i: one
    sub-face lookup per set against a member mask.
    """
    if not sets:
        raise HypothesisViolated("mixing needs at least one set")
    dims = [int(j) for j, _ in sets]
    rows = [_set_rows(c, faces, j + 1, f"set {i} at dimension {j}")
            for i, (j, (_, faces)) in enumerate(zip(dims, sets))]
    k = sum(dims) + len(dims) - 1
    if k > c.d:
        raise HypothesisViolated(f"total size {k + 1} exceeds d+1 = {c.d + 1}")
    # a vertex listed by two sets leaves one of them disagreeing with owner
    verts = np.concatenate([r.ravel() for r in rows])
    set_of = np.repeat(np.arange(len(rows)), [r.size for r in rows])
    owner = np.full(c.n_vertices, -1)
    owner[verts] = set_of
    clash = np.flatnonzero(owner[verts] != set_of)
    if clash.size:
        v = int(verts[clash[0]])
        raise HypothesisViolated(
            f"vertex {v} is in faces of sets {set_of[clash[0]]} and {owner[v]}")
    levels = [c.level(j) for j in dims]
    members = [_member_mask(lev, r, strict=True) for lev, r in zip(levels, rows)]
    multinomial = math.factorial(k + 1) // math.prod(math.factorial(j + 1) for j in dims)
    return _mixing_report(c, _hit_mass(c.level(k), owner, levels, members), levels,
                          members, multinomial, two_sided=True)


def partite_mixing_check(c: Complex, colored_sets) -> MixingReport:
    """Partite analogue with conditional probabilities inside color classes.

    A face of the union's colored level counts when, for every set, its
    vertices of that set's colors are a member: the check of ``mixing_check``
    with colors in place of owners.  A member that is not a face of its
    colored level counts for nothing.
    """
    if not c.is_partite:
        raise NotPartite("partite mixing needs a coloring")
    if not colored_sets:
        raise HypothesisViolated("mixing needs at least one set")
    col_sets = [sorted({int(x) for x in colors}) for colors, _ in colored_sets]
    union = frozenset().union(*col_sets)
    if len(union) != sum(map(len, col_sets)):
        raise HypothesisViolated("color sets must be pairwise disjoint")
    col = np.asarray(c.coloring)
    levels, members = [], []
    for i, (colors, (_, faces)) in enumerate(zip(col_sets, colored_sets)):
        rows = _set_rows(c, faces, len(colors), f"set {i}")
        wrong = np.flatnonzero((np.sort(col[rows], axis=1) != colors).any(axis=1))
        if wrong.size:
            raise HypothesisViolated(
                f"face {tuple(rows[wrong[0]].tolist())} does not have colors {colors}")
        levels.append(c.colored_level(colors))
        members.append(_member_mask(levels[-1], rows, strict=False))
    set_of_color = np.full(int(col.max()) + 1, -1)
    set_of_color[np.concatenate(col_sets)] = np.repeat(np.arange(len(col_sets)),
                                                       list(map(len, col_sets)))
    measured = _hit_mass(c.colored_level(union), set_of_color[col], levels, members)
    return _mixing_report(c, measured, levels, members, 1, two_sided=False)


# -- sampler / cut lemmas -----------------------------------------------------------


def sampler_check(g: BipartiteGraph, subset, c: float) -> BoundCheck:
    """Expander sampler property for a right-side subset at threshold c."""
    if c <= 0:
        raise OrderingViolated("threshold c must be positive")
    right = np.zeros(g.joint.shape[1])
    right[list(subset)] = 1.0
    pi_l = g.left_measure
    pr_s = float(g.right_measure[right > 0].sum())
    cond = (g.joint @ right) / pi_l
    bad = np.abs(cond - pr_s) > c
    pr_t = float(pi_l[bad].sum())
    lam = bipartite_lambda(g.joint, pi_l, g.right_measure).lambda_bip
    bound = lam * lam / (c * c) * pr_s
    return BoundCheck("sampler", pr_t, bound, pr_t <= bound + SLACK,
                      {"lambda": lam, "pr_subset": pr_s, "threshold": c})


def almost_cut_check(g, part_a, part_b, part_c) -> BoundCheck:
    """Cut-size approximation for a 3-way partition, square or bipartite."""
    a, b, cc = (sorted(set(int(x) for x in p)) for p in (part_a, part_b, part_c))
    if isinstance(g, WeightedGraph):
        pi = g.vertex_measure
        pr = lambda s: float(pi[s].sum()) if s else 0.0
        if pr(a) > pr(b) + 1e-12:
            raise OrderingViolated("need Pr[A] <= Pr[B]")
        lam = square_lambda(g.joint, pi).two_sided
        e_ab = g.cut(a, b) if a and b else 0.0
        lhs = pr(a)
        denom = (1.0 - lam) * pr(b)
        rhs = (e_ab + lam * pr(cc)) / denom if denom > 0 else np.inf
        return BoundCheck("almost_cut", lhs, rhs, lhs <= rhs + SLACK,
                          {"lambda": lam, "edge_mass": e_ab})
    if isinstance(g, BipartiteGraph):
        joint = g.joint
        nl = joint.shape[0]
        pi_l, pi_r = g.left_measure, g.right_measure
        lam = bipartite_lambda(joint, pi_l, pi_r).lambda_bip
        if lam >= 0.5:
            raise NotApplicable(f"bipartite almost-cut needs lambda < 1/2, got {lam:.4g}")

        def split(p):
            return [x for x in p if x < nl], [x - nl for x in p if x >= nl]

        def pr(p):
            left, right = split(p)
            return (float(pi_l[left].sum()) + float(pi_r[right].sum())) / 2.0

        if pr(a) > pr(b) + 1e-12:
            raise OrderingViolated("need Pr[A] <= Pr[B]")
        a_l, a_r = split(a)
        b_l, b_r = split(b)
        dense = _dense(joint)
        e_ab = 0.0
        if a_l and b_r:
            e_ab += float(dense[np.ix_(a_l, b_r)].sum())
        if b_l and a_r:
            e_ab += float(dense[np.ix_(b_l, a_r)].sum())
        lhs = pr(a)
        denom = 2.0 * (1.0 - 2.0 * lam) * pr(b)
        rhs = (e_ab + 4.0 * lam * pr(cc)) / denom if denom > 0 else np.inf
        return BoundCheck("almost_cut_bipartite", lhs, rhs, lhs <= rhs + SLACK,
                          {"lambda": lam, "edge_mass": e_ab})
    raise NotApplicable(f"unsupported graph type {type(g)!r}")


@dataclass
class EdgeExpansionReport:
    phi: float | None
    argmin: tuple | None
    lambda2: float
    cheeger_lower: float
    cheeger_upper: float
    cheeger_ok: bool | None

    def to_json_dict(self) -> dict:
        return {"phi": self.phi, "argmin": list(self.argmin) if self.argmin else None,
                "lambda2": self.lambda2, "cheeger_lower": self.cheeger_lower,
                "cheeger_upper": self.cheeger_upper, "cheeger_ok": self.cheeger_ok}


def edge_expansion_exact(g: WeightedGraph) -> EdgeExpansionReport:
    """Brute-force edge expansion over all subsets with Pr <= 1/2.

    Also checks the Cheeger sandwich (1-lambda2)/2 <= Phi <= sqrt(2(1-lambda2)).
    Graphs above the vertex cap raise TooLarge; callers may still use the
    Cheeger bounds from ``square_lambda``.
    """
    m = g.joint.shape[0]
    l2 = square_lambda(g.joint, g.vertex_measure).lambda2
    lower, upper = (1.0 - l2) / 2.0, math.sqrt(max(2.0 * (1.0 - l2), 0.0))
    if m > BRUTE_FORCE_VERTICES:
        raise TooLarge(f"{m} vertices exceeds the brute-force cap {BRUTE_FORCE_VERTICES}")
    best, best_mask = _min_cut_ratio(_dense(g.joint), g.vertex_measure)
    if best_mask is None:
        # no subset with 0 < Pr <= 1/2 exists (single live vertex): vacuous
        return EdgeExpansionReport(phi=math.inf, argmin=None, lambda2=l2,
                                   cheeger_lower=lower, cheeger_upper=upper,
                                   cheeger_ok=None)
    argmin = tuple(int(v) for v in np.flatnonzero([(best_mask >> j) & 1 for j in range(m)]))
    ok = (lower - SLACK <= best <= upper + SLACK)
    return EdgeExpansionReport(phi=best, argmin=argmin, lambda2=l2,
                               cheeger_lower=lower, cheeger_upper=upper,
                               cheeger_ok=ok)


def _min_cut_ratio(joint: np.ndarray, pi: np.ndarray):
    """Smallest cut(S) / Pr[S] over every vertex set S with 0 < Pr[S] <= 1/2,
    and the bit mask of the first set reaching it (inf and None when there is
    no such set)."""
    m = joint.shape[0]
    best = math.inf
    best_mask = None
    n_masks = 1 << m
    chunk = 1 << 14
    bit_cols = np.arange(m)
    for start in range(1, n_masks, chunk):
        masks = np.arange(start, min(start + chunk, n_masks), dtype=np.int64)
        bits = (masks[:, None] >> bit_cols) & 1
        bits = bits.astype(float)
        pr_s = bits @ pi
        keep = (pr_s > 0) & (pr_s <= 0.5 + 1e-15)
        if not keep.any():
            continue
        bits_k = bits[keep]
        quad = np.einsum("si,ij,sj->s", bits_k, joint, bits_k)
        cut = bits_k @ joint.sum(axis=1) - quad
        phi = cut / pr_s[keep]
        i = int(np.argmin(phi))
        if phi[i] < best:
            best = float(phi[i])
            best_mask = int(masks[keep][i])
    return best, best_mask


def partition_property_check(g: WeightedGraph, partition, c: float) -> BoundCheck:
    """If crossing mass < c/2 in a c-edge expander, some part has Pr >= 1/2."""
    pi = g.vertex_measure
    parts = [sorted(set(int(x) for x in p)) for p in partition]
    seen = sorted(x for p in parts for x in p)
    if seen != list(range(g.joint.shape[0])):
        raise OrderingViolated("parts must partition the vertex set")
    crossing = 1.0 - sum(g.cut(p, p) for p in parts if p)
    hypothesis = crossing < c / 2.0
    largest = max((float(pi[p].sum()) for p in parts if p), default=0.0)
    passed = (not hypothesis) or largest >= 0.5 - SLACK
    return BoundCheck("partition_property", crossing, c / 2.0, passed,
                      {"largest_part": largest, "hypothesis_holds": bool(hypothesis)})
