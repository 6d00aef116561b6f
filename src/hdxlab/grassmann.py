"""Linear and affine subspaces of F_q^n as integer arrays: level
enumeration in canonical echelon form, containment and conditioned complement
walks, and the subspace four-layer instance.

A level is a ``SubspaceLevel``: an (N, dim, n) tensor of RREF bases over the
field symbols 0..q-1 and, for the affine flavor, an (N, n) offset reduced
against its basis (zero on the pivot columns).  Levels are built one pivot
pattern at a time from the free-entry products, in the order the loops over
``itertools.combinations``/``product`` would give.  Points of F_q^n are
base-q integer codes; a subspace is keyed by the codes of its canonical rows
and found in a level by grouping those codes (``complexes._group``).  Every
rank, canonical form and independence test goes through one batched
elimination, ``_batched_rref``, over (B, rows, n) stacks with the
``gf_tables`` of GF(q), so extension fields work as prime fields do.  An
affine subspace enters it through its homogeneous rows: [1 | offset] above
[0 | basis].

Level conventions differ by flavor and both are preserved: affine level k
holds subspaces of dimension k, linear level k holds subspaces of dimension
k+1 (so level 0 is points in the affine poset and lines in the linear one).
``dim_of_level`` / ``level_of_dim`` convert explicitly.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .agreement import AgreementTest
from .errors import (
    DimensionArithmetic,
    EmptyWalk,
    HdxError,
    LevelOutOfRange,
    ParameterRange,
    SizeCapError,
)
from .complexes import _group, _search, size_cap_multiplier
from .stav import AvTable, STSTable, StavInstance, VasaTable, _face_tuples
from .walks import MarkovOperator, _from_joint, _joint, _walk_joint

MAX_Q = 9
_BASE_POINTS = 1_100_000
_BASE_LEVEL = 200_000
_BASE_STAV_TABLE = 4_000_000


def _points_cap() -> int:
    return int(_BASE_POINTS * size_cap_multiplier())


def _level_cap() -> int:
    return int(_BASE_LEVEL * size_cap_multiplier())


def _stav_table_cap() -> int:
    return int(_BASE_STAV_TABLE * size_cap_multiplier())


# -- field arithmetic -----------------------------------------------------------


def _prime_power(q: int):
    for p in (2, 3, 5, 7):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m == 1:
                return p, k
    raise ParameterRange(f"{q} is not a prime power up to {MAX_Q}")


@lru_cache(maxsize=None)
def gf_tables(q: int):
    """Addition, multiplication and inverse tables for GF(q), q <= 9.

    Prime powers use polynomial arithmetic modulo a fixed irreducible
    polynomial found by exhaustive root checking (degree <= 3 suffices here).
    """
    if q > MAX_Q:
        raise ParameterRange(f"field size {q} exceeds the cap {MAX_Q}")
    p, k = _prime_power(q)
    if k == 1:
        a = np.arange(q)
        add = (a[:, None] + a[None, :]) % q
        mul = (a[:, None] * a[None, :]) % q
    else:
        # elements are base-p digit strings of length k
        def digits(x):
            return [(x // p**i) % p for i in range(k)]

        def undigits(ds):
            return sum(int(d) % p * p**i for i, d in enumerate(ds))

        def poly_eval(coeffs, x):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * x + c) % p
            return acc

        irreducible = None
        for low in range(p**k):
            coeffs = digits(low) + [1]  # monic of degree k
            if all(poly_eval(coeffs, x) != 0 for x in range(p)):
                irreducible = coeffs
                break
        assert irreducible is not None

        def poly_mul(a_, b_):
            out = [0] * (2 * k - 1)
            for i, ca in enumerate(a_):
                for j, cb in enumerate(b_):
                    out[i + j] = (out[i + j] + ca * cb) % p
            # reduce modulo the irreducible polynomial
            for deg in range(2 * k - 2, k - 1, -1):
                c = out[deg]
                if c:
                    for i in range(k + 1):
                        out[deg - k + i] = (out[deg - k + i] - c * irreducible[i]) % p
                    out[deg] = 0
            return out[:k]

        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for x in range(q):
            dx = digits(x)
            for y in range(q):
                dy = digits(y)
                add[x, y] = undigits([(a_ + b_) % p for a_, b_ in zip(dx, dy)])
                mul[x, y] = undigits(poly_mul(dx, dy))
    neg = np.zeros(q, dtype=np.int64)
    inv = np.zeros(q, dtype=np.int64)
    for x in range(q):
        neg[x] = int(np.flatnonzero(add[x] == 0)[0])
        if x:
            inv[x] = int(np.flatnonzero(mul[x] == 1)[0])
    return add.astype(np.int64), mul.astype(np.int64), neg, inv




class GF:
    """Tiny table-driven field; vectors are int64 arrays of symbols."""

    def __init__(self, q: int):
        self.q = q
        self.add_t, self.mul_t, self.neg_t, self.inv_t = gf_tables(q)

    def add(self, a, b):
        return self.add_t[a, b]

    def sub(self, a, b):
        return self.add_t[a, self.neg_t[b]]

    def mul(self, a, b):
        return self.mul_t[a, b]


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# -- elimination ------------------------------------------------------------------

# tuples per elimination batch, so that no (B, rows, n) tensor outgrows a few MB
_CHUNK = 1 << 14


def _batched_rref(gf: GF, m: np.ndarray):
    """Reduced row echelon form of every matrix of a (B, r, n) stack over GF(q),
    and the rank of each.

    One pass over the columns: in every matrix that has a pivot in column c
    below its current rank, the first such row is swapped up, scaled to 1 and
    cleared from all other rows, through the field tables.  Rows past the rank
    come out zero.
    """
    q = gf.q
    x_minus_fy = gf.add_t[np.arange(q)[:, None, None], gf.neg_t[gf.mul_t][None]]
    m = np.array(m, dtype=np.intp)
    n_b, r, n = m.shape
    rank = np.zeros(n_b, dtype=np.intp)
    rows = np.arange(r)
    for c in range(n):
        cand = (m[:, :, c] != 0) & (rows >= rank[:, None])
        b = np.flatnonzero(cand.any(axis=1))
        if not len(b):
            continue
        k, first = rank[b], cand[b].argmax(axis=1)
        # rows at or past the rank are zero left of c, so only columns c.. move
        piv = m[b, first, c:]
        m[b, first, c:] = m[b, k, c:]
        piv = gf.mul_t[gf.inv_t[piv[:, :1]], piv]
        m[b, k, c:] = piv
        block = m[b, :, c:]
        f = block[:, :, 0].copy()
        f[np.arange(len(b)), k] = 0
        m[b, :, c:] = x_minus_fy[block, f[:, :, None], piv[:, None, :]]
        rank[b] += 1
    return m, rank


def _independent(gf: GF, parts) -> np.ndarray:
    """Whether the members of each tuple are jointly independent subspaces:
    their stacked homogeneous rows have full row rank.

    ``parts`` holds one ``(rows, idx)`` per member: an (N, r, w) tensor of
    homogeneous rows and the (B,) index of that member in every tuple.
    """
    n_b = len(parts[0][1])
    out = np.empty(n_b, dtype=bool)
    for lo in range(0, n_b, _CHUNK):
        m = np.concatenate([rows[idx[lo:lo + _CHUNK]] for rows, idx in parts], axis=1)
        out[lo:lo + _CHUNK] = _batched_rref(gf, m)[1] == m.shape[1]
    return out


def _gf_matmul(gf: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of broadcastable stacks (..., r, m) @ (..., m, n) over GF(q)."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    out = np.zeros(shape, dtype=np.intp)
    for j in range(a.shape[-1]):
        out = gf.add_t[out, gf.mul_t[a[..., :, j, None], b[..., None, j, :]]]
    return out


# -- subspaces -------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """Canonical subspace: RREF basis, plus a reduced offset when affine."""

    flavor: str  # "linear" | "affine"
    basis: bytes  # RREF rows, row-major int8
    offset: bytes | None
    dim: int
    n: int

    def basis_matrix(self) -> np.ndarray:
        return np.frombuffer(self.basis, dtype=np.int8).reshape(self.dim, self.n) \
            .astype(np.int64)

    def offset_vector(self) -> np.ndarray:
        if self.offset is None:
            return np.zeros(self.n, dtype=np.int64)
        return np.frombuffer(self.offset, dtype=np.int8).astype(np.int64)


class SubspaceLevel(Sequence):
    """Canonical subspaces as arrays: int8 RREF bases (N, dim, n) and, for the
    affine flavor, int8 offsets (N, n) reduced against them.  Indexing builds
    ``Subspace`` objects from the arrays."""

    def __init__(self, q: int, flavor: str, bases: np.ndarray,
                 offsets: np.ndarray | None):
        self.q, self.flavor, self.bases, self.offsets = q, flavor, bases, offsets

    def __len__(self) -> int:
        return len(self.bases)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        off = None if self.offsets is None else self.offsets[i].tobytes()
        return Subspace(self.flavor, self.bases[i].tobytes(), off, *self.bases.shape[1:])

    def hom(self) -> np.ndarray:
        """Homogeneous rows: the bases for the linear flavor; [1 | offset]
        above [0 | basis] for the affine one, so that jointly independent
        subspaces are exactly those whose stacked rows have full rank."""
        b = self.bases.astype(np.intp)
        if self.offsets is None:
            return b
        n_s, dim, n = b.shape
        out = np.zeros((n_s, dim + 1, n + 1), dtype=np.intp)
        out[:, 0, 0] = 1
        out[:, 0, 1:] = self.offsets
        out[:, 1:, 1:] = b
        return out

    @cached_property
    def codes(self) -> np.ndarray:
        """Point codes of each canonical row (offset first): (N, rows) int64."""
        rows = self.bases if self.offsets is None else \
            np.concatenate([self.offsets[:, None], self.bases], axis=1)
        n = self.bases.shape[2]
        return rows.astype(np.int64) @ self.q ** np.arange(n - 1, -1, -1, dtype=np.int64)

    def positions(self, other: SubspaceLevel) -> np.ndarray:
        """Index in this level of every subspace of ``other``; -1 if absent."""
        ids, first = _group(np.concatenate([self.codes, other.codes]))
        pos = first[ids[len(self):]]
        return np.where(pos < len(self), pos, -1)


def make_subspace(gf: GF, flavor: str, vectors: np.ndarray,
                  offset=None) -> Subspace:
    """Canonicalize any generating set (and coset representative)."""
    vectors = np.asarray(vectors, dtype=np.int64)
    n = vectors.shape[1] if vectors.ndim == 2 else len(offset)
    rows = vectors.reshape(-1, n)
    if flavor == "affine":
        # the RREF of [1 | offset] over [0 | vectors] is [1 | reduced offset]
        # over [0 | RREF basis]
        off = np.zeros(n, dtype=np.int64) if offset is None else \
            np.asarray(offset, dtype=np.int64)
        rows = np.block([[np.ones((1, 1), dtype=np.int64), off[None]],
                         [np.zeros((len(rows), 1), dtype=np.int64), rows]])
    m, rank = _batched_rref(gf, rows[None])
    canon = m[0, :rank[0]].astype(np.int8)
    if flavor == "linear":
        return Subspace("linear", canon.tobytes(), None, len(canon), n)
    return Subspace("affine", canon[1:, 1:].tobytes(), canon[0, 1:].tobytes(),
                    len(canon) - 1, n)


def _digits(q: int, f: int) -> np.ndarray:
    """All f-digit words over 0..q-1, in ``itertools.product`` order."""
    return np.arange(q ** f)[:, None] // q ** np.arange(f - 1, -1, -1) % q


def _echelon(q: int, n: int, k: int, affine: bool):
    """Every k-dimensional subspace of F_q^n (every coset of each, when affine)
    in canonical form: int8 RREF bases (N, k, n) and offsets (N, n), or None.

    Pivot patterns come in ``combinations`` order; within one, the free
    entries (row by row) count up in ``product`` order, and a coset's offset
    runs over the non-pivot columns the same way.
    """
    bases, offsets = [np.zeros((0, k, n), dtype=np.int8)], [np.zeros((0, n), dtype=np.int8)]
    for pivots in itertools.combinations(range(n), k):
        rr, cc = [], []
        for r in range(k):
            for c in range(pivots[r] + 1, n):
                if c not in pivots:
                    rr.append(r)
                    cc.append(c)
        b = np.zeros((q ** len(rr), k, n), dtype=np.int8)
        b[:, np.arange(k), np.array(pivots, dtype=np.intp)] = 1
        b[:, rr, cc] = _digits(q, len(rr))
        if affine:
            cols = [c for c in range(n) if c not in pivots]
            o = np.zeros((q ** len(cols), n), dtype=np.int8)
            o[:, cols] = _digits(q, len(cols))
            offsets.append(np.tile(o, (len(b), 1)))
            b = np.repeat(b, len(o), axis=0)
        bases.append(b)
    return np.concatenate(bases), (np.concatenate(offsets) if affine else None)


@dataclass
class GrassmannPoset:
    """Enumerated subspace levels of F_q^n up to a dimension cap."""

    q: int
    n: int
    d: int
    flavor: str
    gf: GF = field(init=False)

    def __post_init__(self):
        if self.flavor not in ("linear", "affine"):
            raise ParameterRange(f"unknown flavor {self.flavor!r}")
        if self.q > MAX_Q:
            raise SizeCapError(f"q = {self.q} exceeds the cap {MAX_Q}")
        if self.q ** self.n > _points_cap():
            raise SizeCapError(f"q^n = {self.q**self.n} exceeds {_points_cap()} points")
        top_dim = self.dim_of_level(self.d)
        if top_dim > self.n:
            raise DimensionArithmetic(
                f"top dimension {top_dim} exceeds the ambient dimension {self.n}")
        self.gf = GF(self.q)
        self._levels: dict[int, SubspaceLevel] = {}

    def dim_of_level(self, k: int) -> int:
        return k if self.flavor == "affine" else k + 1

    def level_of_dim(self, dim: int) -> int:
        return dim if self.flavor == "affine" else dim - 1

    def level_count(self, k: int) -> int:
        dim = self.dim_of_level(k)
        g = gaussian_binomial(self.n, dim, self.q)
        if self.flavor == "affine":
            return self.q ** (self.n - dim) * g
        return g

    def level(self, k: int) -> SubspaceLevel:
        """Complete duplicate-free canonical enumeration of one level."""
        if not 0 <= k <= self.d:
            raise LevelOutOfRange(f"level {k} out of range [0, {self.d}]")
        if k in self._levels:
            return self._levels[k]
        count = self.level_count(k)
        if count > _level_cap():
            raise SizeCapError(f"level {k} holds {count} subspaces, over the cap "
                               f"{_level_cap()}")
        lev = SubspaceLevel(self.q, self.flavor, *_echelon(
            self.q, self.n, self.dim_of_level(k), self.flavor == "affine"))
        if len(lev) != count:
            raise HdxError(f"enumeration produced {len(lev)} of {count} subspaces")
        self._levels[k] = lev
        return lev

    # -- relations ----------------------------------------------------------------

    def contained_level(self, s: Subspace, k: int) -> SubspaceLevel:
        """Subspaces of s at level k, via enumeration in coordinates."""
        return _sub_level(self, _as_level(self, s), k)

    def joint_dim(self, parts: list[Subspace]) -> int:
        """Dimension of the span (affine span for the affine flavor)."""
        rows = np.concatenate([_as_level(self, s).hom()[0] for s in parts]
                              or [np.zeros((0, self.n), dtype=np.intp)])
        return int(_batched_rref(self.gf, rows[None])[1][0]) - (self.flavor == "affine")


def _as_level(p: GrassmannPoset, s: Subspace) -> SubspaceLevel:
    off = None if p.flavor == "linear" else s.offset_vector()[None].astype(np.int8)
    return SubspaceLevel(p.q, p.flavor, s.basis_matrix()[None].astype(np.int8), off)


def _sub_level(p: GrassmannPoset, parents: SubspaceLevel, k: int) -> SubspaceLevel:
    """The level-k subspaces of every parent, parent after parent: each
    parent's coordinate-space echelon enumeration mapped through its basis.

    A product of two RREF matrices is in RREF, and the mapped offset is zero
    on the product's pivot columns, so the images are canonical as they come.
    """
    gf, (n_p, dim_s, n) = p.gf, parents.bases.shape
    dim_t = p.dim_of_level(k)
    coeff, local = _echelon(p.q, dim_s, dim_t, p.flavor == "affine")
    bases = _gf_matmul(gf, coeff[None], parents.bases[:, None])
    offsets = None
    if local is not None:
        shift = _gf_matmul(gf, local[None, :, None, :], parents.bases[:, None])[:, :, 0]
        offsets = gf.add_t[parents.offsets[:, None, :], shift].reshape(-1, n) \
            .astype(np.int8)
    return SubspaceLevel(p.q, p.flavor,
                         bases.reshape(n_p * len(coeff), dim_t, n).astype(np.int8), offsets)


def _contained(p: GrassmannPoset, parents: SubspaceLevel, k: int) -> np.ndarray:
    """(len(parents), m) level-k indices of the subspaces of every parent, in
    ``contained_level`` order."""
    return p.level(k).positions(_sub_level(p, parents, k)).reshape(len(parents), -1)


def _supports(p: GrassmannPoset, lev: SubspaceLevel) -> list[tuple]:
    """Sorted level-0 indices of the points of each subspace."""
    return _face_tuples(np.sort(_contained(p, lev, 0), axis=1))


# -- walks ------------------------------------------------------------------------


def _uniform_operator(left: np.ndarray, right: np.ndarray) -> MarkovOperator:
    """Walk of the uniform joint over distinct (left, right) edges, between the
    elements that some edge touches."""
    if not len(left):
        raise EmptyWalk("walk has no edges")
    (r, first_l), (c, first_r) = _group(left), _group(right)
    live_l, live_r = left[first_l], right[first_r]
    vals = np.full(len(left), 1.0 / len(left))
    return _from_joint(live_l[:, None], np.bincount(r, weights=vals),
                       live_r[:, None], np.bincount(c, weights=vals),
                       _walk_joint((len(live_l), len(live_r)), 1, len(left),
                                   lambda lo, hi: (r, c, vals)))


def grassmann_containment_walk(p: GrassmannPoset, k: int, l: int) -> MarkovOperator:
    """Uniform bipartite containment walk between two levels (l < k)."""
    if not 0 <= l < k <= p.d:
        raise LevelOutOfRange(f"containment walk needs 0 <= l < k <= {p.d}")
    sub = _contained(p, p.level(k), l)
    return _uniform_operator(np.repeat(np.arange(len(sub)), sub.shape[1]), sub.ravel())


def conditioned_complement_walk(p: GrassmannPoset, l1: int, l2: int,
                                u0: Subspace | None) -> MarkovOperator:
    """Uniform walk over pairs spanning jointly with a fixed subspace.

    ``u0 = None`` gives the unconditioned complement walk.
    """
    dim1 = p.dim_of_level(l1)
    dim2 = p.dim_of_level(l2)
    dim0 = 0 if u0 is None else u0.dim
    if p.flavor == "linear":
        total = dim1 + dim2 + dim0
        if total > p.n:
            raise DimensionArithmetic(
                f"direct sum of dimensions {dim1}+{dim2}+{dim0} exceeds n={p.n}")
    else:
        l3 = -1 if u0 is None else u0.dim
        if l1 + l2 + l3 + 2 > p.n:
            raise DimensionArithmetic(
                f"affine condition l1+l2+l3+2 <= n fails: "
                f"{l1}+{l2}+{l3}+2 > {p.n}")
    hl, hr = p.level(l1).hom(), p.level(l2).hom()
    left, right = np.arange(len(hl)), np.arange(len(hr))
    cond = []
    if u0 is not None:
        h0 = _as_level(p, u0).hom()
        left, right = (np.flatnonzero(_independent(p.gf, [(h, idx), (h0, 0 * idx)]))
                       for h, idx in ((hl, left), (hr, right)))
        cond = [(h0, np.zeros(len(left) * len(right), dtype=np.intp))]
    if not len(left) or not len(right):
        raise EmptyWalk("conditioning removed an entire side")
    li, rj = np.repeat(left, len(right)), np.tile(right, len(left))
    keep = _independent(p.gf, [(hl, li), (hr, rj)] + cond)
    return _uniform_operator(li[keep], rj[keep])


# -- test distributions and the subspace instance -----------------------------------


def _sts_from_levels(p: GrassmannPoset, d: int, l: int):
    """Uniform t, then independent uniform tops above it: the pair tables, the
    (S x T) joint and both levels."""
    tops = p.level(d)
    mids = p.level(l)
    sub = _contained(p, tops, l)
    s_idx, t_idx = np.repeat(np.arange(len(tops)), sub.shape[1]), sub.ravel()
    n_up = np.bincount(t_idx, minlength=len(mids))
    if not n_up.all():
        raise EmptyWalk(f"level-{l} element {int(np.argmin(n_up))} extends to no top")
    st = _joint(s_idx, t_idx, 1.0 / (len(mids) * n_up[t_idx]), (len(tops), len(mids)))
    return STSTable.from_joint(st), st, tops, mids


def agd_distribution(p: GrassmannPoset, d: int, l: int):
    if p.flavor != "affine":
        raise ParameterRange("agd needs the affine flavor")
    return _grassmann_test(p, d, l)


def lgd_distribution(p: GrassmannPoset, d: int, l: int):
    if p.flavor != "linear":
        raise ParameterRange("lgd needs the linear flavor")
    return _grassmann_test(p, d, l)


def _grassmann_test(p: GrassmannPoset, d: int, l: int):
    if not 0 <= l < d <= p.d:
        raise LevelOutOfRange(f"need 0 <= l < d <= {p.d}")
    sts, _, tops, mids = _sts_from_levels(p, d, l)
    return AgreementTest(list(range(len(tops))), _supports(p, tops), sts,
                         _supports(p, mids),
                         meta={"kind": f"{p.flavor}_grassmann", "d": d, "l": l})


def _av_rows(p: GrassmannPoset, l: int):
    """(t, a, v) rows of the (a, v) table: every level-l t, every level-(l-1)
    a inside it in ``contained_level`` order, and every point of t outside a
    (the pair then generates t) in level order."""
    mids, amps = p.level(l), p.level(l - 1)
    t_a = _contained(p, mids, l - 1)
    t_v = np.sort(_contained(p, mids, 0), axis=1)
    a_v = _contained(p, amps, 0)
    (n_t, m_a), m_v = t_a.shape, t_v.shape[1]
    t = np.repeat(np.arange(n_t), m_a * m_v)
    a = np.repeat(t_a.ravel(), m_v)
    v = np.repeat(t_v, m_a, axis=0).ravel()
    n_pts = len(p.level(0))
    inside = np.sort((np.arange(len(amps))[:, None] * n_pts + a_v).ravel())
    keep = _search(inside, a * n_pts + v) < 0
    return t[keep], a[keep], v[keep]


def _amplification_rows(p: GrassmannPoset, d: int, l: int):
    """(s, v, a1, a2) rows of the amplification table: every level-d s, every
    ordered pair of jointly independent level-(l-1) a1, a2 inside it (in
    ``itertools.permutations`` order), then every point v of s independent of
    both (in ``contained_level`` order)."""
    tops, h_a = p.level(d), p.level(l - 1).hom()
    s_a = _contained(p, tops, l - 1)
    s_v = _contained(p, tops, 0)
    i, j = np.nonzero(~np.eye(s_a.shape[1], dtype=bool))
    s = np.repeat(np.arange(len(tops)), len(i))
    a1, a2 = s_a[:, i].ravel(), s_a[:, j].ravel()
    keep = _independent(p.gf, [(h_a, a1), (h_a, a2)])
    s, a1, a2 = s[keep], a1[keep], a2[keep]
    m_v = s_v.shape[1]
    s, a1, a2, v = (np.repeat(s, m_v), np.repeat(a1, m_v), np.repeat(a2, m_v),
                    s_v[s].ravel())
    keep = _independent(p.gf, [(h_a, a1), (h_a, a2), (p.level(0).hom(), v)])
    return s[keep], v[keep], a1[keep], a2[keep]


def grassmann_stav(p: GrassmannPoset, d: int, l: int) -> StavInstance:
    """Subspace instance: S at level d, T at level l, A one level below, and
    the ground level as V; the amplification distribution draws two jointly
    independent A-elements inside s and an independent ground element."""
    if not (3 * l + 2 < d <= p.d):
        raise ParameterRange(f"need 3l+2 < d <= {p.d}, got d={d}, l={l}")
    if l < 1:
        raise ParameterRange("need l >= 1")
    n_s = p.level_count(d)
    points = p.level(0)
    n_pts_per_s = (p.q ** p.dim_of_level(d) if p.flavor == "affine"
                   else gaussian_binomial(p.dim_of_level(d), 1, p.q))
    n_a_per_s = (p.q ** (p.dim_of_level(d) - p.dim_of_level(l - 1))
                 * gaussian_binomial(p.dim_of_level(d), p.dim_of_level(l - 1), p.q)
                 if p.flavor == "affine"
                 else gaussian_binomial(p.dim_of_level(d), p.dim_of_level(l - 1), p.q))
    est = n_s * n_a_per_s * n_a_per_s * n_pts_per_s
    if est > _stav_table_cap():
        raise SizeCapError(
            f"amplification table would hold about {est} rows, over the cap "
            f"{_stav_table_cap()}")

    sts, st, tops, mids = _sts_from_levels(p, d, l)
    amps = p.level(l - 1)
    t_idx, a_idx, v_idx = _av_rows(p, l)
    av = AvTable(t_idx, a_idx, v_idx, 1.0 / np.bincount(t_idx)[t_idx])
    s_idx, v_idx, a1_idx, a2_idx = _amplification_rows(p, d, l)
    probs = 1.0 / (n_s * np.bincount(s_idx, minlength=n_s)[s_idx])
    vasa = VasaTable(v_idx, a1_idx, s_idx, a2_idx, probs)

    pt_labels = list(range(len(points)))
    return StavInstance(
        provenance="grassmann",
        ground_labels=pt_labels,
        v_labels=pt_labels,
        v_ground=np.arange(len(points)),
        a_labels=list(range(len(amps))),
        t_labels=list(range(len(mids))),
        s_labels=list(range(len(tops))),
        a_supports=_supports(p, amps),
        t_supports=_supports(p, mids),
        s_supports=_supports(p, tops),
        st_joint=st, av=av, sts=sts, vasa=vasa,
        meta={"poset": p, "d": d, "l": l})
