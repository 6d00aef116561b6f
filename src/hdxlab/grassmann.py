"""Linear and affine subspaces of F_q^n: enumeration in canonical echelon
form, containment and conditioned complement walks, and the subspace
four-layer instance.

Level conventions differ by flavor and both are preserved: affine level k
holds subspaces of dimension k, linear level k holds subspaces of dimension
k+1 (so level 0 is points in the affine poset and lines in the linear one).
``dim_of_level`` / ``level_of_dim`` convert explicitly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionArithmetic,
    EmptyWalk,
    HdxError,
    LevelOutOfRange,
    ParameterRange,
    SizeCapError,
)
from .complexes import size_cap_multiplier
from .stav import AvTable, STSTable, StavInstance, VasaTable
from .walks import MarkovOperator, _from_joint

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

    def rref(self, mat: np.ndarray) -> np.ndarray:
        """Reduced row echelon form; returns only the nonzero rows."""
        m = np.array(mat, dtype=np.int64) % 0x7FFFFFFF
        m = m.copy()
        rows, cols = m.shape
        r = 0
        for c in range(cols):
            piv = None
            for i in range(r, rows):
                if m[i, c]:
                    piv = i
                    break
            if piv is None:
                continue
            m[[r, piv]] = m[[piv, r]]
            m[r] = self.mul(self.inv_t[m[r, c]], m[r])
            for i in range(rows):
                if i != r and m[i, c]:
                    m[i] = self.sub(m[i], self.mul(m[i, c], m[r]))
            r += 1
            if r == rows:
                break
        return m[:r]

    def rank(self, mat: np.ndarray) -> int:
        if mat.size == 0:
            return 0
        return len(self.rref(mat))

    def reduce_vector(self, vec: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """Eliminate the pivot coordinates of vec against an RREF basis."""
        v = np.array(vec, dtype=np.int64)
        for row in basis:
            nz = np.flatnonzero(row)
            if len(nz) == 0:
                continue
            piv = nz[0]
            if v[piv]:
                v = self.sub(v, self.mul(v[piv], row))
        return v


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


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


def make_subspace(gf: GF, flavor: str, vectors: np.ndarray,
                  offset=None) -> Subspace:
    """Canonicalize any generating set (and coset representative)."""
    vectors = np.asarray(vectors, dtype=np.int64)
    n = vectors.shape[1] if vectors.ndim == 2 else len(offset)
    basis = gf.rref(vectors) if vectors.size else np.zeros((0, n), dtype=np.int64)
    dim = len(basis)
    if flavor == "linear":
        off_b = None
    else:
        off = np.zeros(n, dtype=np.int64) if offset is None else \
            np.asarray(offset, dtype=np.int64)
        off = gf.reduce_vector(off, basis)
        off_b = off.astype(np.int8).tobytes()
    return Subspace(flavor=flavor, basis=basis.astype(np.int8).tobytes(),
                    offset=off_b, dim=dim, n=n)


def _echelon_bases(gf: GF, n: int, k: int):
    """All RREF bases of k-dimensional subspaces of F_q^n."""
    if k == 0:
        yield np.zeros((0, n), dtype=np.int64)
        return
    q = gf.q
    for pivots in itertools.combinations(range(n), k):
        free_pos = []
        for r in range(k):
            for c in range(pivots[r] + 1, n):
                if c not in pivots:
                    free_pos.append((r, c))
        base = np.zeros((k, n), dtype=np.int64)
        for r, pv in enumerate(pivots):
            base[r, pv] = 1
        for combo in itertools.product(range(q), repeat=len(free_pos)):
            mat = base.copy()
            for (r, c), val in zip(free_pos, combo):
                mat[r, c] = val
            yield mat


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
        self._levels: dict[int, list[Subspace]] = {}
        self._index: dict[int, dict[Subspace, int]] = {}

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

    def level(self, k: int) -> list[Subspace]:
        """Complete duplicate-free canonical enumeration of one level."""
        if not 0 <= k <= self.d:
            raise LevelOutOfRange(f"level {k} out of range [0, {self.d}]")
        if k in self._levels:
            return self._levels[k]
        count = self.level_count(k)
        if count > _level_cap():
            raise SizeCapError(f"level {k} holds {count} subspaces, over the cap "
                               f"{_level_cap()}")
        dim = self.dim_of_level(k)
        out = []
        for basis in _echelon_bases(self.gf, self.n, dim):
            if self.flavor == "linear":
                out.append(make_subspace(self.gf, "linear", basis))
            else:
                pivots = [int(np.flatnonzero(row)[0]) for row in basis]
                free_cols = [c for c in range(self.n) if c not in pivots]
                for combo in itertools.product(range(self.q), repeat=len(free_cols)):
                    off = np.zeros(self.n, dtype=np.int64)
                    for c, val in zip(free_cols, combo):
                        off[c] = val
                    out.append(Subspace("affine", basis.astype(np.int8).tobytes(),
                                        off.astype(np.int8).tobytes(), dim, self.n))
        if len(out) != count:
            raise HdxError(f"enumeration produced {len(out)} of {count} subspaces")
        self._levels[k] = out
        self._index[k] = {s: i for i, s in enumerate(out)}
        return out

    def index_of(self, k: int, s: Subspace) -> int:
        self.level(k)
        return self._index[k][s]

    # -- relations ----------------------------------------------------------------

    def contains(self, big: Subspace, small: Subspace) -> bool:
        gf = self.gf
        bb = big.basis_matrix()
        for row in small.basis_matrix():
            if np.any(gf.reduce_vector(row, bb)):
                return False
        if self.flavor == "affine":
            diff = gf.sub(small.offset_vector(), big.offset_vector())
            if np.any(gf.reduce_vector(diff, bb)):
                return False
        return True

    def contained_level(self, s: Subspace, k: int) -> list[Subspace]:
        """Subspaces of s at level k, via enumeration in coordinates."""
        gf = self.gf
        dim_t = self.dim_of_level(k)
        bs = s.basis_matrix()
        if self.flavor == "linear":
            subs = []
            for coeff in _echelon_bases(gf, s.dim, dim_t):
                vecs = _coeff_map(gf, coeff, bs)
                subs.append(make_subspace(gf, "linear", vecs))
            return subs
        off = s.offset_vector()
        subs = []
        for coeff in _echelon_bases(gf, s.dim, dim_t):
            vecs = _coeff_map(gf, coeff, bs)
            pivots = [int(np.flatnonzero(row)[0]) for row in coeff] if len(coeff) else []
            free_cols = [c for c in range(s.dim) if c not in pivots]
            for combo in itertools.product(range(gf.q), repeat=len(free_cols)):
                local = np.zeros(s.dim, dtype=np.int64)
                for c, val in zip(free_cols, combo):
                    local[c] = val
                shift = gf.add(off, _coeff_map(gf, local[None, :], bs)[0])
                subs.append(make_subspace(gf, "affine", vecs, shift))
        return subs

    def joint_dim(self, parts: list[Subspace]) -> int:
        """Dimension of the span (affine span for the affine flavor)."""
        gf = self.gf
        if self.flavor == "linear":
            rows = [p.basis_matrix() for p in parts if p.dim]
            if not rows:
                return 0
            return gf.rank(np.concatenate(rows, axis=0))
        hom = []
        for p in parts:
            bm = p.basis_matrix()
            hom.append(np.concatenate([bm, np.zeros((len(bm), 1), dtype=np.int64)],
                                      axis=1))
            hom.append(np.concatenate([p.offset_vector()[None, :],
                                       np.ones((1, 1), dtype=np.int64)], axis=1))
        return gf.rank(np.concatenate(hom, axis=0)) - 1


def _coeff_map(gf: GF, coeff: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Map coordinate rows through a basis: rows of coeff @ basis over GF."""
    out = np.zeros((len(coeff), basis.shape[1]), dtype=np.int64)
    for j in range(coeff.shape[1]):
        out = gf.add(out, gf.mul(coeff[:, j][:, None], basis[j][None, :]))
    return out


# -- walks ------------------------------------------------------------------------


def _uniform_operator(edges) -> MarkovOperator:
    """Walk of the uniform joint over distinct (left, right) edges, between the
    elements that some edge touches."""
    if not edges:
        raise EmptyWalk("walk has no edges")
    live_l, r = np.unique([e[0] for e in edges], return_inverse=True)
    live_r, c = np.unique([e[1] for e in edges], return_inverse=True)
    vals = np.full(len(edges), 1.0 / len(edges))
    return _from_joint(live_l[:, None], np.bincount(r, weights=vals),
                       live_r[:, None], np.bincount(c, weights=vals), [r], [c], [vals])


def grassmann_containment_walk(p: GrassmannPoset, k: int, l: int) -> MarkovOperator:
    """Uniform bipartite containment walk between two levels (l < k)."""
    if not 0 <= l < k <= p.d:
        raise LevelOutOfRange(f"containment walk needs 0 <= l < k <= {p.d}")
    big = p.level(k)
    small = p.level(l)
    idx = {s: i for i, s in enumerate(small)}
    edges = []
    for si, s in enumerate(big):
        for t in p.contained_level(s, l):
            edges.append((si, idx[t]))
    return _uniform_operator(edges)


def conditioned_complement_walk(p: GrassmannPoset, l1: int, l2: int,
                                u0: Subspace | None) -> MarkovOperator:
    """Uniform walk over pairs spanning jointly with a fixed subspace.

    ``u0 = None`` gives the unconditioned complement walk.
    """
    gf = p.gf
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
    left_all = p.level(l1)
    right_all = p.level(l2)

    def independent(v):
        if u0 is None:
            return True
        if p.flavor == "linear":
            return p.joint_dim([v, u0]) == v.dim + u0.dim
        return p.joint_dim([v, u0]) == v.dim + u0.dim + 1

    left = [i for i, v in enumerate(left_all) if independent(v)]
    right = [i for i, w in enumerate(right_all) if independent(w)]
    if not left or not right:
        raise EmptyWalk("conditioning removed an entire side")
    parts0 = [] if u0 is None else [u0]
    edges = []
    for li in left:
        v = left_all[li]
        for rj in right:
            w = right_all[rj]
            target = v.dim + w.dim + dim0
            if p.flavor == "affine":
                target += 1 + (0 if u0 is None else 1)
            if p.joint_dim([v, w] + parts0) == target:
                edges.append((li, rj))
    return _uniform_operator(edges)


# -- test distributions and the subspace instance -----------------------------------


def _sts_from_levels(p: GrassmannPoset, d: int, l: int):
    """Uniform t, then independent uniform tops above it: the pair tables, the
    (S x T) joint and both levels."""
    tops = p.level(d)
    mids = p.level(l)
    mid_idx = {t: i for i, t in enumerate(mids)}
    pairs = np.array([(si, mid_idx[t]) for si, s in enumerate(tops)
                      for t in p.contained_level(s, l)], dtype=np.int64)
    n_up = np.bincount(pairs[:, 1], minlength=len(mids))
    if not n_up.all():
        raise EmptyWalk(f"level-{l} element {int(np.argmin(n_up))} extends to no top")
    st = sp.csr_matrix((1.0 / (len(mids) * n_up[pairs[:, 1]]), (pairs[:, 0], pairs[:, 1])),
                       shape=(len(tops), len(mids)))
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
    from .agreement import AgreementTest
    if not 0 <= l < d <= p.d:
        raise LevelOutOfRange(f"need 0 <= l < d <= {p.d}")
    sts, _, tops, mids = _sts_from_levels(p, d, l)
    points = p.level(0)
    pt_idx = {v: i for i, v in enumerate(points)}
    supports = [tuple(sorted(pt_idx[v] for v in p.contained_level(s, 0)))
                for s in tops]
    t_supports = [tuple(sorted(pt_idx[v] for v in p.contained_level(t, 0)))
                  for t in mids]
    return AgreementTest(list(range(len(tops))), supports, sts, t_supports,
                         meta={"kind": f"{p.flavor}_grassmann", "d": d, "l": l})


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
    amp_idx = {a: i for i, a in enumerate(amps)}
    pt_idx = {v: i for i, v in enumerate(points)}

    tav = []
    for ti, t in enumerate(mids):
        t_pts = {pt_idx[v] for v in p.contained_level(t, 0)}
        for a in p.contained_level(t, l - 1):
            a_pts = {pt_idx[v] for v in p.contained_level(a, 0)}
            # the pair (a, v) generates t exactly when v avoids a
            tav += [(ti, amp_idx[a], vp) for vp in sorted(t_pts - a_pts)]
    t_idx, a_idx, v_idx = np.array(tav, dtype=np.int64).reshape(-1, 3).T
    av = AvTable(t_idx, a_idx, v_idx, 1.0 / np.bincount(t_idx)[t_idx])

    # amplification: jointly independent (a1, a2) in s, then an independent v
    vas_v, vas_a1, vas_s, vas_a2, vas_p = [], [], [], [], []
    for si, s in enumerate(tops):
        sub_a = p.contained_level(s, l - 1)
        sub_v = p.contained_level(s, 0)
        rows = []
        for a1, a2 in itertools.permutations(sub_a, 2):
            # affine span of m generic pieces: sum of dims plus m-1
            target = a1.dim + a2.dim + (1 if p.flavor == "affine" else 0)
            if p.joint_dim([a1, a2]) != target:
                continue
            for v in sub_v:
                t_all = a1.dim + a2.dim + v.dim + (2 if p.flavor == "affine" else 0)
                if p.joint_dim([a1, a2, v]) == t_all:
                    rows.append((pt_idx[v], amp_idx[a1], amp_idx[a2]))
        w = 1.0 / (n_s * len(rows))
        for vp, i1, i2 in rows:
            vas_v.append(vp)
            vas_a1.append(i1)
            vas_s.append(si)
            vas_a2.append(i2)
            vas_p.append(w)
    vasa = VasaTable(np.array(vas_v), np.array(vas_a1), np.array(vas_s),
                     np.array(vas_a2), np.array(vas_p))

    pt_labels = list(range(len(points)))
    return StavInstance(
        provenance="grassmann",
        ground_labels=pt_labels,
        v_labels=pt_labels,
        v_ground=np.arange(len(points)),
        a_labels=list(range(len(amps))),
        t_labels=list(range(len(mids))),
        s_labels=list(range(len(tops))),
        a_supports=[tuple(sorted(pt_idx[v] for v in p.contained_level(a, 0)))
                    for a in amps],
        t_supports=[tuple(sorted(pt_idx[v] for v in p.contained_level(t, 0)))
                    for t in mids],
        s_supports=[tuple(sorted(pt_idx[v] for v in p.contained_level(s, 0)))
                    for s in tops],
        t_probs=sts.t_probs, st_joint=st, av=av, sts=sts, vasa=vasa,
        meta={"poset": p, "d": d, "l": l})
