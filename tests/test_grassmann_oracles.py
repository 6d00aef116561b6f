"""Loop-based reference versions of the Grassmann array code.

Each oracle is the per-subspace loop the array version replaced: a row-by-row
RREF over GF(q) and the rank and offset reduction read from it, the
enumeration of a level one echelon basis (and one coset) at a time, the
subspaces of one parent through ``make_subspace``, the joint dimension of a
list of subspaces, the edge loops of both walks, and the (a, v) and
amplification loops of ``grassmann_stav``.  The tests require equal ranks,
canonical forms, levels in the same order, equal containment indices and the
same walk edges and table rows in the same order.  No ``grassmann_stav``
instance is small (3l+2 < d forces d >= 6), so its two table builders are
compared through ``_av_rows`` and ``_amplification_rows`` on small posets.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hdxlab import grassmann
from hdxlab.grassmann import (
    GF,
    GrassmannPoset,
    Subspace,
    _amplification_rows,
    _av_rows,
    _batched_rref,
    _contained,
    conditioned_complement_walk,
    grassmann_containment_walk,
    make_subspace,
)

QS = [2, 3, 4, 5, 7, 8, 9]


# -- field elimination ---------------------------------------------------------


def rref(gf, mat):
    """Reduced row echelon form; returns only the nonzero rows."""
    m = np.array(mat, dtype=np.int64)
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
        m[r] = gf.mul(gf.inv_t[m[r, c]], m[r])
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = gf.sub(m[i], gf.mul(m[i, c], m[r]))
        r += 1
        if r == rows:
            break
    return m[:r]


def rank(gf, mat):
    if mat.size == 0:
        return 0
    return len(rref(gf, mat))


def reduce_vector(gf, vec, basis):
    """Eliminate the pivot coordinates of vec against an RREF basis."""
    v = np.array(vec, dtype=np.int64)
    for row in basis:
        nz = np.flatnonzero(row)
        if len(nz) == 0:
            continue
        piv = nz[0]
        if v[piv]:
            v = gf.sub(v, gf.mul(v[piv], row))
    return v


def make_subspace_loop(gf, flavor, vectors, offset=None):
    vectors = np.asarray(vectors, dtype=np.int64)
    n = vectors.shape[1] if vectors.ndim == 2 else len(offset)
    basis = rref(gf, vectors) if vectors.size else np.zeros((0, n), dtype=np.int64)
    off_b = None
    if flavor == "affine":
        off = np.zeros(n, dtype=np.int64) if offset is None else \
            np.asarray(offset, dtype=np.int64)
        off_b = reduce_vector(gf, off, basis).astype(np.int8).tobytes()
    return Subspace(flavor, basis.astype(np.int8).tobytes(), off_b, len(basis), n)


# -- levels, containment and joint dimension -----------------------------------


def echelon_bases(gf, n, k):
    """All RREF bases of k-dimensional subspaces of F_q^n."""
    if k == 0:
        yield np.zeros((0, n), dtype=np.int64)
        return
    for pivots in itertools.combinations(range(n), k):
        free_pos = [(r, c) for r in range(k) for c in range(pivots[r] + 1, n)
                    if c not in pivots]
        base = np.zeros((k, n), dtype=np.int64)
        for r, pv in enumerate(pivots):
            base[r, pv] = 1
        for combo in itertools.product(range(gf.q), repeat=len(free_pos)):
            mat = base.copy()
            for (r, c), val in zip(free_pos, combo):
                mat[r, c] = val
            yield mat


def level_loop(p, k):
    out = []
    for basis in echelon_bases(p.gf, p.n, p.dim_of_level(k)):
        if p.flavor == "linear":
            out.append(make_subspace_loop(p.gf, "linear", basis))
            continue
        pivots = [int(np.flatnonzero(row)[0]) for row in basis]
        free_cols = [c for c in range(p.n) if c not in pivots]
        for combo in itertools.product(range(p.q), repeat=len(free_cols)):
            off = np.zeros(p.n, dtype=np.int64)
            off[free_cols] = combo
            out.append(Subspace("affine", basis.astype(np.int8).tobytes(),
                                off.astype(np.int8).tobytes(), len(basis), p.n))
    return out


def coeff_map(gf, coeff, basis):
    out = np.zeros((len(coeff), basis.shape[1]), dtype=np.int64)
    for j in range(coeff.shape[1]):
        out = gf.add(out, gf.mul(coeff[:, j][:, None], basis[j][None, :]))
    return out


def contained_level_loop(p, s, k):
    gf = p.gf
    bs = s.basis_matrix()
    subs = []
    for coeff in echelon_bases(gf, s.dim, p.dim_of_level(k)):
        vecs = coeff_map(gf, coeff, bs)
        if p.flavor == "linear":
            subs.append(make_subspace_loop(gf, "linear", vecs))
            continue
        pivots = [int(np.flatnonzero(row)[0]) for row in coeff]
        free_cols = [c for c in range(s.dim) if c not in pivots]
        for combo in itertools.product(range(gf.q), repeat=len(free_cols)):
            local = np.zeros(s.dim, dtype=np.int64)
            local[free_cols] = combo
            shift = gf.add(s.offset_vector(), coeff_map(gf, local[None, :], bs)[0])
            subs.append(make_subspace_loop(gf, "affine", vecs, shift))
    return subs


def joint_dim_loop(p, parts):
    if p.flavor == "linear":
        rows = [s.basis_matrix() for s in parts if s.dim]
        return rank(p.gf, np.concatenate(rows)) if rows else 0
    hom = []
    for s in parts:
        bm = s.basis_matrix()
        hom.append(np.concatenate([bm, np.zeros((len(bm), 1), dtype=np.int64)], axis=1))
        hom.append(np.concatenate([s.offset_vector(), [1]])[None, :])
    return rank(p.gf, np.concatenate(hom)) - 1


# -- walks and the four-layer tables -------------------------------------------


def containment_edges_loop(p, k, l):
    idx = {s: i for i, s in enumerate(level_loop(p, l))}
    return [(si, idx[t]) for si, s in enumerate(level_loop(p, k))
            for t in contained_level_loop(p, s, l)]


def conditioned_edges_loop(p, l1, l2, u0):
    left_all, right_all = level_loop(p, l1), level_loop(p, l2)
    cond = [] if u0 is None else [u0]
    left = [i for i, v in enumerate(left_all)
            if u0 is None or joint_dim_loop(p, [v, u0]) == v.dim + u0.dim
            + (p.flavor == "affine")]
    right = [i for i, w in enumerate(right_all)
             if u0 is None or joint_dim_loop(p, [w, u0]) == w.dim + u0.dim
             + (p.flavor == "affine")]
    edges = []
    for li in left:
        for rj in right:
            parts = [left_all[li], right_all[rj]] + cond
            target = sum(s.dim for s in parts) + (len(parts) - 1) * (p.flavor == "affine")
            if joint_dim_loop(p, parts) == target:
                edges.append((li, rj))
    return edges


def av_rows_loop(p, l):
    pt_idx = {v: i for i, v in enumerate(level_loop(p, 0))}
    amp_idx = {a: i for i, a in enumerate(level_loop(p, l - 1))}
    rows = []
    for ti, t in enumerate(level_loop(p, l)):
        t_pts = {pt_idx[v] for v in contained_level_loop(p, t, 0)}
        for a in contained_level_loop(p, t, l - 1):
            a_pts = {pt_idx[v] for v in contained_level_loop(p, a, 0)}
            rows += [(ti, amp_idx[a], vp) for vp in sorted(t_pts - a_pts)]
    return rows


def amplification_rows_loop(p, d, l):
    pt_idx = {v: i for i, v in enumerate(level_loop(p, 0))}
    amp_idx = {a: i for i, a in enumerate(level_loop(p, l - 1))}
    rows = []
    for si, s in enumerate(level_loop(p, d)):
        sub_a = contained_level_loop(p, s, l - 1)
        sub_v = contained_level_loop(p, s, 0)
        for a1, a2 in itertools.permutations(sub_a, 2):
            target = a1.dim + a2.dim + (1 if p.flavor == "affine" else 0)
            if joint_dim_loop(p, [a1, a2]) != target:
                continue
            for v in sub_v:
                t_all = a1.dim + a2.dim + v.dim + (2 if p.flavor == "affine" else 0)
                if joint_dim_loop(p, [a1, a2, v]) == t_all:
                    rows.append((si, pt_idx[v], amp_idx[a1], amp_idx[a2]))
    return rows


def _rows(*cols):
    return list(zip(*(c.tolist() for c in cols)))


# small posets of both flavors, with a prime and an extension field of odd size
POSETS = [(2, 4, 3, "linear"), (2, 4, 3, "affine"), (3, 3, 2, "linear"),
          (3, 3, 2, "affine"), (4, 3, 2, "linear"), (4, 2, 2, "affine")]


@pytest.fixture(params=POSETS, ids=lambda a: "q{}n{}d{}{}".format(*a))
def poset(request):
    return GrassmannPoset(*request.param)


# -- tests ---------------------------------------------------------------------


@given(q=st.sampled_from(QS), seed=st.integers(0, 2**32 - 1),
       b=st.integers(1, 12), r=st.integers(1, 6), n=st.integers(1, 7),
       sparsity=st.floats(0.0, 0.9))
def test_batched_rref_matches_row_loop(q, seed, b, r, n, sparsity):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, q, size=(b, r, n))
    m[rng.random(m.shape) < sparsity] = 0
    gf = GF(q)
    got, ranks = _batched_rref(gf, m)
    for i in range(b):
        want = rref(gf, m[i])
        assert ranks[i] == len(want) == rank(gf, m[i])
        np.testing.assert_array_equal(got[i, :len(want)], want)
        assert not got[i, len(want):].any()


@given(q=st.sampled_from(QS), seed=st.integers(0, 2**32 - 1), r=st.integers(0, 5),
       n=st.integers(1, 6), affine=st.booleans())
def test_make_subspace_matches_loop(q, seed, r, n, affine):
    rng = np.random.default_rng(seed)
    gf = GF(q)
    vectors = rng.integers(0, q, size=(r, n))
    offset = rng.integers(0, q, size=n) if affine else None
    flavor = "affine" if affine else "linear"
    assert make_subspace(gf, flavor, vectors, offset) == \
        make_subspace_loop(gf, flavor, vectors, offset)


def test_levels_match_loop(poset):
    for k in range(poset.d + 1):
        assert list(poset.level(k)) == level_loop(poset, k)


def test_containment_matches_loop(poset):
    for big in range(poset.d + 1):
        parents = poset.level(big)
        for k in range(big + 1):
            idx = {t: i for i, t in enumerate(poset.level(k))}
            want = [[idx[t] for t in contained_level_loop(poset, s, k)] for s in parents]
            np.testing.assert_array_equal(_contained(poset, parents, k),
                                          np.array(want).reshape(len(parents), -1))
            s = parents[len(parents) // 2]
            assert list(poset.contained_level(s, k)) == contained_level_loop(poset, s, k)


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 4))
@pytest.mark.parametrize("q,n,d,flavor", POSETS)
def test_joint_dim_matches_loop(q, n, d, flavor, seed, count):
    p = GrassmannPoset(q, n, d, flavor)
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(count):
        lev = p.level(int(rng.integers(0, d + 1)))
        parts.append(lev[int(rng.integers(len(lev)))])
    assert p.joint_dim(parts) == joint_dim_loop(p, parts)


@pytest.fixture
def edges(monkeypatch):
    """The (left, right) edge arrays every walk is built from, as tuples."""
    seen = []
    real = grassmann._uniform_operator

    def record(left, right):
        seen.append(_rows(left, right))
        return real(left, right)
    monkeypatch.setattr(grassmann, "_uniform_operator", record)
    return seen


def test_containment_walk_edges_match_loop(poset, edges):
    for k in range(1, poset.d + 1):
        for l in range(k):
            grassmann_containment_walk(poset, k, l)
            assert edges.pop() == containment_edges_loop(poset, k, l)


def test_conditioned_walk_edges_match_loop(poset, edges):
    lin = poset.flavor == "linear"
    cases = [(0, 0, None), (0, 0, poset.level(0)[1]), (1, 0, poset.level(0)[-1]),
             (0, 1, poset.level(0)[2])]
    if lin:
        cases.append((0, 0, make_subspace(poset.gf, "linear",
                                          np.zeros((0, poset.n), dtype=np.int64))))
    for l1, l2, u0 in cases:
        # the walk's own dimension condition
        dims = poset.dim_of_level(l1) + poset.dim_of_level(l2)
        dim0 = 0 if lin and u0 is None else -1 if u0 is None else u0.dim
        if dims + dim0 + (0 if lin else 2) > poset.n:
            continue
        conditioned_complement_walk(poset, l1, l2, u0)
        assert edges.pop() == conditioned_edges_loop(poset, l1, l2, u0)


@pytest.mark.parametrize("q,n,d,l,flavor", [
    (2, 4, 3, 1, "affine"), (2, 3, 3, 2, "affine"), (3, 3, 2, 1, "affine"),
    (4, 2, 2, 1, "affine"), (2, 4, 2, 1, "linear"), (2, 4, 3, 2, "linear"),
    (3, 3, 2, 1, "linear"), (4, 3, 2, 1, "linear")])
def test_stav_tables_match_loops(q, n, d, l, flavor):
    p = GrassmannPoset(q, n, d, flavor)
    assert _rows(*_av_rows(p, l)) == av_rows_loop(p, l)
    assert _rows(*_amplification_rows(p, d, l)) == amplification_rows_loop(p, d, l)
