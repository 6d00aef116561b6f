"""Per-pattern loops kept as oracles for the sub-face gathers.

Every walk, link graph and level below is built by splitting the vertex
positions of a face by fixed patterns and ranking the parts at a level.
Before ``LevelIndex.sub_faces`` ranked all patterns in one call, each
constructor looped over its patterns with one ``index_rows`` call each; those
loops are kept here.  The tests require equal arrays (``np.array_equal``, no
tolerance): the gathers add the same masses in the same order.  The link
spectra are solved one link at a time, from a dense joint per link, and must
equal the stacked family bit for bit.  The one exception is the structured
A3a family, gathered vertex by vertex from X(2l) and solved in blocks: each
vertex's value must match its per-pattern loop within 1e-12, since the family
sums each graph's mass in its own order.  They run on random weighted and
partite complexes under the ``hdxlab`` hypothesis profile, and on fixed
degenerate patterns: empty subsets, containment down to the empty face,
fixed-union walks with j = l + 1 and zero-width face rows.
Every diagonal scaling was a sparse product with ``sp.diags``; the products
are kept as the oracle of ``_diag_scale``, which must give the same entries
bit for bit.  ``MarkovOperator.triplets`` looped over every cell of a dense
matrix; that loop is the oracle of its rows and their order, for either
storage.
Every walk constructor built one CSR joint of all its entries, scaled it and
densified it where the shape alone admitted it; that CSR-first build is the
oracle of the one walk builder, which chooses the storage by fill first: the
stored matrices must be equal bit for bit, at the dense limit and with every
shape past it, and each stored as ``walks._stores_dense`` says.
The lower walk was stored as the formed product of the containment walk and
its reverse, and every reverse as a scaled copy of the joint's transpose;
that product and that formula are the oracles of the factored lower walk's
``matrix`` and of ``MarkovOperator.reverse``, bit for bit, and the dense
solve of the formed product is the oracle of Lanczos through the factors.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

import hdxlab.walks as walks
from hdxlab.complexes import (
    Complex,
    _encode_rows,
    _lookup_rows,
    _make_level,
    complete_complex,
    position_subsets,
)
from hdxlab.errors import EmptyWalk, NotAFace
from hdxlab.spectra import _batched_link_spectra, square_lambda, square_spectrum
from hdxlab.walks import (
    MarkovOperator,
    _containment_joint,
    _diag_scale,
    _from_joint,
    _joint,
    colored_walk,
    complement_walk,
    containment_operator,
    down_operator,
    fixed_union_walk,
    lower_walk,
    neighborhood_system,
    nonlazy_upper_walk,
    underlying_graph,
    up_operator,
)

from conftest import (random_partite_complex, random_weighted_complex,
                      structured_vasa_v_values)


# -- oracles ----------------------------------------------------------------------------


def sub_faces_loop(lev, rows, pattern):
    return np.array([lev.index_rows(rows[:, list(p)]) for p in pattern],
                    dtype=np.int64).reshape(len(pattern), len(rows))


def level_loop(c: Complex, k: int):
    upper = c.level(k + 1)
    parts = []
    for drop in range(k + 2):
        keep = [j for j in range(k + 2) if j != drop]
        parts.append(upper.faces[:, keep])
    return _make_level(np.concatenate(parts, axis=0),
                       np.tile(upper.measure / (k + 2), k + 2), c.n_vertices, k)


def containment_joint_loop(c: Complex, k: int, l: int):
    src = c.level(k)
    tgt = c.level(l)
    keeps = list(itertools.combinations(range(k + 1), l + 1))
    cols = [tgt.index_rows(src.faces[:, list(keep)]) for keep in keeps]
    return sp.coo_matrix((np.tile(src.measure / len(keeps), len(keeps)),
                          (np.tile(np.arange(src.size), len(keeps)),
                           np.concatenate(cols))),
                         shape=(src.size, tgt.size)).tocsr()


def operator_of(src, tgt, joint):
    j = joint.tocoo()
    return _from_joint(src.faces, src.measure, tgt.faces, tgt.measure,
                       _joint(j.row, j.col, j.data, j.shape))


def complement_walk_loop(c: Complex, l1: int, l2: int):
    u_level = l1 + l2 + 1
    union, src, tgt = c.level(u_level), c.level(l1), c.level(l2)
    split = 1.0 / len(list(itertools.combinations(range(u_level + 1), l1 + 1)))
    rows, cols, vals = [], [], []
    all_pos = range(u_level + 1)
    for keep in itertools.combinations(all_pos, l1 + 1):
        rest = [j for j in all_pos if j not in keep]
        rows.append(src.index_rows(union.faces[:, list(keep)]))
        cols.append(tgt.index_rows(union.faces[:, rest]))
        vals.append(union.measure * split)
    return _from_joint(src.faces, src.measure, tgt.faces, tgt.measure,
                       _joint(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                              (src.size, tgt.size)))


def fixed_union_walk_loop(c: Complex, l: int, j: int):
    union, lev = c.level(l + j), c.level(l)
    n_keep = len(list(itertools.combinations(range(l + j + 1), l + 1)))
    n_extra = len(list(itertools.combinations(range(l + 1), l + 1 - j)))
    norm = 1.0 / (n_keep * n_extra)
    rows, cols, vals = [], [], []
    all_pos = range(l + j + 1)
    for keep in itertools.combinations(all_pos, l + 1):
        rest = tuple(p for p in all_pos if p not in keep)
        t_idx = lev.index_rows(np.sort(union.faces[:, list(keep)], axis=1))
        for extra in itertools.combinations(keep, l + 1 - j):
            t2_idx = lev.index_rows(np.sort(union.faces[:, sorted(rest + extra)], axis=1))
            rows.append(t_idx)
            cols.append(t2_idx)
            vals.append(union.measure * norm)
    return _from_joint(lev.faces, lev.measure, lev.faces, lev.measure,
                       _joint(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                              (lev.size, lev.size)))


def neighborhood_system_loop(c: Complex, k: int):
    lev, upper = c.level(k), c.level(k + 1)
    balls = {lev.face(i): set() for i in range(lev.size)}
    for drop in range(k + 2):
        keep = [j for j in range(k + 2) if j != drop]
        for si, row in zip(lev.index_rows(upper.faces[:, keep]), upper.faces):
            balls[lev.face(int(si))].add(int(row[drop]))
    return {z: tuple(sorted(vs)) for z, vs in balls.items()}


def underlying_graph_loop(c: Complex):
    verts, edges = c.level(0), c.level(1)
    i_idx = verts.index_rows(edges.faces[:, [0]])
    j_idx = verts.index_rows(edges.faces[:, [1]])
    half = edges.measure / 2.0
    return sp.coo_matrix((np.concatenate([half, half]),
                          (np.concatenate([i_idx, j_idx]), np.concatenate([j_idx, i_idx]))),
                         shape=(verts.size, verts.size)).tocsr()


def batched_link_spectra_loop(c: Complex, k: int):
    lev, up1, up2 = c.level(k), c.level(k + 1), c.level(k + 2)
    base = max(c.n_vertices, lev.size)

    def split(faces, drop):
        return lev.index_rows(faces[:, [j for j in range(faces.shape[1]) if j not in drop]])

    faces_s = np.concatenate([split(up1.faces, (j,)) for j in range(k + 2)])
    verts = np.concatenate([up1.faces[:, j] for j in range(k + 2)])
    keys = np.sort(_encode_rows(np.column_stack([faces_s, verts]), base))
    sizes = np.bincount(faces_s, minlength=lev.size)
    start = np.cumsum(sizes) - sizes
    edge_s, edge_u, edge_v = [], [], []
    for a, b in itertools.combinations(range(k + 3), 2):
        s_idx = split(up2.faces, (a, b))
        edge_s.append(s_idx)
        for out, j in ((edge_u, a), (edge_v, b)):
            rows = np.column_stack([s_idx, up2.faces[:, j]])
            out.append(_lookup_rows(keys, rows, base) - start[s_idx])
    edge_s, edge_u, edge_v = (np.concatenate(x) for x in (edge_s, edge_u, edge_v))
    edge_w = np.tile(up2.measure, len(edge_s) // up2.size)
    # one dense joint and one square_lambda call per link
    out = np.zeros((2, lev.size))
    for s in range(lev.size):
        on = edge_s == s
        joint = np.zeros((sizes[s], sizes[s]))
        joint[edge_u[on], edge_v[on]] = edge_w[on]
        joint[edge_v[on], edge_u[on]] = edge_w[on]
        rep = square_lambda(joint, joint.sum(axis=1))
        out[:, s] = rep.lambda2, rep.lambda_min
    return tuple(out)


def structured_vasa_v_lambda_loop(c: Complex, l: int, v: int) -> float:
    """The assembled operator with a-faces ranked among the l-subsets of the
    other vertices, one split pattern at a time."""
    others = np.array([u for u in range(c.n_vertices) if u != v], dtype=np.int64)
    lev = c.level(2 * l)
    rows = lev.faces[(lev.faces == v).any(axis=1)]
    union_rows = rows[rows != v].reshape(len(rows), 2 * l)
    mass = c.containment_mass_rows(np.sort(np.concatenate(
        [union_rows, np.full((len(union_rows), 1), v)], axis=1), axis=1))
    n_o = len(others)
    a_keys = _encode_rows(np.array(list(itertools.combinations(range(n_o), l)),
                                   dtype=np.int64), n_o)
    pos_of = np.zeros(c.n_vertices, dtype=np.int64)
    pos_of[others] = np.arange(n_o)
    rows_i, cols_j, vals = [], [], []
    for keep in itertools.combinations(range(2 * l), l):
        rest = tuple(i for i in range(2 * l) if i not in keep)
        rows_i.append(_lookup_rows(a_keys, np.sort(pos_of[union_rows[:, keep]], axis=1), n_o))
        cols_j.append(_lookup_rows(a_keys, np.sort(pos_of[union_rows[:, rest]], axis=1), n_o))
        vals.append(mass)
    j = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows_i), np.concatenate(cols_j))),
                      shape=(len(a_keys), len(a_keys))).tocsr()
    j.sum_duplicates()
    keep_idx = np.flatnonzero(np.asarray(j.sum(axis=1)).ravel() > 0)
    j = j[keep_idx][:, keep_idx]
    j = j / j.sum()
    return square_lambda(j, np.asarray(j.sum(axis=1)).ravel()).two_sided


# -- comparisons ------------------------------------------------------------------------


def _dense(m):
    return m.toarray() if sp.issparse(m) else np.asarray(m)


def assert_same_operator(got, want, name):
    assert np.array_equal(got.source_faces, want.source_faces), name
    assert np.array_equal(got.target_faces, want.target_faces), name
    assert sp.issparse(got.matrix) == sp.issparse(want.matrix), name
    assert np.array_equal(_dense(got.matrix), _dense(want.matrix)), name


def assert_walks_match_loops(c: Complex):
    d = c.d
    for k in range(-1, d):
        lev, faces = c.level(k), c.level(k + 1).faces
        pattern = position_subsets(k + 2, k + 1)[0]
        assert np.array_equal(lev.sub_faces(faces, pattern),
                              sub_faces_loop(lev, faces, pattern)), k
        if k >= 0:
            want = level_loop(c, k)
            assert np.array_equal(lev.faces, want.faces), k
            assert np.array_equal(lev.measure, want.measure), k
    for k in range(d):
        lo, hi, joint = c.level(k), c.level(k + 1), containment_joint_loop(c, k + 1, k)
        assert_same_operator(up_operator(c, k), operator_of(lo, hi, joint.T), f"up{k}")
        assert_same_operator(down_operator(c, k), operator_of(hi, lo, joint), f"down{k}")
        assert_same_operator(nonlazy_upper_walk(c, k), fixed_union_walk_loop(c, k, 1),
                             f"nonlazy{k}")
        assert neighborhood_system(c, k) == neighborhood_system_loop(c, k), k
    for l, k in itertools.combinations(range(-1, d + 1), 2):
        got, want = _containment_joint(c, k, l), containment_joint_loop(c, k, l)
        assert np.array_equal(got.toarray(), want.toarray()), (k, l)
        if l >= 0:
            assert_same_operator(containment_operator(c, k, l),
                                 operator_of(c.level(k), c.level(l), want),
                                 f"containment{k},{l}")
    for l1, l2 in itertools.product(range(d), repeat=2):
        if l1 + l2 + 1 <= d:
            assert_same_operator(complement_walk(c, l1, l2), complement_walk_loop(c, l1, l2),
                                 f"complement{l1},{l2}")
    for l in range(d + 1):
        for j in range(1, l + 2):
            if l + j <= d:
                assert_same_operator(fixed_union_walk(c, l, j),
                                     fixed_union_walk_loop(c, l, j), f"fixed_union{l},{j}")
    assert np.array_equal(_dense(underlying_graph(c).joint),
                          _dense(underlying_graph_loop(c)))
    for k in range(d - 1):
        got, want = _batched_link_spectra(c, k), batched_link_spectra_loop(c, k)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), k


def assert_vasa_matches_loop(c: Complex):
    for l in range(1, c.d // 2 + 1):
        # the family sums each graph's mass in another order than the loop
        got = structured_vasa_v_values(c, l)
        for v in range(c.n_vertices):
            assert got[v] == pytest.approx(structured_vasa_v_lambda_loop(c, l, v),
                                           abs=1e-12), (l, v)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 8), d=st.integers(1, 3))
def test_random_weighted_walks_match_loops(seed, n, d):
    c = random_weighted_complex(seed, n, d)
    assert_walks_match_loops(c)
    assert_vasa_matches_loop(c)


@given(seed=st.integers(0, 2**31 - 1),
       sizes=st.lists(st.integers(1, 3), min_size=3, max_size=4))
def test_random_partite_walks_match_loops(seed, sizes):
    c = random_partite_complex(seed, sizes)
    assert_walks_match_loops(c)
    assert_vasa_matches_loop(c)


@pytest.mark.parametrize("n,d", [(7, 3), (9, 5)])
def test_weighted_vasa_matches_loop(n, d):
    # levels 2l for l = 1, 2 on larger complexes than the property tests reach
    assert_vasa_matches_loop(random_weighted_complex(n + d, n, d))


# -- degenerate patterns -------------------------------------------------------------------


@pytest.mark.parametrize("m", range(7))
def test_position_subsets_match_combinations(m):
    for k in range(m + 1):
        subsets, rest = position_subsets(m, k)
        want = list(itertools.combinations(range(m), k))
        assert subsets.shape == (len(want), k) and rest.shape == (len(want), m - k)
        assert [tuple(row) for row in subsets] == want
        assert [tuple(row) for row in rest] == [
            tuple(j for j in range(m) if j not in w) for w in want]
    # several blocks: nested combinations over what the blocks before left
    for a, b in itertools.product(range(m + 1), repeat=2):
        if a + b <= m:
            want = [(x, y, tuple(j for j in range(m) if j not in x + y))
                    for x in itertools.combinations(range(m), a)
                    for y in itertools.combinations([j for j in range(m) if j not in x], b)]
            got = position_subsets(m, a, b)
            assert [g.shape for g in got] == [(len(want), a), (len(want), b),
                                              (len(want), m - a - b)]
            assert list(zip(*([tuple(r) for r in g] for g in got))) == want


def test_position_subsets_are_cached_and_read_only():
    # one build per argument tuple: a second call returns the same arrays,
    # which no caller can change
    got = position_subsets(9, 3, 3)
    assert position_subsets(9, 3, 3) is got
    want = [(x, y, tuple(j for j in range(9) if j not in x + y))
            for x in itertools.combinations(range(9), 3)
            for y in itertools.combinations([j for j in range(9) if j not in x], 3)]
    assert list(zip(*([tuple(r) for r in g] for g in got))) == want
    for arr in (*got, *position_subsets(5, 2)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("complete", [False, True])
def test_sub_faces_in_blocks_are_int32_and_equal_to_one_gather(monkeypatch, complete):
    # blocks of a few patterns, of one pattern, and of every pattern rank the
    # same positions as the per-pattern loop, as int32
    import hdxlab.complexes as complexes
    c = complete_complex(9, 4) if complete else random_weighted_complex(8, 9, 4)
    upper, lev = c.level(4), c.level(1)
    pattern = position_subsets(5, 2)[0]
    want = np.array([lev.index_rows(upper.faces[:, list(p)]) for p in pattern])
    for entries in (1, 2 * len(upper.faces) * 3, complexes._GATHER_ENTRIES):
        monkeypatch.setattr(complexes, "_GATHER_ENTRIES", entries)
        got = lev.sub_faces(upper.faces, pattern)
        assert got.dtype == np.int32 and np.array_equal(got, want)


def test_empty_subsets_rank_the_empty_face():
    c = random_weighted_complex(3, 7, 3)
    empty = c.level(-1)
    for k in range(c.d + 1):
        faces = c.level(k).faces
        pattern, rest = position_subsets(k + 1, 0)
        assert np.array_equal(empty.sub_faces(faces, pattern), np.zeros((1, len(faces))))
        # the complement of the empty subset is the whole face
        assert np.array_equal(c.level(k).sub_faces(faces, rest), [np.arange(len(faces))])


def test_containment_down_to_empty_face():
    c = random_weighted_complex(4, 7, 3)
    for k in range(c.d + 1):
        got = _containment_joint(c, k, -1)
        assert got.shape == (c.level(k).size, 1)
        assert np.array_equal(got.toarray(), containment_joint_loop(c, k, -1).toarray())
        assert np.array_equal(got.toarray()[:, 0], c.level(k).measure)
        assert np.array_equal(containment_operator(c, k, -1).matrix,
                              np.ones((c.level(k).size, 1)))


@pytest.mark.parametrize("l", [0, 1])
def test_fixed_union_with_disjoint_halves(l):
    # j = l + 1: t and t' are disjoint and split the union between them
    for c in (random_weighted_complex(5, 8, 3), complete_complex(6, 3)):
        got = fixed_union_walk(c, l, l + 1)
        assert_same_operator(got, fixed_union_walk_loop(c, l, l + 1), f"fixed_union{l}")
        assert_same_operator(got, complement_walk(c, l, l), f"complement{l}")


def test_zero_width_rows():
    c = random_weighted_complex(6, 6, 2)
    empty, verts = c.level(-1), c.level(0)
    for n_rows in (0, 1, 4):
        rows = np.zeros((n_rows, 0), dtype=np.int32)
        pattern = position_subsets(0, 0)[0]
        assert np.array_equal(empty.sub_faces(rows, pattern), np.zeros((1, n_rows)))
    # no rows at all, under a nonempty pattern
    got = verts.sub_faces(np.zeros((0, 3), dtype=np.int32), position_subsets(3, 1)[0])
    assert got.shape == (3, 0)


def test_missing_sub_face_raises():
    c = random_weighted_complex(7, 8, 2)
    absent = next(e for e in itertools.combinations(range(8), 2) if not c.is_face(e))
    with pytest.raises(NotAFace):
        c.level(1).sub_faces(np.array([absent]), position_subsets(2, 2)[0])


# -- the CSR-first build ------------------------------------------------------------------


def csr_first_joints(c: Complex):
    """(name, walk, joint, source measure) of every walk a constructor builds
    from entries, with the joint as every constructor built it before its
    storage was chosen by fill: one canonical CSR matrix of all the entries
    from ``_joint``.  The source measure is None for the underlying graph,
    whose joint is not scaled."""
    d = c.d

    def containment(k, l):
        src, tgt = c.level(k), c.level(l)
        cols = tgt.sub_faces(src.faces, position_subsets(k + 1, l + 1)[0])
        return _joint(np.tile(np.arange(src.size), len(cols)), cols.ravel(),
                      np.tile(src.measure / len(cols), len(cols)), (src.size, tgt.size))

    for k in range(d):
        joint = containment(k + 1, k)
        yield f"up{k}", up_operator(c, k), joint.T.tocsr(), c.level(k).measure
        yield f"down{k}", down_operator(c, k), joint, c.level(k + 1).measure
    for l, k in itertools.combinations(range(d + 1), 2):
        yield f"containment{k},{l}", containment_operator(c, k, l), containment(k, l), \
            c.level(k).measure
    for l1, l2 in itertools.product(range(d), repeat=2):
        if l1 + l2 + 1 <= d:
            union, src, tgt = c.level(l1 + l2 + 1), c.level(l1), c.level(l2)
            keep, rest = position_subsets(l1 + l2 + 2, l1 + 1)
            joint = _joint(src.sub_faces(union.faces, keep).ravel(),
                           tgt.sub_faces(union.faces, rest).ravel(),
                           np.tile(union.measure * (1.0 / len(keep)), len(keep)),
                           (src.size, tgt.size))
            yield f"complement{l1},{l2}", complement_walk(c, l1, l2), joint, src.measure
    for l in range(d + 1):
        for j in range(1, l + 2):
            if l + j <= d:
                union, lev = c.level(l + j), c.level(l)
                norm = 1.0 / (math.comb(l + j + 1, l + 1) * math.comb(l + 1, j))
                keep = position_subsets(l + j + 1, l + 1)[0]
                sub = lev.sub_faces(union.faces, keep)
                member = np.eye(l + j + 1, dtype=bool)[keep].any(axis=1)
                t1, t2 = np.nonzero((member[:, None] | member[None]).all(axis=2))
                joint = _joint(sub[t1].ravel(), sub[t2].ravel(),
                               np.tile(union.measure * norm, len(t1)), (lev.size, lev.size))
                yield f"fixed_union{l},{j}", fixed_union_walk(c, l, j), joint, lev.measure
    if c.is_partite:
        colors = sorted(set(np.asarray(c.coloring).tolist()))
        for i, j in itertools.permutations(colors, 2):
            lev_i, lev_j, lev_u = (c.colored_level(frozenset(x)) for x in ({i}, {j}, {i, j}))
            in_i = np.asarray(c.coloring)[lev_u.faces] == i
            joint = _joint(lev_i.index_rows(lev_u.faces[in_i].reshape(lev_u.size, 1)),
                           lev_j.index_rows(lev_u.faces[~in_i].reshape(lev_u.size, 1)),
                           lev_u.measure, (lev_i.size, lev_j.size))
            yield f"colored{i},{j}", colored_walk(c, [i], [j]), joint, lev_i.measure
    verts, edges = c.level(0), c.level(1)
    ends = verts.sub_faces(edges.faces, position_subsets(2, 1)[0])
    joint = _joint(ends.ravel(), ends[::-1].ravel(), np.tile(edges.measure / 2.0, 2),
                   (verts.size, verts.size))
    yield "graph", underlying_graph(c), joint, None


def csr_first_matrix(joint, src_meas) -> np.ndarray:
    """The stored matrix of the CSR-first build, densified: the CSR joint
    scaled in place by 1/src_meas row by row, zero results dropped."""
    mat = joint.copy()
    if src_meas is not None:
        mat.data *= np.repeat(1.0 / src_meas, np.diff(mat.indptr))
        mat.eliminate_zeros()
    return mat.toarray()


def assert_builds_match_csr_first(c: Complex):
    """Each walk's matrix equals the CSR-first build bit for bit, at the dense
    limit and with every shape past it, and is stored as ``_stores_dense``
    says for the joint's entries; a sparse one is canonical CSR."""
    for limit in (walks.DENSE_EIG_LIMIT, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walks, "DENSE_EIG_LIMIT", limit)
            for name, walk, joint, src_meas in csr_first_joints(c):
                mat = walk.joint if src_meas is None else walk.matrix
                want = csr_first_matrix(joint, src_meas)
                assert np.array_equal(_dense(mat).view(np.int64), want.view(np.int64)), \
                    (name, limit)
                dense = walks._stores_dense(joint.shape, joint.nnz)
                assert isinstance(mat, np.ndarray) == dense, (name, limit)
                if not dense:
                    assert mat.format == "csr" and mat.has_canonical_format, (name, limit)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 8), d=st.integers(1, 3))
def test_random_weighted_walks_match_the_csr_first_build(seed, n, d):
    assert_builds_match_csr_first(random_weighted_complex(seed, n, d))


@given(seed=st.integers(0, 2**31 - 1),
       sizes=st.lists(st.integers(1, 3), min_size=3, max_size=4))
def test_random_partite_walks_match_the_csr_first_build(seed, sizes):
    assert_builds_match_csr_first(random_partite_complex(seed, sizes))


def test_large_walks_match_the_csr_first_build():
    # complete(16,3): past the dense limit, the complement walks between X(0)
    # and X(2), 81 % full, are stored dense; the containment walks and the
    # fixed-union walk on X(2), at most 25 % full, CSR
    assert_builds_match_csr_first(complete_complex(16, 3))


def test_walk_joint_adds_repeated_cells_in_entry_order():
    # one cell hit by 1e16, 1, -1e16, within one block and across three: in
    # entry order the 1 is lost (1e16 + 1 == 1e16), in another order it
    # would survive, and an assignment would keep one entry only
    big = np.array([1e16, 1.0, -1e16])
    for blocks, size in ((1, 3), (3, 1)):
        def entries(lo, hi):
            vals = big[lo * size:hi * size]
            return np.zeros(len(vals), dtype=np.int32), np.ones(len(vals), dtype=np.int32), vals
        out = walks._walk_joint((2, 2), blocks, size, entries)
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [[0.0, 0.0], [0.0, 0.0]], (blocks, size)
        with pytest.raises(EmptyWalk):
            walks._walk_joint((2, 2), 0, size, entries)


def triplets_loop(op):
    """The dense double loop ``MarkovOperator.triplets`` ran on a dense matrix:
    every positive entry, row by row."""
    mat = _dense(op.matrix)
    for i in range(op.shape[0]):
        for j in range(op.shape[1]):
            p = float(mat[i, j])
            if p > 0:
                yield (tuple(op.source_faces[i]), tuple(op.target_faces[j]), p)


def _assert_triplets_match_loop(op, name):
    want = list(triplets_loop(op))
    for mat in (_dense(op.matrix), sp.csr_matrix(op.matrix)):
        stored = MarkovOperator(op.source_faces, op.source_measure, op.target_faces,
                                op.target_measure, mat)
        assert list(stored.triplets()) == want, name


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 8), d=st.integers(1, 3))
def test_triplets_match_the_dense_loop(seed, n, d):
    c = random_weighted_complex(seed, n, d)
    for l1 in range(d):
        _assert_triplets_match_loop(complement_walk(c, l1, d - 1 - l1), f"complement{l1}")
    _assert_triplets_match_loop(down_operator(c, d - 1), "down")
    _assert_triplets_match_loop(fixed_union_walk(c, 0, 1), "fixed_union")


def test_triplets_of_a_csr_walk_match_the_dense_loop():
    # complete(30,2) X(1) -> X(0): 435 x 30 past the dense limit, 2 entries a
    # row, so stored CSR
    op = down_operator(complete_complex(30, 2), 0)
    assert sp.issparse(op.matrix)
    _assert_triplets_match_loop(op, "down_30_2")


def diag_scale_by_products(mat, rows=None, cols=None):
    out = mat if rows is None else sp.diags(rows) @ mat
    out = out if cols is None else out @ sp.diags(cols)
    out = sp.csr_matrix(out)
    out.sort_indices()
    return out


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 9), n=st.integers(0, 9),
       form=st.sampled_from(["csr", "csc", "coo"]),
       sides=st.sampled_from(["rows", "cols", "both"]))
def test_diag_scale_matches_the_products(seed, m, n, form, sides):
    rng = np.random.default_rng(seed)
    mat = sp.csr_matrix(rng.random((m, n)) * (rng.random((m, n)) < 0.4))
    mat.data[rng.random(mat.nnz) < 0.2] = 0.0  # explicit zeros
    if form == "csc":
        mat = sp.csr_matrix(mat.T).T
    elif form == "coo":  # with every third entry stored twice
        coo, dup = mat.tocoo(), slice(None, None, 3)
        mat = sp.coo_matrix((np.concatenate([coo.data, coo.data[dup]]),
                             (np.concatenate([coo.row, coo.row[dup]]),
                              np.concatenate([coo.col, coo.col[dup]]))), shape=(m, n))
    rows = None if sides == "cols" else rng.random(m) * (rng.random(m) < 0.8)
    cols = None if sides == "rows" else 1.0 / (0.1 + rng.random(n))
    got = _diag_scale(mat, rows, cols)
    want = diag_scale_by_products(mat, rows, cols)
    assert got.format == "csr" and got.shape == (m, n) and got.dtype == np.float64
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))
    assert got.data is not getattr(mat, "data", None)


# -- the lower walk held as its two factors -----------------------------------------------


def reverse_by_joint(op) -> MarkovOperator:
    """The time reversal as it was formed: the joint, then a scaled copy of
    its transpose."""
    return MarkovOperator(op.target_faces, op.target_measure, op.source_faces,
                          op.source_measure, _diag_scale(op.joint().T, 1.0 / op.target_measure))


def lower_matrix_by_product(c: Complex, k: int, l: int):
    """The lower walk's matrix as it was stored: the containment walk times
    its reverse (``reverse_by_joint``), the sparse product's repeated cells
    summed, densified where the storage rule admits it."""
    down = containment_operator(c, k, l)
    mat = down.matrix @ reverse_by_joint(down).matrix
    if sp.issparse(mat):
        mat.sum_duplicates()
    return walks._maybe_dense(mat)


def assert_same_bits(got, want, name):
    """The same storage, dense layout, sparse structure and bits."""
    assert sp.issparse(got) == sp.issparse(want), name
    if sp.issparse(want):
        assert got.format == want.format == "csr", name
        assert np.array_equal(got.indptr, want.indptr), name
        assert np.array_equal(got.indices, want.indices), name
        got, want = got.data, want.data
    else:
        # the layout decides the bits of a dense product with the matrix
        assert got.flags.f_contiguous == want.flags.f_contiguous, name
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


def assert_factors_match_products(c: Complex):
    """Every reverse and every formed lower walk equals its oracle bit for
    bit, at the dense limit and with every shape past it."""
    for limit in (walks.DENSE_EIG_LIMIT, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walks, "DENSE_EIG_LIMIT", limit)
            for name, walk, _, src_meas in csr_first_joints(c):
                if src_meas is not None:
                    assert_same_bits(walk.reverse().matrix, reverse_by_joint(walk).matrix,
                                     (name, limit))
            for l, k in itertools.combinations(range(-1, c.d + 1), 2):
                down = containment_operator(c, k, l)
                assert_same_bits(down.reverse().matrix, reverse_by_joint(down).matrix,
                                 (k, l, limit))
                assert_same_bits(lower_walk(c, k, l).matrix, lower_matrix_by_product(c, k, l),
                                 (k, l, limit))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 8), d=st.integers(1, 3))
def test_random_weighted_lower_walks_form_the_product(seed, n, d):
    assert_factors_match_products(random_weighted_complex(seed, n, d))


@given(seed=st.integers(0, 2**31 - 1),
       sizes=st.lists(st.integers(1, 3), min_size=3, max_size=4))
def test_random_partite_lower_walks_form_the_product(seed, sizes):
    assert_factors_match_products(random_partite_complex(seed, sizes))


def test_reverse_of_large_walks_matches_the_joint_formula():
    # complement_walk(complete(40,3),1,1) is 780 x 780, held dense; the
    # containment walk of complete(33,2) from X(2) to X(1) is 5456 x 528, CSR
    for walk in (complement_walk(complete_complex(40, 3), 1, 1),
                 containment_operator(complete_complex(33, 2), 2, 1)):
        assert_same_bits(walk.reverse().matrix, reverse_by_joint(walk).matrix, walk.shape)


def _never_formed(a, b):
    raise AssertionError("the lower walk's product was formed")


def assert_factored_lanczos_matches_dense(c: Complex, limit: int):
    """lambda2 and lambda_min of each lower walk from Lanczos through its
    factors, the product never formed, against the dense solve of the formed
    product; ``limit`` is the dense limit of the Lanczos side, the dense side
    solves with every shape admitted.  Gives the number of walks compared."""
    compared = 0
    for l, k in itertools.combinations(range(-1, c.d + 1), 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walks, "DENSE_EIG_LIMIT", limit)
            walk = lower_walk(c, k, l)
            if walks._solves_dense(walk.shape):
                continue
            mp.setattr(walks, "_product", _never_formed)
            got = square_spectrum(walk)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walks, "DENSE_EIG_LIMIT", max(walk.shape))
            want = square_spectrum(walk)
        assert (got.method, want.method) == ("iterative", "dense"), (k, l)
        assert got.lambda2 == pytest.approx(want.lambda2, abs=1e-10), (k, l)
        assert got.lambda_min == pytest.approx(want.lambda_min, abs=1e-10), (k, l)
        compared += 1
    return compared


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 8), d=st.integers(1, 3))
def test_random_weighted_factored_lanczos_matches_dense(seed, n, d):
    assert_factored_lanczos_matches_dense(random_weighted_complex(seed, n, d), 2)


@given(seed=st.integers(0, 2**31 - 1),
       sizes=st.lists(st.integers(1, 3), min_size=3, max_size=4))
def test_random_partite_factored_lanczos_matches_dense(seed, sizes):
    assert_factored_lanczos_matches_dense(random_partite_complex(seed, sizes), 2)


def test_factored_lanczos_past_the_dense_limit_matches_dense():
    # a weighted complex with 468 triangles: the lower walks on X(2) through
    # X(1), X(0) and the empty face are past the limit as it stands
    assert assert_factored_lanczos_matches_dense(random_weighted_complex(3, 20, 2),
                                                 walks.DENSE_EIG_LIMIT) == 3
