"""Per-pattern loops kept as oracles for the sub-face gathers.

Every walk, link graph and level below is built by splitting the vertex
positions of a face by fixed patterns and ranking the parts at a level.
Before ``LevelIndex.sub_faces`` ranked all patterns in one call, each
constructor looped over its patterns with one ``index_rows`` call each; those
loops are kept here.  The tests require equal arrays (``np.array_equal``, no
tolerance): the gathers add the same masses in the same order.  They run on
random weighted and partite complexes under the ``hdxlab`` hypothesis
profile, and on fixed degenerate patterns: empty subsets, containment down to
the empty face, fixed-union walks with j = l + 1 and zero-width face rows.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from hdxlab.complexes import (
    Complex,
    _encode_rows,
    _lookup_rows,
    _make_level,
    complete_complex,
    position_subsets,
)
from hdxlab.errors import NotAFace
from hdxlab.spectra import (
    DENSE_EIG_LIMIT,
    _batched_link_spectra,
    _runs,
    _scatter,
    _stacked_spectra,
    square_lambda,
)
from hdxlab.stav import _structured_vasa_v_lambda
from hdxlab.walks import (
    _containment_joint,
    _from_joint,
    complement_walk,
    containment_operator,
    down_operator,
    fixed_union_walk,
    neighborhood_system,
    nonlazy_upper_walk,
    underlying_graph,
    up_operator,
)

from conftest import random_partite_complex, random_weighted_complex


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
                       [j.row], [j.col], [j.data])


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
    return _from_joint(src.faces, src.measure, tgt.faces, tgt.measure, rows, cols, vals)


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
    return _from_joint(lev.faces, lev.measure, lev.faces, lev.measure, rows, cols, vals)


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
    face = np.concatenate([edge_s, edge_s])
    order = np.argsort(face, kind="stable")
    entries = (np.concatenate([[0], np.cumsum(np.bincount(face, minlength=lev.size))]),
               np.concatenate([edge_u, edge_v])[order],
               np.concatenate([edge_v, edge_u])[order], np.tile(edge_w, 2)[order])

    def fill(ids, shape):
        if max(shape) <= DENSE_EIG_LIMIT:
            return _scatter(entries, ids, shape)
        idx, _ = _runs(entries[0], ids)
        return sp.csr_matrix((entries[3][idx], (entries[1][idx], entries[2][idx])),
                             shape=shape)

    return tuple(_stacked_spectra(np.column_stack([sizes, sizes]), fill))


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
        for v in range(c.n_vertices):
            assert (_structured_vasa_v_lambda(c, c.d, l, v)
                    == structured_vasa_v_lambda_loop(c, l, v)), (l, v)


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
