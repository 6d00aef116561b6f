import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from hdxlab.complexes import (
    Complex,
    build_from_top_faces,
    complete_complex,
    complex_from_json_dict,
    graphic_matroid_complex,
    load_complex,
    partite_complete_complex,
    size_cap_multiplier,
)
from hdxlab.errors import (
    DimensionTooLarge,
    DuplicateTopFace,
    EmptyPart,
    HdxError,
    IsolatedVertex,
    MixedDimension,
    NotAFace,
    TruncationExceedsRank,
    UsageError,
    ZeroWeight,
)

from conftest import random_weighted_complex, weighted_8_3


def test_single_simplex_levels():
    c = build_from_top_faces(3, [((0, 1, 2), 1.0)])
    assert c.d == 2
    assert c.level(0).size == 3
    assert c.level(1).size == 3
    assert c.measure_of((0,)) == pytest.approx(1 / 3)


def test_tetrahedron_vertex_measure():
    tops = [(f, 0.25) for f in itertools.combinations(range(4), 3)]
    c = build_from_top_faces(4, tops)
    for v in range(4):
        assert c.measure_of((v,)) == pytest.approx(0.25, abs=1e-14)


def test_level_measures_sum_to_one():
    c = build_from_top_faces(5, [((0, 1, 2), 0.5), ((1, 2, 3), 0.25),
                                 ((2, 3, 4), 0.25)])
    for k in range(c.d + 1):
        assert abs(c.level(k).measure.sum() - 1.0) < 1e-12


def test_level_measures_match_monte_carlo_chain():
    # oracle: sample the chain process directly and compare per level
    tops = [((0, 1, 2), 0.5), ((1, 2, 3), 0.25), ((2, 3, 4), 0.25)]
    c = build_from_top_faces(5, tops)
    rng = np.random.default_rng(12345)
    n = 1_000_000
    top_idx = rng.choice(3, size=n, p=[0.5, 0.25, 0.25])
    rows = np.array([t for t, _ in tops])[top_idx]
    # uniform chain: pick the level-1 face by dropping one position, level-0
    drop = rng.integers(0, 3, size=n)
    keep = np.array([[j for j in range(3) if j != d] for d in range(3)])
    edges = np.take_along_axis(rows, keep[drop], axis=1)
    pick = rng.integers(0, 2, size=n)
    verts = np.take_along_axis(edges, pick[:, None], axis=1).ravel()
    lev0 = c.level(0)
    for i in range(lev0.size):
        v = int(lev0.faces[i, 0])
        freq = np.mean(verts == v)
        p = lev0.measure[i]
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < 3 * sigma + 1e-9
    lev1 = c.level(1)
    edge_keys = edges[:, 0] * 5 + edges[:, 1]
    for i in range(lev1.size):
        e = lev1.faces[i]
        freq = np.mean(edge_keys == e[0] * 5 + e[1])
        p = lev1.measure[i]
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < 3 * sigma + 1e-9


def test_chain_consistency_downward():
    c = build_from_top_faces(6, [((0, 1, 2, 3), 0.3), ((1, 2, 3, 4), 0.2),
                                 ((2, 3, 4, 5), 0.5)])
    for k in range(c.d):
        upper = c.level(k + 1)
        acc = {}
        for row, w in zip(upper.faces, upper.measure):
            for drop in range(k + 2):
                sub = tuple(int(x) for j, x in enumerate(row) if j != drop)
                acc[sub] = acc.get(sub, 0.0) + w / (k + 2)
        lev = c.level(k)
        for face, w in zip(lev.iter_faces(), lev.measure):
            assert acc[face] == pytest.approx(float(w), abs=1e-13)


def test_complete_complex_counts():
    assert complete_complex(4, 2).n_top_faces == 4
    c = complete_complex(9, 5)
    assert c.level_size(1) == 36
    assert c.measure_of((3, 7)) == pytest.approx(1 / 36)
    with pytest.raises(DimensionTooLarge):
        complete_complex(3, 3)


def test_partite_complete():
    c = partite_complete_complex([2, 2])
    assert c.n_top_faces == 4
    assert c.d == 1
    c3 = partite_complete_complex([2, 2, 2])
    assert c3.n_top_faces == 8
    assert c3.color_set((0, 4)) == frozenset({0, 2})
    with pytest.raises(EmptyPart):
        partite_complete_complex([2, 0, 2])


def partite_complete_loop(sizes) -> Complex:
    """The complex of color transversals as ``partite_complete_complex``
    built it, by an ``itertools.product`` loop over the parts."""
    offsets = np.cumsum([0] + list(sizes))
    coloring = []
    for i, s in enumerate(sizes):
        coloring += [i] * s
    parts = [range(offsets[i], offsets[i + 1]) for i in range(len(sizes))]
    rows = np.array(list(itertools.product(*parts)), dtype=np.int32)
    weights = np.full(len(rows), 1.0 / len(rows))
    return Complex(int(offsets[-1]), len(sizes) - 1, rows, weights, coloring=coloring)


@pytest.mark.parametrize("sizes", [[1], [1, 1], [2, 2], [3, 1, 2], [1, 4, 1],
                                   [2, 3, 2, 1], [4, 3, 5]])
def test_partite_complete_matches_product_loop(sizes):
    got, want = partite_complete_complex(sizes), partite_complete_loop(sizes)
    assert got._tops.dtype == want._tops.dtype and np.array_equal(got._tops, want._tops)
    assert np.array_equal(got._weights, want._weights)
    assert (got.n_vertices, got.d, got.coloring) == (want.n_vertices, want.d, want.coloring)


def test_partite_transversal_validation():
    with pytest.raises(HdxError):
        Complex(4, 1, np.array([[0, 1]]), np.array([1.0]), coloring=[0, 0, 1, 1])


def test_graphic_matroid_k4_spanning_trees():
    edges = list(itertools.combinations(range(4), 2))
    c = graphic_matroid_complex(edges, 2)
    assert c.n_top_faces == 16  # Cayley: 4^(4-2)
    tri = graphic_matroid_complex([(0, 1), (1, 2), (0, 2)], 1)
    assert tri.n_top_faces == 3
    single = graphic_matroid_complex([(0, 1)], 0)
    assert single.n_top_faces == 1 and single.d == 0
    with pytest.raises(TruncationExceedsRank):
        graphic_matroid_complex([(0, 1), (1, 2)], 2)


def test_link_of_vertex_in_complete():
    c = complete_complex(7, 3)
    lk = c.link((2,))
    assert lk.n_vertices == 6 and lk.d == 2
    assert lk.uniform_complete
    assert 2 not in lk.vertex_labels


def test_link_weights_and_composition():
    c = build_from_top_faces(6, [((0, 1, 2, 3), 0.3), ((1, 2, 3, 4), 0.2),
                                 ((2, 3, 4, 5), 0.5)])
    lk = c.link((2,))
    _, w = lk.top_arrays()
    assert abs(w.sum() - 1.0) < 1e-12
    # link of a link composes with the union face
    lk2 = c.link((2, 3))
    one = c.link((2,))
    # relabel: vertex 3 inside the first link
    pos3 = one.vertex_labels.index(3)
    nested = one.link((pos3,))
    outer_labels = sorted(one.vertex_labels[v] for v in nested.vertex_labels)
    assert outer_labels == sorted(lk2.vertex_labels)
    t1, w1 = nested.top_arrays()
    t2, w2 = lk2.top_arrays()
    m1 = {tuple(sorted(one.vertex_labels[nested.vertex_labels[v]] for v in row)): p
          for row, p in zip(t1, w1)}
    m2 = {tuple(sorted(lk2.vertex_labels[v] for v in row)): p
          for row, p in zip(t2, w2)}
    assert set(m1) == set(m2)
    for key in m1:
        assert m1[key] == pytest.approx(m2[key], abs=1e-12)


def test_link_errors():
    c = complete_complex(5, 2)
    with pytest.raises(NotAFace):
        c.link((0, 1, 2))  # top face: empty link
    with pytest.raises(NotAFace):
        build_from_top_faces(4, [((0, 1, 2), 0.5), ((1, 2, 3), 0.5)]).link((0, 3))


def test_skeleton():
    c = complete_complex(6, 4)
    assert c.skeleton(4) is c
    sk = c.skeleton(1)
    assert sk.d == 1 and sk.level_size(1) == 15
    assert sk.measure_of((0, 5)) == pytest.approx(1 / 15)
    w = build_from_top_faces(5, [((0, 1, 2), 0.5), ((1, 2, 3), 0.25),
                                 ((2, 3, 4), 0.25)])
    sk1 = w.skeleton(1)
    for k in range(2):
        lev_orig = w.level(k)
        lev_new = sk1.level(k)
        for face, p in zip(lev_orig.iter_faces(), lev_orig.measure):
            assert sk1.measure_of(face) == pytest.approx(float(p), abs=1e-12)
        del lev_new


# a row with an id outside [0, n) can key like a present row: 0*8 + 10 is
# the key of (1, 2), and -1*8 + 9 that of (0, 1)
def test_is_face_rejects_ids_past_n():
    c = weighted_8_3()
    assert c.is_face((1, 2))
    assert not c.is_face((0, 10))
    assert (c.level(1).index_rows(np.array([[0, 10], [1, 2]]), strict=False)
            == [-1, c.level(1).index_of((1, 2))]).all()


def test_measure_of_rejects_ids_past_n():
    c = weighted_8_3()
    with pytest.raises(NotAFace):
        c.measure_of((0, 10))
    assert c.level(1).measure_of_rows(np.array([[0, 10]])).tolist() == [0.0]


def test_negative_ids_are_not_faces():
    c = weighted_8_3()
    assert c.is_face((0, 1))
    assert not c.is_face((-1, 9))
    with pytest.raises(NotAFace):
        c.measure_of((-1, 9))


def test_complete_complex_rejects_negative_ids():
    c = complete_complex(8, 2)
    assert c.is_face((0, 3))
    assert not c.is_face((-1, 3))
    with pytest.raises(NotAFace):
        c.measure_of((-1, 3))


def test_complete_containment_mass_of_non_faces_is_zero():
    # the closed form read 0.2, the mass of (0, 1), for each of the first four
    c = complete_complex(6, 2)
    rows = np.array([(0, 9), (-1, 3), (3, 1), (2, 2), (0, 1)])
    assert c.containment_mass_rows(rows).tolist() == [0.0, 0.0, 0.0, 0.0, 0.2]
    general = build_from_top_faces(
        6, [(t, 1 / 20) for t in itertools.combinations(range(6), 3)])
    assert not general.uniform_complete
    rng = np.random.default_rng(0)
    for j in range(4):
        rows = rng.integers(-1, 8, size=(200, j))
        rows[::2] = np.sort(rows[::2], axis=1)
        got = c.containment_mass_rows(rows)
        np.testing.assert_allclose(got, general.containment_mass_rows(rows), rtol=1e-15, atol=0)
        assert (got == 0).any() and (got > 0).any() or j == 0
    assert c.containment_mass_rows(np.zeros((3, 4), dtype=int)).tolist() == [0.0] * 3


def test_construction_errors():
    with pytest.raises(MixedDimension):
        build_from_top_faces(4, [((0, 1), 0.5), ((0, 1, 2), 0.5)])
    with pytest.raises(ZeroWeight):
        build_from_top_faces(3, [((0, 1, 2), 0.0)])
    with pytest.raises(DuplicateTopFace):
        build_from_top_faces(3, [((0, 1, 2), 0.5), ((0, 1, 2), 0.5)])
    with pytest.raises(IsolatedVertex):
        build_from_top_faces(4, [((0, 1, 2), 1.0)])
    with pytest.raises(NotAFace):
        build_from_top_faces(3, [((2, 1, 0), 1.0)])


def test_renormalization_warning():
    with pytest.warns(UserWarning):
        build_from_top_faces(3, [((0, 1, 2), 0.5)])


def test_json_roundtrip(tmp_path):
    c = build_from_top_faces(5, [((0, 1, 2), 0.5), ((1, 2, 3), 0.25),
                                 ((2, 3, 4), 0.25)])
    path = tmp_path / "c.json"
    c.save(str(path))
    c2 = load_complex(str(path))
    assert c2.n_vertices == c.n_vertices and c2.d == c.d
    t1, w1 = c.top_arrays()
    t2, w2 = c2.top_arrays()
    assert np.array_equal(t1, t2)
    assert np.allclose(w1, w2)


def test_json_rejects_malformed():
    with pytest.raises(HdxError):
        complex_from_json_dict({"n_vertices": 3})
    with pytest.raises(MixedDimension):
        complex_from_json_dict({"n_vertices": 3, "d": 2, "coloring": None,
                                "top_faces": [{"verts": [0, 1], "weight": 1.0}]})


def test_size_cap_multiplier(monkeypatch):
    monkeypatch.delenv("HDX_SIZE_CAP", raising=False)
    assert size_cap_multiplier() == 1.0
    monkeypatch.setenv("HDX_SIZE_CAP", "4")
    assert size_cap_multiplier() == 4.0
    monkeypatch.setenv("HDX_SIZE_CAP", "0.5")
    assert size_cap_multiplier() == 1.0
    for bad in ("abc", "1e", "nan", "inf"):
        monkeypatch.setenv("HDX_SIZE_CAP", bad)
        with pytest.raises(UsageError):
            size_cap_multiplier()


def _json_copy(c: Complex) -> Complex:
    return complex_from_json_dict(json.loads(json.dumps(c.to_json_dict())))


def assert_same_levels(c: Complex, c2: Complex):
    assert (c2.n_vertices, c2.d, c2.coloring) == (c.n_vertices, c.d, c.coloring)
    for k in range(c.d + 1):
        np.testing.assert_array_equal(c2.level(k).faces, c.level(k).faces)
        np.testing.assert_allclose(c2.level(k).measure, c.level(k).measure,
                                   rtol=0, atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 8), d=st.integers(1, 4))
def test_link_measures_are_conditional_level_measures(seed, n, d):
    # the link of z renormalises the tops through z, so a face f of its link
    # at level j has measure mu(z u f) / sum_f' mu(z u f') at level k+j+1
    assume(n > d)
    c = random_weighted_complex(seed, n, d)
    for k in range(d):
        for z in c.level(k).faces:
            lk = c.link(tuple(int(v) for v in z))
            for j in range(lk.d + 1):
                f = np.asarray(lk.vertex_labels)[lk.level(j).faces]
                union = c.level(k + j + 1)
                mass = union.measure[union.index_rows(
                    np.sort(np.hstack([f, np.broadcast_to(z, (len(f), k + 1))]), axis=1))]
                np.testing.assert_allclose(lk.level(j).measure, mass / mass.sum(),
                                           rtol=1e-15, atol=0)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 8), d=st.integers(1, 3))
def test_json_roundtrip_random_weighted(seed, n, d):
    assume(d + 2 <= n)  # more than one top, with unequal random weights
    c = random_weighted_complex(seed, n, d)
    c2 = _json_copy(c)
    assert not c2.uniform_complete
    assert_same_levels(c, c2)


@given(n=st.integers(2, 9), d=st.integers(0, 4))
def test_json_roundtrip_restores_uniform_complete(n, d):
    assume(d + 1 <= n)
    c = complete_complex(n, d)
    c2 = _json_copy(c)
    assert c2.uniform_complete and c2._tops is None
    assert_same_levels(c, c2)


@given(n=st.integers(3, 8), d=st.integers(0, 3), which=st.integers(0, 10**6),
       change=st.sampled_from(["weight", "drop", "coloring"]))
def test_json_roundtrip_keeps_near_complete_general(n, d, which, change):
    """A complete complex with one weight changed, one top removed (where the
    rest still covers every vertex) or a coloring stays on the general path."""
    if change == "coloring":  # only the single simplex is a colored complete complex
        n = d + 1
    assume(d + 2 <= n or change == "coloring")
    data = complete_complex(n, d).to_json_dict()
    i = which % len(data["top_faces"])
    if change == "weight":
        data["top_faces"][i]["weight"] *= 1.5
    elif change == "drop":
        assume(d >= 1)
        del data["top_faces"][i]
    else:
        data["coloring"] = list(range(n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the changed weights are renormalised
        c = complex_from_json_dict(data)
        c2 = _json_copy(c)
    assert not c.uniform_complete and not c2.uniform_complete
    assert_same_levels(c, c2)
    tops, weights = c.top_arrays()
    assert len(tops) == len(data["top_faces"])
