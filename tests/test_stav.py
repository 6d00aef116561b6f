import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hdxlab.complexes import build_from_top_faces, complete_complex, \
    partite_complete_complex
from hdxlab.errors import (
    ColorSize,
    MarginalMismatch,
    ParameterRange,
    SizeCapError,
    ZeroConditioning,
)
from hdxlab.spectra import bipartite_norm, square_spectrum
from hdxlab import stav
from hdxlab.stav import (
    StructuredHdxStav,
    _blocks,
    _pair_graphs,
    _structured_a_graphs,
    _structured_vasa_v_graphs,
    _vasa_v_graphs,
    derive_graph,
    goodness_check,
    hdx_stav,
    invariant_report,
    load_stav,
    neighborhood_stav,
    partite_ij_stav,
    save_stav,
    stav_from_json_dict,
    stav_to_json_dict,
)

from conftest import pair_arrays, random_weighted_complex


@pytest.fixture(scope="module")
def hdx951():
    return hdx_stav(complete_complex(9, 5), 5, 1)


def test_hdx_layer_counts(hdx951):
    assert len(hdx951.a_labels) == 9
    assert len(hdx951.t_labels) == 36
    assert hdx951.n_s == math.comb(9, 6)


def test_hdx_invariants_exact(hdx951):
    rep = invariant_report(hdx951)
    assert rep.passed(tol=1e-12, uniform_tol=1e-12)


def test_hdx_parameter_range():
    c = complete_complex(9, 5)
    with pytest.raises(ParameterRange):
        hdx_stav(c, 5, 2)  # needs 2l+2 <= d
    with pytest.raises(ParameterRange):
        hdx_stav(c, 5, 0)


def test_partite_invariants():
    c = partite_complete_complex([2] * 9)
    x = partite_ij_stav(c, [0], [1], 8)
    rep = invariant_report(x)
    assert rep.passed(tol=1e-12, uniform_tol=1e-12)
    # every set has exactly one amplification face of each color pair
    col = np.asarray(c.coloring)
    for sup in x.s_supports[:10]:
        assert sum(1 for v in sup if col[v] == 0) == 1


def test_partite_errors():
    c = partite_complete_complex([2] * 9)
    with pytest.raises(ColorSize):
        partite_ij_stav(c, [0], [0], 8)
    with pytest.raises(ColorSize):
        partite_ij_stav(c, [0, 1], [2], 8)
    with pytest.raises(ParameterRange):
        partite_ij_stav(c, [0], [1], 5)


def test_neighborhood_invariants_and_support():
    c = complete_complex(9, 5)
    x = neighborhood_stav(c, 1, 0, "independent")
    rep = invariant_report(x)
    assert rep.passed(tol=1e-10, uniform_tol=1e-10)
    # sampled middle faces always sit inside both neighborhoods
    for ti, pt in enumerate(x.sts.t_probs):
        if pt <= 0:
            continue
        i_idx, j_idx, p = pair_arrays(x.sts, ti)
        tset = set(x.t_supports[ti])
        for si, sj, q in zip(i_idx[:5], j_idx[:5], p[:5]):
            if q > 0:
                assert tset <= set(x.s_supports[int(si)])
                assert tset <= set(x.s_supports[int(sj)])


def test_neighborhood_complement_mode():
    c = complete_complex(9, 5)
    x = neighborhood_stav(c, 1, 0, "complement")
    assert invariant_report(x).passed(tol=1e-10, uniform_tol=1e-10)
    with pytest.raises(ParameterRange):
        neighborhood_stav(c, 2, 1, "complement")  # l+2k+2 > d


def test_derive_t_lower_lambda(hdx951):
    g = derive_graph(hdx951, "t_lower", hdx951.t_labels[0])
    lam = bipartite_norm(g).lambda_bip
    assert lam == pytest.approx(1.0, abs=1e-9)  # 1/l with l = 1
    c11 = complete_complex(11, 6)
    x2 = hdx_stav(c11, 6, 2)
    g2 = derive_graph(x2, "t_lower", x2.t_labels[0])
    assert bipartite_norm(g2).lambda_bip == pytest.approx(0.5, abs=1e-9)


def test_derive_sts_av_clique(hdx951):
    a = hdx951.a_labels[0]
    v = int(hdx951.reach_joint()[0].indices[0])  # a vertex reached from a
    g = derive_graph(hdx951, "sts_av", (a, hdx951.v_labels[v]))
    rep = square_spectrum(g)
    assert abs(rep.lambda2) <= 1e-10 and abs(rep.lambda_min) <= 1e-10


def test_derive_reach_marginals(hdx951):
    g = derive_graph(hdx951, "reach")
    left = g.left_measure
    right = g.right_measure
    assert abs(left.sum() - 1) < 1e-12
    assert np.allclose(right, 1 / 9, atol=1e-12)


def test_derive_errors(hdx951):
    with pytest.raises(ZeroConditioning):
        derive_graph(hdx951, "sts_a", (99, 100))


def test_goodness_dual_route_agreement():
    c = complete_complex(12, 5)
    tab = hdx_stav(c, 5, 1, force_mode="tabular")
    struct = hdx_stav(c, 5, 1, force_mode="structured")
    assert isinstance(struct, StructuredHdxStav)
    r1 = goodness_check(tab, gamma=0.5, r=1.0)
    r2 = goodness_check(struct, gamma=0.5, r=1.0)
    for fieldname in ("a1_reach_lambda", "a2b_max_lambda", "a3a_max_lambda",
                      "a3b_max_lambda", "a4_max_av_lambda",
                      "a5_min_conditional", "a2a_min_edge_expansion"):
        assert getattr(r1, fieldname) == pytest.approx(
            getattr(r2, fieldname), abs=1e-9), fieldname


def test_goodness_monotone_in_gamma(hdx951):
    low = goodness_check(hdx951, gamma=0.2, r=1.0)
    high = goodness_check(hdx951, gamma=0.6, r=1.0)
    for key, ok in low.passes.items():
        if key in ("A2a", "A5"):
            continue  # gamma-independent checks
        if ok:
            assert high.passes[key], key


def test_goodness_a2b_method_follows_dense_limit(hdx951, monkeypatch):
    # the A2b graphs of complete(9, 5), l = 1 have more than 4 rows: with
    # the limit patched to 4 they go to Lanczos, and the report says so
    import hdxlab.walks as walks
    dense = goodness_check(hdx951, gamma=0.5)
    monkeypatch.setattr(walks, "DENSE_EIG_LIMIT", 4)
    iterative = goodness_check(hdx951, gamma=0.5)
    assert (dense.a2b_method, iterative.a2b_method) == ("dense", "iterative")
    assert iterative.a2b_max_lambda == pytest.approx(dense.a2b_max_lambda, abs=1e-10)


def test_goodness_detects_disconnected_pair_graph():
    c = build_from_top_faces(9, [((0, 1, 2, 3, 4), 0.5), ((0, 5, 6, 7, 8), 0.5)])
    x = hdx_stav(c, 4, 1)
    rep = goodness_check(x, gamma=0.9, r=1.0)
    assert rep.a2a_min_edge_expansion < 1.0 / 3.0
    assert not rep.passes["A2a"]


def test_goodness_a5_exact(hdx951):
    rep = goodness_check(hdx951, gamma=0.9)
    assert rep.a5_min_conditional == pytest.approx(5 / 6, abs=1e-12)


def test_structured_big_instance_caps():
    c = complete_complex(30, 8)
    x = hdx_stav(c, 8, 3)
    assert isinstance(x, StructuredHdxStav)
    with pytest.raises(SizeCapError):
        hdx_stav(c, 8, 3, force_mode="tabular")


def test_stav_json_roundtrip(tmp_path, hdx951):
    path = tmp_path / "x.json"
    save_stav(hdx951, str(path))
    back = load_stav(str(path))
    assert back.n_s == hdx951.n_s
    assert invariant_report(back).passed(tol=1e-7, uniform_tol=1e-6)


def test_stav_json_rejects_invalid(hdx951):
    data = stav_to_json_dict(hdx951)
    # corrupt the amplification table: break the (v, a, s) marginal match
    data["vasa"][0][4] *= 3.0
    with pytest.raises(MarginalMismatch):
        stav_from_json_dict(data)


def test_goodness_partite_instance():
    c = partite_complete_complex([2] * 9)
    x = partite_ij_stav(c, [0], [1], 8)
    rep = goodness_check(x, gamma=0.5, r=1.0)
    # reach inside sets is total for partite color pairs
    assert rep.a5_min_conditional == pytest.approx(1.0, abs=1e-12)
    assert rep.passes["A5"]
    # middle-face conditioning pins both colored pieces: independent pairs
    assert rep.a2b_max_lambda <= 1e-10


def test_goodness_dual_route_weighted_complex():
    import itertools
    rng = np.random.default_rng(8)
    tops = list(itertools.combinations(range(12), 6))
    w = rng.gamma(2.0, 1.0, size=len(tops))
    w = w / w.sum()
    c = build_from_top_faces(12, [(t, float(x)) for t, x in zip(tops, w)])
    tab = hdx_stav(c, 5, 1, force_mode="tabular")
    struct = hdx_stav(c, 5, 1, force_mode="structured")
    r1 = goodness_check(tab, gamma=0.5)
    r2 = goodness_check(struct, gamma=0.5)
    for fieldname in ("a1_reach_lambda", "a2a_min_edge_expansion",
                      "a2b_max_lambda", "a3a_max_lambda", "a3b_max_lambda"):
        assert getattr(r1, fieldname) == pytest.approx(
            getattr(r2, fieldname), abs=1e-9), fieldname
    # the structured reach conditional is a lower bound off the uniform path
    assert r2.a5_min_conditional <= r1.a5_min_conditional + 1e-12


@given(seed=st.integers(0, 2**31 - 1),
       case=st.sampled_from([(1, 6, 4), (1, 7, 4), (1, 7, 5), (2, 8, 6), (2, 9, 6)]))
def test_goodness_dual_route_random_dropped_tops(seed, case):
    # the tabular A2a brute-forces 2^m vertex sets of each pair graph, so the
    # complexes stay small; their tops are a random share of all (d+1)-sets
    l, n, d = case
    c = random_weighted_complex(seed, n, d)
    tab = goodness_check(hdx_stav(c, d, l, force_mode="tabular"), gamma=0.5)
    struct = goodness_check(hdx_stav(c, d, l, force_mode="structured"), gamma=0.5)
    for fieldname in ("a1_reach_lambda", "a2b_max_lambda", "a3a_max_lambda",
                      "a3b_max_lambda"):
        assert getattr(struct, fieldname) == pytest.approx(
            getattr(tab, fieldname), abs=1e-9), fieldname
    # the structured A2a is a Cheeger lower bound and A5 a lower bound
    assert struct.a2a_min_edge_expansion <= tab.a2a_min_edge_expansion + 1e-12
    assert struct.a5_min_conditional <= tab.a5_min_conditional + 1e-12


def test_pair_graphs_number_alike_by_table_and_by_sort():
    # 3 graphs on 6 a-ids fit a (graph, a) table of at most twice the 40
    # entries; the same entries among 50 graphs are numbered by sorting
    rng = np.random.default_rng(5)
    g = np.sort(rng.integers(0, 3, 40))
    a1, a2 = rng.integers(0, 6, 40), rng.integers(0, 6, 40)
    p = rng.random(40) * (rng.random(40) < 0.8)
    table, by_sort = _pair_graphs(3, g, a1, a2, p), _pair_graphs(50, g, a1, a2, p)
    assert np.array_equal(table.rows[0], by_sort.rows[0][:4])
    for got, want in zip((table.rows[1], *table.entries[1:]),
                         (by_sort.rows[1], *by_sort.entries[1:])):
        assert np.array_equal(got, want)


def test_vasa_v_graphs_of_a_sparse_complex_on_many_vertices():
    # 600 disjoint 4-simplices on 3000 vertices: a (v, a) table would hold 9M
    # cells for 36k amplification entries
    c = build_from_top_faces(3000, [(tuple(range(5 * i, 5 * i + 5)), 1 / 600)
                                    for i in range(600)])
    x = hdx_stav(c, 4, 1, force_mode="tabular")
    tracemalloc.start()
    try:
        graphs = _vasa_v_graphs(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert np.array_equal(graphs.shapes[:, 0], np.full(3000, 4))


def test_blocks_bound_the_entries_of_consecutive_elements(monkeypatch):
    monkeypatch.setattr(stav, "_GATHER_ENTRIES", 6)
    assert list(_blocks(np.array([3, 5, 0, 2, 10, 1]))) == [(0, 1), (1, 3), (3, 4), (4, 5),
                                                            (5, 6)]
    assert list(_blocks(np.zeros(0, dtype=np.int64))) == []


def test_structured_goodness_gathered_in_blocks(monkeypatch):
    # small blocks give the same report, bit for bit
    c = random_weighted_complex(11, 10, 6)
    fields = ("a2a_min_edge_expansion", "a3a_max_lambda", "a3b_max_lambda")
    want = goodness_check(hdx_stav(c, 6, 2, force_mode="structured"), 0.5)
    monkeypatch.setattr(stav, "_GATHER_ENTRIES", 300)
    lev_t, lev_a = c.level(2), c.level(1)
    reach = stav._reach(stav._drop_one(lev_t, lev_a), lev_t.measure,
                        (lev_a.size, c.n_vertices))
    assert len(list(_structured_a_graphs(c, 6, 2, reach, lev_a.size))) > 1
    assert len(list(_structured_vasa_v_graphs(c, 2))) > 1
    got = goodness_check(hdx_stav(c, 6, 2, force_mode="structured"), 0.5)
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]


def test_goodness_neighborhood_instances():
    c = complete_complex(9, 5)
    for mode in ("independent", "complement"):
        x = neighborhood_stav(c, 1, 0, mode)
        rep = goodness_check(x, gamma=0.6, r=1.0)
        assert rep.overall_pass, (mode, rep.passes)
        if mode == "independent":
            assert rep.a2b_max_lambda <= 1e-10
        else:
            # expanding pair distribution: conditioned graphs are the
            # disjointness walks, measured at 1/6 here
            assert rep.a2b_max_lambda == pytest.approx(1 / 6, abs=1e-9)
