import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hdxlab.complexes import build_from_top_faces, complete_complex, \
    partite_complete_complex
from hdxlab.errors import (
    HypothesisViolated,
    InconsistentMarginals,
    NotApplicable,
    NotConverged,
    NotReversible,
    OrderingViolated,
    TooLarge,
)
from hdxlab.spectra import (
    almost_cut_check,
    bipartite_norm,
    edge_expansion_exact,
    link_expansion,
    mixing_check,
    partite_mixing_check,
    partition_property_check,
    sampler_check,
    square_lambda,
    square_spectrum,
    verify_colored_bound,
    verify_complement_bound,
    verify_fixed_union_bound,
    verify_trickling,
)
from hdxlab.walks import (
    BipartiteGraph,
    MarkovOperator,
    complement_walk,
    containment_operator,
    fixed_union_walk,
    lower_walk,
    underlying_graph,
)

from conftest import (
    kneser_lambda,
    random_bipartite_graph,
    random_partite_complex,
    random_weighted_complex,
    random_weighted_graph,
)
from test_stav_oracles import _weighted_complex


def test_complete_graph_spectrum():
    g = underlying_graph(complete_complex(8, 1))
    rep = square_spectrum(g)
    assert rep.lambda2 == pytest.approx(-1 / 7, abs=1e-12)
    assert rep.lambda_min == pytest.approx(-1 / 7, abs=1e-12)


def test_identity_operator_lambda2():
    lev = complete_complex(5, 1).level(0)
    op = MarkovOperator(lev.faces, lev.measure, lev.faces, lev.measure,
                        np.eye(5))
    assert square_spectrum(op).lambda2 == pytest.approx(1.0)


def test_lower_walk_psd_spectrum():
    c = complete_complex(7, 3)
    rep = square_spectrum(lower_walk(c, 2, 0))
    assert rep.lambda_min > -1e-10


def test_not_reversible_detected():
    lev = complete_complex(3, 1).level(0)
    m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    op = MarkovOperator(lev.faces, lev.measure, lev.faces, lev.measure, m)
    with pytest.raises(NotReversible):
        square_spectrum(op)


def test_complete_bipartite_norm_zero():
    j = np.full((4, 5), 1 / 20)
    g = BipartiteGraph(list(range(4)), list(range(5)), j)
    assert bipartite_norm(g).lambda_bip < 1e-12


def test_containment_norm_bound():
    c = complete_complex(20, 4)
    lam_link = max(link_expansion(c, two_sided=False).value, 0.0)
    for l in range(4):
        rep = bipartite_norm(containment_operator(c, 4, l))
        assert rep.lambda_bip <= math.sqrt((l + 1) / 5) + 10 * 4 * lam_link + 1e-9


def test_containment_theorem_single_level():
    c = complete_complex(20, 4)
    lam_link = max(link_expansion(c, two_sided=False).value, 0.0)
    for k in range(1, 4):
        rep = bipartite_norm(containment_operator(c, k + 1, k))
        assert rep.lambda_bip <= math.sqrt((k + 1) / (k + 2)) + 10 * k * lam_link + 1e-9


def test_bipartite_norm_symmetric_in_reverse():
    c = random_partite_complex(17, [4, 3, 4])
    op = complement_walk(c, 0, 1)
    a = bipartite_norm(op).lambda_bip
    b = bipartite_norm(op.reverse()).lambda_bip
    assert a == pytest.approx(b, abs=1e-10)


def test_kneser_closed_form():
    # the complement walk on level l of the complete complex is the
    # normalized disjointness walk on (l+1)-subsets
    for n, l in ((12, 1), (14, 2), (30, 1)):
        c = complete_complex(n, 2 * l + 1)
        rep = bipartite_norm(complement_walk(c, l, l))
        assert rep.lambda_bip == pytest.approx(kneser_lambda(n, l + 1), abs=1e-9)


def test_inconsistent_marginals():
    j = np.full((3, 3), 1 / 9)
    with pytest.raises(InconsistentMarginals):
        from hdxlab.spectra import bipartite_lambda
        bipartite_lambda(j, np.array([0.5, 0.25, 0.25]), j.sum(axis=0))


def test_link_expansion_complete():
    c = complete_complex(8, 3)
    rep = link_expansion(c, two_sided=True)
    assert rep.value == pytest.approx(1 / 5, abs=1e-10)  # smallest link is K_6
    assert rep.per_level[-1] == pytest.approx(1 / 7, abs=1e-10)


def test_link_expansion_complete_enumerates_no_level():
    # every link of a k-face of complete(26, 8) is complete(24 - k, 7 - k),
    # whose underlying graph K_m has lambda2 = lambda_min = -1/(m - 1)
    c = complete_complex(26, 8)
    rep = link_expansion(c, two_sided=True)
    assert c._levels == {}
    assert rep.per_level == pytest.approx({k: 1 / (24 - k) for k in range(-1, 7)},
                                          rel=0, abs=1e-12)
    assert rep.worst_face == tuple(range(7)) and rep.disconnected == []


def test_link_expansion_partite_one_sided():
    c = partite_complete_complex([4, 4])
    rep = link_expansion(c, two_sided=False)
    assert rep.value <= 1e-10


def test_link_expansion_disconnected_warns():
    c = build_from_top_faces(6, [((0, 1, 2), 0.5), ((3, 4, 5), 0.5)])
    with pytest.warns(UserWarning):
        rep = link_expansion(c, two_sided=False)
    assert rep.value == pytest.approx(1.0)
    assert rep.disconnected


def test_verify_complement_small():
    chk = verify_complement_bound(complete_complex(10, 3), 1, 1)
    assert chk.passed
    chk0 = verify_complement_bound(complete_complex(10, 3), 0, 0)
    assert chk0.passed
    # single simplex: comp walks uniform over disjoint faces
    s = build_from_top_faces(6, [(tuple(range(6)), 1.0)])
    assert verify_complement_bound(s, 1, 1).passed


def test_verify_colored_small():
    chk = verify_colored_bound(partite_complete_complex([4, 4, 4]), [0], [1])
    assert chk.passed
    # measured expansion at the boundary makes the bound inapplicable
    bad = build_from_top_faces(4, [((0, 2), 0.45), ((0, 3), 0.05),
                                   ((1, 3), 0.45), ((1, 2), 0.05)])
    bad.coloring = (0, 0, 1, 1)
    with pytest.raises(NotApplicable):
        verify_colored_bound(bad, [0], [1])


def test_verify_trickling_complete_and_adversarial():
    assert verify_trickling(partite_complete_complex([3, 3, 3])).passed
    # near-disconnected: two heavy blocks glued by a light transversal mass
    rng = np.random.default_rng(0)
    base = partite_complete_complex([4, 4, 4])
    tops, _ = base.top_arrays()
    w = np.full(len(tops), 1e-6)
    col = np.asarray(base.coloring)
    for i, row in enumerate(tops):
        local = row - np.array([0, 4, 8])
        if np.all(local < 2) or np.all(local >= 2):
            w[i] = 1.0
    from hdxlab.complexes import Complex
    y = Complex(base.n_vertices, 2, tops.copy(), w / w.sum(),
                coloring=base.coloring)
    chk = verify_trickling(y)
    assert chk.passed
    del rng, col


def test_verify_fixed_union_small():
    c = complete_complex(10, 4)
    for j in (1, 2):
        assert verify_fixed_union_bound(c, 1, j).passed
    # j = l+1 reduces to the complement walk vs the rank-one averager
    chk = verify_fixed_union_bound(c, 1, 2)
    comp = bipartite_norm(complement_walk(c, 1, 1)).lambda_bip
    assert chk.lhs == pytest.approx(comp, abs=1e-9)


def test_mixing_classical_eml():
    c = complete_complex(10, 1)
    sets = [(0, [(0,), (1,), (2,)]), (0, [(5,), (6,), (7,)])]
    rep = mixing_check(c, sets)
    g = underlying_graph(c)
    lam = square_lambda(g.joint, g.vertex_measure).two_sided
    pr = 0.3
    assert rep.deviation <= lam * math.sqrt(pr * pr * 0.7 * 0.7) + 1e-9
    # exact count: 9 cross edges of 45
    assert rep.measured == pytest.approx(9 / 45)


def test_mixing_full_levels():
    c = complete_complex(8, 3)
    sets = [(0, [(v,) for v in range(8)]),
            (1, [f for f in c.level(1).iter_faces()])]
    # full sets intersect; hypothesis must reject them
    with pytest.raises(HypothesisViolated):
        mixing_check(c, sets)
    one = [(0, [(0,)]), (1, [(1, 2)])]
    rep = mixing_check(c, one)
    # F lives at level 2: the only valid face is {0, 1, 2}
    assert rep.measured == pytest.approx(1 / math.comb(8, 3), abs=1e-12)


def test_mixing_counts_a_repeated_member_once():
    c = complete_complex(8, 3)
    once = mixing_check(c, [(0, [(3,)]), (0, [(5,)])])
    twice = mixing_check(c, [(0, [(3,), (3,)]), (0, [(5,)])])
    assert twice == once
    assert once.predicted == pytest.approx(2 / 64, abs=1e-15)
    y = partite_complete_complex([3, 3])
    once = partite_mixing_check(y, [([0], [(0,)]), ([1], [(3,), (4,)])])
    twice = partite_mixing_check(y, [([0], [(0,), (0,)]), ([1], [(4,), (3,), (4,)])])
    assert twice == once


def test_mixing_rejects_vertices_outside_the_complex():
    with pytest.raises(HypothesisViolated, match="outside"):
        mixing_check(complete_complex(8, 3), [(0, [(3,)]), (1, [(5, 8)])])
    with pytest.raises(HypothesisViolated, match="outside"):
        partite_mixing_check(partite_complete_complex([3, 3, 3]),
                             [([0], [(0,)]), ([1], [(-1,)])])


def test_mixing_many_singletons_on_a_large_level():
    # six singleton sets count level 5 of complete(30,5), 593,775 faces; the
    # one face holding all six vertices is the only hit
    c = complete_complex(30, 5)
    rep = mixing_check(c, [(0, [(v,)]) for v in range(6)])
    assert rep.measured == pytest.approx(1 / math.comb(30, 6), rel=1e-12)
    assert rep.predicted == pytest.approx(math.factorial(6) / 30 ** 6, rel=1e-12)


def test_mixing_memory_does_not_grow_with_the_splits():
    # eight singleton sets split a face of complete(10,7) in 8! = 40,320 ways;
    # an enumeration of the splits would hold 40,320 x 45 positions per set
    c = complete_complex(10, 7)
    sets = [(0, [(v,)]) for v in range(8)]
    link_expansion(c)
    tracemalloc.start()
    try:
        rep = mixing_check(c, sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.measured == pytest.approx(1 / math.comb(10, 8), rel=1e-12)
    assert peak < 1_000_000


def test_mixing_monotone_in_n():
    devs = []
    for n in (10, 15, 20):
        c = complete_complex(n, 3)
        size = int(0.3 * n)
        a = [(v,) for v in range(size)]
        b = [(v,) for v in range(size, 2 * size)]
        rep = mixing_check(c, [(0, a), (0, b)])
        devs.append(rep.deviation)
    assert devs[0] >= devs[1] >= devs[2]


def test_partite_mixing():
    c = partite_complete_complex([4, 4, 4])
    faces0 = c.colored_level(frozenset([0])).faces
    faces1 = c.colored_level(frozenset([1])).faces
    all0 = [tuple(int(v) for v in f) for f in faces0]
    all1 = [tuple(int(v) for v in f) for f in faces1]
    rep = partite_mixing_check(c, [([0], all0), ([1], all1)])
    assert rep.deviation < 1e-12
    single = partite_mixing_check(c, [([0], [all0[0]]), ([1], [all1[0]])])
    assert single.measured == pytest.approx(single.predicted, abs=1e-12)


def test_sampler_check():
    j = np.full((4, 6), 1 / 24)
    g = BipartiteGraph(list(range(4)), list(range(6)), j)
    chk = sampler_check(g, [0, 1], 0.05)
    assert chk.passed and chk.lhs == 0.0
    full = sampler_check(g, list(range(6)), 0.1)
    assert full.lhs == 0.0
    for seed in range(40):
        g = random_bipartite_graph(seed, 8, 11)
        sub = [i for i in range(11) if (seed >> (i % 5)) & 1 or i % 3 == 0]
        assert sampler_check(g, sub or [0], 0.1).passed


def test_almost_cut_square():
    g = random_weighted_graph(1, 12)
    chk = almost_cut_check(g, [0, 1], [2, 3, 4, 5, 6], [7, 8, 9, 10, 11])
    assert chk.passed
    empty = almost_cut_check(g, [], list(range(6)), list(range(6, 12)))
    assert empty.passed and empty.lhs == 0.0
    with pytest.raises(OrderingViolated):
        almost_cut_check(g, list(range(7)), [7, 8], [9, 10, 11])


def test_almost_cut_complete_reduction():
    g = underlying_graph(complete_complex(10, 1))
    chk = almost_cut_check(g, [0, 1, 2], [3, 4, 5, 6, 7, 8, 9], [])
    assert chk.passed


def test_almost_cut_bipartite():
    g = random_bipartite_graph(3, 6, 7)
    nl = 6
    a = [0, 1, nl + 0]
    b = [2, 3, 4, nl + 1, nl + 2, nl + 3, nl + 4]
    cc = [5, nl + 5, nl + 6]
    chk = almost_cut_check(g, a, b, cc)
    assert chk.name == "almost_cut_bipartite"
    assert chk.passed


def test_edge_expansion_k4():
    g = underlying_graph(complete_complex(4, 1))
    rep = edge_expansion_exact(g)
    assert rep.phi == pytest.approx(2 / 3, abs=1e-12)
    assert rep.cheeger_ok


def test_edge_expansion_disconnected():
    c = build_from_top_faces(6, [((0, 1, 2), 0.5), ((3, 4, 5), 0.5)])
    g = underlying_graph(c)
    rep = edge_expansion_exact(g)
    assert rep.phi == pytest.approx(0.0, abs=1e-15)


def test_edge_expansion_too_large():
    g = random_weighted_graph(0, 25)
    with pytest.raises(TooLarge):
        edge_expansion_exact(g)


def test_cheeger_sandwich_random():
    for seed in range(50):
        g = random_weighted_graph(seed, 10)
        rep = edge_expansion_exact(g)
        assert rep.cheeger_ok


def test_partition_property():
    g = random_weighted_graph(7, 10)
    phi = edge_expansion_exact(g).phi
    trivial = partition_property_check(g, [list(range(10))], phi)
    assert trivial.passed
    rng = np.random.default_rng(0)
    for seed in range(60):
        parts = [[], [], []]
        for v in range(10):
            parts[rng.integers(0, 3)].append(v)
        parts = [p for p in parts if p]
        assert partition_property_check(g, parts, phi).passed


def test_dense_and_iterative_solvers_agree(monkeypatch):
    import hdxlab.walks as walks
    c = complete_complex(16, 3)
    low = lower_walk(c, 1, 0)
    dense_rep = square_spectrum(low)
    comp = complement_walk(c, 1, 1)
    dense_bip = bipartite_norm(comp)
    monkeypatch.setattr(walks, "DENSE_EIG_LIMIT", 10)
    iter_rep = square_spectrum(low)
    iter_bip = bipartite_norm(comp)
    assert iter_rep.method == "iterative"
    assert iter_rep.lambda2 == pytest.approx(dense_rep.lambda2, abs=1e-7)
    assert iter_bip.lambda_bip == pytest.approx(dense_bip.lambda_bip, abs=1e-7)
    assert iter_rep.residual < 1e-7


def test_entry_graphs_fill_a_graph_past_the_dense_limit_as_csr(monkeypatch):
    # a family of a 12-vertex and a 3-vertex graph, given unscaled and with
    # a repeated cell; past the limit the fill is CSR, the joint read back
    # dense, and the spectra those of the dense solve
    import scipy.sparse as sp

    import hdxlab.spectra as spectra
    import hdxlab.walks as walks
    joints = [random_weighted_graph(1, 12).joint, random_weighted_graph(2, 3).joint]
    g, r, c, p = (np.concatenate(cols) for cols in zip(
        *[(np.full(j.size, k), *np.divmod(np.arange(j.size), len(j)), 7.0 * j.ravel())
          for k, j in enumerate(joints)]))
    g, r, c, p = (np.insert(col, 0, x) for col, x in zip((g, r, c, p), (0, 2, 5, 0.0)))
    rows = (np.array([0, 12, 15]), np.arange(15))
    want = spectra._entry_graphs(2, g, r, c, p, rows, rows).spectra(np.arange(2))
    monkeypatch.setattr(walks, "DENSE_EIG_LIMIT", 10)
    graphs = spectra._entry_graphs(2, g, r, c, p, rows, rows)
    assert sp.issparse(graphs.fill(np.array([0]), (12, 12)))
    for k, j in enumerate(joints):
        got = graphs.joint(k)
        assert isinstance(got, np.ndarray) and np.max(np.abs(got - j)) <= 1e-15
    assert np.max(np.abs(graphs.spectra(np.arange(2)) - want)) <= 1e-9


def test_iterative_solvers_raise_when_not_converged(unconverged_solvers):
    c = complete_complex(12, 3)
    with pytest.raises(NotConverged):
        square_spectrum(lower_walk(c, 1, 0))
    with pytest.raises(NotConverged):
        bipartite_norm(complement_walk(c, 1, 1))


def fixed_union_norm_dense(c, l, j):
    """verify_fixed_union_bound's lhs from one dense eigvalsh at any size."""
    a, low = fixed_union_walk(c, l, j), lower_walk(c, l, l - j)
    s = np.sqrt(a.source_measure)
    ja, jl = (op.joint() for op in (a, low))
    diff = (ja - jl) / np.outer(s, s)
    diff = np.asarray(diff.todense()) if hasattr(diff, "todense") else diff
    return float(np.max(np.abs(np.linalg.eigvalsh((diff + diff.T) / 2.0))))


@pytest.mark.parametrize("c,l,j", [(complete_complex(20, 3), 2, 1),
                                   (_weighted_complex(2, 10, 4), 2, 1),
                                   (_weighted_complex(2, 10, 4), 2, 2)])
def test_fixed_union_bound_lanczos_matches_dense(monkeypatch, c, l, j):
    # past the dense limit the norm comes from Lanczos on half the
    # symmetrised difference; the link spectra are solved before the limit
    # is patched, so only the fixed-union solve changes path
    import hdxlab.walks as walks
    link_expansion(c, two_sided=True)
    monkeypatch.setattr(walks, "DENSE_EIG_LIMIT", 10)
    got = verify_fixed_union_bound(c, l, j)
    assert got.lhs == pytest.approx(fixed_union_norm_dense(c, l, j), abs=1e-10)


@pytest.mark.parametrize("kind", ["complete", "weighted"])
def test_repeated_iterative_solves_are_bit_identical(kind):
    # over the dense limit, so Lanczos from a fixed start; the few distinct
    # eigenvalues of the complete complex also make ARPACK draw restart vectors
    import hdxlab.spectra as spectra
    if kind == "complete":
        if not spectra._EIGSH_TAKES_RNG:
            pytest.skip("this SciPy's eigsh draws restart vectors from ARPACK's own generator")
        low = lower_walk(complete_complex(16, 2), 2, 1)
        comp = complement_walk(complete_complex(30, 3), 1, 1)
    else:
        c = random_weighted_complex(3, 20, 2)
        low, comp = lower_walk(c, 2, 1), containment_operator(c, 2, 1)
    for solve, op in ((square_spectrum, low), (bipartite_norm, comp)):
        reps = [solve(op).to_json_dict() for _ in range(3)]
        assert reps[0]["method"] == "iterative"
        assert reps[1] == reps[0] and reps[2] == reps[0]


def test_lanczos_without_eigsh_rng(monkeypatch):
    # SciPy releases whose eigsh takes no ``rng``: the solves over the dense
    # limit still run Lanczos, with no rng passed, and agree with dense ones
    import scipy.sparse.linalg as spla

    import hdxlab.spectra as spectra
    import hdxlab.walks as walks
    eigsh, kwargs_seen = spla.eigsh, []

    def recording_eigsh(*args, **kwargs):
        kwargs_seen.append(kwargs)
        return eigsh(*args, **kwargs)

    c = random_weighted_complex(3, 20, 2)
    cases = [(square_spectrum, lower_walk(complete_complex(16, 2), 2, 1)),
             (square_spectrum, lower_walk(c, 2, 1)),
             (bipartite_norm, complement_walk(complete_complex(30, 3), 1, 1)),
             (bipartite_norm, containment_operator(c, 2, 1))]
    monkeypatch.setattr(spectra, "_EIGSH_TAKES_RNG", False)
    monkeypatch.setattr(spla, "eigsh", recording_eigsh)
    reps = [solve(op) for solve, op in cases]
    assert kwargs_seen and not any("rng" in kw for kw in kwargs_seen)
    monkeypatch.setattr(walks, "DENSE_EIG_LIMIT", 10**4)
    for (solve, op), rep in zip(cases, reps):
        want = solve(op)
        assert (rep.method, want.method) == ("iterative", "dense")
        for key in ("lambda2", "lambda_min", "lambda_bip"):
            if getattr(want, key) is not None:
                assert getattr(rep, key) == pytest.approx(getattr(want, key), abs=1e-10), key


def test_arpack_non_convergence_raises_not_converged(monkeypatch):
    import scipy.sparse.linalg as spla

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(NotConverged, match="did not converge"):
        square_spectrum(lower_walk(complete_complex(16, 2), 2, 1))
    with pytest.raises(NotConverged, match="did not converge"):
        bipartite_norm(complement_walk(complete_complex(30, 3), 1, 1))


def test_verifiers_are_pure():
    c = complete_complex(10, 3)
    a = verify_complement_bound(c, 1, 1).to_json_dict()
    b = verify_complement_bound(c, 1, 1).to_json_dict()
    assert a == b
    y = random_partite_complex(3, [3, 3, 3])
    assert verify_trickling(y).to_json_dict() == verify_trickling(y).to_json_dict()


def test_link_expansion_single_simplex():
    # every link of a single top face is a complete graph on m vertices with
    # expansion 1/(m-1); the smallest links here are two-vertex swaps
    c = build_from_top_faces(5, [((0, 1, 2, 3, 4), 1.0)])
    rep = link_expansion(c, two_sided=True)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.per_level[-1] == pytest.approx(1 / 4, abs=1e-12)  # K_5 itself
    assert rep.per_level[1] == pytest.approx(1 / 2, abs=1e-12)  # K_3 links


def test_complement_vertex_walk_value():
    for n in (6, 9, 13):
        c = complete_complex(n, 2)
        rep = bipartite_norm(complement_walk(c, 0, 0))
        assert rep.lambda_bip == pytest.approx(1 / (n - 1), abs=1e-11)


def test_partite_mixing_random_subsets():
    rng = np.random.default_rng(9)
    c = partite_complete_complex([4, 4, 4])
    faces0 = c.colored_level(frozenset([0])).faces
    faces1 = c.colored_level(frozenset([1])).faces
    sub0 = [tuple(int(v) for v in f) for f in faces0[:2]]
    sub1 = [tuple(int(v) for v in f) for f in faces1[1:3]]
    rep = partite_mixing_check(c, [([0], sub0), ([1], sub1)])
    assert rep.measured == pytest.approx(rep.predicted, abs=1e-12)
    assert rep.observed_constant is None or rep.observed_constant >= 0
    del rng


# -- the stacked solver shared by link spectra and goodness ---------------------------


def _random_graphs(rng, shapes, square):
    """One random positive joint per shape, symmetric when ``square``."""
    out = []
    for r, c in shapes:
        j = rng.gamma(1.0, 1.0, size=(r, c)) * (rng.random((r, c)) < 0.8) + 1e-3
        out.append(j + j.T if square else j)
    return out


def _fill(graphs):
    return lambda ids, shape: np.stack([graphs[i] for i in ids])


@pytest.mark.parametrize("batch_bytes", [1 << 24, 8 * 5 * 5])
def test_stacked_solver_matches_single_solves(monkeypatch, batch_bytes):
    import hdxlab.spectra as spectra
    monkeypatch.setattr(spectra, "_LINK_BATCH_BYTES", batch_bytes)
    rng = np.random.default_rng(4)
    sizes = [5, 1, 3, 5, 3, 8, 5, 2]
    graphs = _random_graphs(rng, [(m, m) for m in sizes], square=True)
    lam2, lam_min = spectra._stacked_spectra(np.array([(m, m) for m in sizes]),
                                             _fill(graphs))
    for j, l2, lm in zip(graphs, lam2, lam_min):
        rep = square_lambda(j / j.sum(), j.sum(axis=1) / j.sum())
        assert (l2, lm) == pytest.approx((rep.lambda2, rep.lambda_min), abs=1e-12)
    shapes = [(3, 5), (1, 4), (3, 5), (6, 2), (4, 1), (3, 5)]
    graphs = _random_graphs(rng, shapes, square=False)
    lam = spectra._stacked_spectra(np.array(shapes), _fill(graphs), bipartite=True)
    for j, got in zip(graphs, lam):
        j = j / j.sum()
        want = spectra.bipartite_lambda(j, j.sum(axis=1), j.sum(axis=0)).lambda_bip
        assert got == pytest.approx(want, abs=1e-12)
    assert lam[1] == lam[4] == 0.0  # one-vertex sides are trivial


def test_stacked_solver_raises_on_bad_input():
    import hdxlab.spectra as spectra
    j = _random_graphs(np.random.default_rng(5), [(4, 4)], square=True)[0]
    lopsided = j.copy()
    lopsided[0, 1] += 0.5
    with pytest.raises(NotReversible):
        spectra._stacked_spectra(np.array([(4, 4)]), _fill([lopsided]))
    isolated = j.copy()
    isolated[2, :] = isolated[:, 2] = 0.0
    with pytest.raises(InconsistentMarginals):
        spectra._stacked_spectra(np.array([(4, 4)]), _fill([isolated]))
    with pytest.raises(InconsistentMarginals):
        spectra._stacked_spectra(np.array([(4, 4)]), _fill([isolated[:, [0, 1, 3, 2]]]),
                                 bipartite=True)
    b = j[None] / j.sum()
    with pytest.raises(InconsistentMarginals):  # measures that are not the marginals
        spectra._bipartite_stack(b, b.sum(axis=2)[:, ::-1], b.sum(axis=1))
    with pytest.raises(NotReversible):
        spectra._square_stack(lopsided[None], lopsided.sum(axis=1)[None])


def test_stacked_values_outside_the_unit_interval_raise():
    # symmetric, with positive row sums, but a negative entry: the walk
    # matrix has eigenvalues 1 and -1.4, its bipartite reading singular
    # values 1.4 and 1, which no clip may bring back into [-1, 1]
    import hdxlab.spectra as spectra
    j = np.array([[-0.1, 0.6], [0.6, -0.1]])
    with pytest.raises(NotReversible, match="eigenvalue"):
        square_lambda(j, j.sum(axis=1))
    with pytest.raises(NotReversible, match="eigenvalue"):
        spectra._stacked_spectra(np.array([(2, 2)] * 3), _fill([j / 2, j, j]))
    b = j[:, ::-1]
    with pytest.raises(NotReversible, match="singular value"):
        spectra.bipartite_lambda(b, b.sum(axis=1), b.sum(axis=0))
    with pytest.raises(NotReversible, match="singular value"):
        spectra._stacked_spectra(np.array([(2, 2)]), _fill([b]), bipartite=True)


def test_lanczos_values_outside_the_unit_interval_raise():
    # 201 copies of the joint above on the diagonal: 402 rows is past the
    # dense limit, so both solves are Lanczos, which may no more clip -1.4
    # to -1, or 1.4 to 1, than the dense solve
    import scipy.sparse as sp
    import hdxlab.spectra as spectra
    j = sp.block_diag([np.array([[-0.1, 0.6], [0.6, -0.1]]) / 201] * 201, format="csr")
    assert not spectra._solves_dense(j.shape)
    with pytest.raises(NotReversible, match="eigenvalue"):
        square_lambda(j, np.asarray(j.sum(axis=1)).ravel())
    b = j[:, np.arange(402) ^ 1]
    with pytest.raises(NotReversible, match="singular value"):
        spectra.bipartite_lambda(b, np.asarray(b.sum(axis=1)).ravel(),
                                 np.asarray(b.sum(axis=0)).ravel())


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_stacked_spectra_solve_each_distinct_graph_once(seed, bipartite):
    # a family with exact copies of its graphs and copies one ulp apart in
    # one entry, in random order: each graph's value is that of its solve as
    # a family of one, bit for bit, so copies share a solve and near-copies
    # do not
    import hdxlab.spectra as spectra
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 6, size=(3, 2))
    shapes = [(r, c) if bipartite else (r, r) for r, c in sizes]
    joints = []
    for j in _random_graphs(rng, shapes, square=not bipartite):
        joints += [j] * int(rng.integers(1, 4))
        for _ in range(int(rng.integers(1, 3))):
            near = j.copy()
            cell = tuple(rng.integers(j.shape))
            near[cell] = np.nextafter(near[cell], np.inf)
            joints.append(near)
    joints = [joints[i] for i in rng.permutation(len(joints))]
    g, r, c, p = (np.concatenate(cols) for cols in zip(
        *[(np.full(j.size, k), *np.divmod(np.arange(j.size), j.shape[1]), j.ravel())
          for k, j in enumerate(joints)]))
    rows, cols = ((np.concatenate([[0], np.cumsum(n)]), np.arange(sum(n)))
                  for n in zip(*(j.shape for j in joints)))
    graphs = spectra._entry_graphs(len(joints), g, r, c, p, rows, cols)
    got = graphs.spectra(np.arange(len(joints)), bipartite)
    for k in range(len(joints)):
        assert np.array_equal(got[..., k], graphs.spectra(np.array([k]), bipartite)[..., 0])
