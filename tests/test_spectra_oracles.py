"""Per-face loops kept as oracles for the batched link spectra.

``link_expansion_by_faces`` builds one link complex, one underlying graph and
one ``square_lambda`` per face, which is how link expansion was computed
before the link spectra of a level were solved as one stacked batch.
``trickling_eta_by_vertices`` takes eta as the largest colored-walk norm over
the links of the color-0 vertices.  The tests require values within 1e-12,
identical disconnected faces and warnings, the same worst face wherever the
maximum is unique by more than 1e-12, and no eigensolve on a second call.
They run on fixed instances and, under hypothesis, on random weighted
complexes, partite complexes with tops dropped (which gives star and 1x1
links) and complexes glued at a few vertices (which gives disconnected links).

``mixing_check_by_faces`` and ``partite_mixing_check_by_faces`` are the face
loops the mixing checks were before they became member-mask lookups: each face
of the counted level is tested against every set with Python sets, and the
plain check's sets are first checked pairwise for shared vertices.  On random
sets of distinct members, the measured mass, the prediction and the deviation
must agree within 1e-15.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, strategies as st

import hdxlab.spectra as spectra
import hdxlab.walks as walks
from hdxlab.complexes import (
    Complex,
    build_from_top_faces,
    complete_complex,
    partite_complete_complex,
)
from hdxlab.errors import HypothesisViolated
from hdxlab.spectra import (
    LinkExpansionReport,
    MixingReport,
    bipartite_norm,
    link_expansion,
    mixing_check,
    partite_mixing_check,
    square_lambda,
    verify_trickling,
)
from hdxlab.walks import colored_walk, underlying_graph

from conftest import random_partite_complex, random_weighted_complex, weighted_8_3

TOL = 1e-12


# -- oracles ----------------------------------------------------------------------------


def link_expansion_by_faces(c: Complex, two_sided: bool = True):
    """The per-face loop; returns the report and every (face, value) pair."""
    worst = -np.inf
    worst_face = None
    per_level = {}
    disconnected = []
    values = []
    for k in range(-1, c.d - 1):
        lev = c.level(k)
        level_worst = -np.inf
        faces_iter = [lev.face(0)] if c.uniform_complete else lev.iter_faces()
        for s in faces_iter:
            sub = c if k == -1 else c.link(s)
            g = underlying_graph(sub)
            rep = square_lambda(g.joint, g.vertex_measure)
            val = rep.two_sided if two_sided else rep.lambda2
            values.append((s, val))
            if rep.lambda2 > 1 - 1e-9:
                disconnected.append(s)
            if val > level_worst:
                level_worst = val
            if val > worst:
                worst, worst_face = val, s
        per_level[k] = level_worst
    report = LinkExpansionReport(value=float(worst), two_sided=two_sided,
                                 per_level=per_level, worst_face=worst_face,
                                 disconnected=disconnected,
                                 deduplicated=c.uniform_complete)
    return report, values


def trickling_eta_by_vertices(y: Complex) -> float:
    eta = 0.0
    for v in np.flatnonzero(np.asarray(y.coloring) == 0):
        lk = y.link((int(v),))
        eta = max(eta, bipartite_norm(colored_walk(lk, [0], [1])).lambda_bip)
    return eta


def _check_cross_disjoint(face_sets):
    for (i, fs1), (j, fs2) in itertools.combinations(enumerate(face_sets), 2):
        for f1 in fs1:
            for f2 in fs2:
                if set(f1) & set(f2):
                    raise HypothesisViolated(
                        f"faces {f1} (set {i}) and {f2} (set {j}) intersect")


def _mixing_tail(c, measured, probs, predicted, two_sided):
    deviation = abs(measured - predicted)
    lam = link_expansion(c, two_sided=two_sided).value
    geo = math.prod(probs) ** (1.0 / len(probs)) if all(p > 0 for p in probs) else 0.0
    bound_rhs = lam * geo
    const = deviation / bound_rhs if bound_rhs > 0 else None
    return MixingReport(measured, predicted, deviation, bound_rhs, const)


def mixing_check_by_faces(c: Complex, sets) -> MixingReport:
    dims = [int(j) for j, _ in sets]
    face_sets = [[tuple(sorted(int(v) for v in f)) for f in faces]
                 for _, faces in sets]
    for jdim, faces in zip(dims, face_sets):
        for f in faces:
            if len(f) != jdim + 1:
                raise HypothesisViolated(f"face {f} is not at dimension {jdim}")
    k = sum(j + 1 for j in dims) - 1
    if k > c.d:
        raise HypothesisViolated(f"total size {k + 1} exceeds d+1 = {c.d + 1}")
    _check_cross_disjoint(face_sets)
    lookups = [set(fs) for fs in face_sets]
    lev = c.level(k)
    measured = 0.0
    for face, w in zip(lev.iter_faces(), lev.measure):
        ok = True
        for jdim, members in zip(dims, lookups):
            if not any(set(m) <= set(face) for m in members):
                ok = False
                break
        if ok:
            measured += float(w)
    probs = [sum(c.measure_of(f) for f in fs) for fs in face_sets]
    multinomial = math.factorial(k + 1)
    for j in dims:
        multinomial //= math.factorial(j + 1)
    return _mixing_tail(c, measured, probs, multinomial * math.prod(probs), True)


def partite_mixing_check_by_faces(c: Complex, colored_sets) -> MixingReport:
    col_sets = [frozenset(int(x) for x in colors) for colors, _ in colored_sets]
    for a, b in itertools.combinations(col_sets, 2):
        if a & b:
            raise HypothesisViolated("color sets must be pairwise disjoint")
    face_sets = [{tuple(sorted(int(v) for v in f)) for f in faces}
                 for _, faces in colored_sets]
    col = np.asarray(c.coloring)
    for colors, faces in zip(col_sets, face_sets):
        for f in faces:
            if frozenset(col[list(f)].tolist()) != colors:
                raise HypothesisViolated(f"face {f} does not have colors {sorted(colors)}")
    union = frozenset().union(*col_sets)
    lev_u = c.colored_level(union)
    measured = 0.0
    for face, w in zip(lev_u.faces, lev_u.measure):
        face = tuple(int(v) for v in face)
        ok = True
        for colors, members in zip(col_sets, face_sets):
            sub = tuple(sorted(v for v in face if col[v] in colors))
            if sub not in members:
                ok = False
                break
        if ok:
            measured += float(w)
    cond = []
    for colors, members in zip(col_sets, face_sets):
        lev_i = c.colored_level(colors)
        lut = {tuple(int(v) for v in f): float(w) for f, w in zip(lev_i.faces, lev_i.measure)}
        cond.append(sum(lut.get(m, 0.0) for m in members))
    return _mixing_tail(c, measured, cond, math.prod(cond), False)


# -- complexes ----------------------------------------------------------------------------


def partite_with_dropped_tops(seed: int, sizes, keep: float) -> Complex:
    """Random weights on a random share of the transversals; one top per
    vertex is always kept so that no vertex is isolated."""
    rng = np.random.default_rng(seed)
    base = partite_complete_complex(sizes)
    tops, _ = base.top_arrays()
    kept = rng.random(len(tops)) < keep
    for v in range(base.n_vertices):
        kept[rng.choice(np.flatnonzero((tops == v).any(axis=1)))] = True
    w = rng.gamma(1.0, 1.0, size=int(kept.sum())) + 1e-3
    return Complex(base.n_vertices, base.d, tops[kept].copy(), w / w.sum(),
                   coloring=base.coloring)


def glued_complex(seed: int, n1: int, n2: int, shared: int, d: int) -> Complex:
    """Two random complexes whose vertex sets meet in ``shared`` (0 or 1)
    vertices: the link of the shared vertex is disconnected, and so is the
    whole complex when nothing is shared."""
    a = random_weighted_complex(seed, n1, d)
    b = random_weighted_complex(seed + 1, n2, d)
    shift = n1 - shared
    tops = [(tuple(int(v) for v in t), 0.5 * float(w))
            for t, w in zip(*a.top_arrays())]
    tops += [(tuple(int(v) + shift for v in t), 0.5 * float(w))
             for t, w in zip(*b.top_arrays())]
    return build_from_top_faces(shift + n2, tops)


def _fresh(c: Complex) -> Complex:
    """The same complex with empty caches."""
    if c.uniform_complete:
        return complete_complex(c.n_vertices, c.d)
    tops, weights = c.top_arrays()
    return Complex(c.n_vertices, c.d, tops.copy(), weights.copy(),
                   coloring=c.coloring)


def random_sets(c: Complex, seed: int):
    """One to k+1 sets of distinct faces, whose sizes fill a level k of ``c``
    and whose vertices are drawn from disjoint random pools."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, c.d + 1))
    cuts = np.sort(rng.choice(np.arange(1, k + 1), size=int(rng.integers(0, k + 1)),
                              replace=False))
    sizes = np.diff(np.concatenate([[0], cuts, [k + 1]]))
    pool = rng.integers(0, len(sizes), size=c.n_vertices)
    sets = []
    for i, size in enumerate(sizes):
        faces = c.level(int(size) - 1).faces
        own = faces[(pool[faces] == i).all(axis=1)]
        keep = own[rng.random(len(own)) < 0.6]
        sets.append((int(size) - 1, [tuple(int(v) for v in rng.permutation(f))
                                     for f in rng.permutation(keep)]))
    return sets


def random_colored_sets(c: Complex, seed: int):
    """Disjoint color sets, each with a random share of its color-correct
    vertex tuples, faces of the complex or not."""
    rng = np.random.default_rng(seed)
    colors = rng.permutation(c.d + 1)[:int(rng.integers(1, c.d + 2))]
    cuts = np.sort(rng.choice(np.arange(1, len(colors)), replace=False,
                              size=int(rng.integers(0, len(colors)))))
    col = np.asarray(c.coloring)
    sets = []
    for cs in np.split(colors, cuts):
        tuples = list(itertools.product(*(np.flatnonzero(col == x).tolist() for x in cs)))
        sets.append((cs.tolist(), [t for t in tuples if rng.random() < 0.5]))
    return sets


# -- checks -------------------------------------------------------------------------------


def check_mixing(check, oracle, c: Complex, sets) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a disconnected link warns in both
        got, want = check(c, sets), oracle(c, sets)
    for name in ("measured", "predicted", "deviation", "bound_rhs"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-15), name
    if want.observed_constant is None:
        assert got.observed_constant is None
    else:
        assert got.observed_constant == pytest.approx(want.observed_constant, rel=1e-12)


def _link_expansion_recorded(c: Complex, two_sided: bool):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = link_expansion(c, two_sided=two_sided)
    return rep, sum("disconnected" in str(w.message) for w in caught)


def check_link_expansion(c: Complex) -> None:
    for two_sided in (True, False):
        want, values = link_expansion_by_faces(c, two_sided)
        for _ in range(2):  # the second call reads the cache
            got, n_warned = _link_expansion_recorded(c, two_sided)
            assert got.value == pytest.approx(want.value, abs=TOL)
            assert set(got.per_level) == set(want.per_level)
            for k, v in want.per_level.items():
                assert got.per_level[k] == pytest.approx(v, abs=TOL)
            assert got.disconnected == want.disconnected
            assert n_warned == len(want.disconnected)
            assert got.deduplicated == want.deduplicated
            top = sorted(v for _, v in values)
            if len(top) == 1 or top[-1] - top[-2] > TOL:
                assert got.worst_face == want.worst_face


def check_trickling(y: Complex) -> None:
    want = trickling_eta_by_vertices(y)
    for _ in range(2):
        assert verify_trickling(y).details["eta"] == pytest.approx(want, abs=TOL)


@pytest.fixture
def solve_counter(monkeypatch):
    """Counts dense and Lanczos symmetric eigensolves."""
    calls = {"n": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls["n"] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
    monkeypatch.setattr(spla, "eigsh", counted(spla.eigsh))
    return calls


# -- fixed instances ------------------------------------------------------------------------


FIXED = {
    "weighted_8_3": weighted_8_3,
    "complete_8_3": lambda: complete_complex(8, 3),
    "single_simplex": lambda: build_from_top_faces(5, [((0, 1, 2, 3, 4), 1.0)]),
    "two_triangles": lambda: build_from_top_faces(6, [((0, 1, 2), 0.5),
                                                      ((3, 4, 5), 0.5)]),
    "bowtie": lambda: build_from_top_faces(5, [((0, 1, 2), 0.5), ((2, 3, 4), 0.5)]),
    "partite_3x3x3": lambda: random_partite_complex(5, [3, 3, 3]),
    "partite_4_dropped": lambda: partite_with_dropped_tops(2, [2, 3, 2, 3], 0.3),
    "graph": lambda: build_from_top_faces(4, [((0, 1), 0.25), ((1, 2), 0.25),
                                              ((2, 3), 0.5)]),
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_link_expansion_matches_face_loop(name):
    check_link_expansion(FIXED[name]())


@pytest.mark.parametrize("seed", range(4))
def test_trickling_eta_matches_vertex_loop(seed):
    check_trickling(random_partite_complex(seed, noise=1.5))
    check_trickling(partite_with_dropped_tops(seed, [1, 2, 3], 0.4))


def test_second_call_runs_no_eigensolve(solve_counter):
    c = weighted_8_3()
    link_expansion(c)
    assert solve_counter["n"] > 0
    solve_counter["n"] = 0
    for two_sided in (True, False):
        link_expansion(c, two_sided=two_sided)
    assert solve_counter["n"] == 0
    y = random_partite_complex(7)
    verify_trickling(y)
    assert solve_counter["n"] > 0
    solve_counter["n"] = 0
    verify_trickling(y)
    link_expansion(y, two_sided=False)
    assert solve_counter["n"] == 1  # only the level -1 graph, not cached yet
    solve_counter["n"] = 0
    link_expansion(y, two_sided=False)
    assert solve_counter["n"] == 0


def test_worst_face_is_first_in_level_order():
    # every triangle of the 4-simplex has the same two-vertex link, so the
    # top value ties exactly and the first triangle must win
    c = FIXED["single_simplex"]()
    want, _ = link_expansion_by_faces(c)
    assert want.worst_face == (0, 1, 2)
    assert link_expansion(c).worst_face == (0, 1, 2)


@pytest.mark.parametrize("name", ["weighted_8_3", "partite_4_dropped"])
def test_batches_split_within_a_link_size(monkeypatch, name):
    # room for two 4-vertex links per batch: every size group is cut up
    monkeypatch.setattr(spectra, "_LINK_BATCH_BYTES", 2 * 8 * 4 * 4)
    check_link_expansion(FIXED[name]())


def test_links_over_the_dense_limit_use_square_lambda(monkeypatch):
    # links of more than 4 vertices go through square_lambda's Lanczos path,
    # here as in the face loop, so both clip the same way
    c = weighted_8_3()
    monkeypatch.setattr(walks, "DENSE_EIG_LIMIT", 4)
    want, _ = link_expansion_by_faces(c)
    got = link_expansion(c)
    for k, v in want.per_level.items():
        assert got.per_level[k] == pytest.approx(v, abs=1e-9)


# -- random complexes -------------------------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 2), n=st.integers(5, 9), d=st.integers(2, 3))
def test_random_weighted_complexes(seed, n, d):
    check_link_expansion(random_weighted_complex(seed, n, d))


@given(seed=st.integers(0, 2**32 - 2), n=st.integers(5, 9), d=st.integers(1, 4))
def test_mixing_matches_face_loop(seed, n, d):
    c = random_weighted_complex(seed, n, d)
    sets = random_sets(c, seed)
    check_mixing(mixing_check, mixing_check_by_faces, c, sets)


@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4),
       keep=st.floats(0.0, 1.0))
def test_partite_mixing_matches_face_loop(seed, sizes, keep):
    for y in (random_partite_complex(seed, sizes),
              partite_with_dropped_tops(seed, sizes, keep)):
        sets = random_colored_sets(y, seed)
        check_mixing(partite_mixing_check, partite_mixing_check_by_faces, y, sets)


@pytest.mark.parametrize("name", sorted(FIXED))
def test_mixing_on_fixed_instances_matches_face_loop(name):
    c = FIXED[name]()
    for seed in range(5):
        if c.is_partite:
            sets = random_colored_sets(c, seed)
            check_mixing(partite_mixing_check, partite_mixing_check_by_faces, c, sets)
        sets = random_sets(c, seed)
        check_mixing(mixing_check, mixing_check_by_faces, c, sets)


def test_mixing_rejects_shared_vertices_as_the_face_loop_does():
    c = FIXED["weighted_8_3"]()
    sets = [(0, [(0,), (3,)]), (1, [(1, 2), (3, 5)])]
    for check in (mixing_check, mixing_check_by_faces):
        with pytest.raises(HypothesisViolated):
            check(c, sets)


@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(1, 3), min_size=3, max_size=4),
       keep=st.floats(0.0, 1.0))
def test_partite_complexes_with_dropped_tops(seed, sizes, keep):
    y = partite_with_dropped_tops(seed, sizes, keep)
    check_link_expansion(y)
    if y.d == 2:
        check_trickling(_fresh(y))


@given(seed=st.integers(0, 2**32 - 2), n1=st.integers(4, 6), n2=st.integers(4, 6),
       shared=st.integers(0, 1), d=st.integers(2, 3))
def test_complexes_with_disconnected_links(seed, n1, n2, shared, d):
    c = glued_complex(seed, n1, n2, shared, d)
    want, _ = link_expansion_by_faces(c)
    assert want.disconnected  # the gluing makes some link disconnected
    check_link_expansion(c)
