import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from hdxlab.complexes import build_from_top_faces, complete_complex, \
    partite_complete_complex
from hdxlab.errors import (
    EmptyWalk,
    LevelOutOfRange,
    NotPartite,
    OverlappingColors,
)
from hdxlab.walks import (
    MarkovOperator,
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

from conftest import containment_operator_by_product, random_partite_complex


def dense(op):
    return np.asarray(op.matrix.todense()) if sp.issparse(op.matrix) \
        else np.asarray(op.matrix)


def test_up_single_simplex():
    c = build_from_top_faces(3, [((0, 1, 2), 1.0)])
    up = up_operator(c, 0)
    m = dense(up)
    assert m.shape == (3, 3)
    assert np.allclose(m[m > 0], 0.5)
    assert np.all((m > 0).sum(axis=1) == 2)


def test_up_complete_uniform_rows():
    c = complete_complex(5, 2)
    m = dense(up_operator(c, 0))
    assert np.all((m > 0).sum(axis=1) == 4)
    assert np.allclose(m[m > 0], 0.25)


def test_up_down_adjointness():
    c = build_from_top_faces(6, [((0, 1, 2, 3), 0.3), ((1, 2, 3, 4), 0.2),
                                 ((2, 3, 4, 5), 0.5)])
    rng = np.random.default_rng(3)
    for k in range(c.d):
        up = up_operator(c, k)
        down = down_operator(c, k)
        f = rng.normal(size=up.shape[0])
        g = rng.normal(size=up.shape[1])
        lhs = float(np.sum(up.source_measure * f * (dense(up) @ g)))
        rhs = float(np.sum(down.source_measure * g * (dense(down) @ f)))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_down_rows_uniform_and_mc():
    c = build_from_top_faces(5, [((0, 1, 2), 0.5), ((1, 2, 3), 0.25),
                                 ((2, 3, 4), 0.25)])
    down = down_operator(c, 0)
    m = dense(down)
    assert np.allclose(m[m > 0], 0.5)
    # Monte Carlo of the chain conditional
    rng = np.random.default_rng(99)
    n = 400_000
    lev1 = c.level(1)
    edge = rng.choice(lev1.size, size=n, p=lev1.measure)
    pick = rng.integers(0, 2, size=n)
    verts = lev1.faces[edge, pick]
    joint = down.joint()
    lev0 = c.level(0)
    for ei in range(lev1.size):
        for vi in range(lev0.size):
            p = joint[ei, vi] if not sp.issparse(joint) else joint[ei, vi]
            p = float(p)
            freq = np.mean((edge == ei) & (verts == lev0.faces[vi, 0]))
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(freq - p) < 4 * sigma + 1e-9


def test_constants_fixed_point():
    c = complete_complex(7, 3)
    du = down_operator(c, 1).compose(up_operator(c, 1))
    ones = np.ones(du.shape[1])
    assert np.allclose(du.matrix @ ones, 1.0, atol=1e-12)


def test_containment_product_equals_direct():
    c = build_from_top_faces(7, [((0, 1, 2, 3, 4), 0.4), ((1, 2, 3, 4, 5), 0.3),
                                 ((2, 3, 4, 5, 6), 0.3)])
    direct = containment_operator(c, 4, 1)
    via = containment_operator_by_product(c, 4, 1)
    assert np.max(np.abs(dense(direct) - dense(via))) < 1e-12
    one = containment_operator(c, 2, 1)
    d1 = down_operator(c, 1)
    assert np.max(np.abs(dense(one) - dense(d1))) < 1e-15


def test_containment_rows_complete():
    c = complete_complex(8, 4)
    op = containment_operator(c, 4, 1)
    m = dense(op)
    assert np.all((m > 0).sum(axis=1) == math.comb(5, 2))
    assert np.allclose(m[m > 0], 1 / math.comb(5, 2))


def test_lower_walk_psd_and_trace():
    c = build_from_top_faces(6, [((0, 1, 2, 3), 0.3), ((1, 2, 3, 4), 0.2),
                                 ((2, 3, 4, 5), 0.5)])
    low = lower_walk(c, 2, 0)
    pi = low.source_measure
    sym = dense(low) * np.sqrt(pi)[:, None] / np.sqrt(pi)[None, :]
    vals = np.linalg.eigvalsh((sym + sym.T) / 2)
    assert vals.min() > -1e-10
    # return-probability trace vs direct Monte Carlo
    rng = np.random.default_rng(5)
    n = 200_000
    lev = c.level(2)
    start = rng.choice(lev.size, size=n, p=lev.measure)
    m = dense(low)
    ret = np.array([m[s, s] for s in start])
    mc = 0.0
    cum = np.cumsum(m, axis=1)
    u = rng.random(n)
    land = (u[:, None] <= cum[start]).argmax(axis=1)
    mc = np.mean(land == start)
    exact = float(np.sum(lev.measure * np.diag(m)))
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(mc - exact) < 4 * sigma + 1e-9
    del ret


def test_lower_walk_constants():
    c = complete_complex(6, 3)
    low = lower_walk(c, 2, 0)
    assert np.allclose(dense(low) @ np.ones(low.shape[1]), 1.0)


def test_complement_walk_complete_vertices():
    c = complete_complex(6, 2)
    comp = complement_walk(c, 0, 0)
    m = dense(comp)
    assert np.allclose(np.diag(m), 0.0)
    off = m[~np.eye(6, dtype=bool)]
    assert np.allclose(off, 1 / 5)


def test_complement_walk_matches_disjoint_enumeration():
    # direct construction of the disjointness joint on pairs
    c = complete_complex(12, 5)
    comp = complement_walk(c, 1, 1)
    lev = c.level(1)
    j = comp.joint()
    j = np.asarray(j.todense()) if sp.issparse(j) else j
    n_pairs = lev.size
    count_disjoint = math.comb(12, 2) * math.comb(10, 2) // 2 * 2  # ordered
    for i in range(0, n_pairs, 7):
        for k in range(0, n_pairs, 7):
            a = set(int(x) for x in lev.faces[i])
            b = set(int(x) for x in lev.faces[k])
            expect = 0.0 if a & b else 1.0 / count_disjoint
            assert j[i, k] == pytest.approx(expect, abs=1e-12)


def test_complement_walk_errors():
    c = complete_complex(5, 2)
    with pytest.raises(LevelOutOfRange):
        complement_walk(c, 1, 1)


def test_colored_walk_bipartite():
    c = partite_complete_complex([3, 3])
    op = colored_walk(c, [0], [1])
    m = dense(op)
    assert np.allclose(m, 1 / 3)
    c3 = partite_complete_complex([3, 3, 3])
    op2 = colored_walk(c3, [0], [1, 2])
    m2 = dense(op2)
    assert m2.shape == (3, 9)
    assert np.allclose(m2[m2 > 0], 1 / 9)
    # marginals match the colored level measures
    meas_i = c3.colored_level(frozenset([0])).measure
    assert np.allclose(np.asarray(op2.joint()).sum(axis=1), meas_i, atol=1e-12)


def test_colored_walk_errors():
    c = complete_complex(5, 2)
    with pytest.raises(NotPartite):
        colored_walk(c, [0], [1])
    p = partite_complete_complex([2, 2, 2])
    with pytest.raises(OverlappingColors):
        colored_walk(p, [0, 1], [1, 2])


def test_fixed_union_identities():
    c = complete_complex(8, 4)
    fu = fixed_union_walk(c, 1, 2)
    comp = complement_walk(c, 1, 1)
    assert np.max(np.abs(dense(fu) - dense(comp))) < 1e-12
    fu1 = fixed_union_walk(c, 1, 1)
    nl = nonlazy_upper_walk(c, 1)
    assert np.max(np.abs(dense(fu1) - dense(nl))) < 1e-12


def test_fixed_union_self_adjoint():
    c = build_from_top_faces(7, [((0, 1, 2, 3, 4), 0.4), ((1, 2, 3, 4, 5), 0.3),
                                 ((2, 3, 4, 5, 6), 0.3)])
    fu = fixed_union_walk(c, 1, 2)
    assert np.all(np.abs(fu.row_sums() - 1) < 1e-10)
    assert fu.detailed_balance_residual() < 1e-10


def test_detailed_balance_residual_detects_cyclic_walk():
    faces = np.arange(3)[:, None]
    uniform = np.full(3, 1 / 3)
    cyclic = MarkovOperator(faces, uniform, faces, uniform, np.roll(np.eye(3), 1, axis=1))
    assert cyclic.detailed_balance_residual() >= 1 / 3


def test_neighborhood_system():
    c = complete_complex(6, 3)
    balls = neighborhood_system(c, 0)
    assert balls[(2,)] == (0, 1, 3, 4, 5)
    s = build_from_top_faces(4, [((0, 1, 2, 3), 1.0)])
    assert neighborhood_system(s, 0)[(0,)] == (1, 2, 3)
    w = build_from_top_faces(6, [((0, 1, 2, 3), 0.5), ((2, 3, 4, 5), 0.5)])
    balls_w = neighborhood_system(w, 1)
    for z, ball in balls_w.items():
        assert len(ball) == w.link(z).n_vertices


def test_reversibility_and_reverse_pairing():
    c = random_partite_complex(11, [3, 4, 3])
    for op in (up_operator(c, 0), complement_walk(c, 0, 1)):
        assert op.detailed_balance_residual() < 1e-10
    comp01 = complement_walk(c, 0, 1)
    comp10 = complement_walk(c, 1, 0)
    rev = comp01.reverse()
    assert np.max(np.abs(dense(rev) - dense(comp10))) < 1e-10


def test_reverse_of_a_dense_walk_holds_one_copy():
    # complement_walk(complete(40,3),1,1) is 780 x 780, held dense (4.6 MiB);
    # forming the joint and then a scaled copy of its transpose peaked at
    # 9.4 MiB
    op = complement_walk(complete_complex(40, 3), 1, 1)
    assert isinstance(op.matrix, np.ndarray)
    tracemalloc.start()
    try:
        rev = op.reverse()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rev.shape == (780, 780)
    assert peak < 7 * 2**20


def test_row_stochastic_everywhere():
    c = random_partite_complex(21, [4, 4, 4])
    ops = [up_operator(c, 0), down_operator(c, 1), containment_operator(c, 2, 0),
           lower_walk(c, 1, 0), complement_walk(c, 0, 0),
           fixed_union_walk(c, 0, 1)]
    for op in ops:
        assert np.all(np.abs(op.row_sums() - 1.0) < 1e-10)
