"""Properties every walk constructor must have, on random weighted complexes.

For each operator: rows are stochastic, the joint's marginals are the source
and target level measures, reversing twice gives the operator back, and a
walk from a level to itself has a symmetric joint (detailed balance).  Its
lambda2, lambda_min and lambda_bip from Lanczos (the dense limit patched
low) match the dense solve.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

import hdxlab.spectra as spectra
from hdxlab.complexes import complete_complex
from hdxlab.spectra import bipartite_norm, square_spectrum
from hdxlab.walks import (
    WeightedGraph,
    colored_walk,
    complement_walk,
    containment_operator,
    down_operator,
    fixed_union_walk,
    lower_walk,
    nonlazy_upper_walk,
    underlying_graph,
    up_operator,
)

from conftest import (
    containment_operator_by_product,
    random_partite_complex,
    random_weighted_complex,
)

TOL = 1e-12
# dense against Lanczos
EIG_TOL = 1e-10
# operators with more rows than this take the Lanczos path in the comparison
LOW_LIMIT = 2


def _dense(m):
    return m.toarray() if sp.issparse(m) else np.asarray(m)


def _walks(c):
    """Every walk the constructors can build on ``c``, with a name."""
    d = c.d
    for k in range(d):
        yield f"up{k}", up_operator(c, k)
        yield f"down{k}", down_operator(c, k)
        yield f"nonlazy{k}", nonlazy_upper_walk(c, k)
    for k in range(d + 1):
        yield f"containment-1,{k}", containment_operator(c, k, -1)
    for l, k in itertools.combinations(range(d + 1), 2):
        yield f"containment{l},{k}", containment_operator(c, k, l)
        yield f"product{l},{k}", containment_operator_by_product(c, k, l)
        yield f"lower{l},{k}", lower_walk(c, k, l)
    for l1, l2 in itertools.product(range(d), repeat=2):
        if l1 + l2 + 1 <= d:
            yield f"complement{l1},{l2}", complement_walk(c, l1, l2)
    for l in range(d + 1):
        for j in range(1, l + 2):
            if l + j <= d:
                yield f"fixed_union{l},{j}", fixed_union_walk(c, l, j)


def _check(name, op):
    rows = op.row_sums()
    assert np.max(np.abs(rows - 1.0)) <= TOL, name
    joint = _dense(op.joint())
    assert np.allclose(joint.sum(axis=1), op.source_measure, rtol=0, atol=TOL), name
    assert np.allclose(joint.sum(axis=0), op.target_measure, rtol=0, atol=TOL), name
    back = op.reverse().reverse()
    assert np.array_equal(back.source_faces, op.source_faces), name
    assert np.allclose(_dense(back.matrix), _dense(op.matrix), rtol=0, atol=TOL), name
    if op.is_square:
        assert np.max(np.abs(joint - joint.T)) <= TOL, name


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 8), d=st.integers(1, 3))
def test_walks_on_random_weighted_complexes(seed, n, d):
    c = random_weighted_complex(seed, n, d)
    for name, op in _walks(c):
        _check(name, op)


@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(1, 3), min_size=3, max_size=4))
def test_walks_on_random_partite_complexes(seed, sizes):
    c = random_partite_complex(seed % 2**31, sizes)
    for name, op in _walks(c):
        _check(name, op)
    for i, j in itertools.permutations(range(len(sizes)), 2):
        _check(f"colored{i},{j}", colored_walk(c, [i], [j]))
    _check("colored01,2", colored_walk(c, [0, 1], [2]))


def _reports(op) -> list:
    """Square spectrum of a walk from a level to itself or of a weighted
    graph, and bipartite norm of every walk."""
    graph = isinstance(op, WeightedGraph)
    return (([square_spectrum(op)] if graph or op.is_square else [])
            + ([] if graph else [bipartite_norm(op)]))


def _values(reps) -> list[float]:
    return [v for r in reps for v in (r.lambda2, r.lambda_min, r.lambda_bip)
            if v is not None]


def _solvers_agree(monkeypatch, ops) -> list[float]:
    """Dense against Lanczos on every (name, op); the dense lambda2 values."""
    dense = [_reports(op) for _, op in ops]
    monkeypatch.setattr(spectra, "DENSE_EIG_LIMIT", LOW_LIMIT)
    for (name, op), want in zip(ops, dense):
        got = _reports(op)
        np.testing.assert_allclose(_values(got), _values(want), rtol=0, atol=EIG_TOL,
                                   err_msg=name)
        if max(op.joint.shape if isinstance(op, WeightedGraph) else op.shape) > LOW_LIMIT:
            assert all(r.method in ("iterative", "trivial") for r in got), name
    return [r.lambda2 for reps in dense for r in reps if r.lambda2 is not None]


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 8), d=st.integers(1, 3))
def test_lanczos_matches_dense_on_random_weighted_complexes(seed, n, d):
    c = random_weighted_complex(seed, n, d)
    with pytest.MonkeyPatch.context() as mp:
        _solvers_agree(mp, list(_walks(c)) + [("graph", underlying_graph(c))])


@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(2, 3), min_size=3, max_size=4))
def test_lanczos_matches_dense_on_random_partite_complexes(seed, sizes):
    c = random_partite_complex(seed % 2**31, sizes)
    ops = [(f"colored{i},{j}", colored_walk(c, [i], [j]))
           for i, j in itertools.permutations(range(len(sizes)), 2)]
    with pytest.MonkeyPatch.context() as mp:
        _solvers_agree(mp, ops + [("colored01,2", colored_walk(c, [0, 1], [2]))])


@pytest.mark.parametrize("n,d", [(6, 2), (7, 3), (8, 2)])
def test_lanczos_matches_dense_where_lambda2_is_negative(monkeypatch, n, d):
    lam2 = _solvers_agree(monkeypatch, list(_walks(complete_complex(n, d))))
    assert min(lam2) < -0.1


def test_lanczos_keeps_a_negative_lambda2(monkeypatch):
    # the walk on K_12: lambda2 = lambda_min = -1/11, which a deflation that
    # zeroes the constant would report as 0
    op = nonlazy_upper_walk(complete_complex(12, 2), 0)
    monkeypatch.setattr(spectra, "DENSE_EIG_LIMIT", 4)
    rep = square_spectrum(op)
    assert rep.method == "iterative"
    assert rep.lambda2 == pytest.approx(-1 / 11, abs=1e-12)
    assert rep.lambda_min == pytest.approx(-1 / 11, abs=1e-12)
