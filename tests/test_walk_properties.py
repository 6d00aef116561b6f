"""Properties every walk constructor must have, on random weighted complexes.

For each operator: rows are stochastic, the joint's marginals are the source
and target level measures, reversing twice gives the operator back, and a
walk from a level to itself has a symmetric joint (detailed balance).
"""

import itertools

import numpy as np
import scipy.sparse as sp
from hypothesis import given, strategies as st

from hdxlab.walks import (
    colored_walk,
    complement_walk,
    containment_operator,
    containment_operator_by_product,
    down_operator,
    fixed_union_walk,
    lower_walk,
    nonlazy_upper_walk,
    up_operator,
)

from conftest import random_partite_complex, random_weighted_complex

TOL = 1e-12


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
