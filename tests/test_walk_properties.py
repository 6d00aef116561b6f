"""Properties every walk constructor must have, on random weighted complexes.

For each operator: rows are stochastic, the joint's marginals are the source
and target level measures, reversing twice gives the operator back, and a
walk from a level to itself has a symmetric joint (detailed balance).  Its
lambda2, lambda_min and lambda_bip from Lanczos (the dense limit patched
low) match the dense solve.  A random joint stored dense and as CSR gives
identical scalings, marginals, spectra and operator results, and each
operator is stored as the storage predicate says.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

import hdxlab.walks as walks
from hdxlab.complexes import complete_complex
from hdxlab.spectra import bipartite_lambda, bipartite_norm, square_lambda, square_spectrum
from hdxlab.walks import (
    MarkovOperator,
    WeightedGraph,
    _asymmetry,
    _diag_scale,
    _marginal,
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
    monkeypatch.setattr(walks, "DENSE_EIG_LIMIT", LOW_LIMIT)
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
    monkeypatch.setattr(walks, "DENSE_EIG_LIMIT", 4)
    rep = square_spectrum(op)
    assert rep.method == "iterative"
    assert rep.lambda2 == pytest.approx(-1 / 11, abs=1e-12)
    assert rep.lambda_min == pytest.approx(-1 / 11, abs=1e-12)


# -- canonical sparse storage ------------------------------------------------------------


def _canonical(mat) -> bool:
    """CSR with ascending columns in every row and no repeated cell, read off
    its arrays, not off scipy's cached flag."""
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    cells = rows * mat.shape[1] + mat.indices
    return mat.format == "csr" and bool(np.all(np.diff(cells) > 0))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 8), d=st.integers(1, 3))
def test_walk_constructors_store_canonical_csr(seed, n, d):
    # every operator stored sparse (the storage rule refuses every matrix),
    # its reverse, a colored walk and the underlying graph; a composed
    # operator took the sparse product's unsorted rows before
    c = random_weighted_complex(seed, n, d)
    p = random_partite_complex(seed % 2**31, [2, 3, 2])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walks, "_stores_dense", lambda shape, entries: False)
        ops = [*_walks(c), ("colored", colored_walk(p, [0], [1, 2]))]
        mats = ([(name, op.matrix) for name, op in ops]
                + [(f"{name} reversed", op.reverse().matrix) for name, op in ops]
                + [("graph", underlying_graph(c).joint)])
    sparse = [(name, mat) for name, mat in mats if sp.issparse(mat)]
    # containment to the empty face, and its reverse, are dense
    assert len(sparse) == len(mats) - 2 * (d + 1)
    for name, mat in sparse:
        assert _canonical(mat), name


def test_lower_walk_past_the_dense_limit_is_canonical():
    op = lower_walk(complete_complex(16, 2), 2, 1)
    assert sp.issparse(op.matrix) and _canonical(op.matrix)
    assert op.matrix.has_canonical_format


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 9), canonical=st.booleans(),
       entries=st.sampled_from([1, 8, 1 << 18]))
def test_asymmetry_matches_the_dense_difference(seed, m, canonical, entries):
    # a square sparse matrix with few distinct values, so that equal values
    # may sit in cells that do not mirror each other, scaled by rows; stored
    # canonical, or with unsorted and repeated entries; one row block, or
    # blocks of a few entries
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, 2 * m * m + 1))
    r, c = rng.integers(0, m, size=(2, k))
    vals = rng.choice([0.25, 0.5, 1.0], size=k)
    if canonical:
        mat = sp.csr_matrix((vals, (r, c)), shape=(m, m))
    else:
        order = np.argsort(r, kind="stable")
        mat = sp.csr_matrix((vals[order], c[order], np.searchsorted(r[order], np.arange(m + 1))),
                            shape=(m, m))
    rows = rng.choice([0.5, 1.0, 2.0], size=m)
    j = rows[:, None] * mat.toarray()
    want = float(np.max(np.abs(j - j.T)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walks, "_GATHER_ENTRIES", entries)
        got = _asymmetry(mat, rows)
    assert got == want if canonical else abs(got - want) <= 1e-15
    assert _asymmetry(mat.toarray(), rows) == want


def asymmetry_by_transposed_copy(mat, rows, other=None, other_rows=None) -> float:
    """``_asymmetry`` of a CSR matrix as it was built on one transposed copy
    of ``other``, read in the same row blocks of ``mat``."""
    if other is None:
        other, other_rows = mat, rows
    mat, other = sp.csr_matrix(mat), sp.csr_matrix(other)
    tr_all, n = other.T.tocsr(), mat.shape[1]
    step = max(1, walks._GATHER_ENTRIES // 4)
    starts = np.searchsorted(mat.indptr, np.arange(0, mat.nnz, step), "right") - 1
    bounds = sorted(set([0, *starts.tolist(), mat.shape[0]]))
    worst = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        tr = tr_all[lo:hi]
        a = slice(mat.indptr[lo], mat.indptr[hi])
        n_a, n_b = np.diff(mat.indptr[lo:hi + 1]), np.diff(tr.indptr)
        gap = np.repeat(rows[lo:hi], n_a) * mat.data[a]
        back = other_rows[tr.indices] * tr.data
        if (mat.has_canonical_format and np.array_equal(n_a, n_b)
                and np.array_equal(mat.indices[a], tr.indices)):
            gap = gap - back
        else:
            cells = np.concatenate([np.repeat(np.arange(lo, hi), n_a) * n + mat.indices[a],
                                    np.repeat(np.arange(lo, hi), n_b) * n + tr.indices])
            _, ids = np.unique(cells, return_inverse=True)
            gap = np.bincount(ids.ravel(), np.concatenate([gap, -back]))
        worst = max(worst, float(np.abs(gap).max(initial=0.0)))
    return worst


def _random_csr(rng, shape, canonical):
    """A sparse matrix of few distinct values, canonical or with unsorted
    and repeated entries."""
    k = int(rng.integers(0, 2 * shape[0] * shape[1] + 1))
    r, c = rng.integers(0, shape[0], k), rng.integers(0, shape[1], k)
    vals = rng.choice([0.25, 0.5, 1.0], size=k)
    if canonical:
        return sp.csr_matrix((vals, (r, c)), shape=shape)
    order = np.argsort(r, kind="stable")
    return sp.csr_matrix((vals[order], c[order], np.searchsorted(r[order],
                                                                 np.arange(shape[0] + 1))),
                         shape=shape)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 9), k=st.integers(1, 9),
       kind=st.sampled_from(["square", "pair", "reverse"]), canonical=st.booleans(),
       entries=st.sampled_from([1, 8, 64, 1 << 18]))
def test_asymmetry_matches_the_transposed_copy(seed, m, k, kind, canonical, entries):
    # a square matrix against itself; an m x k matrix against an unrelated
    # k x m one; or against its own transpose, rescaled, so that the blocks
    # match entry by entry where both are canonical
    rng = np.random.default_rng(seed)
    mat = _random_csr(rng, (m, m) if kind == "square" else (m, k), canonical)
    rows = rng.choice([0.5, 1.0, 2.0], size=m)
    args = (mat, rows)
    if kind == "pair":
        args += (_random_csr(rng, (k, m), not canonical), rng.choice([0.5, 1.0], size=k))
    elif kind == "reverse":
        args += (sp.csr_matrix(mat.T), np.ones(k))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walks, "_GATHER_ENTRIES", entries)
        got, want = _asymmetry(*args), asymmetry_by_transposed_copy(*args)
    assert got == want


def test_asymmetry_of_a_cycle_of_equal_entries():
    # every row stores one entry, as does its transpose, in a different cell
    cycle = sp.csr_matrix((np.ones(3), ([0, 1, 2], [1, 2, 0])), shape=(3, 3))
    assert _asymmetry(cycle, np.ones(3)) == 1.0


# -- one arithmetic for both storages ---------------------------------------------------


def _random_joint(rng, m: int, n: int, density: float) -> np.ndarray:
    """A nonnegative (m, n) joint of mass 1 with mass in every row and column."""
    j = rng.random((m, n)) * (rng.random((m, n)) < density)
    k = np.arange(max(m, n))
    j[k % m, k % n] += 0.1
    return j / j.sum()


def _same(a, b) -> bool:
    return (sp.issparse(a), sp.issparse(b)) == (False, True) and np.array_equal(a, _dense(b))


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12), n=st.integers(1, 12),
       density=st.floats(0.0, 1.0))
def test_dense_and_csr_storage_give_identical_results(seed, m, n, density):
    rng = np.random.default_rng(seed)
    bip = _random_joint(rng, m, n, density)
    sym = _random_joint(rng, m, m, density)
    sym = (sym + sym.T) / 2.0
    rows, cols = rng.random(m) + 0.5, rng.random(n) + 0.5
    for j in (bip, sym):
        csr = sp.csr_matrix(j)
        c = cols if j is bip else rows
        assert _same(_diag_scale(j, rows, c), _diag_scale(csr, rows, c))
        assert _same(_diag_scale(j, rows), _diag_scale(csr, rows))
        assert _same(_diag_scale(j, cols=c), _diag_scale(csr, cols=c))
        for axis in (0, 1):
            assert np.array_equal(_marginal(j, axis), _marginal(csr, axis))
        pi_l, pi_r = _marginal(j, 1), _marginal(j, 0)
        assert (bipartite_lambda(j, pi_l, pi_r).to_json_dict()
                == bipartite_lambda(csr, pi_l, pi_r).to_json_dict())
        if j is sym:
            assert (square_lambda(j, pi_l).to_json_dict()
                    == square_lambda(csr, pi_l).to_json_dict())
        # the walk of the joint, both storages, between two levels or on one
        p = _diag_scale(j, 1.0 / pi_l)
        faces_l, faces_r = np.arange(j.shape[0])[:, None], np.arange(j.shape[1])[:, None]
        dense_op, csr_op = (MarkovOperator(faces_l, pi_l, faces_r, pi_r, mat)
                            for mat in (p, sp.csr_matrix(p)))
        assert np.array_equal(dense_op.row_sums(), csr_op.row_sums())
        assert _same(dense_op.joint(), csr_op.joint())
        assert _same(dense_op.reverse().matrix, csr_op.reverse().matrix)
        assert dense_op.detailed_balance_residual() == csr_op.detailed_balance_residual()


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 12), n=st.integers(0, 12))
def test_dense_marginals_in_row_blocks_match_one_pass(seed, m, n):
    # row and column sums of a dense matrix with entries of many magnitudes,
    # in row blocks of one row, of a few rows or of all of them: one cumsum
    # over the whole matrix and the canonical CSR copy's sums give the same
    # bits
    rng = np.random.default_rng(seed)
    j = rng.random((m, n)) * 10.0 ** rng.integers(-8, 9, (m, n)) * (rng.random((m, n)) < 0.6)
    want = [np.cumsum(j, axis=axis).take(-1, axis=axis) if j.shape[axis]
            else np.zeros(j.shape[1 - axis]) for axis in (0, 1)]
    for entries in (1, 8, 24, 1 << 18):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walks, "_GATHER_ENTRIES", entries)
            for axis in (0, 1):
                got = _marginal(j, axis)
                assert np.array_equal(got, want[axis]), (entries, axis)
                assert np.array_equal(got, _marginal(sp.csr_matrix(j), axis)), (entries, axis)


def test_operators_are_stored_as_the_predicate_says(monkeypatch):
    # complete(30,2): X(0) -> X(1) is 30 x 435 and 93 % full, stored dense past
    # the limit of 400; X(1) -> X(0) is 435 x 30 with 2 entries a row, CSR.
    # complete(9,5): X(1) -> X(0) is 36 x 9, dense within the limit and CSR
    # under a limit of 8, where the 9 x 9 complement walk and underlying
    # graph, 89 % full, stay dense
    small, large = complete_complex(9, 5), complete_complex(30, 2)
    full, thin = complement_walk(large, 0, 1), down_operator(large, 0)
    assert not walks._solves_dense(full.shape) and not walks._solves_dense(thin.shape)
    assert walks._stores_dense(full.shape, 30 * 406)
    assert not walks._stores_dense(thin.shape, 2 * 435)
    assert isinstance(full.matrix, np.ndarray)
    assert sp.issparse(thin.matrix)
    assert isinstance(down_operator(small, 0).matrix, np.ndarray)
    monkeypatch.setattr(walks, "DENSE_EIG_LIMIT", 8)
    assert sp.issparse(down_operator(small, 0).matrix)
    assert isinstance(complement_walk(small, 0, 0).matrix, np.ndarray)
    assert isinstance(underlying_graph(small).joint, np.ndarray)
    monkeypatch.setattr(walks, "DENSE_EIG_LIMIT", 435)
    assert isinstance(down_operator(large, 0).matrix, np.ndarray)


def test_stored_dense_at_the_byte_crossover():
    # 8 bytes a cell against 12 an entry: 3 x 3 cells take 72 bytes, as do 6
    # entries; below the limit every shape is stored dense
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walks, "DENSE_EIG_LIMIT", 2)
        assert walks._stores_dense((3, 3), 6)
        assert not walks._stores_dense((3, 3), 5)
        assert walks._stores_dense((2, 2), 0)
