import itertools
import math

import numpy as np
import pytest

from hdxlab.errors import (
    DimensionArithmetic,
    LevelOutOfRange,
    ParameterRange,
    SizeCapError,
)
from hdxlab.grassmann import (
    GF,
    GrassmannPoset,
    agd_distribution,
    conditioned_complement_walk,
    gaussian_binomial,
    grassmann_containment_walk,
    grassmann_stav,
    lgd_distribution,
    make_subspace,
)
from hdxlab.spectra import bipartite_norm
from hdxlab.stav import derive_graph, invariant_report

from conftest import pair_arrays
from test_grassmann_oracles import rank
from test_stav_oracles import assert_json_roundtrip, assert_marginals_match_loops
from test_sts_oracles import assert_flat_sts_matches, from_joint_tables_loop


def enumerate_level(p, k):
    return p.level(k)


def span_points(gf, basis):
    """All q^dim vectors of the row span of ``basis`` over ``gf``."""
    dim, n = basis.shape
    if dim == 0:
        return np.zeros((1, n), dtype=np.int64)
    coeffs = np.array(list(itertools.product(range(gf.q), repeat=dim)), dtype=np.int64)
    pts = np.zeros((len(coeffs), n), dtype=np.int64)
    for j in range(dim):
        pts = gf.add(pts, gf.mul(coeffs[:, j][:, None], basis[j][None, :]))
    return pts


def gaussian_binomial_oracle(n, k, q):
    # independent product form over exact integers
    from fractions import Fraction
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(q ** (n - i) - 1, q ** (k - i) - 1)
    assert out.denominator == 1
    return int(out)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms(q):
    gf = GF(q)
    a = np.arange(q)
    add, mul = gf.add_t, gf.mul_t
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    for x in range(q):
        assert add[x, 0] == x and mul[x, 1] == x and mul[x, 0] == 0
        assert add[x, gf.neg_t[x]] == 0
        if x:
            assert mul[x, gf.inv_t[x]] == 1
        for y in range(q):
            for z in range(q):
                assert add[add[x, y], z] == add[x, add[y, z]]
                assert mul[mul[x, y], z] == mul[x, mul[y, z]]
                assert mul[x, add[y, z]] == add[mul[x, y], mul[x, z]]
    del a


def test_level_counts_match_gaussian():
    assert len(GrassmannPoset(2, 3, 1, "linear").level(0)) == 7
    assert len(GrassmannPoset(2, 2, 1, "affine").level(0)) == 4
    assert len(GrassmannPoset(3, 3, 1, "linear").level(1)) == 13
    p = GrassmannPoset(2, 5, 3, "linear")
    for k in range(4):
        assert len(p.level(k)) == gaussian_binomial_oracle(5, k + 1, 2)
    pa = GrassmannPoset(3, 3, 2, "affine")
    for k in range(3):
        expect = 3 ** (3 - k) * gaussian_binomial_oracle(3, k, 3)
        assert len(pa.level(k)) == expect
    assert gaussian_binomial(5, 2, 2) == gaussian_binomial_oracle(5, 2, 2)


def test_canonicalization_of_random_bases():
    p = GrassmannPoset(3, 4, 2, "linear")
    gf = p.gf
    rng = np.random.default_rng(7)
    for s in p.level(1)[:20]:
        basis = s.basis_matrix()
        for _ in range(5):
            coeffs = rng.integers(0, 3, size=(2, 2))
            while rank(gf, coeffs) < 2:
                coeffs = rng.integers(0, 3, size=(2, 2))
            mixed = np.zeros_like(basis)
            for i in range(2):
                for j in range(2):
                    mixed[i] = gf.add(mixed[i], gf.mul(coeffs[i, j], basis[j]))
            again = make_subspace(gf, "linear", mixed)
            assert again == s


def test_affine_coset_canonicalization():
    p = GrassmannPoset(2, 4, 2, "affine")
    gf = p.gf
    for s in p.level(1)[:20]:
        basis = s.basis_matrix()
        off = s.offset_vector()
        for shift in span_points(gf, basis)[:4]:
            again = make_subspace(gf, "affine", basis, gf.add(off, shift))
            assert again == s


def test_containment_walk_rows_and_strictness():
    p = GrassmannPoset(2, 4, 2, "linear")
    op = grassmann_containment_walk(p, 1, 0)
    rows = op.row_sums()
    assert np.all(np.abs(rows - 1) < 1e-10)
    assert op.shape == (len(p.level(1)), len(p.level(0)))
    with pytest.raises(LevelOutOfRange):
        grassmann_containment_walk(p, 1, 1)


def test_containment_walk_expansion_bound():
    p = GrassmannPoset(2, 4, 1, "linear")
    rep = bipartite_norm(grassmann_containment_walk(p, 1, 0))
    assert rep.lambda_bip <= 1 / math.sqrt(2) + 1e-9
    pa = GrassmannPoset(2, 4, 1, "affine")
    repa = bipartite_norm(grassmann_containment_walk(pa, 1, 0))
    assert repa.lambda_bip <= 1 / math.sqrt(2) + 1e-9


def test_conditioned_trivial_equals_unconditioned():
    p = GrassmannPoset(2, 4, 1, "linear")
    zero = make_subspace(p.gf, "linear", np.zeros((0, 4), dtype=np.int64))
    a = conditioned_complement_walk(p, 0, 0, None)
    b = conditioned_complement_walk(p, 0, 0, zero)
    ja, jb = a.joint(), b.joint()
    import scipy.sparse as sp
    ja = np.asarray(ja.todense()) if sp.issparse(ja) else ja
    jb = np.asarray(jb.todense()) if sp.issparse(jb) else jb
    assert np.max(np.abs(ja - jb)) < 1e-15


def test_conditioned_walk_bound_and_errors():
    p = GrassmannPoset(2, 5, 3, "linear")
    u0 = p.level(0)[0]
    rep = bipartite_norm(conditioned_complement_walk(p, 0, 0, u0))
    assert rep.lambda_bip <= 4 / 2 ** (5 - 2) + 1e-9
    big = p.level(2)[0]  # dimension 3
    with pytest.raises(DimensionArithmetic):
        conditioned_complement_walk(p, 1, 1, big)


def test_affine_point_walk_is_complete_graph():
    p = GrassmannPoset(2, 4, 2, "affine")
    op = conditioned_complement_walk(p, 0, 0, None)
    m = np.asarray(op.matrix)
    n_pts = 16
    assert m.shape == (n_pts, n_pts)
    assert np.allclose(np.diag(m), 0)
    assert np.allclose(m[~np.eye(n_pts, dtype=bool)], 1 / (n_pts - 1))
    assert bipartite_norm(op).lambda_bip == pytest.approx(1 / 15, abs=1e-12)


def test_distribution_marginals():
    p = GrassmannPoset(2, 4, 2, "linear")
    test = lgd_distribution(p, 2, 0)
    sm = test.sts.s_marginal()
    assert np.max(np.abs(sm - 1 / len(sm))) < 1e-12
    pa = GrassmannPoset(2, 4, 2, "affine")
    ta = agd_distribution(pa, 2, 1)
    sma = ta.sts.s_marginal()
    assert np.max(np.abs(sma - 1 / len(sma))) < 1e-12
    with pytest.raises(ParameterRange):
        agd_distribution(p, 2, 0)


def test_distribution_support_and_repeats():
    p = GrassmannPoset(2, 4, 2, "linear")
    test = lgd_distribution(p, 2, 0)
    saw_equal = False
    for ti, pt in enumerate(test.sts.t_probs):
        i_idx, j_idx, q = pair_arrays(test.sts, ti)
        tsup = set(test.t_supports[ti])
        for si, sj, qq in zip(i_idx, j_idx, q):
            if qq <= 0:
                continue
            assert tsup <= set(test.s_supports[int(si)])
            assert tsup <= set(test.s_supports[int(sj)])
            if si == sj:
                saw_equal = True
    assert saw_equal  # independent draws allow s1 = s2


@pytest.mark.slow
def test_grassmann_stav_invariants():
    pa = GrassmannPoset(2, 6, 6, "affine")
    x = grassmann_stav(pa, 6, 1)
    rep = invariant_report(x)
    assert rep.passed(tol=1e-10, uniform_tol=1e-10)
    # the one admissible instance is slow to build, so its flat-table checks
    # run here rather than in test_stav_oracles
    assert_marginals_match_loops(x)
    assert_json_roundtrip(x)
    assert_flat_sts_matches(x.sts, *from_joint_tables_loop(x.st_joint))
    g = derive_graph(x, "t_lower", x.t_labels[0])
    lam = bipartite_norm(g).lambda_bip
    assert lam <= 1.0 + 1e-9  # measured and reported


def test_grassmann_stav_caps_and_range():
    pa = GrassmannPoset(2, 7, 6, "affine")
    with pytest.raises(SizeCapError):
        grassmann_stav(pa, 6, 1)
    p = GrassmannPoset(2, 5, 3, "linear")
    with pytest.raises(ParameterRange):
        grassmann_stav(p, 3, 1)  # needs 3l+2 < d


def test_enumerate_level_alias():
    p = GrassmannPoset(2, 3, 1, "linear")
    assert enumerate_level(p, 0) == p.level(0)
