"""Per-t reference versions of the flat (s1, t, s2) table.

``STSTable`` stores the conditional matrix ``cond`` and the t-sorted pair
arrays ``pairs``; its builders once cut them into one tagged table per t, and
its readers concatenated the tables back.  The oracles here are that per-t
code: the old ``from_joint`` list, the ``s_marginal`` loop and the per-t pair
expansion.  For every builder kind, ``s_marginal``, ``all_pairs`` and the
``tables`` view must equal them exactly and in the same order.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from hdxlab.agreement import d_l_test, up2k_distribution
from hdxlab.complexes import complete_complex
from hdxlab.decoder import in_one_set_test
from hdxlab.grassmann import GrassmannPoset, _sts_from_levels, agd_distribution, \
    lgd_distribution
from hdxlab.stav import _restricted_joint, hdx_stav, neighborhood_stav, \
    stav_from_json_dict, stav_to_json_dict
from hdxlab.walks import _containment_joint

from conftest import expand_table, random_partite_complex, random_weighted_complex
from test_agreement_oracles import up2k_dict
from test_stav_oracles import _random_stav, assert_same_entries, loadable_stav, \
    neighborhood_pairs_loop


def from_joint_tables_loop(st):
    """t by its column mass, then one "indep" table per t: the s of its
    column and their conditional masses; a t without mass gets an empty
    table."""
    stc = sp.csc_matrix(st)
    stc.sum_duplicates()
    t_probs = np.asarray(stc.sum(axis=0)).ravel()
    ptr = stc.indptr
    tables = [("indep", stc.indices[a:b].astype(np.int64),
               stc.data[a:b] / pt if pt > 0 else np.empty(0))
              for a, b, pt in zip(ptr[:-1], ptr[1:], t_probs)]
    return t_probs, tables


def s_marginal_loop(t_probs, tables, n_s):
    out = np.zeros(n_s)
    for pt, tab in zip(t_probs, tables):
        if tab[0] == "indep":
            np.add.at(out, tab[1], pt * tab[2])
        else:
            np.add.at(out, tab[1], pt * tab[3])
    return out


def all_pairs_loop(tables):
    """Every table expanded, concatenated in t order as (t, i, j, p)."""
    per_t = [expand_table(tab) for tab in tables]
    t = np.repeat(np.arange(len(tables)), [len(tab[0]) for tab in per_t])
    return [t] + [np.concatenate([np.empty(0)] + [tab[k] for tab in per_t])
                  for k in range(3)]


def assert_flat_sts_matches(sts, t_probs, tables):
    """The flat table against a per-t list: the same t_probs, a view with
    the same tables (a t without an "indep" entry reads "pairs"), and
    marginal and expanded pairs equal to the loops, bit for bit."""
    np.testing.assert_array_equal(sts.t_probs, t_probs)
    assert len(sts.tables) == len(tables)
    for got, want in zip(sts.tables, tables):
        if not len(want[1]):
            want = ("pairs",) + (np.empty(0),) * 3
        assert got[0] == want[0]
        assert_same_entries(got[1:], want[1:])
    np.testing.assert_array_equal(sts.s_marginal(),
                                  s_marginal_loop(t_probs, tables, sts.n_s))
    assert_same_entries(sts.all_pairs(), all_pairs_loop(tables))
    assert sts.tables is sts.tables
    with pytest.raises(AttributeError):
        sts.tables = []


def assert_json_sts_matches(x):
    """A saved and reloaded instance holds x's pairs as explicit tables."""
    y = stav_from_json_dict(json.loads(json.dumps(stav_to_json_dict(x))))
    tables = [("pairs", *expand_table(tab)) for tab in x.sts.tables]
    assert_flat_sts_matches(y.sts, np.asarray(y.st_joint.sum(axis=0)).ravel(), tables)


@given(st.builds(_random_stav, st.sampled_from(
    ["hdx", "hdx_l2", "partite", "partite_l2", "independent_0", "independent_1"]),
    st.integers(0, 2**31 - 1), st.integers(7, 8), st.integers(0, 4)))
def test_random_builders_match_from_joint_loop(x):
    assert_flat_sts_matches(x.sts, *from_joint_tables_loop(x.st_joint))


@given(loadable_stav)
def test_json_roundtrip_matches_expanded_tables(x):
    assert_json_sts_matches(x)


@pytest.mark.parametrize("n,d,k", [(7, 3, 0), (9, 5, 0), (9, 5, 1)])
@pytest.mark.parametrize("mode", ["independent", "complement"])
def test_neighborhood_matches_loops(n, d, k, mode):
    # complete(7, 3) and (9, 5): the gathers equal the loops bit for bit there
    c = complete_complex(n, d)
    x = neighborhood_stav(c, 1, k, mode)
    t_probs, tables = from_joint_tables_loop(x.st_joint)
    if mode == "complement":
        tables = [("pairs", *tab) for tab in neighborhood_pairs_loop(c, 1, k)]
    assert_flat_sts_matches(x.sts, t_probs, tables)
    assert_json_sts_matches(x)


@pytest.mark.parametrize("seed", range(3))
def test_containment_tests_match_from_joint_loop(seed):
    c = random_weighted_complex(seed, 8, 5)
    for d, l in ((5, 0), (5, 2), (3, 1)):
        assert_flat_sts_matches(d_l_test(c, d, l).sts,
                                *from_joint_tables_loop(_containment_joint(c, d, l)))


@pytest.mark.parametrize("seed", range(2))
def test_in_one_set_matches_from_joint_loop(seed):
    c = random_partite_complex(seed, [2] * 9)
    col = np.asarray(c.coloring)
    # at k = 4 most t carry no k-face with both colour sets: empty columns
    for ci, cj, k, l in (([0], [1], 8, 1), ([3], [7], 6, 0), ([2, 4], [5, 6], 6, 2),
                         ([2, 4], [5, 6], 4, 2)):
        faces = c.level(k).faces
        s_keep = np.flatnonzero(np.isin(col[faces], ci + cj).sum(axis=1) == len(ci + cj))
        st = _restricted_joint(c, k, l, s_keep, np.arange(c.level(l).size))
        assert_flat_sts_matches(in_one_set_test(c, ci, cj, k, l).sts,
                                *from_joint_tables_loop(st))


@pytest.mark.parametrize("q,n,d,l,flavor", [(2, 4, 2, 0, "linear"), (2, 4, 3, 1, "linear"),
                                            (2, 3, 2, 1, "affine"), (3, 3, 2, 0, "affine")])
def test_grassmann_tests_match_from_joint_loop(q, n, d, l, flavor):
    p = GrassmannPoset(q, n, d, flavor)
    want = from_joint_tables_loop(_sts_from_levels(p, d, l)[1])
    build = agd_distribution if flavor == "affine" else lgd_distribution
    assert_flat_sts_matches(build(p, d, l).sts, *want)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("k,t_level", [(2, None), (2, 0), (2, 1), (1, None)])
def test_up2k_matches_dict(seed, k, t_level):
    c = random_weighted_complex(seed, 8, 5)
    assert_flat_sts_matches(up2k_distribution(c, k, t_level).sts, *up2k_dict(c, k, t_level))


@pytest.mark.parametrize("n,d,l", [(7, 4, 1), (9, 6, 2)])
def test_hdx_json_roundtrip_matches_loop(n, d, l):
    x = hdx_stav(complete_complex(n, d), d, l)
    assert_flat_sts_matches(x.sts, *from_joint_tables_loop(x.st_joint))
    assert_json_sts_matches(x)
