"""Loop-based reference versions of the goodness checker's array code.

Each oracle is the per-element loop the array version replaced; the tests
require equal labels, matrices within 1e-12 and equal counts.
"""

import itertools
from collections import defaultdict

import numpy as np
import pytest
import scipy.sparse as sp

from hdxlab.complexes import build_from_top_faces, complete_complex, \
    partite_complete_complex
from hdxlab.errors import ZeroConditioning
from hdxlab.spectra import square_lambda
from hdxlab.stav import (
    _sampler_spot_checks,
    _structured_vasa_v_lambda,
    derive_graph,
    hdx_stav,
    neighborhood_stav,
    partite_ij_stav,
    stav_from_json_dict,
    stav_to_json_dict,
)


def sts_conditioned_loop(x, need):
    """Pair graph conditioned on the middle face containing ``need``: every
    pair table expanded and summed in a dict."""
    t_sel = [ti for ti, sup in enumerate(x.t_supports)
             if need <= set(sup) and x.t_probs[ti] > 0]
    if not t_sel:
        raise ZeroConditioning("conditioning event has zero probability")
    z = sum(float(x.t_probs[ti]) for ti in t_sel)
    acc = defaultdict(float)
    for ti in t_sel:
        i_idx, j_idx, p = x.sts.pair_arrays(ti)
        w = float(x.t_probs[ti]) / z
        for a, b, q in zip(i_idx, j_idx, p):
            acc[(int(a), int(b))] += w * float(q)
    live = sorted({a for a, _ in acc} | {b for _, b in acc})
    pos = {s: i for i, s in enumerate(live)}
    dense = np.zeros((len(live), len(live)))
    for (a, b), q in acc.items():
        dense[pos[a], pos[b]] += q
    return [x.s_labels[i] for i in live], dense


def structured_vasa_v_lambda_dict(c, d, l, v):
    """Disjoint-pair graph in the link of v, a-faces ranked through a dict."""
    others = np.array([u for u in range(c.n_vertices) if u != v], dtype=np.int64)
    if c.uniform_complete:
        union_rows = others[np.array(list(itertools.combinations(
            range(len(others)), 2 * l)), dtype=np.int64)]
        mass = np.full(len(union_rows), 1.0)
    else:
        lev = c.level(2 * l)
        rows = lev.faces[(lev.faces == v).any(axis=1)]
        union_rows = rows[rows != v].reshape(len(rows), 2 * l)
        mass = c.containment_mass_rows(np.sort(np.concatenate(
            [union_rows, np.full((len(union_rows), 1), v)], axis=1), axis=1))
    a_combos = list(itertools.combinations(range(len(others)), l))
    a_rank = {comb: i for i, comb in enumerate(a_combos)}
    pos_of = np.zeros(c.n_vertices, dtype=np.int64)
    pos_of[others] = np.arange(len(others))
    rows_i, cols_j, vals = [], [], []
    for keep in itertools.combinations(range(2 * l), l):
        rest = tuple(i for i in range(2 * l) if i not in keep)
        left = np.sort(pos_of[union_rows[:, keep]], axis=1)
        right = np.sort(pos_of[union_rows[:, rest]], axis=1)
        rows_i.append(np.array([a_rank[tuple(row)] for row in left]))
        cols_j.append(np.array([a_rank[tuple(row)] for row in right]))
        vals.append(mass)
    j = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows_i), np.concatenate(cols_j))),
                      shape=(len(a_combos), len(a_combos))).tocsr()
    j.sum_duplicates()
    keep_idx = np.flatnonzero(np.asarray(j.sum(axis=1)).ravel() > 0)
    j = j[keep_idx][:, keep_idx]
    j = j / j.sum()
    return square_lambda(j, np.asarray(j.sum(axis=1)).ravel()).two_sided


def sampler_spot_checks_loop(joint, delta, n_checks, rng):
    """Delta-sampling checks, one candidate subset at a time."""
    pi_l = joint.sum(axis=1)
    pi_r = joint.sum(axis=0)
    nr = joint.shape[1]
    failures = 0
    if nr <= 12:
        candidates = [np.array(c) for size in range(1, nr + 1)
                      for c in itertools.combinations(range(nr), size)]
    else:
        candidates = [np.flatnonzero(rng.random(nr) < rng.uniform(0.2, 0.8))
                      for _ in range(n_checks)]
    for cset in candidates:
        if len(cset) == 0:
            continue
        if pi_r[cset].sum() < delta:
            continue
        cond = joint[:, cset].sum(axis=1) / pi_l
        if pi_l[cond >= delta / 3.0].sum() < 1.0 / 3.0 - 1e-12:
            failures += 1
    return failures


def _weighted_complex(seed, n, d):
    rng = np.random.default_rng(seed)
    tops = list(itertools.combinations(range(n), d + 1))
    w = rng.gamma(2.0, 1.0, size=len(tops))
    return build_from_top_faces(n, [(t, float(x)) for t, x in zip(tops, w / w.sum())])


def _instances():
    c95 = complete_complex(9, 5)
    hdx = hdx_stav(c95, 5, 1)
    return {
        "hdx": hdx,
        "hdx_weighted": hdx_stav(_weighted_complex(3, 9, 5), 5, 1, force_mode="tabular"),
        "partite": partite_ij_stav(partite_complete_complex([2] * 9), [0], [1], 8),
        "nbhd_independent": neighborhood_stav(c95, 1, 0, "independent"),
        "nbhd_complement": neighborhood_stav(c95, 1, 0, "complement"),
        "json_roundtrip": stav_from_json_dict(stav_to_json_dict(hdx)),
    }


@pytest.fixture(scope="module")
def instances():
    return _instances()


def _conditioned_pairs(x):
    """Every a, and every (a, v) with reach mass, as derive_graph calls and
    the conditioning sets the oracle takes."""
    adj_a, _ = x.adjacency()
    for ai, a in enumerate(x.a_labels):
        yield ("sts_a", a), set(x.a_supports[ai])
        for vi in sorted(adj_a.get(ai, ())):
            yield (("sts_av", (a, x.v_labels[vi])),
                   set(x.a_supports[ai]) | {int(x.v_ground[vi])})


@pytest.mark.parametrize("name", ["hdx", "hdx_weighted", "partite", "nbhd_independent",
                                  "nbhd_complement", "json_roundtrip"])
def test_sts_conditioned_matches_loop(instances, name):
    x = instances[name]
    checked = 0
    for (kind, element), need in _conditioned_pairs(x):
        try:
            want_labels, want = sts_conditioned_loop(x, need)
        except ZeroConditioning:
            with pytest.raises(ZeroConditioning):
                derive_graph(x, kind, element)
            continue
        g = derive_graph(x, kind, element)
        assert g.items == want_labels, (kind, element)
        assert np.max(np.abs(np.asarray(g.joint) - want)) <= 1e-12, (kind, element)
        checked += 1
    assert checked > len(x.a_labels)


def test_json_roundtrip_is_all_pairs_tables(instances):
    assert {tab[0] for tab in instances["json_roundtrip"].sts.tables} == {"pairs"}
    assert "pairs" in {tab[0] for tab in instances["nbhd_complement"].sts.tables}


@pytest.mark.parametrize("n,d,l", [(9, 5, 1), (10, 6, 2)])
def test_structured_vasa_rank_matches_dict_weighted(n, d, l):
    c = _weighted_complex(n + d, n, d)
    for v in range(c.n_vertices):
        assert _structured_vasa_v_lambda(c, d, l, v) == pytest.approx(
            structured_vasa_v_lambda_dict(c, d, l, v), abs=1e-12)


def test_structured_vasa_rank_matches_dict_complete():
    c = complete_complex(12, 6)
    assert _structured_vasa_v_lambda(c, 6, 2, 0) == pytest.approx(
        structured_vasa_v_lambda_dict(c, 6, 2, 0), abs=1e-12)


def _split_graph(d, l):
    a_list = list(itertools.combinations(range(d + 1), l))
    joint = np.zeros((len(a_list), d + 1))
    for i, a in enumerate(a_list):
        joint[i, [v for v in range(d + 1) if v not in a]] = 1.0
    return joint / joint.sum()


def _spot_check_cases():
    rng = np.random.default_rng(11)
    for d, l in ((4, 1), (5, 1), (8, 3), (12, 2), (13, 3), (15, 2)):
        yield f"split({d},{l})", _split_graph(d, l)
    for nl, nr, m1 in ((3, 5, 0.2), (4, 16, 0.25), (6, 14, 0.3)):
        # two blocks: the light one is a poor sampler of its own right side
        j = np.zeros((nl, nr))
        j[: nl // 2, : nr // 3] = m1 / ((nl // 2) * (nr // 3))
        j[nl // 2:, nr // 3:] = (1 - m1) / ((nl - nl // 2) * (nr - nr // 3))
        yield f"blocks({nl},{nr},{m1})", j
    for trial in range(12):
        nl, nr = int(rng.integers(2, 12)), int(rng.integers(2, 20))
        j = rng.gamma(1.0, 1.0, size=(nl, nr)) * (rng.random((nl, nr)) < 0.7)
        j = j[np.ix_(j.sum(axis=1) > 0, j.sum(axis=0) > 0)]
        yield f"random{trial}", j / j.sum()


@pytest.mark.parametrize("delta", [0.1, 1 / 6, 0.25, 1 / 3, 0.5, 0.6, 0.9])
def test_sampler_spot_checks_match_loop(delta):
    fired = 0
    for name, joint in _spot_check_cases():
        r_new = np.random.default_rng(5)
        r_old = np.random.default_rng(5)
        got = _sampler_spot_checks(joint, delta, 300, r_new)
        want = sampler_spot_checks_loop(joint, delta, 300, r_old)
        assert got == want, name
        # the seeded stream continues where the loop version left it
        assert r_new.bit_generator.state == r_old.bit_generator.state, name
        fired += want > 0
    if delta < 0.2:
        assert fired > 0
