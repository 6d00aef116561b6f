"""Loop-based reference versions of the four-layer array code.

Each oracle is the per-element loop the array version replaced: the goodness
checker's conditioned pair graphs and spot checks, the structured path's
per-a-face pair operators (A2a, A3b) and per-vertex disjointness graphs
(A3a), each solved alone and matched within 1e-12, the invariant report, the
builders of the (S, T) main distribution and its pair tables, the builders'
per-t (a, v) tables and amplification tables, and the per-t marginals read
from them.  The tests require equal labels and index arrays, values within
1e-12 and equal counts; the (a, v) and amplification tables must equal their
loops entry for entry, in order.  ``neighborhood_stav``'s gathers are checked
against its old loops over links and complement walks: index columns equal
and in order, probabilities within 2e-15 relative, and bit for bit on the
complete complexes of the golden reports.  Frozen ``stav_to_json_dict``
outputs under ``tests/golden/stav_json_*.json`` pin the instance file format.
"""

import dataclasses
import itertools
import json
import math
import os
from collections import defaultdict

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, strategies as st

from hdxlab.agreement import d_l_test
from hdxlab.complexes import build_from_top_faces, complete_complex, \
    partite_complete_complex
from hdxlab.decoder import in_one_set_test
from hdxlab.errors import ZeroConditioning
from hdxlab.grassmann import GrassmannPoset, _sts_from_levels
from hdxlab.walks import BipartiteGraph, WeightedGraph, complement_walk
from hdxlab.spectra import (BRUTE_FORCE_VERTICES, bipartite_lambda, edge_expansion_exact,
                            square_lambda)
from hdxlab.stav import (
    _SPOT_CHECK_SEED,
    _SPOT_CHECKS,
    VasaTable,
    _assemble_report,
    _drop_one,
    _local_reach_graphs,
    _reach,
    _sampler_spot_checks,
    _structured_a_graphs,
    derive_graph,
    goodness_check,
    hdx_stav,
    invariant_report,
    neighborhood_stav,
    partite_ij_stav,
    stav_from_json_dict,
    stav_to_json_dict,
)

from conftest import (kneser_lambda, pair_arrays, random_partite_complex,
                      random_weighted_complex, structured_vasa_v_values, sts_from_tables)


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
        i_idx, j_idx, p = pair_arrays(x.sts, ti)
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


def _leaky_links(n_hubs=2, pad=7):
    """Hubs 0, 1, ... with one and the same link: a triangle L, a heavy
    triangle H whose pairs each span a light triangle with one more vertex X,
    and all triangles of ``pad`` vertices P at a tiny weight.

    A hub's local reach graph has 7 + pad columns.  Its subset L + X has
    mass above 1/3, but only L (mass 0.28) reaches it with conditional
    1/9 or more, as H sends a tenth of its mass to X: a spot check at
    delta = 1/3 fails on the random draws that hit L + X and nothing else
    of L, H and X.  The other vertices' graphs have at most 8 columns.
    """
    L, H, X = (n_hubs, n_hubs + 1, n_hubs + 2), (n_hubs + 3, n_hubs + 4, n_hubs + 5), n_hubs + 6
    P = tuple(range(n_hubs + 7, n_hubs + 7 + pad))
    link = ([(L, 4.5), (H, 8.0)] + [((hi, hj, X), 1.0) for hi, hj in itertools.combinations(H, 2)]
            + [(t, 0.01) for t in itertools.combinations(P, 3)])
    total = n_hubs * sum(w for _, w in link)
    return build_from_top_faces(n_hubs + 7 + pad, [((z,) + t, w / total)
                                                   for z in range(n_hubs) for t, w in link])


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
        # repeated local reach graphs of at most and of more than 12 columns
        "nbhd_leaky": neighborhood_stav(_leaky_links(), 1, 0, "independent"),
    }


@pytest.fixture(scope="module")
def instances():
    return _instances()


def reach_neighbours(x):
    """The v of positive reach mass of each a, as sets."""
    j = x.reach_joint().tocoo()
    adj_a = defaultdict(set)
    for a, v, p in zip(j.row, j.col, j.data):
        if p > 0:
            adj_a[int(a)].add(int(v))
    return dict(adj_a)


def _conditioned_pairs(x):
    """Every a, and every (a, v) with reach mass, as derive_graph calls and
    the conditioning sets the oracle takes."""
    adj_a = reach_neighbours(x)
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
    got = structured_vasa_v_values(c, l)
    for v in range(c.n_vertices):
        assert got[v] == pytest.approx(structured_vasa_v_lambda_dict(c, d, l, v), abs=1e-12)


def _structured_a3a(c, d, l):
    return goodness_check(hdx_stav(c, d, l, force_mode="structured"), 0.5).a3a_max_lambda


def test_structured_vasa_rank_matches_dict_complete():
    # the gathered family of a complete complex, and its closed form
    c = complete_complex(12, 6)
    want = structured_vasa_v_lambda_dict(c, 6, 2, 0)
    assert structured_vasa_v_values(c, 2) == pytest.approx(np.full(12, want), abs=1e-12)
    assert _structured_a3a(c, 6, 2) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n,d,l", [(14, 8, 3), (16, 8, 2), (9, 5, 1), (11, 8, 3)])
def test_structured_vasa_kneser_closed_form(n, d, l):
    # the closed form against the assembled disjointness operator on the
    # l-subsets of the link, and against the exact-rational Kneser spectrum
    c = complete_complex(n, d)
    got = _structured_a3a(c, d, l)
    assert got == pytest.approx(structured_vasa_v_lambda_dict(c, d, l, 0), abs=1e-12)
    assert got == pytest.approx(kneser_lambda(n - 1, l), abs=1e-15)


def structured_a_loop(c, d, l):
    """lambda2 of the pair operator T and of the amplification two-step W of
    every a-face, one a-face and two dense square_lambda calls at a time; the
    v of a are the vertices with a + v a face of positive mass."""
    lev_a = c.level(l - 1)
    out = []
    for a in lev_a.faces:
        others = np.setdiff1d(np.arange(c.n_vertices), a)
        mass_1 = c.containment_mass_rows(np.sort(np.column_stack(
            [np.tile(a, (len(others), 1)), others]), axis=1))
        vs = others[mass_1 > 0]
        mass_1 = mass_1[mass_1 > 0]
        m = len(vs)
        pairs = np.array(list(itertools.combinations(range(m), 2)), dtype=int)
        ratio = np.zeros((m, m))
        if len(pairs):
            mass_2 = c.containment_mass_rows(np.sort(np.concatenate(
                [np.tile(a, (len(pairs), 1)), vs[pairs[:, 0], None],
                 vs[pairs[:, 1], None]], axis=1), axis=1))
            ratio[pairs[:, 0], pairs[:, 1]] = mass_2
            ratio[pairs[:, 1], pairs[:, 0]] = mass_2
        pi = mass_1 / mass_1.sum()
        t_mat = ratio / mass_1[:, None] / (d + 1 - l)
        np.fill_diagonal(t_mat, 1.0 / (d + 1 - l))
        denom = (d + 1 - 2 * l) * math.comb(d - l, l)
        w_mat = ratio / mass_1[:, None] * (math.comb(d - l - 1, l) / denom)
        np.fill_diagonal(w_mat, 1.0 / (d + 1 - 2 * l))
        out.append([square_lambda(pi[:, None] * mat, pi).lambda2 for mat in (t_mat, w_mat)])
    return np.array(out).T


@pytest.mark.parametrize("make,l", [
    (lambda: _weighted_complex(7, 9, 5), 1), (lambda: _weighted_complex(7, 10, 6), 2),
    (lambda: random_weighted_complex(3, 10, 6), 1), (lambda: random_weighted_complex(3, 10, 6), 2),
    (lambda: random_weighted_complex(4, 12, 8), 3), (lambda: complete_complex(12, 5), 1),
    (lambda: complete_complex(14, 8), 3)],
    ids=["weighted_9_5", "weighted_10_6", "dropped_10_6_l1", "dropped_10_6_l2",
         "dropped_12_8", "complete_12_5", "complete_14_8"])
def test_structured_a_graphs_match_loop(make, l):
    # every a-face's T and W, one family each, against the per-a loop
    c = make()
    lev_t, lev_a = c.level(l), c.level(l - 1)
    reach = _reach(_drop_one(lev_t, lev_a), lev_t.measure, (lev_a.size, c.n_vertices))
    (_, *families), = _structured_a_graphs(c, c.d, l, reach, lev_a.size)
    want = structured_a_loop(c, c.d, l)
    for graphs, values in zip(families, want):
        assert np.array_equal(graphs.live(), np.arange(lev_a.size))
        assert np.max(np.abs(graphs.spectra(graphs.live())[0] - values)) <= 1e-12


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


def test_exhaustive_spot_checks_leave_the_generator_state():
    # up to 12 right vertices every subset is checked and nothing is drawn,
    # which lets goodness check each distinct such graph once
    for name, joint in _spot_check_cases():
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        _sampler_spot_checks(joint, 0.25, 300, rng)
        assert (rng.bit_generator.state == state) == (joint.shape[1] <= 12), name


# -- invariant report -------------------------------------------------------------


def invariant_devs_dict(x):
    """Pair-table symmetry, (s, t) marginal, vasa symmetry and vasa marginal
    deviations, summed in per-key dicts."""
    sym_dev = 0.0
    for tab in x.sts.tables:
        if tab[0] == "pairs":
            fwd = defaultdict(float)
            for a, b, q in zip(tab[1], tab[2], tab[3]):
                fwd[(int(a), int(b))] += float(q)
            for (a, b), q in fwd.items():
                sym_dev = max(sym_dev, abs(q - fwd.get((b, a), 0.0)))
    marg_dev = 0.0
    stc = x.st_joint.tocsc()
    for ti in range(len(x.t_probs)):
        col = stc[:, ti]
        main = np.zeros(x.n_s)
        main[col.indices] = col.data
        tab = x.sts.tables[ti]
        pair = np.zeros(x.n_s)
        if tab[0] == "indep":
            pair[tab[1]] = x.t_probs[ti] * tab[2]
        else:
            np.add.at(pair, tab[1], x.t_probs[ti] * tab[3])
        marg_dev = max(marg_dev, float(np.max(np.abs(pair - main))) if x.n_s else 0.0)
    fwd = defaultdict(float)
    for v, a1, s, a2, p in zip(x.vasa.v_idx, x.vasa.a1_idx, x.vasa.s_idx,
                               x.vasa.a2_idx, x.vasa.probs):
        fwd[(int(v), int(a1), int(s), int(a2))] += float(p)
    vasa_sym = 0.0
    for (v, a1, s, a2), p in fwd.items():
        vasa_sym = max(vasa_sym, abs(p - fwd.get((v, a2, s, a1), 0.0)))
    vas_marg = defaultdict(float)
    for (v, a1, s, a2), p in fwd.items():
        vas_marg[(v, a1, s)] += p
    ref = defaultdict(float)
    for v, a, s, p in zip(*x.vas_triples()):
        ref[(int(v), int(a), int(s))] += float(p)
    vasa_marg_dev = max((abs(vas_marg.get(key, 0.0) - ref.get(key, 0.0))
                         for key in set(vas_marg) | set(ref)), default=0.0)
    return {"sts_symmetry_dev": sym_dev, "sts_marginal_dev": marg_dev,
            "vasa_symmetry_dev": vasa_sym, "vasa_marginal_dev": vasa_marg_dev}


def _perturbed(x, seed):
    """A copy whose pair tables, main joint and amplification table are all
    off by a few percent, so that every deviation is far from zero."""
    rng = np.random.default_rng(seed)
    tables = [tab[:-1] + (tab[-1] * rng.uniform(0.95, 1.05, len(tab[-1])),)
              for tab in x.sts.tables]
    st = x.st_joint.copy()
    st.data = st.data * rng.uniform(0.95, 1.05, len(st.data))
    keep = rng.random(len(x.vasa)) < 0.9
    vasa = VasaTable(*(arr[keep] for arr in (x.vasa.v_idx, x.vasa.a1_idx,
                                             x.vasa.s_idx, x.vasa.a2_idx)),
                     x.vasa.probs[keep] * rng.uniform(0.95, 1.05, int(keep.sum())))
    return dataclasses.replace(x, st_joint=st, vasa=vasa,
                               sts=sts_from_tables(x.t_probs, tables, x.n_s))


@pytest.mark.parametrize("name", ["hdx", "hdx_weighted", "partite", "nbhd_independent",
                                  "nbhd_complement", "json_roundtrip"])
@pytest.mark.parametrize("perturb", [False, True])
def test_invariant_report_matches_dicts(instances, name, perturb):
    x = _perturbed(instances[name], 7) if perturb else instances[name]
    got = invariant_report(x).to_json_dict()
    for key, want in invariant_devs_dict(x).items():
        assert got[key] == pytest.approx(want, abs=1e-12), key
        if perturb and not (key == "sts_symmetry_dev" and name.startswith(
                ("hdx", "partite", "nbhd_independent"))):
            assert want > 1e-9, key  # only "pairs" tables can be asymmetric


# -- (S, T) main distribution and its pair tables ----------------------------------


def containment_st_loop(c, d, l):
    """The (S, T) joint of hdx_stav and d_l_test, one block per l-subset."""
    lev_s, lev_t = c.level(d), c.level(l)
    rows, cols, vals = [], [], []
    p_ts = 1.0 / math.comb(d + 1, l + 1)
    for keep in itertools.combinations(range(d + 1), l + 1):
        rows.append(np.arange(lev_s.size))
        cols.append(lev_t.index_rows(lev_s.faces[:, list(keep)]))
        vals.append(lev_s.measure * p_ts)
    st = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(lev_s.size, lev_t.size)).tocsr()
    st.sum_duplicates()
    return st


def column_tables_loop(st):
    """t_probs and one "indep" table per t, read column by column."""
    t_probs = np.asarray(st.sum(axis=0)).ravel()
    stc = st.tocsc()
    tables = []
    for ti in range(st.shape[1]):
        col = stc[:, ti]
        if t_probs[ti] <= 0:
            tables.append(("indep", np.array([], dtype=np.int64), np.array([])))
            continue
        tables.append(("indep", col.indices.astype(np.int64), col.data / t_probs[ti]))
    return t_probs, tables


def partite_st_loop(c, colors_i, colors_j, k):
    """partite_ij_stav's joint: a dict scan over the (l+1)-subsets of each s."""
    I, J = frozenset(colors_i), frozenset(colors_j)
    l = len(I)
    col = np.asarray(c.coloring)
    lev_k, lev_t = c.level(k), c.level(l)
    s_keep = [i for i in range(lev_k.size)
              if I | J <= frozenset(col[lev_k.faces[i]].tolist())]
    s_faces = [tuple(int(x) for x in lev_k.faces[i]) for i in s_keep]
    t_faces, t_meas = [], []
    for i in range(lev_t.size):
        if frozenset(col[lev_t.faces[i]].tolist()) & (I | J) in (I, J):
            t_faces.append(tuple(int(x) for x in lev_t.faces[i]))
            t_meas.append(float(lev_t.measure[i]))
    t_pos = {f: i for i, f in enumerate(t_faces)}
    t_probs = np.array(t_meas) / sum(t_meas)
    rows, cols, raw = [], [], []
    for si, s in enumerate(s_faces):
        for sub in itertools.combinations(s, l + 1):
            if sub in t_pos:
                rows.append(si)
                cols.append(t_pos[sub])
                raw.append(float(lev_k.measure[s_keep[si]]))
    st = sp.coo_matrix((raw, (rows, cols)), shape=(len(s_faces), len(t_faces))).tocsr()
    col_tot = np.asarray(st.sum(axis=0)).ravel()
    return s_faces, t_faces, (st @ sp.diags(t_probs / col_tot)).tocsr()


def in_one_set_loop(c, colors_i, colors_j, k, l):
    """in_one_set_test's tables: a frozenset scan of S for every t."""
    I, J = frozenset(colors_i), frozenset(colors_j)
    col = np.asarray(c.coloring)
    lev_t, lev_k = c.level(l), c.level(k)
    s_keep = [i for i in range(lev_k.size)
              if I | J <= frozenset(col[lev_k.faces[i]].tolist())]
    s_sets = [frozenset(lev_k.faces[i].tolist()) for i in s_keep]
    s_meas = lev_k.measure[s_keep]
    t_probs, tables = [], []
    for ti in range(lev_t.size):
        sup = [si for si, ss in enumerate(s_sets) if frozenset(lev_t.faces[ti].tolist()) <= ss]
        if not sup:
            t_probs.append(0.0)
            tables.append(("indep", np.array([], dtype=np.int64), np.array([])))
            continue
        t_probs.append(float(lev_t.measure[ti]))
        tables.append(("indep", np.array(sup, dtype=np.int64), s_meas[sup] / s_meas[sup].sum()))
    return np.array(t_probs) / sum(t_probs), tables


def grassmann_sts_loop(p, d, l):
    """Uniform t, uniform tops above it, then st rebuilt entry by entry in a
    lil_matrix from the tables."""
    tops, mids = p.level(d), p.level(l)
    mid_idx = {t: i for i, t in enumerate(mids)}
    sup = [[] for _ in mids]
    for si, s in enumerate(tops):
        for t in p.contained_level(s, l):
            sup[mid_idx[t]].append(si)
    t_probs = np.full(len(mids), 1.0 / len(mids))
    tables = []
    for ti in range(len(mids)):
        s_idx = np.array(sorted(sup[ti]), dtype=np.int64)
        tables.append(("indep", s_idx, np.full(len(s_idx), 1.0 / len(s_idx))))
    st = sp.lil_matrix((len(tops), len(mids)))
    for ti, (_, s_idx, cond) in enumerate(tables):
        for si, q in zip(s_idx, cond):
            st[si, ti] = t_probs[ti] * q
    return st.tocsr(), t_probs, tables


def assert_sts_close(sts, t_probs, tables):
    np.testing.assert_allclose(sts.t_probs, t_probs, rtol=0, atol=1e-12)
    assert len(sts.tables) == len(tables)
    for got, want in zip(sts.tables, tables):
        assert got[0] == want[0] == "indep"
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_allclose(got[2], want[2], rtol=0, atol=1e-12)


def assert_joint_close(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.toarray() != 0, want.toarray() != 0)
    np.testing.assert_allclose(got.toarray(), want.toarray(), rtol=0, atol=1e-12)


def _sparse_weighted_complex(seed, n, d):
    """Random weights on a random share of the (d+1)-sets, every vertex kept
    by one cyclic window of d+1 consecutive vertices."""
    rng = np.random.default_rng(seed)
    tops = {tuple(sorted((v + i) % n for i in range(d + 1))) for v in range(n)}
    tops |= {t for t in itertools.combinations(range(n), d + 1) if rng.random() < 0.5}
    tops = sorted(tops)
    w = rng.gamma(2.0, 1.0, size=len(tops))
    return build_from_top_faces(n, [(t, float(x)) for t, x in zip(tops, w / w.sum())])


@pytest.mark.parametrize("seed", range(4))
def test_containment_sts_match_loops(seed):
    c = _sparse_weighted_complex(seed, 9, 5)
    x = hdx_stav(c, 5, 1, force_mode="tabular")
    want_st = containment_st_loop(c, 5, 1)
    assert_joint_close(x.st_joint, want_st)
    assert_sts_close(x.sts, *column_tables_loop(want_st))
    for l in (0, 1, 2):
        assert_sts_close(d_l_test(c, 5, l).sts,
                         *column_tables_loop(containment_st_loop(c, 5, l)))
    nb = neighborhood_stav(c, 1, 0, "independent")
    assert_sts_close(nb.sts, *column_tables_loop(nb.st_joint))


@pytest.mark.parametrize("seed", range(2))
def test_partite_sts_match_loops(seed):
    c = random_partite_complex(seed, [2] * 9)
    for ci, cj in (([0], [1]), ([3], [7])):
        x = partite_ij_stav(c, ci, cj, 8)
        s_faces, t_faces, want_st = partite_st_loop(c, ci, cj, 8)
        assert (x.s_labels, x.t_labels) == (s_faces, t_faces)
        assert_joint_close(x.st_joint, want_st)
        assert_sts_close(x.sts, *column_tables_loop(want_st))
        for k, l in ((8, 1), (6, 0), (6, 2)):
            test = in_one_set_test(c, ci, cj, k, l)
            assert_sts_close(test.sts, *in_one_set_loop(c, ci, cj, k, l))


@pytest.mark.parametrize("q,n,d,l,flavor", [(2, 4, 2, 0, "linear"), (2, 4, 2, 1, "linear"),
                                            (2, 3, 2, 1, "affine"), (3, 3, 2, 0, "affine")])
def test_grassmann_sts_match_lil_rebuild(q, n, d, l, flavor):
    p = GrassmannPoset(q, n, d, flavor)
    sts, st, _, _ = _sts_from_levels(p, d, l)
    want_st, t_probs, tables = grassmann_sts_loop(p, d, l)
    assert_joint_close(st, want_st)
    assert_sts_close(sts, t_probs, tables)


# -- (a, v) tables, amplification tables and the marginals read from them -----------


def drop_one_av_loop(c, l):
    """hdx_stav's and neighborhood_stav's (a, v) tables: per t, each vertex of
    t with the rest of t, ranked through a dict."""
    lev_t, lev_a = c.level(l), c.level(l - 1)
    a_pos = {f: i for i, f in enumerate(lev_a.iter_faces())}
    av_tables = []
    for t in lev_t.iter_faces():
        a_idx = np.empty(l + 1, dtype=np.int64)
        v_idx = np.empty(l + 1, dtype=np.int64)
        for pos in range(l + 1):
            a_idx[pos] = a_pos[tuple(x for j, x in enumerate(t) if j != pos)]
            v_idx[pos] = t[pos]
        av_tables.append((a_idx, v_idx, np.full(l + 1, 1.0 / (l + 1))))
    return av_tables


def hdx_vasa_loop(c, d, l):
    """hdx_stav's amplification table: every disjoint (a1, a2, v) inside each
    s, one index_of call per a-face."""
    lev_s, lev_a = c.level(d), c.level(l - 1)
    per_s_vasa = math.comb(d + 1, l) * math.comb(d + 1 - l, l) * (d + 1 - 2 * l)
    rows = []
    for si in range(lev_s.size):
        s = tuple(int(x) for x in lev_s.faces[si])
        p_each = float(lev_s.measure[si]) / per_s_vasa
        for a1 in itertools.combinations(s, l):
            rest1 = [x for x in s if x not in a1]
            ai1 = lev_a.index_of(a1)
            for a2 in itertools.combinations(rest1, l):
                ai2 = lev_a.index_of(a2)
                rows += [(v, ai1, si, ai2, p_each) for v in rest1 if v not in a2]
    return [np.array(col) for col in zip(*rows)]


def partite_tables_loop(c, colors_i, colors_j, k, st_joint):
    """partite_ij_stav's (a, v) tables and amplification table, through the
    a_pos and v_pos dicts and the per-s dict of the (v | s) marginal."""
    I, J = frozenset(colors_i), frozenset(colors_j)
    l = len(I)
    col = np.asarray(c.coloring)
    lev_k, lev_t, lev_a = c.level(k), c.level(l), c.level(l - 1)
    s_faces = [f for f in lev_k.iter_faces()
               if I | J <= frozenset(col[list(f)].tolist())]
    t_faces = [f for f in lev_t.iter_faces()
               if frozenset(col[list(f)].tolist()) & (I | J) in (I, J)]
    a_faces = [f for f in lev_a.iter_faces() if frozenset(col[list(f)].tolist()) in (I, J)]
    v_labels = [v for v in range(c.n_vertices) if col[v] not in I | J]
    v_pos = {v: i for i, v in enumerate(v_labels)}
    a_pos = {f: i for i, f in enumerate(a_faces)}
    av_tables = []
    for t in t_faces:
        inside = I if I <= frozenset(col[v] for v in t) else J
        a = tuple(v for v in t if col[v] in inside)
        (v,) = [v for v in t if col[v] not in inside]
        av_tables.append((np.array([a_pos[a]]), np.array([v_pos[v]]), np.array([1.0])))
    vprob_given_s = defaultdict(lambda: defaultdict(float))
    stc = st_joint.tocoo()
    for si, ti, p in zip(stc.row, stc.col, stc.data):
        vprob_given_s[int(si)][int(av_tables[ti][1][0])] += float(p)
    rows = []
    for si, vmap in vprob_given_s.items():
        s = s_faces[si]
        ai = a_pos[tuple(v for v in s if col[v] in I)]
        aj = a_pos[tuple(v for v in s if col[v] in J)]
        for vi, pv in vmap.items():
            rows += [(vi, ai, si, aj, pv / 2.0), (vi, aj, si, ai, pv / 2.0)]
    return av_tables, [np.array(col_) for col_ in zip(*rows)]


def neighborhood_st_loop(c, l, k):
    """neighborhood_stav's (z, t) joint, l-faces of each link ranked by a dict."""
    lev_z, lev_t = c.level(k), c.level(l)
    t_pos = {f: i for i, f in enumerate(lev_t.iter_faces())}
    rows, cols, vals = [], [], []
    for zi, z in enumerate(lev_z.iter_faces()):
        lk = c.link(z)
        lk_t = lk.level(l)
        for i in range(lk_t.size):
            rows.append(zi)
            cols.append(t_pos[tuple(sorted(lk.vertex_labels[v] for v in lk_t.faces[i]))])
            vals.append(float(lev_z.measure[zi]) * float(lk_t.measure[i]))
    st = sp.coo_matrix((vals, (rows, cols)), shape=(lev_z.size, lev_t.size)).tocsr()
    st.sum_duplicates()
    return st


def _link_complement_joint(c, face, l):
    """The complement walk X(l) -> X(l) of the link of ``face`` as a dense
    joint, and the ranks at level l of the walk's faces in original ids."""
    lk = c.link(face)
    comp = complement_walk(lk, l, l)
    joint = comp.joint()
    ids = c.level(l).index_rows(np.sort(np.asarray(lk.vertex_labels)[comp.source_faces],
                                        axis=1))
    return (joint.toarray() if sp.issparse(joint) else joint), ids


def neighborhood_pairs_loop(c, l, k):
    """neighborhood_stav's complement-mode pair tables: per t, the complement
    walk on the k-faces of the link of t."""
    tables = []
    for t in c.level(l).iter_faces():
        joint, z_ids = _link_complement_joint(c, t, k)
        i, j = np.nonzero(joint)
        tables.append((z_ids[i], z_ids[j], joint[i, j]))
    return tables


def neighborhood_vasa_loop(c, l, k):
    """neighborhood_stav's amplification table: per z, each vertex v of its
    link, then the complement walk on the (l-1)-faces of the link of z + v."""
    lev_z = c.level(k)
    rows = []
    for zi, z in enumerate(lev_z.iter_faces()):
        lk = c.link(z)
        lk_v = lk.level(0)
        for i in range(lk_v.size):
            v = lk.vertex_labels[lk_v.faces[i, 0]]
            pv = float(lev_z.measure[zi]) * float(lk_v.measure[i])
            joint, a_ids = _link_complement_joint(c, tuple(sorted(z + (v,))), l - 1)
            i1, i2 = np.nonzero(joint)
            rows.append((np.full(len(i1), v), a_ids[i1], np.full(len(i1), zi), a_ids[i2],
                         pv * joint[i1, i2]))
    return [np.concatenate(col) for col in zip(*rows)]


def per_t_av(x):
    """The flat (a, v) table cut back into one (a_idx, v_idx, p) per t."""
    return [(x.av.a_idx[x.av.t_idx == ti], x.av.v_idx[x.av.t_idx == ti],
             x.av.probs[x.av.t_idx == ti]) for ti in range(len(x.t_probs))]


def flatten_av(av_tables):
    """Per-t tables concatenated in t order, as (t, a, v, p)."""
    t = np.repeat(np.arange(len(av_tables)), [len(tab[0]) for tab in av_tables])
    return [t] + [np.concatenate([tab[c] for tab in av_tables]) for c in range(3)]


def v_marginal_loop(x):
    out = np.zeros(x.n_v)
    for pt, (a_idx, v_idx, p) in zip(x.t_probs, per_t_av(x)):
        np.add.at(out, v_idx, pt * p)
    return out


def reach_joint_loop(x):
    rows, cols, vals = [], [], []
    for pt, (a_idx, v_idx, p) in zip(x.t_probs, per_t_av(x)):
        rows.append(a_idx)
        cols.append(v_idx)
        vals.append(pt * p)
    j = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(len(x.a_labels), x.n_v)).tocsr()
    j.sum_duplicates()
    return j


def vas_triples_loop(x):
    st_ = x.st_joint.tocsc()
    v_rows, a_rows, s_rows, p_rows = [], [], [], []
    for ti, (a_idx, v_idx, p_av) in enumerate(per_t_av(x)):
        s_idx = st_.indices[st_.indptr[ti]:st_.indptr[ti + 1]]
        p_st = st_.data[st_.indptr[ti]:st_.indptr[ti + 1]]
        v_rows.append(np.repeat(v_idx, len(s_idx)))
        a_rows.append(np.repeat(a_idx, len(s_idx)))
        s_rows.append(np.tile(s_idx, len(v_idx)))
        p_rows.append((p_av[:, None] * p_st[None, :]).ravel())
    return [np.concatenate(c) for c in (v_rows, a_rows, s_rows, p_rows)]


def assert_same_entries(got, want):
    """Equal parallel arrays: the same entries in the same order."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def vasa_columns(x):
    va = x.vasa
    return [va.v_idx, va.a1_idx, va.s_idx, va.a2_idx, va.probs]


def av_columns(x):
    return [x.av.t_idx, x.av.a_idx, x.av.v_idx, x.av.probs]


def assert_marginals_match_loops(x):
    """v_marginal, reach_joint and vas_triples against their per-t loops."""
    np.testing.assert_array_equal(x.v_marginal(), v_marginal_loop(x))
    assert (x.reach_joint() != reach_joint_loop(x)).nnz == 0
    assert_same_entries(x.vas_triples(), vas_triples_loop(x))


def assert_json_roundtrip(x):
    """A saved and reloaded instance keeps its tables and its invariants."""
    y = stav_from_json_dict(json.loads(json.dumps(stav_to_json_dict(x))))
    assert_same_entries(av_columns(y), av_columns(x))
    assert y.st_joint.shape == x.st_joint.shape
    assert (y.st_joint != x.st_joint).nnz == 0
    assert_same_entries(vasa_columns(y), vasa_columns(x))
    for ti in range(len(x.t_probs)):
        assert_same_entries(pair_arrays(y.sts, ti), pair_arrays(x.sts, ti))
    got, want = invariant_report(y).to_json_dict(), invariant_report(x).to_json_dict()
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, abs=1e-12), key
        else:
            assert got[key] == value, key


def _random_partite(seed, doubled, parts=9):
    """``parts`` colour classes, ``doubled`` of them with two vertices."""
    return random_partite_complex(seed, [2] * doubled + [1] * (parts - doubled))


def _random_stav(kind, seed, n, doubled):
    """One four-layer instance of ``kind`` on a random complex."""
    if kind == "hdx":
        return hdx_stav(random_weighted_complex(seed, n, 4), 4, 1)
    if kind == "hdx_l2":
        return hdx_stav(random_weighted_complex(seed, n, 6), 6, 2, force_mode="tabular")
    if kind == "partite":
        c = _random_partite(seed, doubled)
        i, j = np.random.default_rng(seed).choice(9, size=2, replace=False)
        return partite_ij_stav(c, [int(i)], [int(j)], 8)
    if kind == "partite_l2":
        return partite_ij_stav(_random_partite(seed, doubled, 13), [3, 5], [0, 7], 12)
    mode, k = kind.split("_")
    return neighborhood_stav(random_weighted_complex(seed, n, 5), 1, int(k), mode)


random_stav = st.builds(_random_stav, st.sampled_from(
    ["hdx", "hdx_l2", "partite", "partite_l2", "independent_0", "independent_1",
     "complement_0", "complement_1"]),
    st.integers(0, 2**31 - 1), st.integers(7, 8), st.integers(0, 4))


def assert_tables_match_loops(x):
    """Each builder's (a, v) and amplification tables against its loop."""
    c = x.meta["complex"]
    if x.provenance == "partite_ij":
        av_tables, vasa = partite_tables_loop(c, x.meta["I"], x.meta["J"],
                                              x.meta["k"], x.st_joint)
        assert_same_entries(av_columns(x), flatten_av(av_tables))
        assert_same_entries(vasa_columns(x), vasa)
        return
    assert_same_entries(av_columns(x), flatten_av(drop_one_av_loop(c, x.meta["l"])))
    if x.provenance == "hdx":
        assert_same_entries(vasa_columns(x), hdx_vasa_loop(c, x.meta["d"], x.meta["l"]))
    else:
        assert_neighborhood_matches_loops(x, NEIGHBORHOOD_RTOL)


# the gathers weight by level measures where the loops multiplied link
# measures, rounded apart: up to 1.3e-15 relative over 560 random weighted
# complexes (seeds 0-239, n = 7 and 8, both modes, k = 0 and 1)
NEIGHBORHOOD_RTOL = 2e-15


def assert_neighborhood_matches_loops(x, rtol):
    """neighborhood_stav's (z, t) joint, complement pair tables and
    amplification table against the loops: the same index columns in the same
    order, probabilities within ``rtol``."""
    c, l, k = x.meta["complex"], x.meta["l"], x.meta["k"]

    def same(got, want):
        assert_same_entries(got[:-1], want[:-1])
        np.testing.assert_allclose(got[-1], want[-1], rtol=rtol, atol=0)

    got_st, want_st = x.st_joint.tocoo(), neighborhood_st_loop(c, l, k).tocoo()
    same((got_st.row, got_st.col, got_st.data), (want_st.row, want_st.col, want_st.data))
    if x.meta["mode"] == "complement":
        want = neighborhood_pairs_loop(c, l, k)
        assert len(x.sts.tables) == len(want)
        for tab, want_tab in zip(x.sts.tables, want):
            assert tab[0] == "pairs"
            same(tab[1:], want_tab)
    same(vasa_columns(x), neighborhood_vasa_loop(c, l, k))


@given(random_stav)
def test_random_builders_match_loops(x):
    assert_tables_match_loops(x)
    assert_marginals_match_loops(x)


def _loadable_stav(kind, n, a, b):
    """An instance with a uniform v-marginal, as ``stav_from_json_dict``
    requires: complete complexes, and partite ones whose colour classes
    outside I and J have one vertex each."""
    if kind == "hdx":
        return hdx_stav(complete_complex(n - 2, 4), 4, 1)
    if kind == "hdx_l2":
        return hdx_stav(complete_complex(n, 6), 6, 2)
    if kind == "partite":
        return partite_ij_stav(partite_complete_complex([a, b] + [1] * 7), [0], [1], 8)
    if kind == "partite_l2":
        return partite_ij_stav(partite_complete_complex([a, b, b, a] + [1] * 9),
                               [0, 2], [1, 3], 12)
    mode, k = kind.split("_")
    return neighborhood_stav(complete_complex(n - 1, 5), 1, int(k), mode)


loadable_stav = st.builds(_loadable_stav, st.sampled_from(
    ["hdx", "hdx_l2", "partite", "partite_l2", "independent_0", "independent_1",
     "complement_0", "complement_1"]),
    st.integers(7, 9), st.integers(1, 3), st.integers(1, 3))


@given(loadable_stav)
def test_json_roundtrip(x):
    assert_json_roundtrip(x)


@pytest.mark.parametrize("name", ["hdx", "hdx_weighted", "partite", "nbhd_independent",
                                  "nbhd_complement"])
def test_fixed_builders_match_loops(instances, name):
    assert_tables_match_loops(instances[name])
    assert_marginals_match_loops(instances[name])


@pytest.mark.parametrize("n,d,l", [(10, 5, 1), (11, 6, 2)])
def test_complete_hdx_tables_match_loops(n, d, l):
    x = hdx_stav(complete_complex(n, d), d, l)
    assert_tables_match_loops(x)


@given(n=st.integers(6, 10), d=st.integers(3, 5), k=st.sampled_from([0, 1]),
       mode=st.sampled_from(["independent", "complement"]))
def test_complete_neighborhood_tables_match_loops(n, d, k, mode):
    assume(n > d and k + 3 <= d and (mode == "independent" or 2 * k + 3 <= d))
    x = neighborhood_stav(complete_complex(n, d), 1, k, mode)
    assert_neighborhood_matches_loops(x, NEIGHBORHOOD_RTOL)


@pytest.mark.parametrize("n,d,k", [(7, 3, 0), (9, 5, 0), (9, 5, 1)])
@pytest.mark.parametrize("mode", ["independent", "complement"])
def test_neighborhood_tables_bit_identical_on_golden_complexes(n, d, k, mode):
    # complete(7, 3) and (9, 5), the complexes the golden reports build; other
    # complete complexes may round a table a last place apart (complete(14, 7))
    x = neighborhood_stav(complete_complex(n, d), 1, k, mode)
    assert_neighborhood_matches_loops(x, 0.0)


GOLDEN_STAV = {
    "stav_json_hdx_complete_7_4_l1": lambda: hdx_stav(complete_complex(7, 4), 4, 1),
    "stav_json_neighborhood_complement_7_3": lambda: neighborhood_stav(
        complete_complex(7, 3), 1, 0, "complement"),
    "stav_json_partite_2x3_1x6_i0_j1_k8": lambda: partite_ij_stav(
        partite_complete_complex([2, 2, 2] + [1] * 6), [0], [1], 8),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STAV))
def test_stav_json_matches_golden(name):
    with open(os.path.join(os.path.dirname(__file__), "golden", f"{name}.json")) as fh:
        want = json.load(fh)
    assert stav_to_json_dict(GOLDEN_STAV[name]()) == want


# -- goodness stages ----------------------------------------------------------------


def sts_conditioned_per_element(x, need):
    """Pair graph conditioned on the middle face containing ``need``, for one
    set at a time: the selected "indep" tables as C diag(w) C^T over their
    conditional columns C, "pairs" tables added entry by entry."""
    if "oracle_sts" not in x._cache:
        sizes = [len(sup) for sup in x.t_supports]
        ground_t = sp.csr_matrix((np.ones(sum(sizes)), (
            np.fromiter(itertools.chain.from_iterable(x.t_supports), np.int64, sum(sizes)),
            np.repeat(np.arange(len(sizes)), sizes))))
        cols = [(np.empty(0, np.int64), np.empty(0)) if tab[0] == "pairs" else tab[1:]
                for tab in x.sts.tables]
        cond = sp.csc_matrix((np.concatenate([np.empty(0)] + [p for _, p in cols]),
                              np.concatenate([np.empty(0, np.int64)] + [i for i, _ in cols]),
                              np.cumsum([0] + [len(i) for i, _ in cols])),
                             shape=(x.n_s, len(cols)))
        x._cache["oracle_sts"] = ground_t, cond
    ground_t, cond = x._cache["oracle_sts"]
    if not all(0 <= g < ground_t.shape[0] for g in need):
        raise ZeroConditioning("conditioning event has zero probability")
    hits = np.bincount(ground_t[sorted(need)].indices, minlength=ground_t.shape[1])
    t_sel = np.flatnonzero((hits == len(need)) & (x.t_probs > 0))
    if not len(t_sel):
        raise ZeroConditioning("conditioning event has zero probability")
    w = x.t_probs[t_sel] / x.t_probs[t_sel].sum()
    pairs = [(wt, x.sts.tables[ti]) for wt, ti in zip(w, t_sel)
             if x.sts.tables[ti][0] == "pairs"]
    p_i = np.concatenate([np.empty(0, np.int64)] + [tab[1] for _, tab in pairs])
    p_j = np.concatenate([np.empty(0, np.int64)] + [tab[2] for _, tab in pairs])
    p_w = np.concatenate([np.empty(0)] + [wt * tab[3] for wt, tab in pairs])
    c_sel = cond[:, t_sel]
    live = np.unique(np.concatenate([c_sel.indices, p_i, p_j]))
    pos = np.zeros(x.n_s, dtype=np.int64)
    pos[live] = np.arange(len(live))
    block = sp.csc_matrix((c_sel.data, pos[c_sel.indices], c_sel.indptr),
                          shape=(len(live), len(t_sel))).toarray()
    dense = (block * w) @ block.T
    np.add.at(dense, (pos[p_i], pos[p_j]), p_w)
    return WeightedGraph([x.s_labels[i] for i in live], dense)


def derive_graph_loop(x, kind, element):
    """derive_graph's per-element views: one conditioned pair graph, or one
    scan of the whole vas or vasa table and one sparse matrix, per element."""
    if kind in ("sts_a", "sts_av"):
        a, v = (element, None) if kind == "sts_a" else element
        need = set(x.a_supports[x.a_labels.index(a)])
        if kind == "sts_av":
            need.add(int(x.v_ground[x.v_labels.index(v)]))
        return sts_conditioned_per_element(x, need)
    if kind == "local_reach":
        si = x.s_labels.index(element)
        vv, aa, ss, pp = x.vas_triples()
        sel = ss == si
        j = sp.coo_matrix((pp[sel], (aa[sel], vv[sel])), shape=(len(x.a_labels), x.n_v)).tocsr()
        j.sum_duplicates()
        total = j.sum()
        if total <= 0:
            raise ZeroConditioning(f"s element {element} has no mass")
        return BipartiteGraph(x.a_labels, x.v_labels, j.toarray() / total)
    if kind == "vasa_v":
        sel = x.vasa.v_idx == x.v_labels.index(element)
        if not sel.any():
            raise ZeroConditioning(f"v element {element} has no mass")
        j = sp.coo_matrix((x.vasa.probs[sel], (x.vasa.a1_idx[sel], x.vasa.a2_idx[sel])),
                          shape=(len(x.a_labels), len(x.a_labels))).tocsr()
        keep = np.flatnonzero(np.asarray(j.sum(axis=0) + j.sum(axis=1).T).ravel() > 0)
        dense = j.toarray()[np.ix_(keep, keep)]
        return WeightedGraph([x.a_labels[i] for i in keep], dense / dense.sum())
    assert kind == "vas_a"
    sel = x.vasa.a1_idx == x.a_labels.index(element)
    if not sel.any():
        raise ZeroConditioning(f"a element {element} has no mass")
    pairs = {}
    for a2, s in zip(x.vasa.a2_idx[sel], x.vasa.s_idx[sel]):
        pairs.setdefault((int(a2), int(s)), len(pairs))
    cols = [pairs[(int(a2), int(s))] for a2, s in zip(x.vasa.a2_idx[sel], x.vasa.s_idx[sel])]
    j = sp.coo_matrix((x.vasa.probs[sel], (x.vasa.v_idx[sel], cols)),
                      shape=(x.n_v, len(pairs))).toarray()
    keep = np.flatnonzero(j.sum(axis=1) > 0)
    return BipartiteGraph([x.v_labels[i] for i in keep],
                          [(x.a_labels[a2], x.s_labels[s]) for a2, s in pairs],
                          j[keep] / j.sum())


def bipartite_value_loop(g):
    """Bipartite reading of a symmetric graph, by a depth-first 2-colouring;
    None when the support has a loop or an odd cycle."""
    dense = np.asarray(g.joint)
    m = dense.shape[0]
    if np.any(np.diag(dense) > 0):
        return None
    color = -np.ones(m, dtype=int)
    for start in range(m):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in np.flatnonzero(dense[u] > 0):
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    stack.append(int(w))
                elif color[w] == color[u]:
                    return None
    left, right = np.flatnonzero(color == 0), np.flatnonzero(color == 1)
    if len(left) == 0 or len(right) == 0:
        return None
    block = dense[np.ix_(left, right)] * 2.0
    return bipartite_lambda(block, block.sum(axis=1), block.sum(axis=0)).lambda_bip


def goodness_loop(x, gamma, r=1.0):
    """The tabular goodness check, one derived graph and one eigensolve per
    element."""

    def each(kind, elements):
        for element in elements:
            try:
                yield derive_graph_loop(x, kind, element)
            except ZeroConditioning:
                continue

    def two_sided(g):
        return square_lambda(g.joint, g.vertex_measure).two_sided

    reach = x.reach_joint()
    a1 = bipartite_lambda(reach, np.asarray(reach.sum(axis=1)).ravel(),
                          np.asarray(reach.sum(axis=0)).ravel()).lambda_bip
    min_phi, a2a_method = np.inf, "brute_force"
    for g in each("sts_a", x.a_labels):
        if g.joint.shape[0] <= BRUTE_FORCE_VERTICES:
            phi = edge_expansion_exact(g, BRUTE_FORCE_VERTICES).phi
        else:
            a2a_method = "cheeger_lower_bound"
            phi = (1.0 - square_lambda(g.joint, g.vertex_measure).lambda2) / 2.0
        min_phi = min(min_phi, phi)
    adj_a = reach_neighbours(x)
    a2b = max([0.0] + [two_sided(g) for g in each(
        "sts_av", [(x.a_labels[ai], x.v_labels[vi]) for ai, vs in adj_a.items() for vi in vs])])
    a3a = 0.0
    for g in each("vasa_v", x.v_labels):
        bip = bipartite_value_loop(g)
        a3a = max(a3a, two_sided(g) if bip is None else min(two_sided(g), bip))
    a3b = max([0.0] + [bipartite_lambda(g.joint, g.left_measure, g.right_measure).lambda_bip
                       for g in each("vas_a", x.a_labels)])
    rng = np.random.default_rng(_SPOT_CHECK_SEED)
    a4, spot_failures = 0.0, 0
    for s in x.s_labels:
        dense = derive_graph_loop(x, "local_reach", s).joint
        dense = dense[np.ix_(dense.sum(axis=1) > 0, dense.sum(axis=0) > 0)]
        a4 = max(a4, bipartite_lambda(dense, dense.sum(axis=1), dense.sum(axis=0)).lambda_bip)
        spot_failures += _sampler_spot_checks(dense, r * gamma, _SPOT_CHECKS, rng)
    vm = x.v_marginal()
    ground_to_v = {int(g): i for i, g in enumerate(x.v_ground)}
    a5 = np.inf
    vv, aa, ss, pp = x.vas_triples()
    for ai, si in {(int(a), int(s)) for a, s, p in zip(aa, ss, pp) if p > 0}:
        num = den = 0.0
        for gv in x.s_supports[si]:
            vi = ground_to_v.get(int(gv))
            if vi is None:
                continue
            den += vm[vi]
            if vi in adj_a.get(ai, ()):
                num += vm[vi]
        a5 = min(a5, num / den if den > 0 else 0.0)
    vals = dict(a1_reach_lambda=a1, a2a_min_edge_expansion=float(min_phi),
                a2a_method=a2a_method, a2b_max_lambda=a2b, a2b_method="dense",
                a3a_max_lambda=a3a, a3b_max_lambda=a3b, a4_max_av_lambda=a4,
                a4_spot_check_failures=spot_failures, a5_min_conditional=float(a5))
    return _assemble_report(vals, gamma, r)


def assert_goodness_matches_loop(x, gammas=(0.5, 1 / 3), r=1.0):
    """Every report field within 1e-12 of the loop's; the method and the
    spot-check failures exactly."""
    for gamma in gammas:
        got = goodness_check(x, gamma, r).to_json_dict()
        want = goodness_loop(x, gamma, r).to_json_dict()
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float) and key != "a4_spot_check_failures":
                assert got[key] == pytest.approx(value, abs=1e-12), (key, gamma)
            else:
                assert got[key] == value, (key, gamma)


@pytest.mark.parametrize("name", ["hdx", "hdx_weighted", "partite", "nbhd_independent",
                                  "nbhd_complement", "json_roundtrip", "nbhd_leaky"])
def test_goodness_matches_loop(instances, name):
    assert_goodness_matches_loop(instances[name])


def test_leaky_instance_repeats_graphs_on_both_spot_check_branches(instances):
    # the goodness oracle pins the A4 spot checks of each branch only if
    # both hold repeated graphs, and the sampled ones fail on some draws
    x = instances["nbhd_leaky"]
    graphs = _local_reach_graphs(x)
    joints = [graphs.joint(k).tobytes() for k in range(x.n_s)]
    for wide in (False, True):
        ids = np.flatnonzero((graphs.shapes[:, 1] > 12) == wide)
        assert len({joints[k] for k in ids}) < len(ids), wide
    assert goodness_check(x, 1 / 3).a4_spot_check_failures > 0


@pytest.mark.parametrize("n,d,l", [(10, 5, 1), (11, 6, 2)])
def test_complete_goodness_matches_loop(n, d, l):
    assert_goodness_matches_loop(hdx_stav(complete_complex(n, d), d, l))


def test_sts_per_element_matches_loop(instances):
    x = instances["nbhd_complement"]
    for (_, _), need in _conditioned_pairs(x):
        labels, dense = sts_conditioned_loop(x, need)
        g = sts_conditioned_per_element(x, need)
        assert g.items == labels
        np.testing.assert_allclose(g.joint, dense, rtol=0, atol=1e-12)


def _split_links(hubs, side):
    """Hubs 0, 1, ... whose links are two disjoint cliques of ``side``
    vertices (all their triangles), one side weighted w and the other 1 - w
    for each hub's w in ``hubs``: their local reach graphs are poor samplers."""
    left = tuple(range(len(hubs), len(hubs) + side))
    right = tuple(range(len(hubs) + side, len(hubs) + 2 * side))
    tops = [((z,) + t, w if half is left else 1 - w) for z, w in enumerate(hubs)
            for half in (left, right) for t in itertools.combinations(half, 3)]
    total = sum(w for _, w in tops)
    return build_from_top_faces(len(hubs) + 2 * side, [(t, w / total) for t, w in tops])


@pytest.mark.parametrize("mode", ["independent", "complement"])
@pytest.mark.parametrize("hubs,side", [((0.2,), 4), ((0.2, 0.7), 7), ((0.2, 0.2), 4)])
def test_spot_check_failures_match_loop(mode, hubs, side):
    # the spot checks fail, and the count must match exactly; two equal hubs
    # of 8 link vertices are checked once and counted twice, and with two
    # hubs of 14 link vertices each, both draw random subsets from the one
    # stream, so the count also pins the order in which the s draw
    x = neighborhood_stav(_split_links(hubs, side), 1, 0, mode)
    assert goodness_check(x, 0.1).a4_spot_check_failures > 0
    assert_goodness_matches_loop(x, (0.05, 0.1, 0.2, 0.3))


# seven vertices keep the brute-force edge expansion of A2a, 2^m subsets of
# an m-vertex pair graph, small on both sides
@given(st.builds(_random_stav, st.sampled_from(["hdx", "hdx_l2", "partite", "partite_l2"]),
                 st.integers(0, 2**31 - 1), st.just(7), st.integers(0, 4)),
       st.sampled_from([0.2, 1 / 3, 0.5, 0.9]))
def test_random_goodness_matches_loop(x, gamma):
    assert_goodness_matches_loop(x, (gamma,))


@pytest.mark.parametrize("name", ["hdx", "hdx_weighted", "partite", "nbhd_independent",
                                  "nbhd_complement", "json_roundtrip"])
def test_derived_graphs_match_loop(instances, name):
    x = instances[name]
    for kind, layer in (("local_reach", x.s_labels), ("vasa_v", x.v_labels),
                        ("vas_a", x.a_labels)):
        for element in layer:
            try:
                want = derive_graph_loop(x, kind, element)
            except ZeroConditioning:
                with pytest.raises(ZeroConditioning):
                    derive_graph(x, kind, element)
                continue
            got = derive_graph(x, kind, element)
            if kind == "vasa_v":
                assert got.items == want.items
            else:
                assert (got.left_items, got.right_items) == (want.left_items,
                                                             want.right_items)
            if kind == "local_reach":  # the spot checks read it: equal bits
                np.testing.assert_array_equal(got.joint, want.joint)
            np.testing.assert_allclose(got.joint, want.joint, rtol=0, atol=1e-12)
