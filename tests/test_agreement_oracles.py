"""Loop-based reference versions of the agreement and decoder array code.

Each oracle is the per-pair, per-triple dict loop that the group-bys on the
lifted ensemble replaced: exact rejection, surprise, distances, the
distance-promise check, and every decoder stage with its plurality vote.
The tests require values within 1e-12 and identical decoded assignments,
popular restrictions, bad sets, flags and witnesses, on fixed instances and
on random weighted and partite complexes with random ensembles.  Property
tests check alphabet-permutation equivariance and the ensemble JSON format.
The per-t pair dicts of ``up2k_distribution`` must equal its tables entry
for entry, in order.  The per-t expansions of the pair graphs, solved one t
at a time, must match the one family of ``sts_t_expansions`` within 1e-12.
"""

import dataclasses
import itertools
import os
import tempfile
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from hdxlab.agreement import (
    AgreementTest,
    Ensemble,
    _row_codes,
    corrupt,
    d_l_test,
    delta_ensemble_check,
    dist_gamma,
    dist_to_perfect_bruteforce,
    load_ensemble,
    perfect_ensemble,
    random_ensemble,
    rejection,
    save_ensemble,
    sts_t_expansions,
    surprise,
    up2k_distribution,
)
from hdxlab.complexes import (Complex, build_from_top_faces, complete_complex,
                               partite_complete_complex)
from hdxlab.decoder import DecoderConfig, _keys, global_decode, subset_agreement
from hdxlab.errors import OrphanA, SupportMismatch
from hdxlab.spectra import square_lambda
from hdxlab.stav import (
    VasaTable,
    _as_pairs,
    hdx_stav,
    neighborhood_stav,
    partite_ij_stav,
    stav_from_json_dict,
    stav_to_json_dict,
)

from conftest import pair_arrays, random_weighted_complex

TOL = 1e-12


# -- agreement oracles ----------------------------------------------------------------


def _position_maps(test):
    return [{v: i for i, v in enumerate(sup)} for sup in test.s_supports]


def _restriction(f, test, pos_maps, si, verts):
    vals = f.assignments[test.s_labels[si]]
    try:
        return tuple(int(vals[pos_maps[si][v]]) for v in verts)
    except KeyError as exc:
        raise SupportMismatch(f"set {test.s_labels[si]} does not cover {exc}") from exc


def _compare_verts(test, ti, si, sj):
    if test.t_supports is not None:
        return test.t_supports[ti]
    return tuple(sorted(set(test.s_supports[si]) & set(test.s_supports[sj])))


def _signature_groups(f, test, pos_maps, ti):
    """Mass and first member of each restriction to t of an "indep" table."""
    _, s_idx, cond = test.sts.tables[ti]
    groups, members = defaultdict(float), {}
    for si, p in zip(s_idx, cond):
        sig = _restriction(f, test, pos_maps, int(si), test.t_supports[ti])
        groups[sig] += float(p)
        members.setdefault(sig, int(si))
    return groups, members


def rejection_loop(test, f):
    pos_maps = _position_maps(test)
    eps = 0.0
    for ti, pt in enumerate(test.sts.t_probs):
        if pt <= 0:
            continue
        if test.sts.tables[ti][0] == "indep" and test.t_supports is not None:
            groups, _ = _signature_groups(f, test, pos_maps, ti)
            eps_t = (0.0 if len(groups) <= 1
                     else max(1.0 - sum(p * p for p in groups.values()), 0.0))
        else:
            eps_t = 0.0
            for si, sj, q in zip(*pair_arrays(test.sts, ti)):
                verts = _compare_verts(test, ti, int(si), int(sj))
                if (_restriction(f, test, pos_maps, int(si), verts)
                        != _restriction(f, test, pos_maps, int(sj), verts)):
                    eps_t += float(q)
        eps += pt * eps_t
    return eps


def dist_gamma_loop(f, global_fn, gamma, test):
    """Each set compared on its points where the global function is defined
    (not negative)."""
    g = np.asarray(global_fn, dtype=np.int64)
    weights = test.sts.s_marginal()
    out = 0.0
    for si, (label, sup) in enumerate(zip(test.s_labels, test.s_supports)):
        want = g[np.asarray(sup, dtype=np.int64)]
        defined = want >= 0
        if defined.any() and np.mean(f.assignments[label][defined] != want[defined]) > gamma:
            out += float(weights[si])
    return out


def bruteforce_loop(test, f, gamma):
    n_v = max(max(sup) for sup in test.s_supports) + 1
    return min(dist_gamma_loop(f, np.array(combo), gamma, test)
               for combo in itertools.product(range(f.alphabet), repeat=n_v))


def delta_check_loop(test, f, delta):
    """Without t supports, every pair is compared on the two sets' common
    support, and an empty one differs nowhere."""
    pos_maps = _position_maps(test)
    for ti, pt in enumerate(test.sts.t_probs):
        if pt <= 0:
            continue
        tab = test.sts.tables[ti]
        if tab[0] == "indep" and test.t_supports is not None:
            verts = test.t_supports[ti]
            groups, members = _signature_groups(f, test, pos_maps, ti)
            for g1, g2 in itertools.combinations(list(groups), 2):
                d = np.mean(np.array(g1) != np.array(g2))
                if 0 < d <= delta:
                    return False, (test.s_labels[members[g1]], verts,
                                   test.s_labels[members[g2]])
            continue
        for si, sj, q in zip(*pair_arrays(test.sts, ti)):
            verts = _compare_verts(test, ti, int(si), int(sj))
            r1 = np.array(_restriction(f, test, pos_maps, int(si), verts))
            r2 = np.array(_restriction(f, test, pos_maps, int(sj), verts))
            d = np.mean(r1 != r2) if verts else 0.0
            if q > 0 and 0 < d <= delta:
                return False, (test.s_labels[int(si)], verts, test.s_labels[int(sj)])
    return True, None


def surprise_loop(x, f):
    test = AgreementTest(x.s_labels, x.s_supports, x.sts, x.t_supports)
    pos_maps = _position_maps(test)

    def restr(si, verts):
        return _restriction(f, test, pos_maps, int(si), verts)

    num = den = 0.0
    for ti, pt in enumerate(x.t_probs):
        if pt <= 0:
            continue
        at_t = x.av.t_idx == ti
        a_idx, v_idx, p_av = x.av.a_idx[at_t], x.av.v_idx[at_t], x.av.probs[at_t]
        av = [(x.a_supports[int(ai)], (int(x.v_ground[int(vi)]),), float(q))
              for ai, vi, q in zip(a_idx, v_idx, p_av)]
        tab = x.sts.tables[ti]
        if tab[0] == "indep":
            groups, _ = _signature_groups(f, test, pos_maps, ti)
            if len(groups) > 1:
                den += pt * max(1.0 - sum(q * q for q in groups.values()), 0.0)
            for a_verts, v_verts, q_av in av:
                agree_a, agree_av = defaultdict(float), defaultdict(float)
                for si, q in zip(tab[1], tab[2]):
                    ra = restr(si, a_verts)
                    agree_a[ra] += float(q)
                    agree_av[(ra, restr(si, v_verts))] += float(q)
                num += pt * q_av * (sum(q * q for q in agree_a.values())
                                    - sum(q * q for q in agree_av.values()))
            continue
        for si, sj, q in zip(*tab[1:]):
            if restr(si, x.t_supports[ti]) == restr(sj, x.t_supports[ti]):
                continue
            den += pt * float(q)
            for a_verts, v_verts, q_av in av:
                if (restr(si, a_verts) == restr(sj, a_verts)
                        and restr(si, v_verts) != restr(sj, v_verts)):
                    num += pt * float(q) * q_av
    return (0.0, False) if den <= 0 else (num / den, True)


# -- decoder oracles ------------------------------------------------------------------


def plurality_loop(weights, ties):
    best, best_w, tie = None, -1.0, False
    for key in sorted(weights):
        w = weights[key]
        if w > best_w + 1e-15:
            best, best_w, tie = key, w, False
        elif abs(w - best_w) <= 1e-15:
            tie = True
    if tie:
        ties.append(best)
    return best


def decode_loop(x, f, cfg=None):
    """The dict version of global_decode: h, g, a_star, a_star_v, g_values,
    diagnostics and flags."""
    cfg = cfg or DecoderConfig()
    pos_maps = [{v: i for i, v in enumerate(sup)} for sup in x.s_supports]

    def restr(si, verts):
        vals = f.assignments[x.s_labels[si]]
        return tuple(int(vals[pos_maps[si][v]]) for v in verts)

    vv, aa, ss, pp = (a.tolist() for a in x.vas_triples())
    h_ties, g_ties, v_ties = [], [], []
    # local popularity
    as_weight = defaultdict(float)
    for a, s, p in zip(aa, ss, pp):
        as_weight[(a, s)] += p
    by_a = defaultdict(dict)
    for (a, s), w in as_weight.items():
        by_a[a][s] = w
    h = {}
    for ai in range(len(x.a_labels)):
        if ai not in by_a:
            raise OrphanA(str(ai))
        votes = defaultdict(float)
        for si, w in by_a[ai].items():
            votes[restr(si, x.a_supports[ai])] += w
        h[ai] = plurality_loop(votes, h_ties)
    agree = {(a, s): restr(s, x.a_supports[a]) == h[a] for a, s in as_weight}
    # reach functions
    by_av, by_av_all = defaultdict(lambda: defaultdict(float)), defaultdict(
        lambda: defaultdict(float))
    for v, a, s, p in zip(vv, aa, ss, pp):
        val = restr(s, (int(x.v_ground[v]),))[0]
        by_av_all[(a, v)][val] += p
        if agree[(a, s)]:
            by_av[(a, v)][val] += p
    g = defaultdict(dict)
    flags = {"empty_reach_votes": 0}
    for (a, v), votes_all in by_av_all.items():
        votes = by_av.get((a, v))
        if not votes:
            votes = votes_all
            flags["empty_reach_votes"] += 1
        g[a][v] = plurality_loop(votes, g_ties)
    # bad sets
    va = x.vasa
    tot_a, bad_a, tot_av, bad_av = (defaultdict(float) for _ in range(4))
    bad_prob = 0.0
    for v, a1, s, a2, p in zip(va.v_idx.tolist(), va.a1_idx.tolist(), va.s_idx.tolist(),
                               va.a2_idx.tolist(), va.probs.tolist()):
        bad = not (restr(s, x.a_supports[a1]) == h[a1]
                   and restr(s, x.a_supports[a2]) == h[a2])
        tot_a[a1] += p
        tot_av[(a1, v)] += p
        if bad:
            bad_a[a1] += p
            bad_av[(a1, v)] += p
            bad_prob += p
    a_star = {a for a, t in tot_a.items()
              if t > 0 and bad_a[a] / t >= cfg.tau_global - 1e-15}
    a_star_v = defaultdict(set)
    for (a, v), t in tot_av.items():
        if a in a_star or (t > 0 and bad_av[(a, v)] / t > cfg.tau_local + 1e-15):
            a_star_v[v].add(a)
    # global vote
    reach = x.reach_joint().tocsc()
    g_values = np.zeros(len(x.v_labels), dtype=np.int64)
    flags["empty_global_votes"] = 0
    for vi in range(len(x.v_labels)):
        col = reach[:, vi]
        votes, votes_all = defaultdict(float), defaultdict(float)
        for ai, p in zip(col.indices.tolist(), col.data.tolist()):
            val = g[ai].get(vi)
            if p <= 0 or val is None:
                continue
            votes_all[val] += p
            if ai not in a_star_v.get(vi, ()):
                votes[val] += p
        if not votes:
            votes = votes_all
            flags["empty_global_votes"] += 1
        g_values[vi] = plurality_loop(votes, v_ties)
    flags.update(h_ties=len(h_ties), g_ties=len(g_ties), global_ties=len(v_ties))
    # diagnostics
    pr_a = np.asarray(x.reach_joint().sum(axis=1)).ravel()
    rc = x.reach_joint().tocoo()
    in_star = [a in a_star_v.get(v, ()) for a, v in zip(rc.row.tolist(), rc.col.tolist())]
    diagnostics = {
        "epsilon": rejection_loop(AgreementTest(x.s_labels, x.s_supports, x.sts,
                                                x.t_supports), f),
        "pr_a_star": sum(pr_a[a] for a in a_star),
        "bad_triple_prob": bad_prob,
        "h_mismatch": sum(p for key, p in as_weight.items() if not agree[key]),
        "g_mismatch": sum(
            p for v, a, s, p in zip(vv, aa, ss, pp)
            if a not in a_star_v.get(v, ()) and agree[(a, s)]
            and restr(s, (int(x.v_ground[v]),))[0] != g[a].get(v)),
        "not_global_bad_but_local": sum(
            p for a, p, star in zip(rc.row.tolist(), rc.data.tolist(), in_star)
            if star and a not in a_star),
        "global_vote_mismatch": sum(
            p for a, v, p, star in zip(rc.row.tolist(), rc.col.tolist(),
                                       rc.data.tolist(), in_star)
            if not star and g[a].get(v) is not None and g[a][v] != g_values[v]),
    }
    return {"h": h, "g": dict(g), "a_star": a_star, "a_star_v": dict(a_star_v),
            "g_values": g_values, "flags": flags, "diagnostics": diagnostics}


def subset_agreement_loop(x, f, g_ground, r_gamma, mode):
    pos_maps = [{v: i for i, v in enumerate(sup)} for sup in x.s_supports]
    vv, aa, ss, pp = (a.tolist() for a in x.vas_triples())

    def differs(si, b_verts):
        vals = f.assignments[x.s_labels[si]]
        return np.mean([int(vals[pos_maps[si][v]]) != int(g_ground[v])
                        for v in b_verts]) > r_gamma

    if mode == "singleton":
        return sum(p for v, s, p in zip(vv, ss, pp)
                   if differs(s, (int(x.v_ground[v]),)))
    acc = defaultdict(float)
    for a, s, p in zip(aa, ss, pp):
        acc[(a, s)] += p
    total = 0.0
    for (a, s), p in acc.items():
        b = [v for v in x.s_supports[s] if v not in set(x.a_supports[a])]
        if b and differs(s, b):
            total += p
    return total


# -- comparisons ----------------------------------------------------------------------


def assert_agreement_matches(x, f, plant, whole=True):
    test = x if isinstance(x, AgreementTest) else AgreementTest(
        x.s_labels, x.s_supports, x.sts, x.t_supports)
    assert rejection(x, f).epsilon == pytest.approx(rejection_loop(test, f), abs=TOL)
    for gamma in (0.0, 0.3):
        assert dist_gamma(f, plant, gamma, x) == pytest.approx(
            dist_gamma_loop(f, plant, gamma, test), abs=TOL)
    if whole:
        on_union = AgreementTest(test.s_labels, test.s_supports, test.sts, None)
        assert rejection(on_union, f).epsilon == pytest.approx(
            rejection_loop(on_union, f), abs=TOL)
        assert delta_ensemble_check(on_union, f, 0.6) == delta_check_loop(on_union, f, 0.6)
    for delta in (0.3, 0.6, 1.0):
        assert delta_ensemble_check(x, f, delta) == delta_check_loop(test, f, delta)


def assert_decode_matches(x, f, cfg=None):
    got, want = global_decode(x, f, cfg), decode_loop(x, f, cfg)
    assert np.array_equal(got.g_values, want["g_values"])
    assert (got.h, got.g, got.a_star, got.a_star_v, got.flags) == (
        want["h"], want["g"], want["a_star"], want["a_star_v"], want["flags"])
    assert set(got.diagnostics) == set(want["diagnostics"])
    for key, value in want["diagnostics"].items():
        assert got.diagnostics[key] == pytest.approx(value, abs=TOL), key
    value, flag = surprise(x, f)
    want_value, want_flag = surprise_loop(x, f)
    assert flag == want_flag and value == pytest.approx(want_value, abs=TOL)
    return got


def _fixed_instances():
    c95 = complete_complex(9, 5)
    hdx = hdx_stav(c95, 5, 1)
    return {
        "hdx": hdx,
        "hdx_l2": hdx_stav(complete_complex(9, 6), 6, 2),
        "partite": partite_ij_stav(partite_complete_complex([2] * 9), [0], [1], 8),
        "nbhd_independent": neighborhood_stav(c95, 1, 0, "independent"),
        "nbhd_complement": neighborhood_stav(c95, 1, 0, "complement"),
        "all_pairs_tables": stav_from_json_dict(stav_to_json_dict(hdx)),
    }


@pytest.fixture(scope="module")
def fixed_instances():
    return _fixed_instances()


def _ensembles(x, n_ground, cases=4):
    for alphabet, alpha, mode, seed in ((2, 0.2, "resample_set", 1),
                                        (3, 0.3, "flip_one", 2),
                                        (2, 0.0, "resample_set", 0),
                                        (4, 0.5, "resample_set", 3))[:cases]:
        plant = np.random.default_rng(seed).integers(0, alphabet, size=n_ground)
        f = perfect_ensemble(x, plant, alphabet=alphabet)
        yield plant, corrupt(f, alpha, mode, seed=seed) if alpha else f


@pytest.mark.parametrize("name,cases", [("hdx", 4), ("hdx_l2", 4), ("partite", 2),
                                        ("nbhd_independent", 4), ("nbhd_complement", 4),
                                        ("all_pairs_tables", 2)])
def test_instance_outputs_match_loops(fixed_instances, name, cases):
    x = fixed_instances[name]
    for plant, f in _ensembles(x, len(x.ground_labels), cases):
        # the partite sets are large, so their loop over all pairs takes long
        assert_agreement_matches(x, f, plant, whole=name != "partite")
        for cfg in (None, DecoderConfig(0.15, 0.25)):
            out = assert_decode_matches(x, f, cfg)
        for mode in ("singleton", "s_minus_a"):
            assert subset_agreement(x, f, out.g_ground, 0.3, mode) == pytest.approx(
                subset_agreement_loop(x, f, out.g_ground, 0.3, mode), abs=TOL)


@pytest.mark.parametrize("make", [lambda c: d_l_test(c, 3, 1),
                                  lambda c: up2k_distribution(c, 2),
                                  lambda c: up2k_distribution(c, 2, t_level=0)])
def test_test_distributions_match_loops(make):
    test = make(complete_complex(9, 5))
    for plant, f in _ensembles(test, 9):
        assert_agreement_matches(test, f, plant)


def up2k_dict(c, k, t_level=None):
    """up2k_distribution's tables: per r and per t-subface, every pair of
    s-subfaces accumulated in a per-t dict, s ranked by index_of."""
    lev_r, lev_s = c.level(2 * k), c.level(k)
    m = 0 if t_level is None else t_level + 1
    t_faces = [()] if t_level is None else list(c.level(t_level).iter_faces())
    t_pos = {t: i for i, t in enumerate(t_faces)}
    acc_t = [defaultdict(float) for _ in t_faces]
    for ri in range(lev_r.size):
        r = tuple(int(v) for v in lev_r.faces[ri])
        tsubs = list(itertools.combinations(r, m))
        for tf in tsubs:
            ssubs = [lev_s.index_of(tuple(sorted(tf + extra)))
                     for extra in itertools.combinations(
                         tuple(v for v in r if v not in tf), k + 1 - m)]
            pr = float(lev_r.measure[ri]) / (len(tsubs) * len(ssubs) ** 2)
            acc = acc_t[t_pos[tf]]
            for si in ssubs:
                for sj in ssubs:
                    acc[(si, sj)] += pr
    t_probs = (np.ones(1) if t_level is None
               else np.array([sum(acc.values()) for acc in acc_t]))
    tables = []
    for acc, tot in zip(acc_t, t_probs if t_level is not None else [1.0]):
        ij = np.array(list(acc), dtype=np.int64).reshape(-1, 2)
        tables.append(("pairs", ij[:, 0], ij[:, 1],
                       np.array(list(acc.values())) / tot if tot > 0 else np.array([])))
    return t_probs, tables


def assert_up2k_matches_dict(c, k, t_level):
    test = up2k_distribution(c, k, t_level)
    t_probs, tables = up2k_dict(c, k, t_level)
    np.testing.assert_array_equal(test.sts.t_probs, t_probs)
    assert len(test.sts.tables) == len(tables)
    for got, want in zip(test.sts.tables, tables):
        assert got[0] == want[0] == "pairs"
        for g, w in zip(got[1:], want[1:]):
            np.testing.assert_array_equal(g, w)  # same entries, same order


@pytest.mark.parametrize("k,t_level", [(2, None), (2, 0), (2, 1), (1, None), (1, 0)])
def test_up2k_tables_match_dict(k, t_level):
    assert_up2k_matches_dict(complete_complex(9, 5), k, t_level)


@given(st.integers(0, 2**31 - 1), st.integers(6, 8), st.integers(4, 5),
       st.sampled_from([(1, None), (1, 0), (2, None), (2, 0), (2, 1)]))
def test_random_up2k_tables_match_dict(seed, n, d, k_t):
    assume(2 * k_t[0] <= d)
    assert_up2k_matches_dict(random_weighted_complex(seed, n, d), *k_t)


def sts_t_expansions_loop(x):
    """Two-sided expansion of the pair graph of each t with mass, one t and
    one dense square_lambda call at a time."""
    t, i, j, q = x.sts.all_pairs()
    bounds = np.searchsorted(t, np.arange(len(x.sts.t_probs) + 1))
    out = []
    for ti in np.flatnonzero(x.sts.t_probs > 0):
        i_idx, j_idx, p = (col[bounds[ti]:bounds[ti + 1]] for col in (i, j, q))
        live, pos = np.unique(np.concatenate([i_idx, j_idx]), return_inverse=True)
        dense = np.zeros((len(live), len(live)))
        np.add.at(dense, (pos[:len(i_idx)], pos[len(i_idx):]), p)
        out.append(square_lambda(dense, dense.sum(axis=1)).two_sided)
    return out


def assert_sts_t_expansions_match_loop(x):
    got, want = sts_t_expansions(x), sts_t_expansions_loop(x)
    assert len(got) == len(want)
    assert np.max(np.abs(np.subtract(got, want)), initial=0.0) <= TOL


@pytest.mark.parametrize("name", ["hdx", "hdx_l2", "partite", "nbhd_independent",
                                  "nbhd_complement", "all_pairs_tables"])
def test_sts_t_expansions_match_loop(fixed_instances, name):
    assert_sts_t_expansions_match_loop(fixed_instances[name])


@pytest.mark.parametrize("make", [lambda c: d_l_test(c, 3, 1),
                                  lambda c: up2k_distribution(c, 2),
                                  lambda c: up2k_distribution(c, 2, t_level=0),
                                  lambda c: up2k_distribution(c, 2, t_level=1)])
def test_test_distribution_expansions_match_loop(make):
    assert_sts_t_expansions_match_loop(make(random_weighted_complex(4, 9, 5)))


def test_bruteforce_matches_loop(fixed_instances):
    x = hdx_stav(random_weighted_complex(5, 7, 4), 4, 1)
    for plant, f in _ensembles(x, 7):
        if f.alphabet <= 3:
            for gamma in (0.0, 0.25):
                assert dist_to_perfect_bruteforce(x, f, gamma) == pytest.approx(
                    bruteforce_loop(x, f, gamma), abs=TOL)


@pytest.mark.parametrize("width", [3, 70])
def test_row_codes_follow_lexicographic_order(width):
    # 3**70 overflows int64, so the wide rows are ranked among the distinct rows
    rows = np.random.default_rng(width).integers(0, 3, size=(200, width))
    rows[100:] = rows[:100]
    codes = _row_codes(rows)
    keys = [tuple(r) for r in rows.tolist()]
    for i, j in itertools.combinations(range(len(keys)), 2):
        assert (codes[i] < codes[j]) == (keys[i] < keys[j])
        assert (codes[i] == codes[j]) == (keys[i] == keys[j])


def test_missing_vertex_raises(fixed_instances):
    x = fixed_instances["hdx"]
    f = perfect_ensemble(x, np.zeros(9, dtype=int), alphabet=2)
    short = Ensemble(2, {**f.assignments, x.s_labels[0]: np.zeros(2, dtype=np.int64)})
    for bad in (short, Ensemble(2, dict(list(f.assignments.items())[1:]))):
        with pytest.raises(SupportMismatch):
            rejection(x, bad)
        with pytest.raises(SupportMismatch):
            global_decode(x, bad)


def test_amplification_row_outside_its_set_raises(fixed_instances):
    # two zero-mass amplification rows whose a1 = {8} is not in s = {0..5}:
    # their (a, s) is no (v, a, s) pair, and restricting f_s to it fails
    x = fixed_instances["hdx"]
    data = stav_to_json_dict(x)
    s, a1, a2 = x.s_labels.index((0, 1, 2, 3, 4, 5)), x.a_labels.index((8,)), \
        x.a_labels.index((0,))
    data["vasa"] += [[1, a1, s, a2, 0.0], [1, a2, s, a1, 0.0]]
    y = stav_from_json_dict(data)
    assert len(y.vasa) == len(x.vasa) + 2
    f = perfect_ensemble(y, np.zeros(9, dtype=int), alphabet=2)
    with pytest.raises(SupportMismatch, match="does not cover vertex 8"):
        global_decode(y, f)


# -- properties on random complexes ---------------------------------------------------


def _random_partite(seed: int, doubled: int) -> Complex:
    """Nine colour classes, ``doubled`` of them with two vertices, random weights."""
    rng = np.random.default_rng(seed)
    sizes = [2] * doubled + [1] * (9 - doubled)
    base = partite_complete_complex(sizes)
    tops, _ = base.top_arrays()
    w = rng.gamma(1.0, 1.0, size=len(tops)) + 1e-3
    return Complex(base.n_vertices, base.d, tops.copy(), w / w.sum(),
                   coloring=base.coloring)


def _random_instance(kind, seed, n, doubled):
    if kind == "partite":
        return partite_ij_stav(_random_partite(seed, doubled), [0], [1], 8)
    c = random_weighted_complex(seed, n, 4)
    if kind == "hdx":
        return hdx_stav(c, 4, 1)
    return neighborhood_stav(c, 1, 0, kind)


instances = st.builds(_random_instance, st.sampled_from(
    ["hdx", "partite", "independent", "complement"]), st.integers(0, 2**31 - 1),
    st.integers(6, 8), st.integers(1, 4))


def _random_ensemble(x, alphabet, seed, alpha):
    rng = np.random.default_rng(seed)
    plant = rng.integers(0, alphabet, size=len(x.ground_labels))
    if alpha is None:
        return plant, random_ensemble(x, alphabet, seed)
    f = perfect_ensemble(x, plant, alphabet=alphabet)
    return plant, corrupt(f, alpha, "resample_set", seed=seed)


ensemble_args = (st.integers(2, 4), st.integers(0, 2**31 - 1),
                 st.one_of(st.none(), st.sampled_from([0.0, 0.1, 0.3])))


@given(instances, *ensemble_args)
def test_random_complexes_match_loops(x, alphabet, seed, alpha):
    plant, f = _random_ensemble(x, alphabet, seed, alpha)
    assert_agreement_matches(x, f, plant)
    assert_decode_matches(x, f)


@given(instances)
def test_random_sts_t_expansions_match_loop(x):
    assert_sts_t_expansions_match_loop(x)


@given(instances, *ensemble_args, st.randoms(use_true_random=False))
def test_decoder_alphabet_permutation_equivariant(x, alphabet, seed, alpha, rnd):
    _, f = _random_ensemble(x, alphabet, seed, alpha)
    perm = list(range(alphabet))
    rnd.shuffle(perm)
    out, moved = global_decode(x, f), global_decode(x, f.relabel(perm))
    assume(not any(out.flags[k] or moved.flags[k]
                   for k in ("h_ties", "g_ties", "global_ties")))
    assert np.array_equal(moved.g_values, np.asarray(perm)[out.g_values])
    assert moved.a_star == out.a_star and moved.a_star_v == out.a_star_v
    assert rejection(x, f.relabel(perm)).epsilon == pytest.approx(
        rejection(x, f).epsilon, abs=TOL)


@given(instances, *ensemble_args)
def test_ensemble_json_roundtrip(x, alphabet, seed, alpha):
    _, f = _random_ensemble(x, alphabet, seed, alpha)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        save_ensemble(f, path)
        back = load_ensemble(path)
    assert back.alphabet == f.alphabet
    assert list(back.assignments) == list(f.assignments)
    assert all(np.array_equal(back.assignments[k], v) for k, v in f.assignments.items())
    assert rejection(x, back).epsilon == rejection(x, f).epsilon


# -- the decoder's (a, s) key map ---------------------------------------------------


def keys_by_search(x):
    """``decoder._keys`` as it was built: the extra keys by ``np.isin`` and
    ``np.unique``, and each amplification row's keys by ``searchsorted``
    among all the key codes."""
    pa, ps = _as_pairs(x)[:2]
    va, n_s = x.vasa, len(x.s_labels)
    code = pa.astype(np.int64) * n_s + ps
    rows = [a.astype(np.int64) * n_s + va.s_idx for a in (va.a1_idx, va.a2_idx)]
    extra = np.unique(np.concatenate([r[~np.isin(r, code)] for r in rows]))
    code = np.concatenate([code, extra])
    order = np.argsort(code).astype(np.int32)
    return (code // n_s, code % n_s,
            *(order[np.searchsorted(code[order], r)] for r in rows))


def _chain_instance():
    """hdx_stav(l=1) on 30 sets of 6 vertices, each sharing one vertex with
    the next: 151 a-faces against 30 sets, so the (a, s) table would have
    4530 cells for 3600 amplification rows."""
    tops = [tuple(range(5 * i, 5 * i + 6)) for i in range(30)]
    return hdx_stav(build_from_top_faces(151, [(t, 1 / 30) for t in tops]), 5, 1)


def _with_extra_rows(x, rows):
    """x with zero-mass amplification rows (v, a1, s, a2) appended, whose
    (a, s) are no (v, a, s) pairs; JSON instances may carry such rows."""
    va = x.vasa
    v, a1, s, a2 = np.array(rows, dtype=np.int64).T
    vasa = VasaTable(*(np.concatenate([old, new]) for old, new in (
        (va.v_idx, v), (va.a1_idx, a1), (va.s_idx, s), (va.a2_idx, a2),
        (va.probs, np.zeros(len(v))))))
    return dataclasses.replace(x, vasa=vasa)


def _key_cases(fixed):
    hdx, chain = fixed["hdx"], _chain_instance()
    s0 = hdx.s_labels.index((0, 1, 2, 3, 4, 5))
    s1 = hdx.s_labels.index((1, 2, 3, 4, 5, 6))
    a = {v: hdx.a_labels.index((v,)) for v in range(9)}
    # the loaded complete(9,5) instance with three extra keys, listed out of
    # code order, and one of them repeated
    data = stav_to_json_dict(hdx)
    data["vasa"] += [[1, a[8], s0, a[0], 0.0], [1, a[0], s0, a[8], 0.0],
                     [2, a[7], s1, a[1], 0.0], [2, a[1], s1, a[7], 0.0],
                     [1, a[6], s0, a[8], 0.0], [1, a[8], s0, a[6], 0.0]]
    far = chain.a_labels.index((150,))
    return {**fixed, "json_extra": stav_from_json_dict(data), "chain": chain,
            "chain_extra": _with_extra_rows(chain, [[3, far, 0, 1], [3, 1, 0, far],
                                                    [2, 0, 29, far]])}


@pytest.fixture(scope="module")
def key_cases(fixed_instances):
    return _key_cases(fixed_instances)


@pytest.mark.parametrize("name", ["hdx", "hdx_l2", "partite", "nbhd_independent",
                                  "nbhd_complement", "all_pairs_tables", "json_extra",
                                  "chain", "chain_extra"])
def test_decoder_keys_match_the_search(key_cases, name):
    x = key_cases[name]
    got, want = _keys(x), keys_by_search(x)
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    n_extra = len(got[0]) - len(_as_pairs(x)[0])
    assert n_extra == {"json_extra": 3, "chain_extra": 2}.get(name, 0)
    # the chain instance's (a, s) table would outgrow its amplification table,
    # so its rows are looked up by the sorted search; every other instance
    # gathers from the table
    dense = len(x.a_labels) * len(x.s_labels) <= len(x.vasa)
    assert dense == (not name.startswith("chain"))


def test_dist_gamma_compares_where_the_assignment_is_defined(fixed_instances):
    # the decoder leaves the partite g undefined (-1) on the colours I and J;
    # a perfect ensemble agrees with it everywhere else
    x = fixed_instances["partite"]
    plant = np.random.default_rng(2).integers(0, 2, size=len(x.ground_labels))
    f = perfect_ensemble(x, plant, alphabet=2)
    g = global_decode(x, f).g_ground
    assert (g < 0).sum() == 4 and np.array_equal(g[g >= 0], plant[g >= 0])
    assert dist_gamma(f, g, 0.0, x) == 0.0
    fc = corrupt(f, 0.2, "resample_set", seed=4)
    for gamma in (0.0, 0.1, 0.5):
        assert dist_gamma(fc, g, gamma, x) == pytest.approx(
            dist_gamma_loop(fc, g, gamma, x), abs=TOL)
    # undefined everywhere: no set differs
    assert dist_gamma(fc, np.full(len(g), -1), 0.0, x) == 0.0
