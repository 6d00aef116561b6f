import numpy as np
import pytest

from hdxlab import agreement, decoder
from hdxlab.complexes import build_from_top_faces, complete_complex, \
    partite_complete_complex
from hdxlab.errors import MarginalMismatch, NoGoodColors, ParameterRange
from hdxlab.agreement import (
    _as_test,
    _lift,
    corrupt,
    d_l_test,
    dist_gamma,
    dist_to_perfect_bruteforce,
    perfect_ensemble,
    rejection,
)
from hdxlab.decoder import (
    DecoderConfig,
    bad_sets,
    global_decode,
    in_one_set_test,
    local_popularity,
    partite_decode,
    reach_functions,
    subset_agreement,
)
from hdxlab.stav import _as_pairs, hdx_stav, neighborhood_stav

# ladder ceilings frozen from pilot sweeps (complete complex on nine
# vertices, levels five over one, binary alphabet, resample corruption)
H_MISMATCH_CEIL = 1.0
G_MISMATCH_CEIL = 1.0
NOT_GLOBAL_BAD_CEIL = 0.5
VOTE_MISMATCH_CEIL = 0.5
BAD_TRIPLE_CEIL = 1.0


@pytest.fixture(scope="module")
def setup951():
    c = complete_complex(9, 5)
    x = hdx_stav(c, 5, 1)
    rng = np.random.default_rng(31)
    plant = rng.integers(0, 2, size=9)
    f = perfect_ensemble(x, plant, alphabet=2)
    return x, plant, f


def test_config_validation():
    with pytest.raises(ParameterRange):
        DecoderConfig(tau_global=0.5, tau_local=0.1)
    cfg = DecoderConfig()
    assert cfg.tau_global == pytest.approx(1 / 40)
    assert cfg.tau_local == pytest.approx(1 / 20)


def test_perfect_recovery(setup951):
    x, plant, f = setup951
    out = global_decode(x, f)
    assert np.array_equal(out.g_values, plant)
    assert out.diagnostics["epsilon"] == 0.0
    assert not out.a_star
    assert out.flags["empty_global_votes"] == 0


def test_local_popularity_perfect(setup951):
    x, plant, f = setup951
    h_pad, ties = local_popularity(x, _lift(_as_test(x), f))
    assert h_pad.shape[0] == len(x.a_supports) and ties == 0
    for ai, sup in enumerate(x.a_supports):
        assert tuple(h_pad[ai, :len(sup)]) == tuple(int(plant[v]) for v in sup)


def test_local_popularity_single_cover():
    c = build_from_top_faces(9, [((0, 1, 2, 3, 4), 0.5), ((0, 5, 6, 7, 8), 0.5)])
    x = hdx_stav(c, 4, 1)
    f = perfect_ensemble(x, np.arange(9) % 2, alphabet=2)
    f.assignments[(0, 1, 2, 3, 4)] = np.array([1, 1, 1, 1, 1])
    h_pad, _ = local_popularity(x, _lift(_as_test(x), f))
    ai = x.a_labels.index((3,))  # vertex 3 is covered by one set only
    assert tuple(h_pad[ai, :1]) == (1,)


def test_reach_functions_perfect(setup951):
    x, plant, f = setup951
    out = global_decode(x, f)
    for ai, votes in out.g.items():
        for vi, val in votes.items():
            assert val == int(plant[x.v_ground[vi]])
    assert out.flags["g_ties"] == 0 and out.flags["empty_reach_votes"] == 0


def test_bad_sets_perfect_empty(setup951):
    x, _, f = setup951
    lifted = _lift(_as_test(x), f)
    h_pad, _ = local_popularity(x, lifted)
    star, star_av, bad = bad_sets(x, decoder._agrees(x, lifted, h_pad), DecoderConfig())
    assert star.shape == (len(x.a_labels),)
    assert star_av.shape == (len(x.a_labels), len(x.v_labels))
    assert not star.any() and not star_av.any() and bad == 0.0


def test_global_decode_lifts_once_and_runs_each_stage_once(setup951, monkeypatch):
    x, _, f = setup951
    calls, restricted = [], []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    def restrict(real):
        def wrapper(lifted, s_idx, cols):
            restricted.append(len(s_idx))
            return real(lifted, s_idx, cols)
        return wrapper

    # the lift and the restriction are counted in both modules, so that the
    # epsilon diagnostic, computed in agreement, is seen too
    for module in (agreement, decoder):
        monkeypatch.setattr(module, "_lift", counted("_lift", module._lift))
        monkeypatch.setattr(module, "_restrict", restrict(module._restrict))
    for name in ("local_popularity", "reach_functions", "bad_sets"):
        monkeypatch.setattr(decoder, name, counted(name, getattr(decoder, name)))
    fc = corrupt(f, 0.2, "resample_set", seed=77)
    out = global_decode(x, fc)
    assert sorted(calls) == sorted(("_lift", "local_popularity", "reach_functions",
                                    "bad_sets"))
    assert out.diagnostics["epsilon"] > 0.0
    # f_s is restricted to a once per (a, s) pair, never per amplification row
    assert (len(x.vasa), len(_as_pairs(x)[0])) == (10_080, 504)
    assert restricted and max(restricted) < len(x.vasa)


def test_markov_bound_on_a_star(setup951):
    x, _, f = setup951
    cfg = DecoderConfig()
    for seed in range(15):
        fc = corrupt(f, 0.15, "resample_set", seed=seed)
        out = global_decode(x, fc, cfg)
        # exact first-moment bound: tau * Pr[A*] <= bad-triple mass
        assert (out.diagnostics["pr_a_star"] * cfg.tau_global
                <= out.diagnostics["bad_triple_prob"] + 1e-12)


def test_diagnostic_ladder_frozen(setup951):
    x, _, f = setup951
    for alpha in (0.05, 0.1, 0.2):
        for seed in range(10):
            fc = corrupt(f, alpha, "resample_set", seed=seed)
            out = global_decode(x, fc)
            eps = out.diagnostics["epsilon"]
            if eps == 0.0:
                continue
            d = out.diagnostics
            assert d["h_mismatch"] <= H_MISMATCH_CEIL * eps
            assert d["g_mismatch"] <= G_MISMATCH_CEIL * eps
            assert d["not_global_bad_but_local"] <= NOT_GLOBAL_BAD_CEIL * eps
            assert d["global_vote_mismatch"] <= VOTE_MISMATCH_CEIL * eps
            assert d["bad_triple_prob"] <= BAD_TRIPLE_CEIL * eps


def test_determinism(setup951):
    x, _, f = setup951
    fc = corrupt(f, 0.2, "resample_set", seed=77)
    o1 = global_decode(x, fc)
    o2 = global_decode(x, fc)
    assert np.array_equal(o1.g_values, o2.g_values)
    assert o1.diagnostics == o2.diagnostics
    assert o1.a_star == o2.a_star


def test_alphabet_permutation_equivariance(setup951):
    x, _, f = setup951
    hits = 0
    for seed in range(12):
        fc = corrupt(f, 0.15, "resample_set", seed=seed)
        out = global_decode(x, fc)
        if out.flags["h_ties"] or out.flags["g_ties"] or out.flags["global_ties"]:
            continue  # lexicographic tie-breaking is not symbol-equivariant
        hits += 1
        perm = np.array([1, 0])
        out2 = global_decode(x, fc.relabel(perm))
        assert np.array_equal(out2.g_values, perm[out.g_values])
    assert hits >= 6


def test_empty_vote_fallback_flagged(setup951):
    x, _, f = setup951
    fc = corrupt(f, 1.0, "resample_set", seed=5)
    out = global_decode(x, fc)
    assert out.flags["empty_global_votes"] >= 0  # flags always reported
    assert len(out.g_values) == 9


def test_monotone_in_alpha_on_average(setup951):
    x, plant, f = setup951
    eps_avg, dist_avg = [], []
    for alpha in (0.0, 0.05, 0.1, 0.2):
        es, ds = [], []
        for seed in range(10):
            fc = corrupt(f, alpha, "resample_set", seed=seed) if alpha else f
            out = global_decode(x, fc)
            es.append(out.diagnostics["epsilon"])
            ds.append(dist_gamma(fc, out.g_ground, 0.0, x))
        eps_avg.append(np.mean(es))
        dist_avg.append(np.mean(ds))
    assert all(a <= b + 1e-12 for a, b in zip(eps_avg, eps_avg[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(dist_avg, dist_avg[1:]))


def test_subset_agreement_modes(setup951):
    x, plant, f = setup951
    assert subset_agreement(x, f, plant, 0.0, "singleton") == 0.0
    assert subset_agreement(x, f, plant, 0.0, "s_minus_a") == 0.0
    fc = corrupt(f, 0.2, "resample_set", seed=9)
    # singleton mode is the pointwise disagreement rate under (v, a, s)
    got = subset_agreement(x, fc, plant, 0.0, "singleton")
    v_idx, a_idx, s_idx, p = x.vas_triples()
    direct = 0.0
    for v, s, q in zip(v_idx, s_idx, p):
        sup = x.s_supports[int(s)]
        gv = int(x.v_ground[int(v)])
        pos = sup.index(gv)
        if int(fc.assignments[x.s_labels[int(s)]][pos]) != int(plant[gv]):
            direct += float(q)
    assert got == pytest.approx(direct, abs=1e-12)


def test_subset_agreement_custom_table(setup951):
    x, plant, f = setup951
    v_idx, a_idx, s_idx, p = x.vas_triples()
    table = [(int(v), int(a), int(s), (int(x.v_ground[int(v)]),), float(q))
             for v, a, s, q in zip(v_idx, a_idx, s_idx, p)]
    val = subset_agreement(x, f, plant, 0.0, b_table=table)
    assert val == 0.0
    bad = [(v, a, s, b, q * 2) for v, a, s, b, q in table]
    with pytest.raises(MarginalMismatch):
        subset_agreement(x, f, plant, 0.0, b_table=bad)


def test_decode_near_optimal(setup951):
    x, plant, f = setup951
    for seed in range(5):
        fc = corrupt(f, 0.2, "resample_set", seed=seed)
        out = global_decode(x, fc)
        d_dec = dist_gamma(fc, out.g_ground, 0.0, x)
        d_opt = dist_to_perfect_bruteforce(x, fc, 0.0)
        assert d_dec <= d_opt + 1e-9


def test_neighborhood_decode_perfect():
    c = complete_complex(9, 5)
    x = neighborhood_stav(c, 1, 0, "independent")
    plant = np.arange(9) % 2
    f = perfect_ensemble(x, plant, alphabet=2)
    out = global_decode(x, f)
    assert np.array_equal(out.g_values, plant)


def test_partite_decode_perfect_and_corrupted():
    c = partite_complete_complex([2] * 9)
    test = d_l_test(c, 8, 1)
    rng = np.random.default_rng(4)
    plant = rng.integers(0, 2, size=c.n_vertices)
    f = perfect_ensemble(test, plant, alphabet=2)
    out = partite_decode(c, 8, 1, f)
    assert np.array_equal(out.g_ground, plant)
    fc = corrupt(f, 0.05, "resample_set", seed=6)
    out2 = partite_decode(c, 8, 1, fc)
    eps = rejection(test, fc).epsilon
    d0 = dist_gamma(fc, out2.g_ground, 0.0, test)
    assert d0 <= 2.0 * eps + 1e-12


def test_partite_decode_no_good_colors(monkeypatch):
    c = partite_complete_complex([2] * 9)
    test = d_l_test(c, 8, 1)
    plant = np.zeros(c.n_vertices, dtype=int)
    f = corrupt(perfect_ensemble(test, plant, alphabet=2), 0.5,
                "resample_set", seed=1)
    for name, value in (("_REJECTION_FACTOR", 0.0), ("_ONESET_FACTOR", 0.0),
                        ("_EPSILON_FLOOR", 0.0), ("_MAX_TUPLES", 4)):
        monkeypatch.setattr(decoder, name, value)
    with pytest.raises(NoGoodColors):
        partite_decode(c, 8, 1, f)


def test_in_one_set_distribution():
    c = partite_complete_complex([2] * 9)
    test = in_one_set_test(c, [0], [1], 8, 1)
    assert abs(test.sts.t_probs.sum() - 1.0) < 1e-12
    plant = np.zeros(c.n_vertices, dtype=int)
    f = perfect_ensemble(test, plant, alphabet=2)
    assert rejection(test, f).epsilon == 0.0


def test_plant_recovery_rate_at_small_corruption(setup951):
    x, plant, f = setup951
    matches = []
    for seed in range(20):
        fc = corrupt(f, 0.1, "resample_set", seed=seed)
        out = global_decode(x, fc)
        matches.append(np.mean(out.g_values == plant))
    assert np.mean(matches) >= 0.95


def test_subset_agreement_s_minus_a_oracle(setup951):
    x, plant, f = setup951
    fc = corrupt(f, 0.25, "resample_set", seed=21)
    r_gamma = 0.4
    got = subset_agreement(x, fc, plant, r_gamma, "s_minus_a")
    # oracle through the factored distribution: t, then s | t, then a | t
    stc = x.st_joint.tocsc()
    direct = 0.0
    for ti in range(len(x.t_probs)):
        a_idx, p_av = x.av.a_idx[x.av.t_idx == ti], x.av.probs[x.av.t_idx == ti]
        col = stc[:, ti]
        a_of_t = {}
        for ai, q in zip(a_idx, p_av):
            a_of_t[int(ai)] = a_of_t.get(int(ai), 0.0) + float(q)
        for si, p_st in zip(col.indices, col.data):
            sup = x.s_supports[int(si)]
            vals = fc.assignments[x.s_labels[int(si)]]
            for ai, q in a_of_t.items():
                b = [v for v in sup if v not in set(x.a_supports[ai])]
                frac = np.mean([int(vals[sup.index(v)]) != int(plant[v])
                                for v in b])
                if frac > r_gamma:
                    direct += float(p_st) * q
    assert got == pytest.approx(direct, abs=1e-12)
