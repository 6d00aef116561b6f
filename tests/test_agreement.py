
import numpy as np
import pytest

from hdxlab.complexes import build_from_top_faces, complete_complex
from hdxlab.errors import ParameterRange, PartialGlobal, SizeCapError, \
    SupportMismatch
from hdxlab.agreement import (
    Ensemble,
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
    weak_neighborhood_tests,
)
from hdxlab.stav import hdx_stav, neighborhood_stav

from conftest import brute_force_rejection, pair_arrays


@pytest.fixture(scope="module")
def setup951():
    c = complete_complex(9, 5)
    x = hdx_stav(c, 5, 1)
    rng = np.random.default_rng(101)
    plant = rng.integers(0, 2, size=9)
    f = perfect_ensemble(x, plant, alphabet=2)
    return c, x, plant, f


def test_perfect_rejection_exactly_zero(setup951):
    _, x, _, f = setup951
    assert rejection(x, f).epsilon == 0.0


def test_perfect_distances(setup951):
    _, x, plant, f = setup951
    assert dist_gamma(f, plant, 0.0, x) == 0.0
    assert dist_to_perfect_bruteforce(x, f, 0.0) == 0.0


def test_constant_global_gives_constant_locals(setup951):
    _, x, _, _ = setup951
    f = perfect_ensemble(x, np.ones(9, dtype=int), alphabet=2)
    assert all(np.all(v == 1) for v in f.assignments.values())


def test_partial_global_rejected(setup951):
    _, x, _, _ = setup951
    with pytest.raises(PartialGlobal):
        perfect_ensemble(x, np.zeros(4, dtype=int))


def test_corrupt_alpha_zero_identity(setup951):
    _, x, _, f = setup951
    same = corrupt(f, 0.0, "flip_one", seed=1)
    assert all(np.array_equal(same.assignments[k], f.assignments[k])
               for k in f.assignments)


def test_corrupt_alpha_one_flip_distance(setup951):
    _, x, plant, f = setup951
    flipped = corrupt(f, 1.0, "flip_one", seed=2)
    for label, sup in zip(x.s_labels, x.s_supports):
        diff = np.sum(flipped.assignments[label]
                      != plant[np.asarray(sup)])
        assert diff == 1  # exactly one coordinate per set


def test_corrupt_mode_validation(setup951):
    _, x, _, f = setup951
    with pytest.raises(ParameterRange):
        corrupt(f, 1.5, "flip_one", seed=0)
    with pytest.raises(ParameterRange):
        corrupt(f, 0.5, "nope", seed=0)


def test_flip_one_needs_two_symbols(setup951):
    _, x, _, _ = setup951
    f = perfect_ensemble(x, np.zeros(9, dtype=int), alphabet=1)
    with pytest.raises(ParameterRange, match="flip_one needs an alphabet of at least 2"):
        corrupt(f, 0.5, "flip_one", seed=0)
    same = corrupt(f, 0.0, "flip_one", seed=0)
    assert all(np.array_equal(same.assignments[k], f.assignments[k])
               for k in f.assignments)


def test_monte_carlo_needs_a_sample(setup951):
    _, x, _, f = setup951
    for samples in (0, -1):
        with pytest.raises(ParameterRange, match="at least one sample"):
            rejection(x, f, mode="mc", samples=samples, seed=3)
    assert rejection(x, f, mode="mc", samples=1, seed=3).epsilon == 0.0


def test_flip_one_union_bound_realized():
    # per-realization form: rejection <= 2 * corrupted-mass * (l+1)/(d+1)
    c = complete_complex(8, 4)
    x = hdx_stav(c, 4, 1)
    plant = np.zeros(8, dtype=int)
    f = perfect_ensemble(x, plant, alphabet=2)
    s_probs = x.s_probs()
    for seed in range(6):
        fc = corrupt(f, 0.3, "flip_one", seed=seed)
        corrupted_mass = float(sum(
            p for p, label in zip(s_probs, x.s_labels)
            if np.any(fc.assignments[label] != f.assignments[label])))
        eps = rejection(x, fc).epsilon
        assert eps <= 2 * corrupted_mass * (2 / 5) + 1e-12


def test_rejection_two_point_complex():
    c = build_from_top_faces(2, [((0, 1), 1.0)])
    test = d_l_test(c, 1, 0)
    f = Ensemble(2, {(0, 1): np.array([0, 1])})
    assert rejection(test, f).epsilon == 0.0


def test_rejection_alphabet_relabel_invariant(setup951):
    _, x, _, f = setup951
    fc = corrupt(f, 0.3, "resample_set", seed=5)
    eps = rejection(x, fc).epsilon
    relabeled = fc.relabel([1, 0])
    assert rejection(x, relabeled).epsilon == pytest.approx(eps, abs=1e-15)


def test_rejection_matches_bruteforce_oracle(setup951):
    _, x, _, f = setup951
    for seed in range(10):
        fc = corrupt(f, 0.25, "resample_set", seed=seed)
        assert rejection(x, fc).epsilon == pytest.approx(
            brute_force_rejection(x, fc), abs=1e-12)


def test_mc_rejection_close_to_exact(setup951):
    _, x, _, f = setup951
    misses = 0
    for seed in range(50):
        fc = corrupt(f, 0.2, "resample_set", seed=1000 + seed)
        exact = rejection(x, fc).epsilon
        mc = rejection(x, fc, mode="mc", samples=20_000, seed=seed)
        if abs(mc.epsilon - exact) > 3 * mc.std_error:
            misses += 1
    assert misses <= 2  # a 3-sigma check fails a fraction of a percent of runs


def test_mc_missing_support_errors(setup951):
    _, x, _, f = setup951
    partial = Ensemble(2, dict(list(f.assignments.items())[:-1]))
    with pytest.raises(SupportMismatch):
        rejection(x, partial)


def test_dist_gamma_properties(setup951):
    _, x, plant, f = setup951
    fc = corrupt(f, 0.4, "resample_set", seed=3)
    assert dist_gamma(fc, plant, 1.0, x) == 0.0
    vals = [dist_gamma(fc, plant, g, x) for g in (0.0, 0.2, 0.5, 0.9)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_bruteforce_cap():
    c = complete_complex(9, 5)
    x = hdx_stav(c, 5, 1)
    f = random_ensemble(x, 40, seed=0)
    with pytest.raises(SizeCapError):
        dist_to_perfect_bruteforce(x, f, 0.0)


def test_bruteforce_vs_plurality_lower_bound(setup951):
    _, x, plant, f = setup951
    fc = corrupt(f, 0.3, "resample_set", seed=11)
    brute = dist_to_perfect_bruteforce(x, fc, 0.0)
    # plurality candidate is one specific global: an upper bound for the min
    votes = np.zeros((9, 2))
    for label, sup in zip(x.s_labels, x.s_supports):
        for pos, v in enumerate(sup):
            votes[v, fc.assignments[label][pos]] += 1
    candidate = votes.argmax(axis=1)
    assert brute <= dist_gamma(fc, candidate, 0.0, x) + 1e-12


def test_delta_ensemble_universal(setup951):
    _, x, _, f = setup951
    fc = corrupt(f, 0.5, "resample_set", seed=7)
    ok, _ = delta_ensemble_check(x, fc, 0.49)  # below 1/|t| = 1/2
    assert ok
    assert delta_ensemble_check(x, f, 0.99)[0]  # perfect passes any delta


def test_delta_ensemble_witness(setup951):
    _, x, plant, f = setup951
    fc = corrupt(f, 0.6, "flip_one", seed=13)
    ok, witness = delta_ensemble_check(x, fc, 0.9)
    assert not ok and witness is not None
    s1, t, s2 = witness
    assert set(t) <= set(s1) and set(t) <= set(s2)


def test_delta_ensemble_without_t_supports_compares_common_supports():
    # up2k without a t level has no t supports: each pair of edges of a
    # triangle is compared on the vertex they share
    test = up2k_distribution(complete_complex(6, 2), 1)
    assert test.t_supports is None
    f = perfect_ensemble(test, np.zeros(6, dtype=int), alphabet=2)
    assert delta_ensemble_check(test, f, 1.0) == (True, None)
    f.assignments[(0, 1)] = np.array([1, 0])
    ok, (s1, common, s2) = delta_ensemble_check(test, f, 1.0)
    assert not ok and common == tuple(sorted(set(s1) & set(s2))) and 0 in common
    assert delta_ensemble_check(test, f, 0.99)[0]


def test_xor_family_is_delta_ensemble(setup951):
    _, x, plant, f = setup951
    rng = np.random.default_rng(17)
    g = f.copy()
    for label in g.assignments:
        if rng.random() < 0.5:
            g.assignments[label] = 1 - g.assignments[label]
    assert delta_ensemble_check(x, g, 0.99)[0]
    xi, conditioned = surprise(x, g)
    assert xi == 0.0


def test_surprise_perfect_flagged(setup951):
    _, x, _, f = setup951
    xi, conditioned = surprise(x, f)
    assert xi == 0.0 and not conditioned


def test_surprise_range_and_zero_rejection_link(setup951):
    _, x, _, f = setup951
    for seed in range(10):
        fc = corrupt(f, 0.3, "resample_set", seed=seed)
        xi, cond = surprise(x, fc)
        assert 0.0 <= xi <= 1.0
        if rejection(x, fc).epsilon == 0.0:
            assert xi == 0.0 and not cond


def test_surprise_delta_bound(setup951):
    # any ensemble is a (1 / |t|)-ensemble; eta is the worst t-lower expansion
    from hdxlab.stav import derive_graph
    from hdxlab.spectra import bipartite_norm
    _, x, _, f = setup951
    eta = max(bipartite_norm(derive_graph(x, "t_lower", t)).lambda_bip
              for t in x.t_labels[:6])
    delta = 1 / 2
    worst = 0.0
    for seed in range(30):
        fc = corrupt(f, 0.3, "resample_set", seed=seed)
        xi, _ = surprise(x, fc)
        worst = max(worst, xi)
    # constant of the eta^2 / delta shape, measured: keep a frozen ceiling
    assert worst <= 1.0 * eta * eta / delta + 1e-12


def test_weak_tests_perfect_zero():
    c = complete_complex(9, 5)
    for mode in ("independent", "complement"):
        x = neighborhood_stav(c, 1, 0, mode)
        f = perfect_ensemble(x, np.zeros(9, dtype=int), alphabet=2)
        assert weak_neighborhood_tests(c, 1, 0, f, mode, instance=x).epsilon == 0.0


def test_weak_tests_refuse_a_mismatched_instance():
    c = complete_complex(9, 5)
    x = neighborhood_stav(c, 1, 0, "independent")
    f = perfect_ensemble(x, np.zeros(9, dtype=int), alphabet=2)
    for args in ((c, 1, 0, "complement"), (c, 2, 0, "independent"),
                 (c, 1, 1, "independent"), (complete_complex(9, 5), 1, 0, "independent")):
        cc, l, k, mode = args
        with pytest.raises(ParameterRange, match="the instance was built for"):
            weak_neighborhood_tests(cc, l, k, f, mode, instance=x)
        with pytest.raises(ParameterRange, match="the instance was built for"):
            weak_neighborhood_tests(cc, l, k, f, mode, full_intersection=True,
                                    instance=x)
    assert weak_neighborhood_tests(c, 1, 0, f, "independent", instance=x).epsilon == 0.0


def test_weak_le_full_intersection():
    c = complete_complex(9, 5)
    x = neighborhood_stav(c, 1, 0, "independent")
    f = perfect_ensemble(x, np.zeros(9, dtype=int), alphabet=2)
    for seed in range(10):
        fc = corrupt(f, 0.25, "resample_set", seed=seed)
        weak = weak_neighborhood_tests(c, 1, 0, fc, "independent",
                                       instance=x).epsilon
        full = weak_neighborhood_tests(c, 1, 0, fc, "independent",
                                       full_intersection=True,
                                       instance=x).epsilon
        assert weak <= full + 1e-12


def test_up2k_support_and_intersection():
    c = complete_complex(9, 5)
    test = up2k_distribution(c, 2)
    # pairs always share a level-4 face; expected intersection size is
    # (k+1)^2 / (2k+1) for the complete complex
    i_idx, j_idx, p = pair_arrays(test.sts, 0)
    esize = 0.0
    for si, sj, q in zip(i_idx, j_idx, p):
        inter = set(test.s_supports[int(si)]) & set(test.s_supports[int(sj)])
        esize += q * len(inter)
    assert esize == pytest.approx(9 / 5, rel=0.05)


def test_independent_vs_expanding_sandwich():
    c = complete_complex(9, 5)
    t1 = d_l_test(c, 2, 0)
    t2 = up2k_distribution(c, 2, t_level=0)
    assert max(sts_t_expansions(t2)) < 0.5
    plant = np.zeros(9, dtype=int)
    f = perfect_ensemble(t1, plant, alphabet=2)
    for seed in range(10):
        fc = corrupt(f, 0.3, "resample_set", seed=seed)
        e1 = rejection(t1, fc).epsilon
        e2 = rejection(t2, fc).epsilon
        if e1 == 0.0:
            assert e2 == 0.0
        else:
            assert e1 / 6 - 1e-12 <= e2 <= 6 * e1 + 1e-12


def test_ensemble_json_roundtrip(tmp_path, setup951):
    _, x, _, f = setup951
    fc = corrupt(f, 0.3, "resample_set", seed=2)
    path = tmp_path / "f.json"
    save_ensemble(fc, str(path))
    back = load_ensemble(str(path))
    assert back.alphabet == 2
    assert all(np.array_equal(back.assignments[k], fc.assignments[k])
               for k in fc.assignments)


def test_nid_vs_ncd_sandwich():
    # the expanding pair distribution stays within a factor six of the
    # independent one whenever its pair graphs are good expanders
    c = complete_complex(9, 5)
    xi = neighborhood_stav(c, 1, 0, "independent")
    xc = neighborhood_stav(c, 1, 0, "complement")
    assert max(sts_t_expansions(xc)) <= 1 / 3 + 1e-9
    plant = np.arange(9) % 2
    f0 = perfect_ensemble(xi, plant, alphabet=2)
    for seed in range(15):
        f = corrupt(f0, 0.25, "resample_set", seed=seed)
        e1 = rejection(xi, f).epsilon
        e2 = rejection(xc, f).epsilon
        if e1 == 0.0:
            assert e2 == 0.0
        else:
            assert e1 / 6 - 1e-12 <= e2 <= 6 * e1 + 1e-12
