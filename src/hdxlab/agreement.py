"""Ensembles of local functions, test distributions, rejection probabilities,
distances, distance-promise checks, and the surprise parameter.

Rejection and surprise are computed exactly by summing the full pair tables
(grouping tops by their restriction signature keeps independent pairs linear
in the support), with a seeded Monte Carlo fallback for larger supports.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .complexes import Complex
from .errors import (
    ParameterRange,
    PartialGlobal,
    SizeCapError,
    SupportMismatch,
)
from .stav import STSTable, StavInstance, neighborhood_stav
from .spectra import square_lambda
from .walks import _containment_joint

BRUTE_FORCE_CAP = 10_000_000


@dataclass
class Ensemble:
    """One local function per top set, over a finite alphabet.

    ``assignments[s_label]`` is aligned with the sorted support of s.
    """

    alphabet: int
    assignments: dict

    def copy(self) -> "Ensemble":
        return Ensemble(self.alphabet,
                        {k: v.copy() for k, v in self.assignments.items()})

    def relabel(self, perm) -> "Ensemble":
        """Apply an alphabet permutation (perm[old] = new) to every value."""
        p = np.asarray(perm)
        return Ensemble(self.alphabet,
                        {k: p[v] for k, v in self.assignments.items()})

    def to_json_dict(self, supports: dict | None = None) -> dict:
        sets = []
        for label, vals in self.assignments.items():
            entry = {"s": list(label) if isinstance(label, tuple) else label,
                     "values": [int(x) for x in vals]}
            if supports is not None:
                entry["support"] = list(supports[label])
            sets.append(entry)
        return {"alphabet": self.alphabet, "sets": sets}


def save_ensemble(f: Ensemble, path: str, supports: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(f.to_json_dict(supports), fh)
        fh.write("\n")


def load_ensemble(path: str) -> Ensemble:
    with open(path) as fh:
        data = json.load(fh)
    assignments = {}
    for entry in data["sets"]:
        label = entry["s"]
        label = tuple(label) if isinstance(label, list) else label
        assignments[label] = np.asarray(entry["values"], dtype=np.int64)
    return Ensemble(int(data["alphabet"]), assignments)


@dataclass
class TestResult:
    epsilon: float
    method: str
    samples: int | None = None
    std_error: float | None = None
    breakdown: dict | None = None

    def to_json_dict(self) -> dict:
        return {"epsilon": self.epsilon, "method": self.method,
                "samples": self.samples, "std_error": self.std_error}


@dataclass
class AgreementTest:
    """A test distribution decoupled from any four-layer instance."""

    s_labels: list
    s_supports: list
    sts: STSTable
    t_supports: list | None  # None => compare on the support intersection
    meta: dict = field(default_factory=dict)


def _as_test(x) -> AgreementTest:
    if isinstance(x, AgreementTest):
        return x
    if isinstance(x, StavInstance):
        return AgreementTest(x.s_labels, x.s_supports, x.sts, x.t_supports)
    raise SupportMismatch(f"cannot run an agreement test on {type(x)!r}")


# -- ensemble constructors -----------------------------------------------------


def perfect_ensemble(x, global_fn, alphabet: int | None = None) -> Ensemble:
    """Restrict a total assignment on the ground set to every set."""
    test = _as_test(x)
    g = np.asarray(global_fn, dtype=np.int64)
    n_v = max((max(sup) for sup in test.s_supports if sup), default=-1) + 1
    if len(g) < n_v:
        raise PartialGlobal(f"global assignment covers {len(g)} of {n_v} vertices")
    if alphabet is None:
        alphabet = int(g.max()) + 1 if len(g) else 1
    assignments = {}
    for label, sup in zip(test.s_labels, test.s_supports):
        assignments[label] = g[np.asarray(sup, dtype=np.int64)]
    return Ensemble(alphabet, assignments)


def random_ensemble(x, alphabet: int, seed: int) -> Ensemble:
    test = _as_test(x)
    rng = np.random.default_rng(seed)
    return Ensemble(alphabet, {label: rng.integers(0, alphabet, size=len(sup))
                               for label, sup in zip(test.s_labels, test.s_supports)})


def corrupt(f: Ensemble, alpha: float, mode: str, seed: int) -> Ensemble:
    """Independently corrupt each set with probability alpha.

    ``flip_one`` changes one uniformly random coordinate to a uniformly random
    different symbol; ``resample_set`` redraws the whole local function.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ParameterRange(f"alpha must be in [0, 1], got {alpha}")
    if mode not in ("resample_set", "flip_one"):
        raise ParameterRange(f"unknown corruption mode {mode!r}")
    rng = np.random.default_rng(seed)
    out = f.copy()
    for label in sorted(out.assignments, key=repr):
        if rng.random() >= alpha:
            continue
        vals = out.assignments[label]
        if mode == "resample_set":
            out.assignments[label] = rng.integers(0, f.alphabet, size=len(vals))
        else:
            pos = int(rng.integers(0, len(vals)))
            shift = int(rng.integers(1, f.alphabet))
            vals = vals.copy()
            vals[pos] = (vals[pos] + shift) % f.alphabet
            out.assignments[label] = vals
    return out


# -- restriction helpers ----------------------------------------------------------


def _position_maps(test: AgreementTest):
    return [{v: i for i, v in enumerate(sup)} for sup in test.s_supports]


def _restriction(f: Ensemble, test: AgreementTest, pos_maps, si: int, verts):
    vals = f.assignments[test.s_labels[si]]
    pm = pos_maps[si]
    try:
        return tuple(int(vals[pm[v]]) for v in verts)
    except KeyError as exc:
        raise SupportMismatch(
            f"set {test.s_labels[si]} does not cover vertex {exc}") from exc


def _check_cover(f: Ensemble, test: AgreementTest):
    for label, sup in zip(test.s_labels, test.s_supports):
        if label not in f.assignments:
            raise SupportMismatch(f"ensemble misses set {label}")
        if len(f.assignments[label]) != len(sup):
            raise SupportMismatch(f"wrong domain size for {label}")


# -- rejection ---------------------------------------------------------------------


def rejection(x, f: Ensemble, mode: str = "exact", samples: int = 100_000,
              seed: int = 0) -> TestResult:
    """Probability that two sampled sets disagree on the compared face."""
    test = _as_test(x)
    _check_cover(f, test)
    pos_maps = _position_maps(test)
    if mode == "exact":
        eps = 0.0
        per_t = {}
        for ti, pt in enumerate(test.sts.t_probs):
            if pt <= 0:
                continue
            eps_t = _exact_rejection_at_t(f, test, pos_maps, ti)
            per_t[ti] = eps_t
            eps += pt * eps_t
        return TestResult(float(eps), "exact", breakdown=per_t)
    if mode != "mc":
        raise ParameterRange(f"unknown rejection mode {mode!r}")
    rng = np.random.default_rng(seed)
    t_choices = rng.choice(len(test.sts.t_probs), size=samples, p=test.sts.t_probs)
    rejects = 0
    for ti in t_choices:
        tab = test.sts.tables[ti]
        if tab[0] == "indep":
            _, s_idx, cond = tab
            i, j = rng.choice(len(s_idx), size=2, p=cond)
            si, sj = int(s_idx[i]), int(s_idx[j])
        else:
            _, i_idx, j_idx, p = tab
            k = rng.choice(len(p), p=p / p.sum())
            si, sj = int(i_idx[k]), int(j_idx[k])
        verts = _compare_verts(test, ti, si, sj)
        if (_restriction(f, test, pos_maps, si, verts)
                != _restriction(f, test, pos_maps, sj, verts)):
            rejects += 1
    eps = rejects / samples
    return TestResult(float(eps), "monte_carlo", samples=samples,
                      std_error=math.sqrt(max(eps * (1 - eps), 1e-12) / samples))


def _compare_verts(test: AgreementTest, ti: int, si: int, sj: int):
    if test.t_supports is not None:
        return test.t_supports[ti]
    return tuple(sorted(set(test.s_supports[si]) & set(test.s_supports[sj])))


def _signature_groups(f, test, pos_maps, ti):
    """Group the conditional s-support at t by restriction signature."""
    tab = test.sts.tables[ti]
    if tab[0] == "indep":
        _, s_idx, cond = tab
        groups = defaultdict(float)
        members = {}
        for si, p in zip(s_idx, cond):
            verts = (test.t_supports[ti] if test.t_supports is not None
                     else test.s_supports[int(si)])
            sig = _restriction(f, test, pos_maps, int(si), verts)
            groups[sig] += float(p)
            members.setdefault(sig, int(si))
        return groups, members
    return None, None


def _exact_rejection_at_t(f, test, pos_maps, ti) -> float:
    tab = test.sts.tables[ti]
    if tab[0] == "indep" and test.t_supports is not None:
        groups, _ = _signature_groups(f, test, pos_maps, ti)
        if len(groups) <= 1:
            return 0.0
        return max(1.0 - sum(p * p for p in groups.values()), 0.0)
    # explicit pairs, or intersection-compared tests
    i_idx, j_idx, p = test.sts.pair_arrays(ti)
    eps_t = 0.0
    for si, sj, q in zip(i_idx, j_idx, p):
        verts = _compare_verts(test, ti, int(si), int(sj))
        if (_restriction(f, test, pos_maps, int(si), verts)
                != _restriction(f, test, pos_maps, int(sj), verts)):
            eps_t += float(q)
    return eps_t


# -- distances ---------------------------------------------------------------------


def dist_gamma(f: Ensemble, global_fn, gamma: float, x) -> float:
    """Weighted fraction of sets that differ from the restriction of the
    global assignment on more than a gamma fraction of their points."""
    test = _as_test(x)
    _check_cover(f, test)
    g = np.asarray(global_fn, dtype=np.int64)
    weights = test.sts.s_marginal()
    out = 0.0
    for si, (label, sup) in enumerate(zip(test.s_labels, test.s_supports)):
        frac = np.mean(f.assignments[label] != g[np.asarray(sup, dtype=np.int64)])
        if frac > gamma:
            out += float(weights[si])
    return out


def dist_to_perfect_bruteforce(x, f: Ensemble, gamma: float) -> float:
    """Exact minimum of dist_gamma over every global assignment."""
    test = _as_test(x)
    n_v = max(max(sup) for sup in test.s_supports) + 1
    total = f.alphabet ** n_v
    if total > BRUTE_FORCE_CAP:
        raise SizeCapError(f"{total} global assignments exceed the brute-force cap")
    best = np.inf
    for combo in itertools.product(range(f.alphabet), repeat=n_v):
        val = dist_gamma(f, np.array(combo), gamma, test)
        if val < best:
            best = val
            if best == 0.0:
                break
    return float(best)


# -- distance-promise and surprise ----------------------------------------------------


def delta_ensemble_check(x, f: Ensemble, delta: float):
    """Every disagreeing pair must differ on more than a delta fraction of t."""
    test = _as_test(x)
    _check_cover(f, test)
    pos_maps = _position_maps(test)
    for ti, pt in enumerate(test.sts.t_probs):
        if pt <= 0:
            continue
        verts = test.t_supports[ti]
        tab = test.sts.tables[ti]
        if tab[0] == "indep":
            groups, members = _signature_groups(f, test, pos_maps, ti)
            sigs = list(groups)
            for g1, g2 in itertools.combinations(sigs, 2):
                d = np.mean(np.array(g1) != np.array(g2))
                if 0 < d <= delta:
                    return False, (test.s_labels[members[g1]],
                                   test.t_supports[ti], test.s_labels[members[g2]])
        else:
            _, i_idx, j_idx, p = tab
            for si, sj, q in zip(i_idx, j_idx, p):
                if q <= 0:
                    continue
                r1 = np.array(_restriction(f, test, pos_maps, int(si), verts))
                r2 = np.array(_restriction(f, test, pos_maps, int(sj), verts))
                d = np.mean(r1 != r2)
                if 0 < d <= delta:
                    return False, (test.s_labels[int(si)], verts,
                                   test.s_labels[int(sj)])
    return True, None


def surprise(x: StavInstance, f: Ensemble):
    """Pr[agree on a and differ at v | differ on t], exactly.

    Returns (value, conditioned_flag); the flag is False when the test never
    rejects, in which case the value is 0.
    """
    if not isinstance(x, StavInstance):
        raise SupportMismatch("surprise needs a tabular four-layer instance")
    test = _as_test(x)
    _check_cover(f, test)
    pos_maps = _position_maps(test)
    num = 0.0
    den = 0.0
    for ti, pt in enumerate(x.t_probs):
        if pt <= 0:
            continue
        t_verts = x.t_supports[ti]
        a_idx, v_idx, p_av = x.av_tables[ti]
        tab = x.sts.tables[ti]
        if tab[0] == "indep":
            _, s_idx, cond = tab
            full = defaultdict(float)
            for si, q in zip(s_idx, cond):
                full[_restriction(f, test, pos_maps, int(si), t_verts)] += float(q)
            if len(full) > 1:
                den += pt * max(1.0 - sum(q * q for q in full.values()), 0.0)
            for ai, vi, q_av in zip(a_idx, v_idx, p_av):
                a_verts = x.a_supports[int(ai)]
                gv = int(x.v_ground[int(vi)])
                agree_a = defaultdict(float)
                agree_av = defaultdict(float)
                for si, q in zip(s_idx, cond):
                    ra = _restriction(f, test, pos_maps, int(si), a_verts)
                    rv = _restriction(f, test, pos_maps, int(si), (gv,))
                    agree_a[ra] += float(q)
                    agree_av[(ra, rv)] += float(q)
                pa = sum(q * q for q in agree_a.values())
                pav = sum(q * q for q in agree_av.values())
                num += pt * float(q_av) * (pa - pav)
        else:
            _, i_idx, j_idx, p = tab
            for si, sj, q in zip(i_idx, j_idx, p):
                r1 = _restriction(f, test, pos_maps, int(si), t_verts)
                r2 = _restriction(f, test, pos_maps, int(sj), t_verts)
                if r1 == r2:
                    continue
                den += pt * float(q)
                for ai, vi, q_av in zip(a_idx, v_idx, p_av):
                    a_verts = x.a_supports[int(ai)]
                    gv = int(x.v_ground[int(vi)])
                    ra1 = _restriction(f, test, pos_maps, int(si), a_verts)
                    ra2 = _restriction(f, test, pos_maps, int(sj), a_verts)
                    if ra1 != ra2:
                        continue
                    v1 = _restriction(f, test, pos_maps, int(si), (gv,))
                    v2 = _restriction(f, test, pos_maps, int(sj), (gv,))
                    if v1 != v2:
                        num += pt * float(q) * float(q_av)
    if den <= 0:
        return 0.0, False
    return float(num / den), True


# -- neighborhood tests ---------------------------------------------------------------


def weak_neighborhood_tests(c: Complex, l: int, k: int, f: Ensemble, mode: str,
                            full_intersection: bool = False,
                            instance: StavInstance | None = None) -> TestResult:
    """Rejection of the ball-ensemble tests (compare on t, or the whole
    intersection with ``full_intersection``)."""
    x = instance if instance is not None else neighborhood_stav(c, l, k, mode)
    test = _as_test(x)
    if full_intersection:
        test = AgreementTest(test.s_labels, test.s_supports, test.sts,
                             t_supports=None)
    return rejection(test, f, mode="exact")


# -- alternative test distributions ----------------------------------------------------


def d_l_test(c: Complex, d: int, l: int) -> AgreementTest:
    """Plain test distribution on level d: sample t at level l, then two
    independent d-faces above it."""
    if not 0 <= l < d <= c.d:
        raise ParameterRange(f"need 0 <= l < d <= {c.d}")
    lev_s, lev_t = c.level(d), c.level(l)
    sts = STSTable.from_joint(_containment_joint(c, d, l))
    return AgreementTest(list(lev_s.iter_faces()),
                         [tuple(int(v) for v in row) for row in lev_s.faces],
                         sts, list(lev_t.iter_faces()),
                         meta={"kind": "d_l", "d": d, "l": l})


def up2k_distribution(c: Complex, k: int, t_level: int | None = None) -> AgreementTest:
    """Test through a common 2k-face: sample r at level 2k, then two k-faces
    inside it (conditioned on a sampled t at ``t_level`` when given, compared
    on the support intersection otherwise)."""
    if 2 * k > c.d:
        raise ParameterRange(f"need 2k <= d, got 2*{k} > {c.d}")
    lev_r = c.level(2 * k)
    lev_s = c.level(k)
    s_labels = list(lev_s.iter_faces())
    s_supports = [tuple(int(v) for v in row) for row in lev_s.faces]
    if t_level is None:
        # single pseudo-t; pairs compared on their intersection
        acc = defaultdict(float)
        for ri in range(lev_r.size):
            r = tuple(int(v) for v in lev_r.faces[ri])
            subs = [lev_s.index_of(sf) for sf in itertools.combinations(r, k + 1)]
            pr = float(lev_r.measure[ri]) / (len(subs) ** 2)
            for si in subs:
                for sj in subs:
                    acc[(si, sj)] += pr
        i_idx = np.array([a for a, _ in acc])
        j_idx = np.array([b for _, b in acc])
        p = np.array(list(acc.values()))
        sts = STSTable(t_probs=np.array([1.0]),
                       tables=[("pairs", i_idx, j_idx, p)], n_s=lev_s.size)
        return AgreementTest(s_labels, s_supports, sts, t_supports=None,
                             meta={"kind": "up2k", "k": k})
    if t_level >= k:
        raise ParameterRange("t_level must be below k")
    lev_t = c.level(t_level)
    acc_t = defaultdict(lambda: defaultdict(float))
    for ri in range(lev_r.size):
        r = tuple(int(v) for v in lev_r.faces[ri])
        p_r = float(lev_r.measure[ri])
        tsubs = list(itertools.combinations(r, t_level + 1))
        for tf in tsubs:
            ti = lev_t.index_of(tf)
            ssubs = [lev_s.index_of(tuple(sorted(tf + extra)))
                     for extra in itertools.combinations(
                         tuple(v for v in r if v not in tf), k - t_level)]
            pr = p_r / (len(tsubs) * len(ssubs) ** 2)
            for si in ssubs:
                for sj in ssubs:
                    acc_t[ti][(si, sj)] += pr
    t_probs = np.zeros(lev_t.size)
    tables = []
    for ti in range(lev_t.size):
        acc = acc_t.get(ti, {})
        tot = sum(acc.values())
        t_probs[ti] = tot
        if tot <= 0:
            tables.append(("pairs", np.array([], dtype=np.int64),
                           np.array([], dtype=np.int64), np.array([])))
            continue
        i_idx = np.array([a for a, _ in acc])
        j_idx = np.array([b for _, b in acc])
        p = np.array(list(acc.values())) / tot
        tables.append(("pairs", i_idx, j_idx, p))
    sts = STSTable(t_probs=t_probs, tables=tables, n_s=lev_s.size)
    return AgreementTest(s_labels, s_supports, sts,
                         list(lev_t.iter_faces()),
                         meta={"kind": "up2k_t", "k": k, "t_level": t_level})


def sts_t_expansions(x) -> list[float]:
    """Two-sided expansion of each t-conditioned pair graph (the hypothesis of
    the independent-versus-expanding comparison)."""
    test = _as_test(x)
    out = []
    for ti, pt in enumerate(test.sts.t_probs):
        if pt <= 0:
            continue
        i_idx, j_idx, p = test.sts.pair_arrays(ti)
        live = sorted(set(int(i) for i in i_idx) | set(int(j) for j in j_idx))
        pos = {s: i for i, s in enumerate(live)}
        dense = np.zeros((len(live), len(live)))
        for a, b, q in zip(i_idx, j_idx, p):
            dense[pos[int(a)], pos[int(b)]] += float(q)
        rep = square_lambda(dense, dense.sum(axis=1))
        out.append(rep.two_sided)
    return out
