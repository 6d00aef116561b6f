"""Constructive decoding: local popularity functions, reach functions,
bad-triple filtering, and the global plurality vote, with per-stage
diagnostics.

All conditional probabilities come from the instance's exact tables; there is
no sampling inside the decoder.  Ties are always broken toward the
lexicographically smallest assignment or symbol, which makes the pipeline
deterministic (and alphabet-permutation equivariant whenever no tie fires).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .complexes import Complex
from .errors import (
    HdxError,
    MarginalMismatch,
    NoGoodColors,
    OrphanA,
    ParameterRange,
)
from .agreement import (
    AgreementTest,
    Ensemble,
    d_l_test,
    rejection,
    surprise,
)
from .stav import STSTable, StavInstance, _restricted_joint, partite_ij_stav

DEFAULT_TAU_GLOBAL = 1.0 / 40.0
DEFAULT_TAU_LOCAL = 1.0 / 20.0


@dataclass
class DecoderConfig:
    tau_global: float = DEFAULT_TAU_GLOBAL
    tau_local: float = DEFAULT_TAU_LOCAL

    def __post_init__(self):
        if not 0.0 < self.tau_global <= self.tau_local < 1.0:
            raise ParameterRange(
                f"need 0 < tau_global <= tau_local < 1, got "
                f"{self.tau_global}, {self.tau_local}")


@dataclass
class DecodeOutput:
    g_values: np.ndarray  # per v-layer position
    g_ground: np.ndarray  # per ground position, -1 where undefined
    a_star: set
    a_star_v: dict
    h: dict
    g: dict
    diagnostics: dict
    flags: dict

    def to_json_dict(self) -> dict:
        return {
            "g_values": [int(v) for v in self.g_values],
            "a_star_size": len(self.a_star),
            "diagnostics": {k: (float(v) if isinstance(v, (int, float, np.floating))
                                else v) for k, v in self.diagnostics.items()},
            "flags": {k: int(v) for k, v in self.flags.items()},
        }


def _plurality(weights: dict, ties: list):
    """Heaviest key; ties resolved toward the smallest key."""
    best = None
    best_w = -1.0
    tie = False
    for key in sorted(weights):
        w = weights[key]
        if w > best_w + 1e-15:
            best, best_w, tie = key, w, False
        elif abs(w - best_w) <= 1e-15:
            tie = True
    if tie:
        ties.append(best)
    return best


def _restrict(vals: np.ndarray, pos_map: dict, verts) -> tuple:
    return tuple(int(vals[pos_map[v]]) for v in verts)


def _pos_maps(x: StavInstance):
    return [{v: i for i, v in enumerate(sup)} for sup in x.s_supports]


def local_popularity(x: StavInstance, f: Ensemble, ties=None):
    """Most popular restriction to each amplification face."""
    ties = [] if ties is None else ties
    pos_maps = _pos_maps(x)
    vv, aa, ss, pp = x.vas_triples()
    weights = defaultdict(lambda: defaultdict(float))
    for a, s, p in zip(aa, ss, pp):
        weights[int(a)][int(s)] = weights[int(a)].get(int(s), 0.0) + float(p)
    h = {}
    for ai in range(len(x.a_labels)):
        if ai not in weights:
            raise OrphanA(f"amplification face {x.a_labels[ai]} is in no set")
        verts = x.a_supports[ai]
        votes = defaultdict(float)
        for si, w in weights[ai].items():
            votes[_restrict(f.assignments[x.s_labels[si]], pos_maps[si], verts)] += w
        h[ai] = _plurality(votes, ties)
    return h


def reach_functions(x: StavInstance, f: Ensemble, h: dict, ties=None,
                    flags: dict | None = None):
    """Popularity of the value at each reachable vertex among the sets that
    agree with the local popularity function."""
    ties = [] if ties is None else ties
    flags = {} if flags is None else flags
    pos_maps = _pos_maps(x)
    vv, aa, ss, pp = x.vas_triples()
    agree = _agreement_table(x, f, h, pos_maps)
    by_av = defaultdict(lambda: defaultdict(float))
    by_av_all = defaultdict(lambda: defaultdict(float))
    for v, a, s, p in zip(vv, aa, ss, pp):
        gv = int(x.v_ground[int(v)])
        val = int(f.assignments[x.s_labels[int(s)]][pos_maps[int(s)][gv]])
        by_av_all[(int(a), int(v))][val] += float(p)
        if agree[(int(a), int(s))]:
            by_av[(int(a), int(v))][val] += float(p)
    g = defaultdict(dict)
    empty = 0
    for key, votes_all in by_av_all.items():
        votes = by_av.get(key)
        if not votes:
            votes = votes_all
            empty += 1
        ai, vi = key
        g[ai][vi] = _plurality(votes, ties)
    flags["empty_reach_votes"] = flags.get("empty_reach_votes", 0) + empty
    return dict(g)


def _agreement_table(x, f, h, pos_maps):
    """agree[(a, s)] = does f_s restrict to the popular assignment on a."""
    vv, aa, ss, pp = x.vas_triples()
    agree = {}
    for a, s in {(int(a), int(s)) for a, s in zip(aa, ss)}:
        verts = x.a_supports[a]
        agree[(a, s)] = (_restrict(f.assignments[x.s_labels[s]],
                                   pos_maps[s], verts) == h[a])
    return agree


def bad_sets(x: StavInstance, f: Ensemble, h: dict,
             cfg: DecoderConfig | None = None):
    """Globally bad amplification faces and the per-vertex bad sets."""
    cfg = cfg or DecoderConfig()
    pos_maps = _pos_maps(x)
    agree = _agreement_table(x, f, h, pos_maps)
    va = x.vasa
    bad = np.fromiter((not (agree[(int(a1), int(s))] and agree[(int(a2), int(s))])
                       for a1, s, a2 in zip(va.a1_idx, va.s_idx, va.a2_idx)),
                      dtype=bool, count=len(va))
    tot_a = defaultdict(float)
    bad_a = defaultdict(float)
    tot_av = defaultdict(float)
    bad_av = defaultdict(float)
    for i in range(len(va)):
        a1, v, p = int(va.a1_idx[i]), int(va.v_idx[i]), float(va.probs[i])
        tot_a[a1] += p
        tot_av[(a1, v)] += p
        if bad[i]:
            bad_a[a1] += p
            bad_av[(a1, v)] += p
    a_star = {a for a, t in tot_a.items()
              if t > 0 and bad_a.get(a, 0.0) / t >= cfg.tau_global - 1e-15}
    a_star_v = defaultdict(set)
    for (a, v), t in tot_av.items():
        if a in a_star:
            a_star_v[v].add(a)
        elif t > 0 and bad_av.get((a, v), 0.0) / t > cfg.tau_local + 1e-15:
            a_star_v[v].add(a)
    bad_prob = float(sum(p for i, p in enumerate(va.probs) if bad[i]))
    return a_star, dict(a_star_v), bad_prob


def global_decode(x: StavInstance, f: Ensemble,
                  cfg: DecoderConfig | None = None) -> DecodeOutput:
    """Full pipeline: popularity, reach votes, filtering, global plurality."""
    cfg = cfg or DecoderConfig()
    if not isinstance(x, StavInstance):
        raise HdxError("decoding needs a tabular instance")
    flags = {}
    h_ties, g_ties, v_ties = [], [], []
    h = local_popularity(x, f, ties=h_ties)
    g = reach_functions(x, f, h, ties=g_ties, flags=flags)
    a_star, a_star_v, bad_prob = bad_sets(x, f, h, cfg)

    reach = x.reach_joint().tocsc()
    n_v = len(x.v_labels)
    g_values = np.zeros(n_v, dtype=np.int64)
    empty_global = 0
    for vi in range(n_v):
        col = reach[:, vi]
        votes = defaultdict(float)
        votes_all = defaultdict(float)
        for ai, p in zip(col.indices, col.data):
            if p <= 0:
                continue
            val = g[int(ai)].get(vi)
            if val is None:
                continue
            votes_all[val] += float(p)
            if int(ai) not in a_star_v.get(vi, ()):
                votes[val] += float(p)
        if not votes:
            votes = votes_all
            empty_global += 1
        g_values[vi] = _plurality(votes, v_ties)
    flags["empty_global_votes"] = empty_global
    flags["h_ties"] = len(h_ties)
    flags["g_ties"] = len(g_ties)
    flags["global_ties"] = len(v_ties)

    n_ground = len(x.ground_labels)
    g_ground = -np.ones(n_ground, dtype=np.int64)
    g_ground[np.asarray(x.v_ground, dtype=np.int64)] = g_values

    diagnostics = _diagnostics(x, f, h, g, a_star, a_star_v, g_values, bad_prob)
    return DecodeOutput(g_values=g_values, g_ground=g_ground, a_star=a_star,
                        a_star_v=a_star_v, h=h, g=g, diagnostics=diagnostics,
                        flags=flags)


def _diagnostics(x, f, h, g, a_star, a_star_v, g_values, bad_prob):
    pos_maps = _pos_maps(x)
    eps = rejection(x, f).epsilon
    reach = x.reach_joint().tocoo()
    pr_a = np.asarray(x.reach_joint().sum(axis=1)).ravel()
    pr_a_star = float(sum(pr_a[a] for a in a_star))
    # Pr[(a, s)] of disagreeing with the popular assignment
    vvv, aaa, sss, ppp = x.vas_triples()
    h_mismatch = 0.0
    as_weight = defaultdict(float)
    for a, s, p in zip(aaa, sss, ppp):
        as_weight[(int(a), int(s))] += float(p)
    agree = _agreement_table(x, f, h, pos_maps)
    for (a, s), p in as_weight.items():
        if not agree[(a, s)]:
            h_mismatch += p
    not_global_but_local = 0.0
    global_vote_mismatch = 0.0
    for a, v, p in zip(reach.row, reach.col, reach.data):
        a, v = int(a), int(v)
        in_star_v = a in a_star_v.get(v, ())
        if in_star_v and a not in a_star:
            not_global_but_local += float(p)
        if not in_star_v:
            val = g[a].get(v)
            if val is not None and val != int(g_values[v]):
                global_vote_mismatch += float(p)
    g_mismatch = 0.0
    for v, a, s, p in zip(vvv, aaa, sss, ppp):
        v, a, s = int(v), int(a), int(s)
        if a in a_star_v.get(v, ()) or not agree[(a, s)]:
            continue
        gv = int(x.v_ground[v])
        val = int(f.assignments[x.s_labels[s]][pos_maps[s][gv]])
        if val != g[a].get(v):
            g_mismatch += float(p)
    return {
        "epsilon": eps,
        "pr_a_star": pr_a_star,
        "bad_triple_prob": bad_prob,
        "h_mismatch": h_mismatch,
        "g_mismatch": g_mismatch,
        "not_global_bad_but_local": not_global_but_local,
        "global_vote_mismatch": global_vote_mismatch,
    }


# -- stronger subset comparison -------------------------------------------------------


def subset_agreement(x: StavInstance, f: Ensemble, g_ground: np.ndarray,
                     r_gamma: float, mode: str = "s_minus_a",
                     b_table=None) -> float:
    """Probability that a local function differs from the global one on more
    than an ``r_gamma`` fraction of a sampled subset b.

    Built-in samplers: ``singleton`` (b = {v}) and ``s_minus_a``; both inherit
    the (v, a, s) marginal by construction.  An explicit ``b_table`` of rows
    (v, a, s, b_vertices, p) is validated against that marginal.
    """
    pos_maps = _pos_maps(x)
    vv, aa, ss, pp = x.vas_triples()
    g_ground = np.asarray(g_ground)

    def differs(si, b_verts):
        vals = f.assignments[x.s_labels[si]]
        pm = pos_maps[si]
        arr = np.array([int(vals[pm[v]]) != int(g_ground[v]) for v in b_verts])
        return arr.mean() > r_gamma

    if b_table is not None:
        marg = defaultdict(float)
        for v, a, s, _, p in b_table:
            marg[(int(v), int(a), int(s))] += float(p)
        ref = defaultdict(float)
        for v, a, s, p in zip(vv, aa, ss, pp):
            ref[(int(v), int(a), int(s))] += float(p)
        dev = max(abs(marg.get(k, 0.0) - ref.get(k, 0.0))
                  for k in set(marg) | set(ref))
        if dev > 1e-9:
            raise MarginalMismatch(f"b-sampler marginal deviates by {dev:.3g}")
        return float(sum(p for v, a, s, b, p in b_table if differs(int(s), b)))
    if mode == "singleton":
        return float(sum(p for v, a, s, p in zip(vv, aa, ss, pp)
                         if differs(int(s), (int(x.v_ground[int(v)]),))))
    if mode == "s_minus_a":
        total = 0.0
        acc = defaultdict(float)
        for a, s, p in zip(aa, ss, pp):
            acc[(int(a), int(s))] += float(p)
        for (a, s), p in acc.items():
            b = tuple(v for v in x.s_supports[s] if v not in set(x.a_supports[a]))
            if b and differs(s, b):
                total += p
        return float(total)
    raise ParameterRange(f"unknown subset sampler {mode!r}")


# -- partite decoding --------------------------------------------------------------


@dataclass
class PartiteDecodeConfig:
    """Acceptance thresholds for the color-pair search.

    The search keeps the first 4-tuple whose two color pairs satisfy all three
    empirical conditions; the factors govern how loose "on the order of the
    base rejection" is taken to be.  These are implementation choices.
    """

    rejection_factor: float = 6.0
    oneset_factor: float = 6.0
    surprise_bound: float = 0.9
    epsilon_floor: float = 1e-9
    max_tuples: int = 60
    seed: int = 0
    decoder: DecoderConfig = field(default_factory=DecoderConfig)


def in_one_set_test(c: Complex, colors_i, colors_j, k: int, l: int) -> AgreementTest:
    """Sample any l-face, then two independent k-faces above it that carry
    both color sets."""
    I = frozenset(int(x) for x in colors_i)
    J = frozenset(int(x) for x in colors_j)
    col = np.asarray(c.coloring)
    lev_t = c.level(l)
    lev_k = c.level(k)
    s_keep = np.flatnonzero(
        np.isin(col[lev_k.faces], sorted(I | J)).sum(axis=1) == len(I | J))
    s_faces = [tuple(int(x) for x in lev_k.faces[i]) for i in s_keep]
    sts = STSTable.from_joint(_restricted_joint(c, k, l, s_keep, np.arange(lev_t.size)))
    return AgreementTest(s_faces, s_faces, sts, list(lev_t.iter_faces()),
                         meta={"kind": "in_one_set", "I": sorted(I), "J": sorted(J)})


def partite_decode(c: Complex, k: int, l: int, f: Ensemble,
                   cfg: PartiteDecodeConfig | None = None) -> DecodeOutput:
    """Search disjoint color 4-tuples, decode both color-pair instances, and
    glue the two partial assignments into one total function."""
    cfg = cfg or PartiteDecodeConfig()
    if not c.is_partite:
        raise ParameterRange("partite decoding needs a coloring")
    n_colors = c.d + 1
    if n_colors < 4 * l:
        raise ParameterRange(f"need at least 4l colors, have {n_colors}")
    base = rejection(d_l_test(c, k, l), f).epsilon
    eps_ref = max(base, cfg.epsilon_floor)

    rng = np.random.default_rng(cfg.seed)
    tuples = []
    colors = list(range(n_colors))
    for _ in range(cfg.max_tuples):
        rng.shuffle(colors)
        groups = tuple(tuple(sorted(colors[i * l:(i + 1) * l])) for i in range(4))
        if groups not in tuples:
            tuples.append(groups)

    best = None
    for (i1, j1, i2, j2) in tuples:
        stats = []
        ok = True
        for (ci, cj) in ((i1, j1), (i2, j2)):
            inst = partite_ij_stav(c, ci, cj, k)
            rej = rejection(inst, f).epsilon
            xi, _ = surprise(inst, f)
            oneset = rejection(in_one_set_test(c, ci, cj, k, l), f).epsilon
            stats.append({"I": ci, "J": cj, "rejection": rej, "surprise": xi,
                          "in_one_set": oneset, "instance": inst})
            if (rej > cfg.rejection_factor * eps_ref
                    or xi > cfg.surprise_bound
                    or oneset > cfg.oneset_factor * eps_ref):
                ok = False
        score = sum(s["rejection"] + s["in_one_set"] for s in stats)
        if best is None or score < best[0]:
            best = (score, stats)
        if not ok:
            continue
        out1 = global_decode(stats[0]["instance"], f, cfg.decoder)
        out2 = global_decode(stats[1]["instance"], f, cfg.decoder)
        col = np.asarray(c.coloring)
        forbidden_1 = set(i1) | set(j1)
        g_total = np.where(np.isin(col, sorted(forbidden_1)),
                           out2.g_ground, out1.g_ground)
        if (g_total < 0).any():
            raise NoGoodColors("glued assignment left vertices uncovered")
        diagnostics = {"epsilon_base": base,
                       "pair_1": {kk: vv for kk, vv in stats[0].items()
                                  if kk != "instance"},
                       "pair_2": {kk: vv for kk, vv in stats[1].items()
                                  if kk != "instance"}}
        flags = {**{f"pair1_{kk}": vv for kk, vv in out1.flags.items()},
                 **{f"pair2_{kk}": vv for kk, vv in out2.flags.items()}}
        return DecodeOutput(g_values=g_total, g_ground=g_total,
                            a_star=out1.a_star | out2.a_star,
                            a_star_v={}, h={}, g={},
                            diagnostics=diagnostics, flags=flags)
    detail = {kk: vv for kk, vv in best[1][0].items() if kk != "instance"}
    raise NoGoodColors(f"no color 4-tuple met the thresholds; best candidate "
                       f"{detail}")
