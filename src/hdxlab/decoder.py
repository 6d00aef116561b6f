"""Constructive decoding: local popularity functions, reach functions,
bad-triple filtering, and the global plurality vote, with per-stage
diagnostics.

One array state: ``global_decode`` lifts the ensemble once, and its stages
pass arrays, not dicts: the popular restriction h(a) as one padded row per a,
whether f_s restricts to it once per (a, s) key (``_keys``, each amplification
row's key gathered from a dense (a, s) table where that table is no larger
than the amplification table), the reach vote
g(a, v) as an n_a x n_v table (-1 where no triple votes) and the bad sets as
masks over a and (a, v).  Each stage returns its own tie and empty-vote
counts; the dicts of ``DecodeOutput`` are built once, at the end.

All conditional probabilities come from the instance's exact tables; there is
no sampling inside the decoder.  Ties are always broken toward the
lexicographically smallest assignment or symbol, which makes the pipeline
deterministic (and alphabet-permutation equivariant whenever no tie fires).
The partite color-pair search has fixed thresholds, the constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import Complex, _group, _member, _row_codes, _search
from .errors import (HdxError, MarginalMismatch, NoGoodColors, OrphanA, ParameterRange,
                     SupportMismatch)
from .agreement import (AgreementTest, Ensemble, _exact_rejection, _layout, _lift, _padded,
                        _restrict, d_l_test, rejection, surprise)
from .stav import (STSTable, StavInstance, _as_pairs, _cached, _face_tuples,
                   _restricted_joint, partite_ij_stav)

DEFAULT_TAU_GLOBAL = 1.0 / 40.0
DEFAULT_TAU_LOCAL = 1.0 / 20.0

# partite_decode keeps the first of at most _MAX_TUPLES shuffled color
# 4-tuples whose two color pairs have rejection and in-one-set rejection within
# their factor of the base rejection (at least _EPSILON_FLOOR) and surprise at
# most _SURPRISE_BOUND: an implementation choice of "on the order of".
_REJECTION_FACTOR = 6.0
_ONESET_FACTOR = 6.0
_SURPRISE_BOUND = 0.9
_EPSILON_FLOOR = 1e-9
_MAX_TUPLES = 60
_TUPLE_SEED = 0


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


def _vote(seg, key, weight):
    """Plurality of ``key`` within each segment, weights summed in input order:
    keys are scanned in ascending order, a weight over 1e-15 above the best
    takes over and one within 1e-15 of it ties, so ties go to the smallest key.
    Returns per segment the index of an input row with the winner, and ties."""
    ids, first = _group(seg, key)
    total = np.bincount(ids, weight, minlength=len(first))
    win, tied = [], []
    for gi, (sg, w) in enumerate(zip(seg[first].tolist(), total.tolist())):
        if gi == 0 or sg != prev:
            win.append(gi)
            tied.append(False)
            prev, best_w = sg, w
        elif w > best_w + 1e-15:
            win[-1], tied[-1], best_w = gi, False, w
        elif abs(w - best_w) <= 1e-15:
            tied[-1] = True
    return first[np.array(win, dtype=np.int64)], np.array(tied, dtype=bool)


def _keys(x: StavInstance):
    """The (a, s) keys (the pairs of ``stav._as_pairs``, then any amplification
    (a, s) that is no pair, ascending) and each amplification row's two keys;
    cached.  A row's pair is one gather from a dense (a, s) table where the
    table has no more cells than the amplification table has rows, else a
    sorted search among the pair codes."""
    def build():
        pa, ps = _as_pairs(x)[:2]
        va, n_s = x.vasa, len(x.s_labels)
        code = pa.astype(np.int64) * n_s + ps
        rows = [a.astype(np.int64) * n_s + va.s_idx for a in (va.a1_idx, va.a2_idx)]
        cells = len(x.a_labels) * n_s
        if cells <= len(va.s_idx):
            table = np.full(cells, -1, dtype=np.int32)  # the row keys are cached: 4 bytes each
            table[code] = np.arange(len(code))
            keys = [table[r] for r in rows]
        else:
            order = np.argsort(code).astype(np.int32)
            keys = [np.where(pos >= 0, order[pos], -1).astype(np.int32)
                    for pos in (_search(code[order], r) for r in rows)]
        missing = np.concatenate([r[k < 0] for r, k in zip(rows, keys)])
        extra = missing[_group(missing)[1]]
        for r, k in zip(rows, keys):
            k[k < 0] = len(code) + np.searchsorted(extra, r[k < 0])
        code = np.concatenate([code, extra])
        return code // n_s, code % n_s, *keys
    return _cached(x, "decoder_keys", build)


def _agrees(x: StavInstance, lifted, h_pad) -> np.ndarray:
    """Whether f_s restricts to the popular assignment h(a), per ``_keys`` key."""
    ka, ks = _keys(x)[:2]
    return (_restrict(lifted, ks, _padded(x, "a_supports")[ka]) == h_pad[ka]).all(axis=1)


def local_popularity(x: StavInstance, lifted: np.ndarray):
    """Most popular restriction to each amplification face, as padded rows in
    a order (0 in the padding), and the number of ties."""
    a, s, _, mass = _as_pairs(x)
    orphan = np.flatnonzero(~_member(a, len(x.a_labels)))
    if orphan.size:
        raise OrphanA(f"amplification face {x.a_labels[orphan[0]]} is in no set")
    rows = _restrict(lifted, s, _padded(x, "a_supports")[a])
    win, tied = _vote(a, _row_codes(rows), mass)
    return rows[win], int(tied.sum())


def reach_functions(x: StavInstance, agree: np.ndarray, val: np.ndarray):
    """Popularity of the value at each reachable vertex among the sets that
    agree with the local popularity function.

    ``agree`` and ``val`` hold, per (v, a, s) triple, whether f_s restricts to
    h(a) and f_s(v).  An (a, v) that no agreeing set reaches votes among all
    its sets.  Returns g(a, v) as an n_a x n_v table, -1 where no triple
    votes, the number of ties and the number of such empty votes."""
    vv, aa, _, pp = x.vas_triples()
    n_a, n_v = len(x.a_labels), len(x.v_labels)
    av = aa * n_v + vv  # (a, v) as one index
    empty = (np.bincount(av, agree) == 0) & (np.bincount(av) > 0)
    use = np.flatnonzero(agree | empty[av])
    win, tied = _vote(av[use], val[use], pp[use])
    g_av = np.full(n_a * n_v, -1, dtype=np.int64)
    g_av[av[use[win]]] = val[use[win]]
    return g_av.reshape(n_a, n_v), int(tied.sum()), int(empty.sum())


def _share(part, total):
    return np.divide(part, total, out=np.zeros_like(part), where=total > 0)


def bad_sets(x: StavInstance, agree: np.ndarray, cfg: DecoderConfig):
    """Globally bad amplification faces (a mask over a), the per-vertex bad
    sets (a mask over (a, v)) and the bad-triple mass.  ``agree`` holds per
    (a, s) key of ``_keys`` whether f_s restricts to h(a)."""
    va = x.vasa
    k1, k2 = _keys(x)[2:]
    bad_p = va.probs * ~(agree[k1] & agree[k2])
    n_a, n_v = len(x.a_labels), len(x.v_labels)
    tot_a = np.bincount(va.a1_idx, va.probs, minlength=n_a)
    star = (tot_a > 0) & (_share(np.bincount(va.a1_idx, bad_p, minlength=n_a), tot_a)
                          >= cfg.tau_global - 1e-15)
    av = va.a1_idx * n_v + va.v_idx  # (a, v) as one index
    tot_av = np.bincount(av, va.probs, minlength=n_a * n_v)
    local = (np.bincount(av, minlength=n_a * n_v) > 0) & (np.repeat(star, n_v) | (
        (tot_av > 0) & (_share(np.bincount(av, bad_p, minlength=n_a * n_v), tot_av)
                        > cfg.tau_local + 1e-15)))
    return star, local.reshape(n_a, n_v), float(bad_p.sum())


def global_decode(x: StavInstance, f: Ensemble,
                  cfg: DecoderConfig | None = None) -> DecodeOutput:
    """Full pipeline: popularity, reach votes, filtering, global plurality."""
    cfg = cfg or DecoderConfig()
    if not isinstance(x, StavInstance):
        raise HdxError("decoding needs a tabular instance")
    lifted = _lift(x, f)
    h_pad, h_ties = local_popularity(x, lifted)
    vv, aa, ss, pp = x.vas_triples()
    _, _, pair, mass = _as_pairs(x)
    agree = _agrees(x, lifted, h_pad)  # per (a, s) key, the pairs first
    ok = agree[:len(mass)]
    f_v = _restrict(lifted, ss, np.asarray(x.v_ground, dtype=np.int64)[vv, None])[:, 0]
    g_av, g_ties, empty_reach = reach_functions(x, ok[pair], f_v)
    star, star_av, bad_prob = bad_sets(x, agree, cfg)

    n_v = len(x.v_labels)
    reach = x.reach_joint().tocsc()  # the reach entries v major
    ra, rp = reach.indices, reach.data
    rv = np.repeat(np.arange(n_v), np.diff(reach.indptr))
    val, in_star = g_av[ra, rv], star_av[ra, rv]
    votes = (val >= 0) & (rp > 0)
    empty = np.bincount(rv, votes & ~in_star, minlength=n_v) == 0
    use = np.flatnonzero(votes & (~in_star | empty[rv]))
    win, tied = _vote(rv[use], val[use], rp[use])
    if len(win) < n_v:
        raise HdxError("some v-layer vertex receives no reach vote")
    g_values = val[use[win]]
    flags = {"empty_reach_votes": empty_reach, "empty_global_votes": int(empty.sum()),
             "h_ties": h_ties, "g_ties": g_ties, "global_ties": int(tied.sum())}

    h = {ai: tuple(row[:len(sup)])
         for ai, (row, sup) in enumerate(zip(h_pad.tolist(), x.a_supports))}
    g, (ga, gv) = {}, np.nonzero(g_av >= 0)
    for ai, vi, value in zip(ga.tolist(), gv.tolist(), g_av[ga, gv].tolist()):
        g.setdefault(ai, {})[vi] = value
    a_star = set(np.flatnonzero(star).tolist())
    a_star_v = {}
    for ai, vi in zip(*(k.tolist() for k in np.nonzero(star_av))):
        a_star_v.setdefault(vi, set()).add(ai)
    g_ground = np.full(len(x.ground_labels), -1, dtype=np.int64)
    g_ground[np.asarray(x.v_ground, dtype=np.int64)] = g_values

    pr_a = np.bincount(ra, rp, minlength=len(x.a_labels))
    g_miss = ~star_av[aa, vv] & ok[pair] & (f_v != g_av[aa, vv])
    diagnostics = {
        "epsilon": _exact_rejection(x, lifted),
        "pr_a_star": float(sum(pr_a[a] for a in a_star)),
        "bad_triple_prob": bad_prob,
        # Pr[(a, s)] of disagreeing with the popular assignment
        "h_mismatch": float(mass[~ok].sum()),
        "g_mismatch": float(pp[g_miss].sum()),
        "not_global_bad_but_local": float(rp[in_star & ~star[ra]].sum()),
        "global_vote_mismatch": float(rp[~in_star & (val >= 0)
                                         & (val != g_values[rv])].sum()),
    }
    return DecodeOutput(g_values=g_values, g_ground=g_ground, a_star=a_star,
                        a_star_v=a_star_v, h=h, g=g, diagnostics=diagnostics, flags=flags)


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
    lifted = _lift(x, f)
    n_ground = _layout(x)[3]
    vals = lifted[:, :n_ground]
    g = np.asarray(g_ground)[:n_ground]
    one_hot = np.eye(n_ground + 1, dtype=bool)[:, :n_ground]  # the padding column is empty
    vv, aa, ss, pp = x.vas_triples()

    def differs(s_idx, member):
        """Does f_s differ from g on more than r_gamma of each row's members?"""
        if (vals[s_idx][member] < 0).any():
            raise SupportMismatch("a subset b leaves its set")
        with np.errstate(invalid="ignore", divide="ignore"):
            return ((vals[s_idx] != g) & member).sum(axis=1) / member.sum(axis=1) > r_gamma

    if b_table is not None:
        v, a, s = (np.array([row[c] for row in b_table], dtype=np.int64) for c in range(3))
        p = np.array([row[4] for row in b_table], dtype=float)
        ids, first = _group(*(np.concatenate(k) for k in ((v, vv), (a, aa), (s, ss))))
        gap = (np.bincount(ids[:len(p)], p, minlength=len(first))
               - np.bincount(ids[len(p):], pp, minlength=len(first)))
        dev = float(np.abs(gap).max(initial=0.0))
        if dev > 1e-9:
            raise MarginalMismatch(f"b-sampler marginal deviates by {dev:.3g}")
        member = np.array([one_hot[list(row[3])].any(axis=0) for row in b_table])
        return float(p[differs(s, member.reshape(len(p), n_ground))].sum())
    if mode == "singleton":
        return float(pp[differs(ss, one_hot[x.v_ground[vv]])].sum())
    if mode == "s_minus_a":
        pa, ps, _, mass = _as_pairs(x)
        b = (vals[ps] >= 0) & ~one_hot[_padded(x, "a_supports")[pa]].any(axis=1)
        hit = b.any(axis=1) & differs(ps, b)
        return float(mass[hit].sum())
    raise ParameterRange(f"unknown subset sampler {mode!r}")


# -- partite decoding --------------------------------------------------------------


def in_one_set_test(c: Complex, colors_i, colors_j, k: int, l: int) -> AgreementTest:
    """Sample any l-face, then two independent k-faces above it that carry
    both color sets."""
    I = frozenset(int(x) for x in colors_i)
    J = frozenset(int(x) for x in colors_j)
    lev_t = c.level(l)
    lev_k = c.level(k)
    s_keep = np.flatnonzero(c._color_mask(I | J)[lev_k.faces].sum(axis=1) == len(I | J))
    s_faces = _face_tuples(lev_k.faces[s_keep])
    sts = STSTable.from_joint(_restricted_joint(c, k, l, s_keep, np.arange(lev_t.size)))
    return AgreementTest(s_faces, s_faces, sts, _face_tuples(lev_t.faces),
                         meta={"kind": "in_one_set", "I": sorted(I), "J": sorted(J)})


def partite_decode(c: Complex, k: int, l: int, f: Ensemble) -> DecodeOutput:
    """Search disjoint color 4-tuples, decode both color-pair instances, and
    glue the two partial assignments into one total function."""
    if not c.is_partite:
        raise ParameterRange("partite decoding needs a coloring")
    n_colors = c.d + 1
    if n_colors < 4 * l:
        raise ParameterRange(f"need at least 4l colors, have {n_colors}")
    base = rejection(d_l_test(c, k, l), f).epsilon
    eps_ref = max(base, _EPSILON_FLOOR)

    rng = np.random.default_rng(_TUPLE_SEED)
    tuples = []
    colors = list(range(n_colors))
    for _ in range(_MAX_TUPLES):
        rng.shuffle(colors)
        groups = tuple(tuple(sorted(colors[i * l:(i + 1) * l])) for i in range(4))
        if groups not in tuples:
            tuples.append(groups)

    best = None
    for (i1, j1, i2, j2) in tuples:
        stats, insts = [], []
        ok = True
        for (ci, cj) in ((i1, j1), (i2, j2)):
            insts.append(partite_ij_stav(c, ci, cj, k))
            rej = rejection(insts[-1], f).epsilon
            xi, _ = surprise(insts[-1], f)
            oneset = rejection(in_one_set_test(c, ci, cj, k, l), f).epsilon
            stats.append({"I": ci, "J": cj, "rejection": rej, "surprise": xi,
                          "in_one_set": oneset})
            if (rej > _REJECTION_FACTOR * eps_ref
                    or xi > _SURPRISE_BOUND
                    or oneset > _ONESET_FACTOR * eps_ref):
                ok = False
        score = sum(s["rejection"] + s["in_one_set"] for s in stats)
        if best is None or score < best[0]:
            best = (score, stats)
        if not ok:
            continue
        out1, out2 = (global_decode(inst, f) for inst in insts)
        g_total = np.where(c._color_mask(set(i1) | set(j1)), out2.g_ground, out1.g_ground)
        if (g_total < 0).any():
            raise NoGoodColors("glued assignment left vertices uncovered")
        diagnostics = {"epsilon_base": base, "pair_1": stats[0], "pair_2": stats[1]}
        flags = {**{f"pair1_{kk}": vv for kk, vv in out1.flags.items()},
                 **{f"pair2_{kk}": vv for kk, vv in out2.flags.items()}}
        return DecodeOutput(g_values=g_total, g_ground=g_total,
                            a_star=out1.a_star | out2.a_star,
                            a_star_v={}, h={}, g={},
                            diagnostics=diagnostics, flags=flags)
    raise NoGoodColors(f"no color 4-tuple met the thresholds; best candidate "
                       f"{best[1][0]}")
