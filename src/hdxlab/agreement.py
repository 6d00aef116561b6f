"""Ensembles of local functions, test distributions, rejection probabilities,
distances, distance-promise checks, and the surprise parameter.

Every computation reads the ensemble lifted onto the ground set: one integer
matrix with F[s, support(s)] = f_s and -1 elsewhere.  A tabular instance is
its own test distribution; the lift and the padded face rows are built from
``stav._flat_supports`` and cached on it.  Grouping sets by their restriction
to a face is then a group-by on integer row codes, so rejection and surprise
are exact sums over the pair tables (independent pairs stay linear in the
support), with a seeded Monte Carlo fallback that samples in batches.  A
global assignment may be partial (negative where undefined, as the decoder's
g is off the v-layer): distances compare each set where it is defined.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import Complex, _group, _member, _row_codes, position_subsets
from .errors import ParameterRange, PartialGlobal, SizeCapError, SupportMismatch
from .stav import (
    STSTable,
    StavInstance,
    _cached,
    _face_tuples,
    _flat_supports,
    _pair_graphs,
    _segment_pairs,
    neighborhood_stav,
)
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

    def to_json_dict(self) -> dict:
        sets = [{"s": list(label) if isinstance(label, tuple) else label,
                 "values": [int(x) for x in vals]}
                for label, vals in self.assignments.items()]
        return {"alphabet": self.alphabet, "sets": sets}


def save_ensemble(f: Ensemble, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(f.to_json_dict(), fh)
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
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _as_test(x):
    """A test distribution or a tabular instance, unchanged: both carry
    ``s_labels``, ``s_supports``, ``sts``, ``t_supports`` and ``_cache``."""
    if isinstance(x, (AgreementTest, StavInstance)):
        return x
    raise SupportMismatch(f"cannot run an agreement test on {type(x)!r}")


# -- ensemble constructors -----------------------------------------------------


def perfect_ensemble(x, global_fn, alphabet: int | None = None) -> Ensemble:
    """Restrict a total assignment on the ground set to every set."""
    test = _as_test(x)
    g = np.asarray(global_fn, dtype=np.int64)
    ptr, flat = _flat_supports(test, "s_supports")
    if len(g) <= flat.max(initial=-1):
        raise PartialGlobal(f"global assignment covers {len(g)} of {flat.max() + 1} vertices")
    if alphabet is None:
        alphabet = int(g.max()) + 1 if len(g) else 1
    return Ensemble(alphabet, dict(zip(test.s_labels, np.split(g[flat], ptr[1:-1]))))


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
    if mode == "flip_one" and alpha > 0 and f.alphabet < 2:
        raise ParameterRange("flip_one needs an alphabet of at least 2")
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


# -- the lifted ensemble --------------------------------------------------------------


def _layout(test):
    """Entry k of the concatenated local functions sits at (rows[k], cols[k])
    of the lifted matrix, whose last column ``n_ground`` is padding."""
    def build():
        ptr, cols = _flat_supports(test, "s_supports")
        sizes = np.diff(ptr)
        return np.repeat(np.arange(len(sizes)), sizes), cols, sizes, int(cols.max()) + 1
    return _cached(test, "layout", build)


def _padded(test, layer: str) -> np.ndarray:
    """A layer's supports as rows of one width, padded with the padding column."""
    def build():
        n_ground = _layout(test)[3]
        ptr, flat = _flat_supports(test, layer)
        sizes = np.diff(ptr)
        if flat.size and (flat.min() < 0 or flat.max() >= n_ground):
            raise SupportMismatch("a face holds a vertex that no set covers")
        out = np.full((len(sizes), int(sizes.max(initial=0))), n_ground, dtype=np.int64)
        out[np.arange(out.shape[1]) < sizes[:, None]] = flat
        return out
    return _cached(test, f"pad_{layer}", build)


def _lift(test, f: Ensemble) -> np.ndarray:
    """The ensemble on the ground set: F[s, support(s)] = f_s, -1 elsewhere,
    and 0 in the padding column."""
    rows, cols, sizes, n_ground = _layout(test)
    try:
        vals = [f.assignments[label] for label in test.s_labels]
    except KeyError as exc:
        raise SupportMismatch(f"ensemble misses set {exc.args[0]}") from None
    wrong = np.flatnonzero(np.fromiter(map(len, vals), np.int64, len(vals)) != sizes)
    if wrong.size:
        raise SupportMismatch(f"wrong domain size for {test.s_labels[wrong[0]]}")
    lifted = np.full((len(sizes), n_ground + 1), -1, dtype=np.int64)
    lifted[:, n_ground] = 0
    lifted[rows, cols] = np.concatenate(vals)
    if (lifted[rows, cols] < 0).any():
        raise SupportMismatch("an ensemble value is negative")
    return lifted


def _restrict(lifted: np.ndarray, s_idx, cols) -> np.ndarray:
    """Row k holds the local function of set s_idx[k] on the vertices cols[k]."""
    out = lifted[s_idx[:, None], cols]
    bad = np.argwhere(out < 0)
    if bad.size:
        k, pos = bad[0]
        raise SupportMismatch(f"set #{s_idx[k]} does not cover vertex {cols[k, pos]}")
    return out


def _diff(lifted: np.ndarray, i, j, cols=None) -> np.ndarray:
    """Where sets i[k] and j[k] disagree: on the vertices cols[k], or on their
    common support when cols is None."""
    if cols is not None:
        return _restrict(lifted, i, cols) != _restrict(lifted, j, cols)
    fi, fj = lifted[i], lifted[j]
    return (fi != fj) & (fi >= 0) & (fj >= 0)


def _indep_spread(test, lifted: np.ndarray) -> np.ndarray:
    """Per t with a column of ``sts.cond``, the probability that two sets
    drawn from it restrict differently to t: 1 - sum of squared group
    masses."""
    cond = test.sts.cond.tocoo()
    it = cond.col
    t_pad = _padded(test, "t_supports")
    ids, first = _group(it, _row_codes(_restrict(lifted, cond.row, t_pad[it])))
    mass = np.bincount(ids, cond.data, minlength=len(first))
    n_t = len(test.sts.t_probs)
    sq = np.bincount(it[first], mass * mass, minlength=n_t)
    return np.where(np.bincount(it[first], minlength=n_t) > 1, np.maximum(1 - sq, 0.0), 0.0)


# -- rejection ---------------------------------------------------------------------


def rejection(x, f: Ensemble, mode: str = "exact", samples: int = 100_000,
              seed: int = 0) -> TestResult:
    """Probability that two sampled sets disagree on the compared face."""
    test = _as_test(x)
    lifted = _lift(test, f)
    if mode == "exact":
        return TestResult(_exact_rejection(test, lifted), "exact")
    if mode != "mc":
        raise ParameterRange(f"unknown rejection mode {mode!r}")
    if samples < 1:
        raise ParameterRange(f"Monte Carlo needs at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    t = rng.choice(len(test.sts.t_probs), size=samples, p=test.sts.t_probs)
    u = rng.random((samples, 2))
    cond, (pt, p_i, p_j, p_p) = test.sts.cond.tocoo(), test.sts.pairs
    on_pair = _member(pt, len(test.sts.t_probs))[t]
    si, sj = np.empty((2, samples), dtype=np.int64)
    k = _draw(cond.col, cond.data, t[~on_pair], u[~on_pair])
    si[~on_pair], sj[~on_pair] = cond.row[k[:, 0]], cond.row[k[:, 1]]
    k = _draw(pt, p_p, t[on_pair], u[on_pair])[:, 0]
    si[on_pair], sj[on_pair] = p_i[k], p_j[k]
    t_pad = None if test.t_supports is None else _padded(test, "t_supports")[t]
    eps = _diff(lifted, si, sj, t_pad).any(axis=1).mean()
    return TestResult(float(eps), "monte_carlo", samples=samples,
                      std_error=math.sqrt(max(eps * (1 - eps), 1e-12) / samples))


def _exact_rejection(test, lifted: np.ndarray) -> float:
    """Exact rejection of a lifted ensemble; ``rejection`` and the decoder
    read it."""
    eps_t = np.zeros(len(test.sts.t_probs))
    if test.t_supports is None:
        t, i, j, p = test.sts.all_pairs()
        cols = None
    else:
        eps_t += _indep_spread(test, lifted)
        t, i, j, p = test.sts.pairs
        cols = _padded(test, "t_supports")[t]
    differ = _diff(lifted, i, j, cols).any(axis=1)
    eps_t += np.bincount(t, p * differ, minlength=len(eps_t))
    return float(test.sts.t_probs @ eps_t)


def _draw(t_of, weights, t, u) -> np.ndarray:
    """Entries drawn for each sample from the entries of its t, with
    probability proportional to ``weights``: one per column of the uniforms
    u, by inverting the concatenated cumulative table."""
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    n = np.bincount(t_of, minlength=int(t.max(initial=-1)) + 1)
    stop = np.cumsum(n)[t][:, None]
    start = stop - n[t][:, None]
    k = np.searchsorted(cum, cum[start] + u * (cum[stop] - cum[start]), side="right")
    return np.clip(k - 1, start, stop - 1)


# -- distances ---------------------------------------------------------------------


def dist_gamma(f: Ensemble, global_fn, gamma: float, x) -> float:
    """Weighted fraction of sets that differ from the restriction of the
    global assignment on more than a gamma fraction of their points.  A
    negative value leaves the assignment undefined at that point (as
    ``DecodeOutput.g_ground`` is off the v-layer), and each set is compared
    on the points where it is defined only."""
    test = _as_test(x)
    lifted = _lift(test, f)
    rows, cols, sizes, _ = _layout(test)
    g = np.asarray(global_fn, dtype=np.int64)[cols]
    defined = g >= 0
    miss = np.bincount(rows, (lifted[rows, cols] != g) & defined, minlength=len(sizes))
    n = np.bincount(rows, defined, minlength=len(sizes))
    frac = np.divide(miss, n, out=np.zeros(len(sizes)), where=n > 0)
    return float(_cached(test, "s_marginal", test.sts.s_marginal)[frac > gamma].sum())


def dist_to_perfect_bruteforce(x, f: Ensemble, gamma: float) -> float:
    """Exact minimum of dist_gamma over every global assignment, evaluated in
    chunks of globals of about 4 MB each."""
    test = _as_test(x)
    lifted = _lift(test, f)
    rows, cols, sizes, n_v = _layout(test)
    total = f.alphabet ** n_v
    if total > BRUTE_FORCE_CAP:
        raise SizeCapError(f"{total} global assignments exceed the brute-force cap")
    live = sizes > 0
    starts = (np.cumsum(sizes) - sizes)[live]
    weights = _cached(test, "s_marginal", test.sts.s_marginal)[live]
    powers = f.alphabet ** np.arange(n_v - 1, -1, -1, dtype=np.int64)
    chunk = max(1, (1 << 22) // (8 * len(cols)))
    best = np.inf
    for lo in range(0, total, chunk):
        digits = np.arange(lo, min(lo + chunk, total))[:, None] // powers % f.alphabet
        miss = np.add.reduceat(digits[:, cols] != lifted[rows, cols], starts, axis=1,
                               dtype=np.int64)
        best = min(best, float(((miss / sizes[live] > gamma) @ weights).min()))
        if best == 0.0:
            break
    return best


# -- distance-promise and surprise ----------------------------------------------------


def delta_ensemble_check(x, f: Ensemble, delta: float):
    """Every disagreeing pair must differ on more than a delta fraction of t,
    or of the two sets' common support when the test has no t supports.

    The witness is the first offending pair of positive mass, in t order and
    then in table order, with the vertices it was compared on.
    """
    test = _as_test(x)
    lifted = _lift(test, f)
    n_ground = _layout(test)[3]
    t, i, j, p = test.sts.all_pairs()
    keep = (p > 0) & (test.sts.t_probs[t] > 0)
    t, i, j = t[keep], i[keep], j[keep]
    if test.t_supports is None:
        on = (lifted[i, :n_ground] >= 0) & (lifted[j, :n_ground] >= 0)
        differ = _diff(lifted, i, j)[:, :n_ground]
    else:
        cols = _padded(test, "t_supports")[t]
        on, differ = cols < n_ground, _diff(lifted, i, j, cols)
    size = on.sum(axis=1)
    d = np.divide(differ.sum(axis=1), size, out=np.zeros(len(size)), where=size > 0)
    hit = np.flatnonzero((d > 0) & (d <= delta))
    if not hit.size:
        return True, None
    k = hit[0]
    verts = (tuple(np.flatnonzero(on[k]).tolist()) if test.t_supports is None
             else test.t_supports[t[k]])
    return False, (test.s_labels[i[k]], verts, test.s_labels[j[k]])


def _av_index(x: StavInstance):
    """The (a, v) entries of every t with mass, flattened in t order as
    (t, a, v, p), with index pairs into them and the entries of
    ``sts.cond``, and into ``sts.pairs`` and them, that share a t."""
    def build():
        n_t = len(x.t_probs)
        av = x.av
        live = x.t_probs[av.t_idx] > 0
        n_av = np.bincount(av.t_idx[live], minlength=n_t)
        return (av.t_idx[live], av.a_idx[live], av.v_idx[live], av.probs[live],
                _segment_pairs(n_av, np.diff(x.sts.cond.indptr)),
                _segment_pairs(np.bincount(x.sts.pairs[0], minlength=n_t), n_av))
    return _cached(x, "av_index", build)


def surprise(x: StavInstance, f: Ensemble):
    """Pr[agree on a and differ at v | differ on t], exactly.

    Returns (value, conditioned_flag); the flag is False when the test never
    rejects, in which case the value is 0.
    """
    if not isinstance(x, StavInstance):
        raise SupportMismatch("surprise needs a tabular four-layer instance")
    lifted = _lift(x, f)
    av_t, av_a, av_v, av_p, (e, k), (kp, ep) = _av_index(x)
    i_s, i_p, (pt, p_i, p_j, p_p) = x.sts.cond.indices, x.sts.cond.data, x.sts.pairs
    a_pad = _padded(x, "a_supports")[av_a]
    v_col = np.asarray(x.v_ground, dtype=np.int64)[av_v, None]
    # columns of cond: per (a, v) entry, Pr[agree on a] - Pr[agree on a and at v]
    ca = _row_codes(_restrict(lifted, i_s[k], a_pad[e]))
    cv = _restrict(lifted, i_s[k], v_col[e])[:, 0]
    agree = np.zeros(len(av_t))
    for sign, keys in ((1.0, (e, ca)), (-1.0, (e, ca, cv))):
        ids, first = _group(*keys)
        mass = np.bincount(ids, i_p[k], minlength=len(first))
        agree += sign * np.bincount(e[first], mass * mass, minlength=len(av_t))
    num = (x.t_probs[av_t] * av_p) @ agree
    den = x.t_probs @ _indep_spread(x, lifted)
    # explicit pairs: pairs that differ on t, then agree on a and differ at v
    differ = _diff(lifted, p_i, p_j, _padded(x, "t_supports")[pt]).any(1)
    den += x.t_probs[pt] @ (p_p * differ)
    kp, ep = kp[differ[kp]], ep[differ[kp]]
    hit = (~_diff(lifted, p_i[kp], p_j[kp], a_pad[ep]).any(axis=1)
           & _diff(lifted, p_i[kp], p_j[kp], v_col[ep])[:, 0])
    num += (x.t_probs[pt[kp]] * p_p[kp] * av_p[ep]) @ hit
    if den <= 0:
        return 0.0, False
    return float(num / den), True


# -- neighborhood tests ---------------------------------------------------------------


def weak_neighborhood_tests(c: Complex, l: int, k: int, f: Ensemble, mode: str,
                            full_intersection: bool = False,
                            instance: StavInstance | None = None) -> TestResult:
    """Rejection of the ball-ensemble tests (compare on t, or the whole
    intersection with ``full_intersection``).  A prebuilt ``instance`` must
    have been built from these arguments."""
    x = instance if instance is not None else neighborhood_stav(c, l, k, mode)
    built = [x.meta.get(key) for key in ("l", "k", "mode")]
    if x.meta.get("complex") is not c or built != [l, k, mode]:
        raise ParameterRange(f"the instance was built for l, k, mode = {built}, "
                             f"not {[l, k, mode]}, or on another complex")
    if full_intersection:
        x = AgreementTest(x.s_labels, x.s_supports, x.sts, t_supports=None)
    return rejection(x, f, mode="exact")


# -- alternative test distributions ----------------------------------------------------


def d_l_test(c: Complex, d: int, l: int) -> AgreementTest:
    """Plain test distribution on level d: sample t at level l, then two
    independent d-faces above it."""
    if not 0 <= l < d <= c.d:
        raise ParameterRange(f"need 0 <= l < d <= {c.d}")
    lev_s, lev_t = c.level(d), c.level(l)
    sts = STSTable.from_joint(_containment_joint(c, d, l))
    s_faces = _face_tuples(lev_s.faces)
    return AgreementTest(s_faces, s_faces, sts, _face_tuples(lev_t.faces),
                         meta={"kind": "d_l", "d": d, "l": l})


def up2k_distribution(c: Complex, k: int, t_level: int | None = None) -> AgreementTest:
    """Test through a common 2k-face: sample r at level 2k, then two k-faces
    inside it (conditioned on a sampled t at ``t_level`` when given, compared
    on the support intersection otherwise)."""
    if 2 * k > c.d:
        raise ParameterRange(f"need 2k <= d, got 2*{k} > {c.d}")
    if t_level is not None and t_level >= k:
        raise ParameterRange("t_level must be below k")
    lev_r = c.level(2 * k)
    lev_s = c.level(k)
    # without t_level, one pseudo-t: the empty face
    lev_t = c.level(-1 if t_level is None else t_level)
    m = lev_t.k + 1
    # one pattern of positions inside r: each t-subface, then the s-subfaces
    # through it; every r contributes each pair of s-subfaces of each t
    t_pat, t_rest = position_subsets(2 * k + 1, m)
    extra = t_rest[:, position_subsets(2 * k + 1 - m, k + 1 - m)[0]]
    n_pt, n_ps = extra.shape[:2]
    s_pat = np.sort(np.concatenate(
        [np.broadcast_to(t_pat[:, None], (n_pt, n_ps, m)), extra], axis=2), axis=2)
    shape = (lev_r.size, n_pt, n_ps, n_ps)
    t_of = lev_t.sub_faces(lev_r.faces, t_pat).T
    t_of = np.broadcast_to(t_of[:, :, None, None], shape).ravel()
    s_of = lev_s.sub_faces(lev_r.faces, s_pat.reshape(n_pt * n_ps, k + 1)).T
    s_of = s_of.reshape(shape[:3])
    i_of = np.broadcast_to(s_of[:, :, :, None], shape).ravel()
    j_of = np.broadcast_to(s_of[:, :, None, :], shape).ravel()
    pr = np.broadcast_to((lev_r.measure / (n_pt * n_ps ** 2))[:, None, None, None],
                         shape).ravel()
    # the distinct (t, i, j), in t order and then in the order r meets them
    ids, first = _group(t_of, i_of, j_of)
    order = np.lexsort((first, t_of[first]))
    mass = np.bincount(ids, pr)[order]
    t_g, i_g, j_g = t_of[first][order], i_of[first][order], j_of[first][order]
    t_probs = (np.ones(1) if t_level is None
               else np.bincount(t_g, mass, minlength=lev_t.size))
    sts = STSTable.from_pairs(t_probs, lev_s.size, t_g, i_g, j_g, mass / t_probs[t_g])
    s_faces = _face_tuples(lev_s.faces)
    if t_level is None:
        return AgreementTest(s_faces, s_faces, sts, None, meta={"kind": "up2k", "k": k})
    return AgreementTest(s_faces, s_faces, sts, _face_tuples(lev_t.faces),
                         meta={"kind": "up2k_t", "k": k, "t_level": t_level})


def sts_t_expansions(x) -> list[float]:
    """Two-sided expansion of each t-conditioned pair graph (the hypothesis of
    the independent-versus-expanding comparison), for every t with mass: one
    family over all pairs, each graph on the s of positive mass."""
    test = _as_test(x)
    graphs = _pair_graphs(len(test.sts.t_probs), *test.sts.all_pairs())
    lam = graphs.spectra(np.flatnonzero(test.sts.t_probs > 0))
    return np.max(np.abs(lam), axis=0).tolist()
