"""Reference values computed apart from hdxlab.

Each function here either evaluates a closed form from the combinatorics of
the complete complex or the Grassmann poset, or recomputes a quantity by
plain numpy enumeration.  None of them calls the hdxlab function whose
output it checks.
"""

from __future__ import annotations

import itertools
from math import comb, sqrt

import numpy as np


def disjointness_lambda(n: int, a: int, b: int) -> float:
    """Second singular value of the walk between a-sets and b-sets of [n]
    that moves to a uniformly random disjoint set (the complement walk of
    the complete complex).  Singular value i of the Johnson-scheme
    eigenspace decomposition is sqrt(C(n-a-i, b-i) C(n-b-i, a-i) /
    (C(n-a, b) C(n-b, a))); for a = b this is the Kneser graph spectrum."""
    den = comb(n - a, b) * comb(n - b, a)
    return max(sqrt(comb(n - a - i, b - i) * comb(n - b - i, a - i) / den)
               for i in range(1, min(a, b) + 1))


def johnson_lower_lambda(n: int, m: int, a: int) -> float:
    """Second eigenvalue of the walk on m-sets of [n] that goes down to a
    uniform a-subset and back up to a uniform m-superset.  Eigenvalue i of
    the Johnson scheme J(n, m) is C(m-i, a-i) C(n-a-i, m-a) /
    (C(m, a) C(n-a, m-a)), decreasing in i."""
    return (comb(m - 1, a - 1) * comb(n - a - 1, m - a)
            / (comb(m, a) * comb(n - a, m - a)))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(n: int, dim: int, q: int, affine: bool) -> int:
    """Linear subspaces of dimension dim, or their affine translates."""
    g = gaussian_binomial(n, dim, q)
    return q ** (n - dim) * g if affine else g


def underlying_joint(n_vertices: int, tops: np.ndarray, weights: np.ndarray):
    """Ordered-pair joint on the vertices: each top face spreads its weight
    evenly over its edges, and each edge splits its mass between its two
    orientations."""
    per_edge = comb(tops.shape[1], 2)
    joint = np.zeros((n_vertices, n_vertices))
    for a, b in itertools.combinations(range(tops.shape[1]), 2):
        np.add.at(joint, (tops[:, a], tops[:, b]), weights / (2 * per_edge))
    return joint + joint.T


def graph_lambda2(joint: np.ndarray) -> float:
    """Second eigenvalue of the random walk of a symmetric joint."""
    s = np.sqrt(joint.sum(axis=1))
    return float(np.linalg.eigvalsh(joint / np.outer(s, s))[-2])


def edge_expansion(joint: np.ndarray) -> float:
    """Minimum of cut(S) / Pr(S) over every vertex set S with 0 < Pr(S) <= 1/2."""
    m = joint.shape[0]
    pi = joint.sum(axis=1)
    sets = ((np.arange(1, 1 << m)[:, None] >> np.arange(m)) & 1).astype(float)
    pr = sets @ pi
    inside = np.einsum("si,ij,sj->s", sets, joint, sets)
    keep = pr <= 0.5 + 1e-15
    return float(((pr - inside)[keep] / pr[keep]).min())


def _pair_tables(tables):
    """Expand stored (s1, t, s2) tables into explicit (i, j, p) triples."""
    for tab in tables:
        if tab[0] == "indep":
            _, s_idx, cond = tab
            s_idx = np.asarray(s_idx)
            cond = np.asarray(cond, dtype=float)
            yield (np.repeat(s_idx, len(s_idx)), np.tile(s_idx, len(s_idx)),
                   np.outer(cond, cond).ravel())
        else:
            _, i_idx, j_idx, p = tab
            yield np.asarray(i_idx), np.asarray(j_idx), np.asarray(p, dtype=float)


def pair_rejection(t_probs, tables, s_supports, t_supports, values) -> float:
    """Rejection probability summed pair by pair.

    ``values[si]`` lists the local function of set si along its sorted
    support.  Pairs are compared on the middle face, or on the whole support
    intersection when ``t_supports`` is None.
    """
    pos = [{v: i for i, v in enumerate(sup)} for sup in s_supports]
    total = 0.0
    for ti, (pt, (i_idx, j_idx, p)) in enumerate(
            zip(t_probs, _pair_tables(tables))):
        if pt <= 0:
            continue
        if t_supports is None:
            for si, sj, q in zip(i_idx.tolist(), j_idx.tolist(), p.tolist()):
                verts = set(s_supports[si]) & set(s_supports[sj])
                if q > 0 and any(values[si][pos[si][v]] != values[sj][pos[sj][v]]
                                 for v in verts):
                    total += pt * q
            continue
        # every pair is compared on the same face: restrict each set once
        verts = t_supports[ti]
        sets = np.unique(np.concatenate([i_idx, j_idx]))
        restricted = np.array([[values[si][pos[si][v]] for v in verts]
                               for si in sets.tolist()]).reshape(len(sets), len(verts))
        ri = restricted[np.searchsorted(sets, i_idx)]
        rj = restricted[np.searchsorted(sets, j_idx)]
        total += pt * float(p[(ri != rj).any(axis=1)].sum())
    return float(total)


def all_globals(n_vertices: int, alphabet: int) -> np.ndarray:
    """Every global assignment [n_vertices] -> [alphabet], one per row."""
    return np.array(list(itertools.product(range(alphabet), repeat=n_vertices)),
                    dtype=np.int64).reshape(-1, n_vertices)


def min_distance(globals_, supports: np.ndarray, weights: np.ndarray,
                 values: np.ndarray, gamma: float) -> float:
    """Minimum over all global assignments of the weighted share of sets
    whose local function differs from the restriction on more than a gamma
    fraction of the support (sets of one common support size)."""
    values = np.asarray(values)
    frac = (globals_[:, supports] != values[None, :, :]).mean(axis=2)
    return float(((frac > gamma) * weights[None, :]).sum(axis=1).min())
