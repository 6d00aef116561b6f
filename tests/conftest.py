"""Shared fixtures and independent oracles used across the suite."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from hdxlab.complexes import Complex, build_from_top_faces, partite_complete_complex
from hdxlab.walks import BipartiteGraph, WeightedGraph, down_operator

# one profile for every property test; per-example deadlines fail spuriously
# when the machine is loaded, so there are none
settings.register_profile("hdxlab", max_examples=20, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("hdxlab")


def random_partite_complex(seed: int, sizes=None, noise: float = 1.0) -> Complex:
    """Random full-support weights on all transversals of a partite complex.

    ``noise`` scales the log-normal weight spread; small values keep the
    links well inside the expander regime, large values stress the bounds.
    """
    rng = np.random.default_rng(seed)
    if sizes is None:
        sizes = rng.integers(4, 7, size=3).tolist()
    base = partite_complete_complex(sizes)
    tops, _ = base.top_arrays()
    weights = np.exp(noise * rng.normal(size=len(tops)))
    weights = weights / weights.sum()
    return Complex(base.n_vertices, base.d, tops.copy(), weights,
                   coloring=base.coloring)


def random_weighted_complex(seed: int, n: int, d: int) -> Complex:
    """Random weights on a random share of the (d+1)-sets of n vertices; one
    cyclic window per vertex keeps every vertex in a top face."""
    rng = np.random.default_rng(seed)
    tops = {tuple(sorted((v + i) % n for i in range(d + 1))) for v in range(n)}
    tops |= {t for t in itertools.combinations(range(n), d + 1) if rng.random() < 0.4}
    tops = sorted(tops)
    w = rng.gamma(1.0, 1.0, size=len(tops)) + 1e-3
    return build_from_top_faces(n, [(t, float(x)) for t, x in zip(tops, w / w.sum())])


def containment_operator_by_product(c: Complex, k: int, l: int):
    """The containment walk X(k) -> X(l), 0 <= l < k, as a product of
    single-level down operators."""
    op = down_operator(c, k - 1)
    for level in range(k - 2, l - 1, -1):
        op = op.compose(down_operator(c, level))
    return op


def random_weighted_graph(seed: int, n: int) -> WeightedGraph:
    """Dense random symmetric joint with full support (an expander w.h.p.)."""
    rng = np.random.default_rng(seed)
    m = rng.gamma(2.0, 1.0, size=(n, n))
    m = m + m.T
    np.fill_diagonal(m, 0.0)
    m = m / m.sum()
    return WeightedGraph(list(range(n)), m)


def random_bipartite_graph(seed: int, nl: int, nr: int) -> BipartiteGraph:
    rng = np.random.default_rng(seed)
    j = rng.gamma(2.0, 1.0, size=(nl, nr))
    j = j / j.sum()
    return BipartiteGraph(list(range(nl)), list(range(nr)), j)


def kneser_lambda(n: int, k: int) -> float:
    """Largest nontrivial eigenvalue magnitude of the normalized disjointness
    walk on k-subsets of [n] (independent closed form, exact rationals)."""
    from fractions import Fraction
    deg = math.comb(n - k, k)
    best = Fraction(0)
    for i in range(1, k + 1):
        val = Fraction(math.comb(n - k - i, k - i), deg)
        if val > abs(best):
            best = val if i % 2 == 0 else -val
    return float(abs(best))


def brute_force_rejection(test, f) -> float:
    """Independent rejection oracle: expand every pair table explicitly."""
    pos_maps = [{v: i for i, v in enumerate(sup)} for sup in test.s_supports]

    def restr(si, verts):
        vals = f.assignments[test.s_labels[si]]
        return tuple(int(vals[pos_maps[si][v]]) for v in verts)

    total = 0.0
    for ti, pt in enumerate(test.sts.t_probs):
        if pt <= 0:
            continue
        i_idx, j_idx, p = test.sts.pair_arrays(ti)
        for si, sj, q in zip(i_idx, j_idx, p):
            if test.t_supports is not None:
                verts = test.t_supports[ti]
            else:
                verts = tuple(sorted(set(test.s_supports[int(si)])
                                     & set(test.s_supports[int(sj)])))
            if restr(int(si), verts) != restr(int(sj), verts):
                total += pt * float(q)
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)


@pytest.fixture
def unconverged_solvers(monkeypatch):
    """Lanczos from 11 rows up, with ``eigsh`` returning the right values but
    random unit vectors, as a solve that stopped early would; the bipartite
    solve is an ``eigsh`` too."""
    import scipy.sparse.linalg as spla

    import hdxlab.spectra as spectra

    noise = np.random.default_rng(5)
    eigsh = spla.eigsh

    def unit(shape):
        x = noise.normal(size=shape)
        return x / np.linalg.norm(x, axis=0)

    def wrong_eigsh(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        return vals, unit(vecs.shape)

    monkeypatch.setattr(spectra, "DENSE_EIG_LIMIT", 10)
    monkeypatch.setattr(spla, "eigsh", wrong_eigsh)
