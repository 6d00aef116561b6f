"""Four-layer set systems (S over T over A and ground set V) with their three
sampling distributions, the derived local graphs, and the goodness checker.

Two representations coexist:

* tabular -- every distribution is an explicit sparse table; all checks are
  exhaustive sums.  This is the default at desk scale and the only mode the
  agreement and decoder modules accept.
* structured -- for simplicial instances whose top level is too large to
  enumerate.  Every local graph the goodness checker needs collapses, in a
  pure weighted complex, to a small matrix whose entries are ratios of
  containment masses at levels l and l+1 (or a sparse matrix from level 2l),
  so the checks run without ever materializing the top level.

Every builder is a sub-face gather: it splits the vertex positions of the
faces of one level into fixed blocks (``complexes.position_subsets``), ranks
each block at its level with one ``LevelIndex.sub_faces`` call, and weights
the entries by level measures alone; no builder builds a link or a walk.
Builders of independent pairs write their (S x T) main distribution as one
sparse joint, usually a block of the containment joint
``walks._containment_joint``, and hand it to ``STSTable.from_joint``, which
keeps it as the conditional matrix ``cond``; explicit pair tables are handed
to ``STSTable.from_pairs`` as flat arrays sorted by t.  So the (s1, t, s2)
layer is flat, like the (a, v) layer given t, one t-sorted ``AvTable``, and
the amplification table, one ``VasaTable``; ``STSTable.tables`` is a per-t
view of it that nothing here reads.  A layer's supports as flat arrays
(``_flat_supports``) and the (a, s) pairs of the (v, a, s) triples with their
mass (``_as_pairs``) are built once per instance, for every reader.  Keys
are grouped (``_local`` included) by ``complexes._group`` and codes looked up
by ``complexes._search``, which alone choose a table or a sort.

Every local graph of the goodness checker belongs to a family
(``spectra._Graphs``) solved in stacked batches: on the tabular path one per
kind, built from the tables and cached on the instance, which ``derive_graph``
reads; on the structured path one per block of a-faces (A2a, A3b) or vertices
(A3a), gathered from X(l+1) and X(2l), so that memory stays bounded.  The
A2a and A2b pair graphs (``_sts_graphs``) carry the three tables their fill
scatters, the conditional entries, slot weights and explicit pairs, so
graphs equal in all three are found as one class before any fill
(``spectra._input_classes``); the fill takes one matrix product per slot
count, so that no graph is padded by another.  The tabular A2a brute force,
and the A4 spot checks of a local reach graph with at most
``_EXHAUSTIVE_COLUMNS`` columns, which try every subset and draw nothing,
run once per class (``spectra._distinct_batches``); wider graphs draw from
one stream in s order.
The thresholds, the brute-force cap and the spot-check count and seed are
constants, not options.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .complexes import _GATHER_ENTRIES, Complex, _group, _member, _search, position_subsets
from .errors import (
    ColorSize,
    HdxError,
    MarginalMismatch,
    NotPartite,
    ParameterRange,
    SizeCapError,
    ZeroConditioning,
)
from .spectra import (
    BRUTE_FORCE_VERTICES,
    _Graphs,
    _check_square_stack,
    _distinct_batches,
    _entry_graphs,
    _min_cut_ratio,
    _runs,
    _scatter,
    bipartite_lambda,
)
from .walks import (BipartiteGraph, WeightedGraph, _containment_joint, _diag_scale, _joint,
                    _marginal, _solves_dense, neighborhood_system)

TABULAR_S_CAP = 200_000
TABULAR_TABLE_CAP = 4_000_000
# the A4 spot checks try every right subset of a graph up to this many columns,
# else draw this many from a generator of this seed
_EXHAUSTIVE_COLUMNS = 12
_SPOT_CHECKS = 1000
_SPOT_CHECK_SEED = 0


# -- distribution containers ---------------------------------------------------


@dataclass
class STSTable:
    """Symmetric joint over (s1, t, s2), factored through the middle face: t
    by ``t_probs``, then the pair (s1, s2) given t.

    ``cond`` is the (S x T) CSC conditional matrix: a t with a non-empty
    column draws s1 and s2 independently from it.  ``pairs`` holds the
    explicit symmetric pair tables as flat arrays (t, i, j, p) sorted by t,
    the p of each t summing to 1.  A t has entries in at most one of them.
    ``tables`` is a per-t view of both, cached and read-only.
    """

    t_probs: np.ndarray
    cond: sp.csc_matrix
    pairs: tuple
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_joint(cls, st) -> "STSTable":
        """Independent pairs of an (S x T) joint: t by its column mass, then
        two independent s from its column."""
        stc = sp.csc_matrix(st)
        stc.sum_duplicates()
        t_probs = np.asarray(stc.sum(axis=0)).ravel()
        pt = np.repeat(t_probs, np.diff(stc.indptr))
        cond = sp.csc_matrix((stc.data / np.where(pt > 0, pt, 1.0), stc.indices, stc.indptr),
                             shape=stc.shape)
        e = np.empty(0, np.int64)
        return cls(t_probs, cond, (e, e, e, np.empty(0)))

    @classmethod
    def from_pairs(cls, t_probs, n_s: int, t, i, j, p) -> "STSTable":
        """Explicit pair tables given as flat arrays sorted by t."""
        return cls(t_probs, sp.csc_matrix((n_s, len(t_probs))), (t, i, j, p))

    @property
    def n_s(self) -> int:
        return self.cond.shape[0]

    def s_marginal(self) -> np.ndarray:
        t, i, _, p = self.pairs
        return self.cond @ self.t_probs + np.bincount(i, self.t_probs[t] * p,
                                                      minlength=self.n_s)

    def all_pairs(self):
        """Every pair (t, i, j, p) in t order, each column of ``cond``
        expanded into its independent pairs (s1 major); cached."""
        def build():
            c, (t_p, *pairs) = self.cond, self.pairs
            n = np.diff(c.indptr)
            a, b = _segment_pairs(n, n)
            t = np.concatenate([np.repeat(np.arange(len(n)), n)[a], t_p])
            order = np.argsort(t, kind="stable")
            return (t[order], *(np.concatenate(cols)[order] for cols in zip(
                (c.indices[a], c.indices[b], c.data[a] * c.data[b]), pairs)))
        return _cached(self, "all_pairs", build)

    @property
    def tables(self) -> tuple:
        """Per-t view, built on first read: ("indep", s_idx, cond) for a t
        with a non-empty ``cond`` column, ("pairs", i, j, p) for every other
        t.  Nothing in hdxlab reads it."""
        def build():
            c, (t_p, *pairs) = self.cond, self.pairs
            cols = zip(*(np.split(a, c.indptr[1:-1])
                         for a in (c.indices.astype(np.int64), c.data)))
            return tuple(("indep", *col) if len(col[0]) else ("pairs", *tab)
                         for col, tab in zip(cols, _cut(t_p, c.shape[1], *pairs)))
        return _cached(self, "tables", build)


@dataclass
class VasaTable:
    """Symmetric joint over (v, a1, s, a2) as parallel arrays."""

    v_idx: np.ndarray
    a1_idx: np.ndarray
    s_idx: np.ndarray
    a2_idx: np.ndarray
    probs: np.ndarray

    def __len__(self):
        return len(self.probs)


@dataclass
class AvTable:
    """Conditional joint of (a, v) given t as parallel arrays, sorted by t;
    the probs of each t sum to 1."""

    t_idx: np.ndarray
    a_idx: np.ndarray
    v_idx: np.ndarray
    probs: np.ndarray

    def __len__(self):
        return len(self.probs)


@dataclass
class StavInstance:
    """Tabular four-layer instance with explicit distribution tables.

    Layer supports index a common ground set; the v-layer is the subset of the
    ground set that the fourth coordinate is drawn from (``v_ground`` maps
    v-layer positions to ground positions; they coincide except for partite
    instances, whose amplification faces sit outside the v-layer).  The
    (a, v) layer is one t-sorted ``AvTable`` for all t, so the main
    distribution factors as P(s, t) P(a, v | t).
    """

    provenance: str
    ground_labels: list
    v_labels: list
    v_ground: np.ndarray  # v-layer position -> ground position
    a_labels: list
    t_labels: list
    s_labels: list
    a_supports: list  # tuple of ground indices per A element
    t_supports: list
    s_supports: list
    st_joint: sp.csr_matrix  # (|S|, |T|) joint of the main distribution
    av: AvTable
    sts: STSTable
    vasa: VasaTable
    meta: dict = field(default_factory=dict)
    mode: str = "tabular"
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- derived marginals (cached) -------------------------------------------

    @property
    def t_probs(self) -> np.ndarray:
        return self.sts.t_probs

    @property
    def n_s(self):
        return len(self.s_labels)

    @property
    def n_v(self):
        return len(self.v_labels)

    def s_probs(self) -> np.ndarray:
        return _cached(self, "s_probs",
                       lambda: np.asarray(self.st_joint.sum(axis=1)).ravel())

    def v_marginal(self) -> np.ndarray:
        av = self.av
        return _cached(self, "v_marginal", lambda: np.bincount(
            av.v_idx, weights=self.t_probs[av.t_idx] * av.probs, minlength=self.n_v))

    def reach_joint(self) -> sp.csr_matrix:
        """Marginal joint over (a, v)."""
        return _cached(self, "reach", lambda: _reach(self.av, self.t_probs,
                                                     (len(self.a_labels), self.n_v)))

    def vas_triples(self):
        """Arrays (v_idx, a_idx, s_idx, p) of the (v, a, s) marginal: per t,
        every (a, v) entry against every s with mass on t, (a, v) major."""
        def build():
            st = self.st_joint.tocsc()
            av = self.av
            e, k = _segment_pairs(np.bincount(av.t_idx, minlength=st.shape[1]),
                                  np.diff(st.indptr))
            return av.v_idx[e], av.a_idx[e], st.indices[k], av.probs[e] * st.data[k]
        return _cached(self, "vas", build)


@dataclass
class StructuredHdxStav:
    """Level-structured simplicial instance; distributions stay implicit."""

    complex: Complex
    d: int
    l: int
    provenance: str = "hdx"
    mode: str = "structured"

    @property
    def meta(self):
        return {"d": self.d, "l": self.l, "n": self.complex.n_vertices}


# -- builders -----------------------------------------------------------------


def _face_tuples(rows):
    """Rows of ids as tuples of Python ints."""
    return list(map(tuple, rows.tolist()))


def _segment_pairs(n_a, n_b):
    """Index pairs over segment k of a times segment k of b, for each k in
    turn, a major; a's segments hold n_a[0], n_a[1], ... entries, b's n_b."""
    n = n_a * n_b
    seg = np.repeat(np.arange(len(n)), n)
    local = np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n)
    return ((np.cumsum(n_a) - n_a)[seg] + local // n_b[seg],
            (np.cumsum(n_b) - n_b)[seg] + local % n_b[seg])


def _drop_one(lev_t, lev_a) -> AvTable:
    """(a, v) given t: v is a uniform vertex of t and a = t minus v; v is a
    vertex id, the v-layer position of every simplicial instance."""
    m = lev_t.k + 1
    keep = position_subsets(m, 1)[1]
    return AvTable(t_idx=np.repeat(np.arange(lev_t.size), m),
                   a_idx=lev_a.sub_faces(lev_t.faces, keep).T.ravel(),
                   v_idx=lev_t.faces.ravel().astype(np.int64),
                   probs=np.full(lev_t.size * m, 1.0 / m))


def _reach(av: AvTable, t_probs: np.ndarray, shape) -> sp.csr_matrix:
    """The (a, v) marginal of t drawn by ``t_probs``, then (a, v) given t."""
    return _joint(av.a_idx, av.v_idx, t_probs[av.t_idx] * av.probs, shape)


def _restricted_joint(c: Complex, k: int, l: int, s_keep, t_keep) -> sp.csr_matrix:
    """Rows ``s_keep`` and columns ``t_keep`` of the X(k) x X(l) containment
    joint, each column with mass rescaled to the level measure of its t,
    renormalised over those columns."""
    st = _containment_joint(c, k, l)[s_keep][:, t_keep]
    col_tot = np.asarray(st.sum(axis=0)).ravel()
    w = np.where(col_tot > 0, c.level(l).measure[t_keep], 0.0)
    scale = np.divide(w, col_tot * w.sum(), out=np.zeros(len(w)), where=col_tot > 0)
    return _diag_scale(st, cols=scale)


def hdx_stav(c: Complex, d: int, l: int, force_mode: str | None = None):
    """Simplicial instance: S = X(d), T = X(l), A = X(l-1), V = X(0).

    The test distribution picks t by level measure and two independent
    d-faces above it; the amplification distribution picks a d-face and
    a uniform disjoint triple (a1, a2, v) inside it.
    """
    if not (1 <= l and 2 * l + 2 <= d <= c.d):
        raise ParameterRange(f"need 1 <= l and 2l+2 <= d <= {c.d}, got d={d}, l={l}")
    n_top = (math.comb(c.n_vertices, d + 1) if c.uniform_complete
             else c.level(d).size)
    per_s_vasa = (math.comb(d + 1, l) * math.comb(d + 1 - l, l) * (d + 1 - 2 * l))
    tabular_ok = (n_top <= TABULAR_S_CAP
                  and n_top * per_s_vasa <= TABULAR_TABLE_CAP
                  and n_top * math.comb(d + 1, l + 1) <= TABULAR_TABLE_CAP)
    mode = force_mode or ("tabular" if tabular_ok else "structured")
    if mode == "structured":
        return StructuredHdxStav(complex=c, d=d, l=l)
    if not tabular_ok:
        raise SizeCapError(
            f"tabular mode needs |X(d)| <= {TABULAR_S_CAP} and table sizes under "
            f"{TABULAR_TABLE_CAP}; got {n_top} top faces")

    lev_s, lev_t, lev_a, lev_v = c.level(d), c.level(l), c.level(l - 1), c.level(0)
    st = _containment_joint(c, d, l)
    sts = STSTable.from_joint(st)

    # amplification table: uniform disjoint (a1, a2, v) inside each s, as one
    # pattern of position blocks shared by all s; a1 and a2 are ranked
    # through the sub-faces of the distinct l-subsets
    a1_pat, a2_pat, v_pat, _ = position_subsets(d + 1, l, l, 1)
    a_pat = np.concatenate([a1_pat, a2_pat])
    a_of, first = _group(*a_pat.T)
    a_pat = a_pat[first]
    a1_of, a2_of = np.split(a_of, 2)
    a_sub = lev_a.sub_faces(lev_s.faces, a_pat)
    vasa = VasaTable(lev_s.faces[:, v_pat[:, 0]].ravel().astype(np.int64),
                     a_sub[a1_of].T.ravel(),
                     np.repeat(np.arange(lev_s.size), len(v_pat)),
                     a_sub[a2_of].T.ravel(),
                     np.repeat(lev_s.measure / per_s_vasa, len(v_pat)))

    v_labels = lev_v.faces[:, 0].tolist()
    a_faces, t_faces, s_faces = (_face_tuples(lev.faces) for lev in (lev_a, lev_t, lev_s))
    return StavInstance(
        provenance="hdx",
        ground_labels=v_labels,
        v_labels=v_labels,
        v_ground=np.arange(len(v_labels)),
        a_labels=a_faces,
        t_labels=t_faces,
        s_labels=s_faces,
        a_supports=a_faces,
        t_supports=t_faces,
        s_supports=s_faces,
        st_joint=st, av=_drop_one(lev_t, lev_a), sts=sts,
        vasa=vasa, meta={"complex": c, "d": d, "l": l})


def partite_ij_stav(c: Complex, colors_i, colors_j, k: int) -> StavInstance:
    """Partite instance whose amplification layer carries two fixed colors."""
    if not c.is_partite:
        raise NotPartite("partite instance needs a coloring")
    I = frozenset(int(x) for x in colors_i)
    J = frozenset(int(x) for x in colors_j)
    if not I or not J or I & J:
        raise ColorSize("I and J must be nonempty and disjoint")
    if len(I) != len(J):
        raise ColorSize("I and J must have equal size")
    l = len(I)
    if k < 4 * l + 4 or k > c.d:
        raise ParameterRange(f"need 4l+4 <= k <= d, got k={k}, l={l}")
    in_i, in_j = c._color_mask(I), c._color_mask(J)
    in_ij = in_i | in_j

    lev_k = c.level(k)
    s_keep = np.flatnonzero(in_ij[lev_k.faces].sum(axis=1) == 2 * l)
    if not len(s_keep):
        raise ParameterRange("no k-face carries both color sets")
    s_rows = lev_k.faces[s_keep]

    # t carries one of the two color sets and one color outside both
    lev_t = c.level(l)
    n_i = in_i[lev_t.faces].sum(axis=1)
    n_j = in_j[lev_t.faces].sum(axis=1)
    t_keep = np.flatnonzero(((n_i == l) & (n_j == 0)) | ((n_j == l) & (n_i == 0)))
    if not len(t_keep):
        raise ParameterRange("no l-face matches the color pattern")
    t_rows = lev_t.faces[t_keep]

    # A: the (l-1)-faces colored I or J; V: the vertices colored outside both.
    # a_rank and v_rank map level positions and vertex ids to layer positions.
    lev_a = c.level(l - 1)
    a_keep = np.flatnonzero(in_i[lev_a.faces].all(axis=1) | in_j[lev_a.faces].all(axis=1))
    a_rank = np.full(lev_a.size, -1, dtype=np.int64)
    a_rank[a_keep] = np.arange(len(a_keep))
    v_in = ~in_ij
    v_rank = np.cumsum(v_in) - 1
    v_labels = np.flatnonzero(v_in).tolist()

    # (s, t) joint: P(t) conditional measure, P(s | t) prop to level measure.
    # Each s lists its t by descending position: the amplification table
    # below meets the (s, t) entries in that order, and the JSON files list it
    st = _restricted_joint(c, k, l, s_keep, t_keep)
    flip = np.repeat(st.indptr[:-1] + st.indptr[1:] - 1, np.diff(st.indptr)) - np.arange(st.nnz)
    st = sp.csr_matrix((st.data[flip], st.indices[flip], st.indptr), shape=st.shape)
    sts = STSTable.from_joint(st)
    if not np.all(sts.t_probs > 0):
        raise ParameterRange("some t-face extends to no valid k-face")

    # (a, v) given t is deterministic: a the colored part of t, v the rest
    inside = in_ij[t_rows]
    av = AvTable(t_idx=np.arange(len(t_rows)),
                 a_idx=a_rank[lev_a.index_rows(t_rows[inside].reshape(-1, l))],
                 v_idx=v_rank[t_rows[~inside]],
                 probs=np.ones(len(t_rows)))

    # amplification: deterministic colored subfaces, v from the (v | s)
    # marginal, its (s, v) entries in the order the (s, t) entries meet them
    stc = st.tocoo()
    sv = stc.row * len(v_labels) + av.v_idx[stc.col]
    ids, first = _group(sv)
    order = np.argsort(first)
    p_sv = np.bincount(ids, weights=stc.data)[order] / 2.0
    s_of, v_of = np.divmod(sv[first[order]], len(v_labels))
    a_i, a_j = (a_rank[lev_a.index_rows(s_rows[in_c[s_rows]].reshape(-1, l))]
                for in_c in (in_i, in_j))
    vasa = VasaTable(np.repeat(v_of, 2),
                     np.column_stack([a_i[s_of], a_j[s_of]]).ravel(),
                     np.repeat(s_of, 2),
                     np.column_stack([a_j[s_of], a_i[s_of]]).ravel(),
                     np.repeat(p_sv, 2))

    a_faces, t_faces, s_faces = map(_face_tuples, (lev_a.faces[a_keep], t_rows, s_rows))
    return StavInstance(
        provenance="partite_ij",
        ground_labels=list(range(c.n_vertices)),
        v_labels=v_labels,
        v_ground=np.array(v_labels, dtype=np.int64),
        a_labels=a_faces,
        t_labels=t_faces,
        s_labels=s_faces,
        a_supports=a_faces,
        t_supports=t_faces,
        s_supports=s_faces,
        st_joint=st, av=av, sts=sts, vasa=vasa,
        meta={"complex": c, "I": sorted(I), "J": sorted(J), "k": k, "l": l})


def neighborhood_stav(c: Complex, l: int, k: int, mode: str) -> StavInstance:
    """Ball system: S = neighborhoods of k-faces, tested on l-faces of links.

    A link renormalises the tops through its face, so by measure_j(s) =
    sum_{top >= s} w(top) / C(d+1, j+1) a face f of the link of z has link
    measure mu(z u f) / (C(|z u f|, |z|) mu(z)).  Each table is then one
    gather over the faces u of one level, split into position blocks:

    * z by level measure, t in its link, over X(k+l+1) split (k+1 | l+1):
      st[z, t] = mu(u) / C(k+l+2, k+1);
    * complement mode, disjoint (z1, z2) in the link of t, over X(l+2k+2)
      split (l+1 | k+1 | k+1), sorted by (t, z1, z2):
      p(z1, z2 | t) = mu(u) / (C(l+2k+3, l+1) C(2k+2, k+1) mu(t));
    * amplification: z, v in its link, disjoint (a1, a2) in the link of z u v,
      over X(k+2l+1) split (k+1 | 1 | l | l), sorted by (z, v, a1, a2):
      (mu(z u v) / (k+2)) mu(u) / (C(k+2l+2, k+2) C(2l, l) mu(z u v)).
    """
    if mode not in ("independent", "complement"):
        raise ParameterRange(f"unknown mode {mode!r}")
    if mode == "independent" and l + k + 1 > c.d:
        raise ParameterRange(f"independent mode needs l+k+1 <= d, got {l}+{k}+1 > {c.d}")
    if mode == "complement" and l + 2 * k + 2 > c.d:
        raise ParameterRange(f"complement mode needs l+2k+2 <= d, got {l}+{2*k}+2 > {c.d}")
    if k + 2 * l + 1 > c.d:
        raise ParameterRange(f"amplification needs k+2l+1 <= d, got {k}+{2*l}+1 > {c.d}")
    if l < 1:
        raise ParameterRange("need l >= 1")
    lev_z = c.level(k)
    lev_t = c.level(l)
    lev_a = c.level(l - 1)
    z_faces, t_faces, a_faces = (_face_tuples(lev.faces) for lev in (lev_z, lev_t, lev_a))
    balls = neighborhood_system(c, k)

    # (z, t) joint: one entry per split of each union face
    u = c.level(k + l + 1)
    z_pat, t_pat = position_subsets(k + l + 2, k + 1)
    st = _joint(lev_z.sub_faces(u.faces, z_pat).ravel(), lev_t.sub_faces(u.faces, t_pat).ravel(),
                np.tile(u.measure / len(z_pat), len(z_pat)), (lev_z.size, lev_t.size))
    sts = STSTable.from_joint(st)

    if mode == "complement":
        # the two balls come from disjoint k-faces of the link of t
        u = c.level(l + 2 * k + 2)
        t_pat, z1_pat, z2_pat = position_subsets(l + 2 * k + 3, l + 1, k + 1)
        t_of = lev_t.sub_faces(u.faces, t_pat).ravel()
        z1, z2 = (lev_z.sub_faces(u.faces, pat).ravel() for pat in (z1_pat, z2_pat))
        p = np.tile(u.measure, len(t_pat)) / (len(t_pat) * lev_t.measure[t_of])
        order = np.lexsort((z2, z1, t_of))
        sts = STSTable.from_pairs(sts.t_probs, sts.n_s,
                                  *(col[order] for col in (t_of, z1, z2, p)))

    # amplification; the mass is factored through z u v, as the product of
    # link measures was: mu(u) / ((k+2) C C) rounds complete(7, 3) an ulp apart
    u = c.level(k + 2 * l + 1)
    z_pat, v_pat, a1_pat, a2_pat = position_subsets(k + 2 * l + 2, k + 1, 1, l)
    z_of, a1_of, a2_of = (lev.sub_faces(u.faces, pat).ravel()
                          for lev, pat in ((lev_z, z_pat), (lev_a, a1_pat), (lev_a, a2_pat)))
    v_of = u.faces[:, v_pat[:, 0]].T.ravel().astype(np.int64)
    lev_zv = c.level(k + 1)
    mu_zv = lev_zv.measure[lev_zv.sub_faces(
        u.faces, np.sort(np.hstack([z_pat, v_pat]), axis=1)).ravel()]
    n_split = math.comb(k + 2 * l + 2, k + 2) * math.comb(2 * l, l)
    p = mu_zv / (k + 2) * (np.tile(u.measure, len(z_pat)) / (n_split * mu_zv))
    order = np.lexsort((a2_of, a1_of, v_of, z_of))
    vasa = VasaTable(v_of[order], a1_of[order], z_of[order], a2_of[order], p[order])

    return StavInstance(
        provenance="neighborhood",
        ground_labels=list(range(c.n_vertices)),
        v_labels=list(range(c.n_vertices)),
        v_ground=np.arange(c.n_vertices),
        a_labels=a_faces,
        t_labels=t_faces,
        s_labels=z_faces,
        a_supports=a_faces,
        t_supports=t_faces,
        s_supports=[balls[z] for z in z_faces],
        st_joint=st, av=_drop_one(lev_t, lev_a), sts=sts,
        vasa=vasa, meta={"complex": c, "l": l, "k": k, "mode": mode})


# -- invariant checks ------------------------------------------------------------


@dataclass
class InvariantReport:
    v_marginal_uniform_dev: float
    av_independent_of_s: bool
    sts_symmetry_dev: float
    sts_marginal_dev: float
    vasa_symmetry_dev: float
    vasa_marginal_dev: float
    positive_layers: bool
    methods: dict

    def passed(self, tol: float = 1e-9, uniform_tol: float = 1e-9) -> bool:
        return (self.v_marginal_uniform_dev <= uniform_tol
                and self.av_independent_of_s
                and self.sts_symmetry_dev <= tol
                and self.sts_marginal_dev <= tol
                and self.vasa_symmetry_dev <= tol
                and self.vasa_marginal_dev <= tol
                and self.positive_layers)

    def to_json_dict(self) -> dict:
        return {k: (bool(v) if isinstance(v, (bool, np.bool_)) else
                    v if isinstance(v, dict) else float(v))
                for k, v in self.__dict__.items()}


def invariant_report(x) -> InvariantReport:
    """Exact verification of the defining marginal and symmetry properties."""
    if isinstance(x, StructuredHdxStav):
        return _structured_invariants(x)
    vm = x.v_marginal()
    uniform_dev = float(np.max(np.abs(vm - 1.0 / len(vm))))
    # (a, v) | t factor is stored once per t: independence from s holds by
    # representation; report it as structural.
    n_t, n_s, n_a = len(x.t_probs), x.n_s, len(x.a_labels)
    cond, (t_p, i_p, j_p, p_p) = x.sts.cond.tocoo(), x.sts.pairs
    sym_dev = _max_gap((n_t, n_s, n_s), (t_p, i_p, j_p), p_p, (t_p, j_p, i_p), p_p)
    # (s, t) marginal of the pair distribution vs the main distribution; a
    # key (s, t) has entries in one of cond and pairs
    t_of, i_of, w = (np.concatenate(cols) for cols in zip(
        (cond.col, cond.row, cond.data), (t_p, i_p, p_p)))
    st = x.st_joint.tocoo()
    marg_dev = _max_gap((n_s, n_t), (i_of, t_of), x.t_probs[t_of] * w,
                        (st.row, st.col), st.data)
    # amplification symmetry and marginal
    va = x.vasa
    dims = (x.n_v, n_a, n_s, n_a)
    vasa_sym = _max_gap(dims, (va.v_idx, va.a1_idx, va.s_idx, va.a2_idx), va.probs,
                        (va.v_idx, va.a2_idx, va.s_idx, va.a1_idx), va.probs)
    vv, aa, ss, pp = x.vas_triples()
    vasa_marg_dev = _max_gap(dims[:3], (va.v_idx, va.a1_idx, va.s_idx), va.probs,
                             (vv, aa, ss), pp)
    positive = (bool(np.all(x.s_probs() > 0)) and bool(np.all(vm > 0))
                and bool(np.all(np.asarray(x.reach_joint().sum(axis=1)).ravel() > 0)))
    return InvariantReport(
        v_marginal_uniform_dev=uniform_dev,
        av_independent_of_s=True,
        sts_symmetry_dev=sym_dev,
        sts_marginal_dev=marg_dev,
        vasa_symmetry_dev=vasa_sym,
        vasa_marginal_dev=vasa_marg_dev,
        positive_layers=positive,
        methods={"av_independent_of_s": "structural (factored through t)",
                 "others": "exact summation"})


def _max_gap(dims, idx_a, p_a, idx_b, p_b) -> float:
    """Largest |P_a(key) - P_b(key)| of two distributions given as entries
    (index tuples into ``dims``, probabilities); repeated keys add up in entry
    order.  With idx_b the entries of P_a with two coordinates swapped, this is
    the largest asymmetry of P_a."""
    key_a = np.ravel_multi_index(idx_a, dims)
    ids, first = _group(np.concatenate([key_a, np.ravel_multi_index(idx_b, dims)]))
    mass_a = np.bincount(ids[:len(key_a)], weights=p_a, minlength=len(first))
    mass_b = np.bincount(ids[len(key_a):], weights=p_b, minlength=len(first))
    return float(np.max(np.abs(mass_a - mass_b), initial=0.0))


def _structured_invariants(x: StructuredHdxStav) -> InvariantReport:
    c, d, l = x.complex, x.d, x.l
    lev_t = c.level(l)
    vm = np.bincount(lev_t.faces.ravel(), np.repeat(lev_t.measure / (l + 1), l + 1),
                     minlength=c.n_vertices)
    uniform_dev = float(np.max(np.abs(vm - 1.0 / c.n_vertices)))
    # pair distribution is built from the same conditional P(s | t) as the
    # main distribution, so the (s, t) marginal identity is algebraic; the
    # amplification marginal identity is the combinatorial ratio below.
    lhs = 1.0 / (math.comb(d + 1, l + 1) * (l + 1))
    rhs = math.comb(d + 1 - l - 1, l) / (math.comb(d + 1, l)
                                         * math.comb(d + 1 - l, l) * (d + 1 - 2 * l))
    vasa_marg_dev = abs(lhs - rhs) / lhs
    return InvariantReport(
        v_marginal_uniform_dev=uniform_dev,
        av_independent_of_s=True,
        sts_symmetry_dev=0.0,
        sts_marginal_dev=0.0,
        vasa_symmetry_dev=0.0,
        vasa_marginal_dev=vasa_marg_dev,
        positive_layers=bool(np.all(vm > 0)),
        methods={"v_marginal": "exact summation over level l",
                 "sts": "structural (independent pair with shared conditional)",
                 "vasa": "exact combinatorial identity",
                 "av_independent_of_s": "structural"})


# -- derived graphs -----------------------------------------------------------------


def _cached(obj, key, build):
    """``obj._cache[key]``, built on first use."""
    if key not in obj._cache:
        obj._cache[key] = build()
    return obj._cache[key]


def _flat_supports(x, layer: str):
    """A layer's supports as (ptr, ground ids) arrays, cached on the instance
    or test distribution ``x``."""
    def build():
        sups = getattr(x, layer)
        sizes = np.fromiter(map(len, sups), np.int64, len(sups))
        flat = np.fromiter(itertools.chain.from_iterable(sups), np.int64, int(sizes.sum()))
        return np.concatenate([[0], np.cumsum(sizes)]), flat
    return _cached(x, f"flat_{layer}", build)


def _as_pairs(x: StavInstance):
    """The (a, s) pairs of the (v, a, s) triples by first appearance, the
    pair of each triple and the mass of each pair; cached."""
    def build():
        _, aa, ss, pp = x.vas_triples()
        ids, first = _group(aa, ss)
        order = np.argsort(first)
        pair = np.argsort(order)[ids]
        return (aa[first[order]], ss[first[order]], pair,
                np.bincount(pair, pp, minlength=len(first)))
    return _cached(x, "as_pairs", build)


def _local(n: int, g: np.ndarray, keys: tuple, w=None, first_seen: bool = False):
    """Number the distinct elements (key tuples) within each of n graphs.

    Returns each entry's element position within its graph g (-1 where the
    element has no positive mass under ``w``), the offsets of each graph's
    elements and their key arrays.  Elements are numbered in key order, or,
    with ``first_seen`` and entries grouped by graph, in the order of their
    first entries.
    """
    ids, first = _group(g, *keys)
    sel = (np.arange(len(first)) if w is None
           else np.flatnonzero(np.bincount(ids, w, minlength=len(first)) > 0))
    if first_seen:
        sel = sel[np.argsort(first[sel], kind="stable")]
    g_sel = g[first[sel]]
    ptr = np.concatenate([[0], np.cumsum(np.bincount(g_sel, minlength=n))])
    pos = np.full(len(first), -1, dtype=np.int64)
    pos[sel] = np.arange(len(sel)) - ptr[g_sel]
    return pos[ids], ptr, tuple(k[first[sel]] for k in keys)


def _local_reach_graphs(x: StavInstance) -> _Graphs:
    """Per s, the (a, v) marginal given s, on the a and v of positive mass.
    Each s holds its entries in (a, v) order, so that its mass is summed as
    a canonical sparse matrix would sum it."""
    def build():
        vas = x.vas_triples()
        vv, aa, ss, pp = (col[np.lexsort(vas[:3])] for col in vas)  # by (s, a, v)
        ra, a_ptr, a_ids = _local(x.n_s, ss, (aa,), pp)
        cv, v_ptr, v_ids = _local(x.n_s, ss, (vv,), pp)
        keep = (ra >= 0) & (cv >= 0)
        return _entry_graphs(x.n_s, ss[keep], ra[keep], cv[keep], pp[keep],
                             (a_ptr, *a_ids), (v_ptr, *v_ids))
    return _cached(x, "local_reach", build)


def _pair_graphs(n: int, g, a1, a2, p) -> _Graphs:
    """Per graph g < n, the (a1, a2) joint of entries (g, a1, a2, mass)
    grouped by graph, on the a of positive mass in id order."""
    pos, ptr, a_ids = _local(n, np.concatenate([g, g]),
                             (np.concatenate([a1, a2], dtype=np.int64),), np.concatenate([p, p]))
    r, c = np.split(pos, 2)
    keep = (r >= 0) & (c >= 0)
    rows = (ptr, *a_ids)
    return _entry_graphs(n, g[keep], r[keep], c[keep], p[keep], rows, rows)


def _vasa_v_graphs(x: StavInstance) -> _Graphs:
    """Per v, the (a1, a2) joint of the amplification given v, on the a of
    positive mass."""
    def build():
        va = x.vasa
        order = np.argsort(va.v_idx, kind="stable")
        return _pair_graphs(x.n_v, *(c[order] for c in (va.v_idx, va.a1_idx, va.a2_idx, va.probs)))
    return _cached(x, "vasa_v", build)


def _vas_a_graphs(x: StavInstance) -> _Graphs:
    """Per a, the bipartite joint of v against (a2, s) in the amplification
    given a1 = a: rows the v of positive mass, columns every (a2, s) pair
    (an (n, 2) id array) in order of first occurrence."""
    def build():
        va = x.vasa
        order = np.argsort(va.a1_idx, kind="stable")
        g, v, a2, s, p = (col[order] for col in (va.a1_idx, va.v_idx, va.a2_idx,
                                                 va.s_idx, va.probs))
        n_a = len(x.a_labels)
        rv, v_ptr, v_ids = _local(n_a, g, (v,), p)
        cp, c_ptr, c_ids = _local(n_a, g, (a2, s), first_seen=True)
        keep = rv >= 0
        return _entry_graphs(n_a, g[keep], rv[keep], cp[keep], p[keep], (v_ptr, *v_ids),
                             (c_ptr, np.column_stack(c_ids)))
    return _cached(x, "vas_a", build)


def _ground_t(x: StavInstance) -> sp.csr_matrix:
    """The binary (ground x T) containment incidence of the middle faces,
    cached."""
    def build():
        ptr, flat = _flat_supports(x, "t_supports")
        n_t = len(ptr) - 1
        n_g = max(len(x.ground_labels), int(flat.max(initial=-1)) + 1)
        ground_t = sp.csr_matrix((np.ones(len(flat), dtype=np.int64),
                                  (flat, np.repeat(np.arange(n_t), np.diff(ptr)))),
                                 shape=(n_g, n_t))
        ground_t.sum_duplicates()
        ground_t.data[:] = 1
        return ground_t
    return _cached(x, "ground_t", build)


def _sts_graphs(x: StavInstance, n: int, c_of: np.ndarray, ids: np.ndarray) -> _Graphs:
    """Pair graphs conditioned on the middle face containing a ground set, for
    n sets; set k is the ground ids ``ids[c_of == k]``.

    The selected t are those with mass that contain the set, weighted by
    their mass.  Their columns of ``sts.cond`` sum to C diag(w) C^T, taken
    on the live rows; their explicit pairs are added entry by entry.  The
    family's tables are the entries of C (live row, slot), the weights w
    (slot) and the pairs, grouped by set; the fill takes one matrix product
    per slot count in a batch, so that no graph's bits depend on the graphs
    beside it.  A set that no t with mass contains has no graph.
    """
    ground_t, cond, (p_t, p_i, p_j, p_p) = _ground_t(x), x.sts.cond, x.sts.pairs
    p_ptr = np.searchsorted(p_t, np.arange(len(x.t_probs) + 1))
    n_g = ground_t.shape[0]
    out = (ids < 0) | (ids >= n_g)
    dead = np.bincount(c_of[out], minlength=n) > 0
    c_in, g_in = c_of[~out], ids[~out]
    _, first = _group(c_in, g_in)
    need = sp.csr_matrix((np.ones(len(first), dtype=np.int64), (c_in[first], g_in[first])),
                         shape=(n, n_g))
    hits = (need @ ground_t).tocoo()
    size = np.bincount(c_in[first], minlength=n)
    sel = ((hits.data == size[hits.row]) & ~dead[hits.row]
           & (x.t_probs[hits.col] > 0))
    order = np.lexsort((hits.col[sel], hits.row[sel]))
    sc, st = hits.row[sel][order], hits.col[sel][order]
    w = x.t_probs[st] / np.bincount(sc, x.t_probs[st], minlength=n)[sc]
    n_sel = np.bincount(sc, minlength=n)
    slot = np.arange(len(sc)) - (np.cumsum(n_sel) - n_sel)[sc]
    ie, ib = _runs(cond.indptr, st)
    pe, pb = _runs(p_ptr, st)
    # live rows of each set: every s of its tables, in s order
    pos, s_ptr, (s_ids,) = _local(n, np.concatenate([sc[ib], sc[pb], sc[pb]]),
                                  (np.concatenate([cond.indices[ie], p_i[pe], p_j[pe]]),))
    li, pi, pj = np.split(pos, [len(ie), len(ie) + len(pe)])

    def ptr(sets):
        return np.concatenate([[0], np.cumsum(np.bincount(sets, minlength=n))])

    cond_e = (ptr(sc[ib]), li, slot[ib], cond.data[ie])
    slot_e = (ptr(sc), np.zeros(len(sc), dtype=np.int64), slot, w)
    pair_e = (ptr(sc[pb]), pi, pj, w[pb] * p_p[pe])

    def product(b, m, k):
        c = _scatter(cond_e, b, (m, k))
        return np.matmul(c * _scatter(slot_e, b, (1, k)), c.transpose(0, 2, 1))

    def fill(b, shape):
        # one product per slot count, so that no graph is padded with the
        # slots of another and its bits do not depend on the graphs beside it
        k_id, first = _group(n_sel[b])
        if len(first) == 1:
            dense = product(b, shape[0], int(n_sel[b[0]]))
        else:
            dense = np.empty((len(b), *shape))
            for i, k in enumerate(n_sel[b[first]].tolist()):
                sel = k_id == i
                dense[sel] = product(b[sel], shape[0], k)
        return dense + _scatter(pair_e, b, shape) if len(pe) else dense

    rows = (s_ptr, s_ids)
    return _Graphs(rows, rows, fill, (cond_e, slot_e, pair_e))


def derive_graph(x: StavInstance, kind: str, element=None):
    """Local views of the distributions as weighted or bipartite graphs."""
    if x.mode != "tabular":
        raise SizeCapError("derived graphs need a tabular instance")
    if kind == "reach":
        j = x.reach_joint()
        return BipartiteGraph(x.a_labels, x.v_labels, j.toarray())
    if kind in ("sts_a", "sts_av"):
        a_el, v_el = (element, None) if kind == "sts_a" else element
        need = list(x.a_supports[_find(x, "a_labels", a_el)])
        if kind == "sts_av":
            need.append(int(x.v_ground[_find(x, "v_labels", v_el)]))
        need = np.array(need, dtype=np.int64)
        graphs = _sts_graphs(x, 1, np.zeros(len(need), dtype=np.int64), need)
        if not len(graphs.live()):
            raise ZeroConditioning("conditioning event has zero probability")
        return WeightedGraph([x.s_labels[i] for i in graphs.rows[1]], graphs.joint(0))
    if kind in ("local_reach", "vasa_v", "vas_a"):
        layer, build = {"local_reach": ("s_labels", _local_reach_graphs),
                        "vasa_v": ("v_labels", _vasa_v_graphs),
                        "vas_a": ("a_labels", _vas_a_graphs)}[kind]
        k = _find(x, layer, element)
        graphs = build(x)
        if graphs.shapes[k, 0] == 0:
            raise ZeroConditioning(f"{layer[0]} element {element} has no mass")
        (r_ptr, r_ids), (c_ptr, c_ids) = graphs.rows, graphs.cols
        rows, cols = r_ids[r_ptr[k]:r_ptr[k + 1]], c_ids[c_ptr[k]:c_ptr[k + 1]]
        joint = graphs.joint(k)
        if kind == "vasa_v":
            return WeightedGraph([x.a_labels[i] for i in rows], joint)
        if kind == "vas_a":
            return BipartiteGraph([x.v_labels[i] for i in rows],
                                  [(x.a_labels[a2], x.s_labels[s]) for a2, s in cols], joint)
        full = np.zeros((len(x.a_labels), x.n_v))
        full[np.ix_(rows, cols)] = joint
        return BipartiteGraph(x.a_labels, x.v_labels, full)
    if kind == "t_lower":
        ti = _find(x, "t_labels", element)
        (t_ptr, t_flat), (a_ptr, a_flat) = (_flat_supports(x, f"{k}_supports") for k in "ta")
        n_a, n_g = len(a_ptr) - 1, int(max(t_flat.max(initial=-1), a_flat.max(initial=-1))) + 1
        in_t = _member(t_flat[t_ptr[ti]:t_ptr[ti + 1]], n_g)
        a_of = np.repeat(np.arange(n_a), np.diff(a_ptr))
        inside = np.bincount(a_of[~in_t[a_flat]], minlength=n_a) == 0
        a_in = np.flatnonzero(inside)
        if not len(a_in):
            raise ZeroConditioning(f"no A element inside {element}")
        # a drawn by its overall reach mass conditioned inside t, v uniform in a
        reach_mass = np.asarray(x.reach_joint().sum(axis=1)).ravel()
        w = reach_mass[a_in]
        w = w / w.sum()
        v_ids = np.flatnonzero(in_t)
        hit = inside[a_of]
        row = (np.cumsum(inside) - 1)[a_of[hit]]
        j = np.zeros((len(a_in), len(v_ids)))
        j[row, (np.cumsum(in_t) - 1)[a_flat[hit]]] = (w / np.diff(a_ptr)[a_in])[row]
        return BipartiteGraph([x.a_labels[i] for i in a_in],
                              [x.ground_labels[i] for i in v_ids], j)
    raise HdxError(f"unknown graph kind {kind!r}")


def _find(x: StavInstance, layer: str, element) -> int:
    """Position of ``element`` in a layer's label list (first occurrence)."""
    pos = _cached(x, ("pos", layer), lambda: {
        lab: i for i, lab in reversed(list(enumerate(getattr(x, layer))))})
    try:
        return pos[element]
    except (KeyError, TypeError):
        raise ZeroConditioning(f"element {element!r} not in layer") from None


# -- goodness check ------------------------------------------------------------------


@dataclass
class GoodnessReport:
    a1_reach_lambda: float
    a2a_min_edge_expansion: float
    a2a_method: str
    a2b_max_lambda: float
    a2b_method: str
    a3a_max_lambda: float
    a3b_max_lambda: float
    a4_max_av_lambda: float
    a4_spot_check_failures: int
    a5_min_conditional: float
    inferred_gamma: float
    gamma: float
    r: float
    passes: dict
    overall_pass: bool
    notes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {}
        for k, v in self.__dict__.items():
            if isinstance(v, dict):
                out[k] = {kk: (bool(vv) if isinstance(vv, (bool, np.bool_)) else vv)
                          for kk, vv in v.items()}
            elif isinstance(v, (bool, np.bool_)):
                out[k] = bool(v)
            else:
                out[k] = float(v) if isinstance(v, (int, float, np.floating)) else v
        return out


def _assemble_report(vals, gamma, r) -> GoodnessReport:
    a4_delta = r * gamma
    a4_sufficient = vals["a4_max_av_lambda"] ** 2 <= (8.0 / 27.0) * a4_delta
    passes = {
        "A1": vals["a1_reach_lambda"] <= math.sqrt(gamma) + 1e-9,
        "A2a": vals["a2a_min_edge_expansion"] >= 1.0 / 3.0 - 1e-9,
        "A2b": vals["a2b_max_lambda"] <= gamma + 1e-9,
        "A3a": vals["a3a_max_lambda"] <= gamma + 1e-9,
        "A3b": vals["a3b_max_lambda"] <= math.sqrt(gamma) + 1e-9,
        "A4": bool(a4_sufficient and vals["a4_spot_check_failures"] == 0),
        "A5": vals["a5_min_conditional"] >= 0.5 - 1e-9,
    }
    inferred = max(vals["a1_reach_lambda"] ** 2, vals["a2b_max_lambda"],
                   vals["a3a_max_lambda"], vals["a3b_max_lambda"] ** 2)
    overall = (passes["A1"] and passes["A2a"] and passes["A2b"] and passes["A3a"]
               and passes["A3b"] and (passes["A4"] or passes["A5"]))
    return GoodnessReport(gamma=gamma, r=r, passes=passes, overall_pass=overall,
                          inferred_gamma=inferred, **vals)


def goodness_check(x, gamma: float, r: float = 1.0) -> GoodnessReport:
    """Measure every goodness assumption and compare at the given gamma, r."""
    if isinstance(x, StructuredHdxStav):
        return _goodness_structured(x, gamma, r)
    return _goodness_tabular(x, gamma, r)


def _sampler_spot_checks(joint: np.ndarray, delta: float, n_checks: int,
                         rng) -> int:
    """Direct checks of the delta-sampling property on right subsets: every
    nonempty one where there are at most ``_EXHAUSTIVE_COLUMNS`` right
    vertices, which draws nothing from ``rng`` and leaves its state as it
    was, else ``n_checks`` random ones drawn from ``rng``."""
    pi_l = joint.sum(axis=1)
    pi_r = joint.sum(axis=0)
    nr = joint.shape[1]
    if nr <= _EXHAUSTIVE_COLUMNS:
        # every nonempty subset, one bit per right vertex
        members = (np.arange(1, 2 ** nr)[:, None] >> np.arange(nr)) & 1 == 1
    else:
        # row k holds the draws of rng.random(nr) < rng.uniform(0.2, 0.8),
        # in the order a loop over k would make them
        u = rng.random((n_checks, nr + 1))
        members = u[:, :nr] < 0.2 + (0.8 - 0.2) * u[:, nr:]
        members = members[members.any(axis=1)]
    members = members[members @ pi_r >= delta]
    cond = (joint @ members.T) / pi_l[:, None]
    good_mass = pi_l @ (cond >= delta / 3.0)
    return int(np.count_nonzero(good_mass < 1.0 / 3.0 - 1e-12))


def _two_colourable(graphs: _Graphs, ids: np.ndarray) -> np.ndarray:
    """Whether the support of each square graph ``ids`` has no loop and no odd
    cycle: one connected-components pass over the bipartite double covers of
    all of them, where a vertex and its copy meet exactly on odd cycles (a
    loop is one)."""
    ptr, r, c, p = graphs.entries
    idx, b = _runs(ptr, ids)
    sizes = graphs.shapes[ids, 0]
    start = (np.cumsum(sizes) - sizes)[b]
    u, w, n, on = start + r[idx], start + c[idx], int(sizes.sum()), p[idx] > 0
    cover = sp.csr_matrix((np.ones(2 * int(on.sum())), (np.concatenate([u[on], n + u[on]]),
                                                        np.concatenate([n + w[on], w[on]]))),
                          shape=(2 * n, 2 * n))
    comp = csgraph.connected_components(cover, directed=False)[1]
    odd = np.repeat(np.arange(len(ids)), sizes)[comp[:n] == comp[n:]]
    return np.bincount(odd, minlength=len(ids)) == 0


def _goodness_tabular(x: StavInstance, gamma, r) -> GoodnessReport:
    if x.n_s > 50_000 or len(x.vasa) > TABULAR_TABLE_CAP:
        raise SizeCapError("instance too large for the exhaustive goodness check")
    notes = {}
    reach = x.reach_joint()
    a1 = bipartite_lambda(reach, _marginal(reach, 1), _marginal(reach, 0)).lambda_bip
    rc = reach.tocoo()
    ra, rv = rc.row[rc.data > 0], rc.col[rc.data > 0]

    # A2a: edge expansion of every a-conditioned pair graph, brute force up
    # to the vertex cap, else the Cheeger lower bound (1 - lambda2) / 2
    a_ptr, a_ground = _flat_supports(x, "a_supports")
    n_a = len(x.a_labels)
    graphs = _sts_graphs(x, n_a, np.repeat(np.arange(n_a), np.diff(a_ptr)), a_ground)
    m = graphs.shapes[:, 0]
    small = np.flatnonzero((m > 0) & (m <= BRUTE_FORCE_VERTICES))
    large = np.flatnonzero(m > BRUTE_FORCE_VERTICES)
    phis = [np.inf]
    # the minimum over the classes is the minimum over all
    for _, _, stack in _distinct_batches(graphs, small):
        pi = stack.sum(axis=2)
        _check_square_stack(stack, pi)
        phis += [_min_cut_ratio(j, p)[0] for j, p in zip(stack, pi)]
    if len(large):
        phis.append(float(np.min((1.0 - graphs.spectra(large)[0]) / 2.0)))
    a2a_method = "cheeger_lower_bound" if len(large) else "brute_force"

    # A2b: two-sided expansion of every (a, v)-conditioned pair graph, (a, v)
    # over the support of the reach graph
    idx, pair = _runs(a_ptr, ra)
    graphs = _sts_graphs(x, len(ra), np.concatenate([pair, np.arange(len(ra))]),
                         np.concatenate([a_ground[idx], x.v_ground[rv]]))
    live = graphs.live()
    lam2, lam_min = graphs.spectra(live)
    a2b = float(np.max(np.maximum(np.abs(lam2), np.abs(lam_min)), initial=0.0))
    # a graph the dense solve does not admit went to Lanczos
    a2b_iterative = not _solves_dense(graphs.shapes[live].max(axis=0, initial=0))

    # A3a: each v-conditioned amplification graph, two-sided; a graph with a
    # 2-colourable support is read as bipartite, where its spectrum is +-sigma
    # and the bipartite value sigma_2 is lambda2
    graphs = _vasa_v_graphs(x)
    live = graphs.live()
    lam2, lam_min = graphs.spectra(live)
    a3a = float(np.max(np.where(_two_colourable(graphs, live), lam2,
                                np.maximum(np.abs(lam2), np.abs(lam_min))), initial=0.0))

    # A3b: each a-conditioned bipartite amplification graph
    graphs = _vas_a_graphs(x)
    a3b = float(np.max(graphs.spectra(graphs.live(), bipartite=True), initial=0.0))

    # A4: local reach graphs as samplers; the spot checks draw from one
    # stream, s by s
    graphs = _local_reach_graphs(x)
    empty = np.flatnonzero(graphs.shapes[:, 0] == 0)
    if len(empty):
        raise ZeroConditioning(f"s element {x.s_labels[empty[0]]} has no mass")
    a4 = float(np.max(graphs.spectra(np.arange(x.n_s), bipartite=True), initial=0.0))
    # a graph of at most _EXHAUSTIVE_COLUMNS columns is checked on every
    # subset and draws nothing, so it is checked once per class;
    # a wider one draws from the one stream, s by s
    rng = np.random.default_rng(_SPOT_CHECK_SEED)
    delta = r * gamma
    wide = graphs.shapes[:, 1] > _EXHAUSTIVE_COLUMNS
    narrow = np.flatnonzero(~wide)
    spot_failures = 0
    cls, first = graphs.classes
    count = np.bincount(cls[narrow], minlength=len(first))
    for _, batch, joints in _distinct_batches(graphs, narrow, graphs.joints):
        spot_failures += sum(int(n) * _sampler_spot_checks(j, delta, _SPOT_CHECKS, rng)
                             for j, n in zip(joints, count[batch]))
    spot_failures += sum(_sampler_spot_checks(graphs.joint(si), delta, _SPOT_CHECKS, rng)
                         for si in np.flatnonzero(wide))

    # A5: weighted conditional of landing in the reach of a inside s, over
    # the (a, s) pairs of positive mass
    vm = x.v_marginal()
    s_ptr, s_ground = _flat_supports(x, "s_supports")
    ground_to_v = np.full(max(int(s_ground.max(initial=-1)),
                              int(x.v_ground.max(initial=-1))) + 1, -1)
    ground_to_v[x.v_ground] = np.arange(x.n_v)
    pa, ps, _, mass = _as_pairs(x)
    pa, ps = pa[mass > 0], ps[mass > 0]
    idx, k = _runs(s_ptr, ps)
    vi = ground_to_v[s_ground[idx]]
    k, vi = k[vi >= 0], vi[vi >= 0]  # outside the v-layer: zero mass
    hit = _search(np.sort(ra * x.n_v + rv), pa[k] * x.n_v + vi) >= 0
    den = np.bincount(k, vm[vi], minlength=len(pa))
    num = np.bincount(k, vm[vi] * hit, minlength=len(pa))
    a5 = np.min(np.divide(num, den, out=np.zeros(len(pa)), where=den > 0), initial=np.inf)

    vals = dict(a1_reach_lambda=a1, a2a_min_edge_expansion=float(min(phis)),
                a2a_method=a2a_method, a2b_max_lambda=a2b,
                a2b_method="iterative" if a2b_iterative else "dense",
                a3a_max_lambda=a3a, a3b_max_lambda=a3b,
                a4_max_av_lambda=a4, a4_spot_check_failures=spot_failures,
                a5_min_conditional=float(a5))
    rep = _assemble_report(vals, gamma, r)
    rep.notes = notes
    return rep


# -- structured goodness path -----------------------------------------------------


def _goodness_structured(x: StructuredHdxStav, gamma, r) -> GoodnessReport:
    c, d, l = x.complex, x.d, x.l
    notes = {"path": "structured (containment-mass reductions in a pure complex)"}
    # the automorphisms of a uniform complete complex act transitively on
    # every level, so one representative face stands for all
    dedupe = c.uniform_complete
    if dedupe:
        notes["orbits"] = ("one representative a-face (A2a, A3b) and vertex (A3a), "
                           "exact A5 ratio: all faces of a level are isomorphic")
    lev_t = c.level(l)
    lev_a = c.level(l - 1)

    # A1: reach graph assembled from level l
    reach = _reach(_drop_one(lev_t, lev_a), lev_t.measure, (lev_a.size, c.n_vertices))
    a1 = bipartite_lambda(reach, _marginal(reach, 1), _marginal(reach, 0)).lambda_bip

    # A2a and A3b: the lambda2 of each a-face's pair operator, T, and of the
    # small-side two-step of its bipartite amplification graph, W
    blocks = _structured_a_graphs(c, d, l, reach, 1 if dedupe else lev_a.size)
    l2_t, l2_w = np.max([[np.max(g.spectra(g.live())[0]) for g in gs] for _, *gs in blocks], 0)
    min_phi = (1.0 - float(l2_t)) / 2.0
    a3b = math.sqrt(max(float(l2_w), 0.0))
    notes["a2a"] = "lambda2 via the small-side pair operator; Cheeger lower bound"
    notes["a3b"] = "lambda via the small-side two-step of the bipartite graph"

    # A2b: conditioned on (a, v) the two tops are drawn independently, so the
    # pair operator is rank one and its nontrivial spectrum is exactly zero.
    a2b = 0.0
    notes["a2b"] = "structural (rank-one independent pair)"

    # A3a: v-conditioned amplification graph = disjointness walk in the link
    # of v.  On a uniform complete complex it is the Kneser graph K(n-1, l),
    # whose normalised eigenvalues are (-1)^i C(n-1-l-i, l-i) / C(n-1-l, l)
    # for i = 0..l; the largest magnitude past i = 0 is the value.
    if dedupe:
        m = c.n_vertices - 1
        a3a = max(math.comb(m - l - i, l - i) / math.comb(m - l, l) for i in range(1, l + 1))
    else:
        a3a = max(float(np.max(np.abs(graphs.spectra(graphs.live())), initial=0.0))
                  for _, graphs in _structured_vasa_v_graphs(c, l))

    # A4: the local reach graph depends only on (d, l) in a pure complex
    a4, spot_failures = _structured_a4(d, l, r * gamma)
    notes["a4"] = "canonical split graph on d+1 labeled vertices"

    # A5: the reach of a inside s is exactly s minus a.  With a uniform
    # vertex measure the conditional is the exact count ratio; otherwise we
    # bound it from below without enumerating the top level.
    if dedupe:
        a5 = (d + 1 - l) / (d + 1)
        notes["a5"] = "exact ratio |s minus a| / |s|"
    else:
        pi0 = np.zeros(c.n_vertices)
        lev0 = c.level(0)
        pi0[lev0.faces[:, 0]] = lev0.measure
        m_low = float(np.sum(np.sort(pi0[pi0 > 0])[: d + 1 - l]))
        m_a = pi0[lev_a.faces].sum(axis=1)
        a5 = float(np.min(m_low / (m_a + m_low)))
        notes["a5"] = "lower bound from the lightest possible complement"

    vals = dict(a1_reach_lambda=a1, a2a_min_edge_expansion=float(min_phi),
                a2a_method="cheeger_lower_bound", a2b_max_lambda=a2b,
                a2b_method="structural-rank-one", a3a_max_lambda=a3a,
                a3b_max_lambda=a3b, a4_max_av_lambda=a4,
                a4_spot_check_failures=spot_failures,
                a5_min_conditional=float(a5))
    rep = _assemble_report(vals, gamma, r)
    rep.notes = notes
    return rep


def _blocks(sizes: np.ndarray):
    """[lo, hi) ranges of consecutive elements whose sizes add up to at most
    ``_GATHER_ENTRIES``, or of one element where that alone is more."""
    ends, lo = np.cumsum(sizes), 0
    while lo < len(sizes):
        hi = int(np.searchsorted(ends, ends[lo] - sizes[lo] + _GATHER_ENTRIES, "right"))
        yield lo, max(hi, lo + 1)
        lo = max(hi, lo + 1)


def _structured_a_graphs(c: Complex, d: int, l: int, reach, n: int):
    """Families of the pair operator T and the amplification two-step W of
    the first n a-faces, on the v of their rows of the reach CSR matrix, in
    blocks: yields (first a-face, T, W).  Off the diagonal both hold the
    containment mass of a + v1 + v2, looked up once per unordered pair and
    mirrored, W's scaled by C(d-l-1, l) / C(d-l, l); on it that of a + v."""
    sizes = np.diff(reach.indptr[:n + 1])
    for lo, hi in _blocks(sizes * sizes):
        m = sizes[lo:hi]
        verts = reach.indices[reach.indptr[lo]:reach.indptr[hi]]
        i, j = _segment_pairs(m, m)
        g = np.repeat(np.arange(hi - lo), m * m)
        a, start = c.level(l - 1).faces[lo + g], (np.cumsum(m) - m)[g]
        li, lj = i - start, j - start
        diag, upper, lower = i == j, i < j, i > j
        mass = np.empty(len(i))
        mass[diag] = c.containment_mass_rows(
            np.sort(np.column_stack([a[diag], verts[i[diag]]]), axis=1))
        mass[upper] = c.containment_mass_rows(
            np.sort(np.column_stack([a[upper], verts[i[upper]], verts[j[upper]]]), axis=1))
        # graph g's entries run row by row from its first, so (v2, v1) sits
        # at the offset of (v1, v2) with the local row and column swapped
        mirror = (np.cumsum(m * m) - m * m)[g] + lj * m[g] + li
        mass[lower] = mass[mirror[lower]]
        rows = (np.concatenate([[0], np.cumsum(m)]), verts)
        w_mass = np.where(diag, mass, mass * (math.comb(d - l - 1, l) / math.comb(d - l, l)))
        yield (lo, *(_entry_graphs(hi - lo, g, li, lj, p, rows, rows)
                     for p in (mass, w_mass)))


def _structured_vasa_v_graphs(c: Complex, l: int):
    """Per vertex v, the disjoint-pair graph in the link of v: the splits
    (a1 | a2) of the other 2l vertices of each 2l-face through v, weighted by
    the face's measure; yields (first vertex, family) in blocks."""
    lev, lev_a, m = c.level(2 * l), c.level(l - 1), 2 * l + 1
    keep, rest = position_subsets(2 * l, l)
    verts = lev.faces.ravel()
    order = np.argsort(verts, kind="stable")
    n_faces = np.bincount(verts, minlength=c.n_vertices)
    ptr = np.concatenate([[0], np.cumsum(n_faces)])
    for lo, hi in _blocks(n_faces * len(keep)):
        # each (face, position of v) pair of the block, and its other vertices
        f, q = np.divmod(order[ptr[lo]:ptr[hi]], m)
        other = lev.faces[f][np.arange(m) != q[:, None]].reshape(len(f), 2 * l)
        g = np.repeat(np.arange(hi - lo), n_faces[lo:hi] * len(keep))
        a1, a2 = (lev_a.sub_faces(other, pat).T.ravel() for pat in (keep, rest))
        yield lo, _pair_graphs(hi - lo, g, a1, a2, np.repeat(lev.measure[f], len(keep)))


def _structured_a4(d: int, l: int, delta: float) -> tuple[float, int]:
    a_pat, outside = position_subsets(d + 1, l)
    joint = np.zeros((len(a_pat), d + 1))
    joint[np.arange(len(a_pat))[:, None], outside] = 1.0 / (len(a_pat) * (d + 1 - l))
    lam = bipartite_lambda(joint, joint.sum(axis=1), joint.sum(axis=0)).lambda_bip
    rng = np.random.default_rng(_SPOT_CHECK_SEED)
    return lam, _sampler_spot_checks(joint, delta, _SPOT_CHECKS, rng)


# -- JSON interchange ----------------------------------------------------------------


def _cut(t_idx, n_t: int, *cols) -> list:
    """Parallel arrays sorted by ``t_idx`` cut into one tuple of arrays per t."""
    bounds = np.searchsorted(t_idx, np.arange(1, n_t))
    return list(zip(*(np.split(col, bounds) for col in cols)))


def _read_tables(tables: list, what: str):
    """Per-t JSON lists of [i, j, p] rows as flat t-sorted arrays (t, i, j, p);
    the p of every t must sum to 1."""
    sizes = np.fromiter(map(len, tables), np.int64, len(tables))
    rows = list(itertools.chain.from_iterable(tables))
    t_idx = np.repeat(np.arange(len(sizes)), sizes)
    p = np.array([r[2] for r in rows], dtype=float)
    sums = np.bincount(t_idx, weights=p, minlength=len(sizes))
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-8)
    if bad.size:
        raise MarginalMismatch(f"{what} at t={bad[0]} sums to {sums[bad[0]]:.10g}")
    return (t_idx, np.array([r[0] for r in rows], dtype=np.int64),
            np.array([r[1] for r in rows], dtype=np.int64), p)


def _json_rows(*cols) -> np.ndarray:
    """Parallel arrays as one object array of rows of Python ints and floats,
    whose ``tolist`` is the JSON row lists."""
    return np.column_stack([np.asarray(col, dtype=object) for col in cols])


def stav_to_json_dict(x: StavInstance) -> dict:
    def lab(v):
        return list(v) if isinstance(v, tuple) else v

    n_t = len(x.t_probs)
    st = x.st_joint.tocoo()
    vasa, av = x.vasa, x.av
    t, i, j, p = x.sts.all_pairs()
    return {
        "provenance": x.provenance,
        "ground": [lab(v) for v in x.ground_labels],
        "v_ground": [int(i) for i in x.v_ground],
        "V": [lab(v) for v in x.v_labels],
        "A": [{"label": lab(a), "support": list(s)}
              for a, s in zip(x.a_labels, x.a_supports)],
        "T": [{"label": lab(t), "support": list(s)}
              for t, s in zip(x.t_labels, x.t_supports)],
        "S": [{"label": lab(s), "support": list(sup)}
              for s, sup in zip(x.s_labels, x.s_supports)],
        "st_joint": _json_rows(st.row, st.col, st.data).tolist(),
        "av_tables": [rows.tolist() for (rows,) in
                      _cut(av.t_idx, n_t, _json_rows(av.a_idx, av.v_idx, av.probs))],
        "sts_pairs": [rows.tolist() for (rows,) in _cut(t, n_t, _json_rows(i, j, p))],
        "vasa": _json_rows(vasa.v_idx, vasa.a1_idx, vasa.s_idx, vasa.a2_idx,
                           vasa.probs).tolist(),
    }


def stav_from_json_dict(data: dict) -> StavInstance:
    """Load a custom tabular instance and validate its defining invariants."""
    def unlab(v):
        return tuple(v) if isinstance(v, list) else v

    v_labels = [unlab(v) for v in data["V"]]
    ground_labels = ([unlab(v) for v in data["ground"]]
                     if "ground" in data else list(v_labels))
    v_ground = (np.asarray(data["v_ground"], dtype=np.int64)
                if "v_ground" in data else np.arange(len(v_labels)))
    a_labels = [unlab(e["label"]) for e in data["A"]]
    t_labels = [unlab(e["label"]) for e in data["T"]]
    s_labels = [unlab(e["label"]) for e in data["S"]]
    a_supports = [tuple(e["support"]) for e in data["A"]]
    t_supports = [tuple(e["support"]) for e in data["T"]]
    s_supports = [tuple(e["support"]) for e in data["S"]]
    st_rows = data["st_joint"]
    st = _joint([i for i, _, _ in st_rows], [j for _, j, _ in st_rows],
                [p for _, _, p in st_rows], (len(s_labels), len(t_labels)))
    av = AvTable(*_read_tables(data["av_tables"], "(a,v) table"))
    sts = STSTable.from_pairs(np.asarray(st.sum(axis=0)).ravel(), len(s_labels),
                              *_read_tables(data["sts_pairs"], "pair table"))
    vrows = data["vasa"]
    vasa = VasaTable(np.array([r[0] for r in vrows], dtype=np.int64),
                     np.array([r[1] for r in vrows], dtype=np.int64),
                     np.array([r[2] for r in vrows], dtype=np.int64),
                     np.array([r[3] for r in vrows], dtype=np.int64),
                     np.array([r[4] for r in vrows], dtype=float))
    inst = StavInstance(provenance=data.get("provenance", "custom"),
                        ground_labels=ground_labels, v_labels=v_labels,
                        v_ground=v_ground,
                        a_labels=a_labels, t_labels=t_labels,
                        s_labels=s_labels, a_supports=a_supports,
                        t_supports=t_supports, s_supports=s_supports,
                        st_joint=st, av=av, sts=sts, vasa=vasa)
    rep = invariant_report(inst)
    if not rep.passed(tol=1e-7, uniform_tol=1e-6):
        raise MarginalMismatch(f"instance violates defining invariants: "
                              f"{rep.to_json_dict()}")
    return inst


def save_stav(x: StavInstance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(stav_to_json_dict(x), fh)
        fh.write("\n")


def load_stav(path: str) -> StavInstance:
    with open(path) as fh:
        return stav_from_json_dict(json.load(fh))

