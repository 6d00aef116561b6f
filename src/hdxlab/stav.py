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
Builders of independent pair tables write their (S x T) main distribution as
one sparse joint, usually a block of the containment joint
``walks._containment_joint``, and hand it to ``STSTable.from_joint``.  The
(a, v) layer given t is one flat table sorted by t, ``AvTable``, and the
amplification table one flat ``VasaTable``.

The local graphs of the goodness checker (per s, v, a or conditioning set)
are built a kind at a time from these tables, grouped once per instance and
cached on it, and solved in stacked batches by ``spectra._stacked_spectra``;
``derive_graph`` reads one graph of the same family.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .complexes import Complex, _group, position_subsets
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
    _check_square_stack,
    _min_cut_ratio,
    _runs,
    _scatter,
    _shape_batches,
    _stacked_spectra,
    bipartite_lambda,
    square_lambda,
)
from .walks import BipartiteGraph, WeightedGraph, _containment_joint, neighborhood_system

TABULAR_S_CAP = 200_000
TABULAR_TABLE_CAP = 4_000_000


# -- distribution containers ---------------------------------------------------


@dataclass
class STSTable:
    """Symmetric joint over (s1, t, s2), factored through the middle face.

    ``tables[ti]`` is either ("indep", s_idx, cond) for a conditionally
    independent pair, or ("pairs", i_idx, j_idx, p) for an explicit symmetric
    pair table (p sums to 1 within each t).
    """

    t_probs: np.ndarray
    tables: list
    n_s: int

    @classmethod
    def from_joint(cls, st) -> "STSTable":
        """Independent pair tables of an (S x T) joint: t by its column mass,
        then two independent s from its column.  A t without mass gets an
        empty table."""
        stc = sp.csc_matrix(st)
        stc.sum_duplicates()
        t_probs = np.asarray(stc.sum(axis=0)).ravel()
        ptr = stc.indptr
        tables = [("indep", stc.indices[a:b].astype(np.int64),
                   stc.data[a:b] / pt if pt > 0 else np.empty(0))
                  for a, b, pt in zip(ptr[:-1], ptr[1:], t_probs)]
        return cls(t_probs=t_probs, tables=tables, n_s=stc.shape[0])

    def s_marginal(self) -> np.ndarray:
        out = np.zeros(self.n_s)
        for pt, tab in zip(self.t_probs, self.tables):
            if tab[0] == "indep":
                _, s_idx, cond = tab
                np.add.at(out, s_idx, pt * cond)
            else:
                _, i_idx, j_idx, p = tab
                np.add.at(out, i_idx, pt * p)
        return out

    def pair_arrays(self, ti: int):
        """Explicit (i, j, p) arrays of the conditional pair joint at t."""
        tab = self.tables[ti]
        if tab[0] == "pairs":
            return tab[1], tab[2], tab[3]
        _, s_idx, cond = tab
        i = np.repeat(s_idx, len(s_idx))
        j = np.tile(s_idx, len(s_idx))
        p = np.outer(cond, cond).ravel()
        return i, j, p


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
    t_probs: np.ndarray
    st_joint: sp.csr_matrix  # (|S|, |T|) joint of the main distribution
    av: AvTable
    sts: STSTable
    vasa: VasaTable
    meta: dict = field(default_factory=dict)
    mode: str = "tabular"

    # -- derived marginals (cached) -------------------------------------------

    def __post_init__(self):
        self._cache = {}

    @property
    def n_s(self):
        return len(self.s_labels)

    @property
    def n_v(self):
        return len(self.v_labels)

    def s_probs(self) -> np.ndarray:
        if "s_probs" not in self._cache:
            self._cache["s_probs"] = np.asarray(self.st_joint.sum(axis=1)).ravel()
        return self._cache["s_probs"]

    def v_marginal(self) -> np.ndarray:
        if "v_marginal" not in self._cache:
            av = self.av
            self._cache["v_marginal"] = np.bincount(
                av.v_idx, weights=self.t_probs[av.t_idx] * av.probs, minlength=self.n_v)
        return self._cache["v_marginal"]

    def reach_joint(self) -> sp.csr_matrix:
        """Marginal joint over (a, v)."""
        if "reach" not in self._cache:
            self._cache["reach"] = _reach(self.av, self.t_probs,
                                          (len(self.a_labels), self.n_v))
        return self._cache["reach"]

    def vas_triples(self):
        """Arrays (v_idx, a_idx, s_idx, p) of the (v, a, s) marginal: per t,
        every (a, v) entry against every s with mass on t, (a, v) major."""
        if "vas" not in self._cache:
            st = self.st_joint.tocsc()
            av = self.av
            e, k = _segment_pairs(np.bincount(av.t_idx, minlength=st.shape[1]),
                                  np.diff(st.indptr))
            self._cache["vas"] = (av.v_idx[e], av.a_idx[e], st.indices[k],
                                  av.probs[e] * st.data[k])
        return self._cache["vas"]


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
    return [tuple(int(v) for v in row) for row in rows]


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
    return _accumulate((av.a_idx, av.v_idx, t_probs[av.t_idx] * av.probs), shape)


def _restricted_joint(c: Complex, k: int, l: int, s_keep, t_keep) -> sp.csr_matrix:
    """Rows ``s_keep`` and columns ``t_keep`` of the X(k) x X(l) containment
    joint, each column with mass rescaled to the level measure of its t,
    renormalised over those columns."""
    st = _containment_joint(c, k, l)[s_keep][:, t_keep]
    col_tot = np.asarray(st.sum(axis=0)).ravel()
    w = np.where(col_tot > 0, c.level(l).measure[t_keep], 0.0)
    scale = np.divide(w, col_tot * w.sum(), out=np.zeros(len(w)), where=col_tot > 0)
    return (st @ sp.diags(scale)).tocsr()


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
    a_pat, a_of = np.unique(np.concatenate([a1_pat, a2_pat]), axis=0, return_inverse=True)
    a1_of, a2_of = np.split(a_of.ravel(), 2)
    a_sub = lev_a.sub_faces(lev_s.faces, a_pat)
    vasa = VasaTable(lev_s.faces[:, v_pat[:, 0]].ravel().astype(np.int64),
                     a_sub[a1_of].T.ravel(),
                     np.repeat(np.arange(lev_s.size), len(v_pat)),
                     a_sub[a2_of].T.ravel(),
                     np.repeat(lev_s.measure / per_s_vasa, len(v_pat)))

    v_labels = [int(v) for v in lev_v.faces[:, 0]]
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
        t_probs=sts.t_probs, st_joint=st, av=_drop_one(lev_t, lev_a), sts=sts,
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
    col = np.asarray(c.coloring)
    ij = sorted(I | J)

    lev_k = c.level(k)
    s_keep = np.flatnonzero(np.isin(col[lev_k.faces], ij).sum(axis=1) == 2 * l)
    if not len(s_keep):
        raise ParameterRange("no k-face carries both color sets")
    s_rows = lev_k.faces[s_keep]

    # t carries one of the two color sets and one color outside both
    lev_t = c.level(l)
    n_i = np.isin(col[lev_t.faces], sorted(I)).sum(axis=1)
    n_j = np.isin(col[lev_t.faces], sorted(J)).sum(axis=1)
    t_keep = np.flatnonzero(((n_i == l) & (n_j == 0)) | ((n_j == l) & (n_i == 0)))
    if not len(t_keep):
        raise ParameterRange("no l-face matches the color pattern")
    t_rows = lev_t.faces[t_keep]

    # A: the (l-1)-faces colored I or J; V: the vertices colored outside both.
    # a_rank and v_rank map level positions and vertex ids to layer positions.
    lev_a = c.level(l - 1)
    a_keep = np.flatnonzero(np.isin(col[lev_a.faces], sorted(I)).all(axis=1)
                            | np.isin(col[lev_a.faces], sorted(J)).all(axis=1))
    a_rank = np.full(lev_a.size, -1, dtype=np.int64)
    a_rank[a_keep] = np.arange(len(a_keep))
    v_in = ~np.isin(col, ij)
    v_rank = np.cumsum(v_in) - 1
    v_labels = [int(v) for v in np.flatnonzero(v_in)]

    # (s, t) joint: P(t) conditional measure, P(s | t) prop to level measure
    st = _restricted_joint(c, k, l, s_keep, t_keep)
    sts = STSTable.from_joint(st)
    if not np.all(sts.t_probs > 0):
        raise ParameterRange("some t-face extends to no valid k-face")

    # (a, v) given t is deterministic: a the colored part of t, v the rest
    inside = np.isin(col[t_rows], ij)
    av = AvTable(t_idx=np.arange(len(t_rows)),
                 a_idx=a_rank[lev_a.index_rows(t_rows[inside].reshape(-1, l))],
                 v_idx=v_rank[t_rows[~inside]],
                 probs=np.ones(len(t_rows)))

    # amplification: deterministic colored subfaces, v from the (v | s)
    # marginal, its (s, v) entries in the order the (s, t) entries meet them
    stc = st.tocoo()
    sv, first, ids = np.unique(stc.row * len(v_labels) + av.v_idx[stc.col],
                               return_index=True, return_inverse=True)
    order = np.argsort(first)
    p_sv = np.bincount(ids.ravel(), weights=stc.data)[order] / 2.0
    s_of, v_of = np.divmod(sv[order], len(v_labels))
    a_i, a_j = (a_rank[lev_a.index_rows(s_rows[np.isin(col[s_rows], sorted(C))]
                                        .reshape(-1, l))] for C in (I, J))
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
        t_probs=sts.t_probs, st_joint=st, av=av, sts=sts, vasa=vasa,
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
    st = _accumulate((lev_z.sub_faces(u.faces, z_pat).ravel(),
                      lev_t.sub_faces(u.faces, t_pat).ravel(),
                      np.tile(u.measure / len(z_pat), len(z_pat))),
                     (lev_z.size, lev_t.size))
    sts = STSTable.from_joint(st)

    if mode == "complement":
        # the two balls come from disjoint k-faces of the link of t
        u = c.level(l + 2 * k + 2)
        t_pat, z1_pat, z2_pat = position_subsets(l + 2 * k + 3, l + 1, k + 1)
        t_of = lev_t.sub_faces(u.faces, t_pat).ravel()
        z1, z2 = (lev_z.sub_faces(u.faces, pat).ravel() for pat in (z1_pat, z2_pat))
        p = np.tile(u.measure, len(t_pat)) / (len(t_pat) * lev_t.measure[t_of])
        order = np.lexsort((z2, z1, t_of))
        sts.tables = [("pairs", *tab) for tab in
                      _cut(t_of[order], lev_t.size, z1[order], z2[order], p[order])]

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
        t_probs=sts.t_probs, st_joint=st, av=_drop_one(lev_t, lev_a), sts=sts,
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
    tabs = x.sts.tables
    sizes = [len(tab[1]) for tab in tabs]
    t_of = np.repeat(np.arange(n_t), sizes)
    i_of = np.concatenate([np.empty(0, np.int64)] + [tab[1] for tab in tabs])
    w = np.concatenate([np.empty(0)] + [tab[-1] for tab in tabs])  # cond or p
    pair = np.repeat(np.array([tab[0] == "pairs" for tab in tabs], dtype=bool), sizes)
    j_of = np.concatenate([np.empty(0, np.int64)]
                          + [tab[2] for tab in tabs if tab[0] == "pairs"])
    sym_dev = _max_gap((n_t, n_s, n_s), (t_of[pair], i_of[pair], j_of), w[pair],
                       (t_of[pair], j_of, i_of[pair]), w[pair])
    # (s, t) marginal of the pair distribution vs the main distribution
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
    key_b = np.ravel_multi_index(idx_b, dims)
    keys = np.union1d(key_a, key_b)
    mass_a = np.bincount(np.searchsorted(keys, key_a), weights=p_a, minlength=len(keys))
    mass_b = np.bincount(np.searchsorted(keys, key_b), weights=p_b, minlength=len(keys))
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


@dataclass
class _Graphs:
    """One local graph per conditioning element.

    Graph k has the layer positions ``rows[1][rows[0][k]:rows[0][k+1]]`` as
    rows and ``cols`` likewise as columns (the columns of a square graph are
    its rows); a graph without rows has no mass.  ``fill(ids, shape)`` is the
    dense stack of the joints of graphs ``ids``, all of that shape, each of
    mass 1.  ``entries`` are the (ptr, row, col, mass) entries grouped by
    graph, where the family is built from them.
    """

    rows: tuple
    cols: tuple
    fill: object
    entries: tuple | None = None

    def __post_init__(self):
        self.shapes = np.column_stack([np.diff(self.rows[0]), np.diff(self.cols[0])])

    def live(self) -> np.ndarray:
        return np.flatnonzero(self.shapes[:, 0] > 0)

    def spectra(self, ids: np.ndarray, bipartite: bool = False) -> np.ndarray:
        return _stacked_spectra(self.shapes[ids],
                                lambda b, shape: self.fill(ids[b], shape), bipartite)

    def joint(self, k: int) -> np.ndarray:
        return self.fill(np.array([k]), tuple(self.shapes[k]))[0]


def _cached(obj, key, build):
    """``obj._cache[key]``, built on first use."""
    if key not in obj._cache:
        obj._cache[key] = build()
    return obj._cache[key]


def _flat_supports(x: StavInstance, layer: str):
    """A layer's supports as (ptr, ground ids) arrays, cached."""
    def build():
        sups = getattr(x, layer)
        sizes = np.fromiter(map(len, sups), np.int64, len(sups))
        flat = np.fromiter(itertools.chain.from_iterable(sups), np.int64, int(sizes.sum()))
        return np.concatenate([[0], np.cumsum(sizes)]), flat
    return _cached(x, f"flat_{layer}", build)


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


def _run_sums(ptr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Sum of each run vals[ptr[k]:ptr[k+1]], summed as one contiguous array
    (numpy's pairwise sum)."""
    n = np.diff(ptr)
    out = np.zeros(len(n))
    for k in np.unique(n[n > 0]):
        runs = np.flatnonzero(n == k)
        out[runs] = vals[_runs(ptr, runs)[0]].reshape(len(runs), k).sum(axis=1)
    return out


def _entry_graphs(n: int, g, r, c, p, rows, cols) -> _Graphs:
    """n graphs from entries (graph, local row, local column, mass) grouped by
    graph; each is scaled to mass 1 by the sum of its entries in entry order."""
    entries = (np.concatenate([[0], np.cumsum(np.bincount(g, minlength=n))]), r, c, p)
    total = _run_sums(entries[0], p)
    return _Graphs(rows, cols, lambda ids, shape: (_scatter(entries, ids, shape)
                                                   / total[ids][:, None, None]),
                   entries)


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


def _vasa_v_graphs(x: StavInstance) -> _Graphs:
    """Per v, the (a1, a2) joint of the amplification given v, on the a of
    positive mass."""
    def build():
        va = x.vasa
        order = np.argsort(va.v_idx, kind="stable")
        g, a1, a2, p = (col[order] for col in (va.v_idx, va.a1_idx, va.a2_idx, va.probs))
        pos, ptr, a_ids = _local(x.n_v, np.concatenate([g, g]), (np.concatenate([a1, a2]),),
                                 np.concatenate([p, p]))
        r, c = np.split(pos, 2)
        keep = (r >= 0) & (c >= 0)
        rows = (ptr, *a_ids)
        return _entry_graphs(x.n_v, g[keep], r[keep], c[keep], p[keep], rows, rows)
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


def _sts_index(x: StavInstance):
    """Per-instance arrays behind the conditioned pair graphs.

    ``ground_t`` is the binary (ground x T) containment incidence of the
    middle faces; ``cond`` is the (S x T) conditional matrix of the "indep"
    tables, with the same entries as ``st_joint`` and empty columns for
    "pairs" tables; ``pairs`` holds the "pairs" tables as (ptr, i, j, p)
    runs by t, empty for "indep" tables.
    """
    def build():
        ptr, flat = _flat_supports(x, "t_supports")
        n_t = len(ptr) - 1
        n_g = max(len(x.ground_labels), int(flat.max(initial=-1)) + 1)
        ground_t = sp.csr_matrix((np.ones(len(flat), dtype=np.int64),
                                  (flat, np.repeat(np.arange(n_t), np.diff(ptr)))),
                                 shape=(n_g, n_t))
        ground_t.sum_duplicates()
        ground_t.data[:] = 1
        tabs = x.sts.tables
        e_i, e_p = np.empty(0, np.int64), np.empty(0)
        ind = [(e_i, e_p) if tab[0] == "pairs" else tab[1:] for tab in tabs]
        prs = [tab[1:] if tab[0] == "pairs" else (e_i, e_i, e_p) for tab in tabs]
        cond = sp.csc_matrix((np.concatenate([e_p] + [p for _, p in ind]),
                              np.concatenate([e_i] + [i for i, _ in ind]),
                              np.cumsum([0] + [len(i) for i, _ in ind])),
                             shape=(x.n_s, n_t))
        pairs = (np.cumsum([0] + [len(tab[0]) for tab in prs]),
                 *(np.concatenate([empty] + [tab[k] for tab in prs])
                   for k, empty in enumerate((e_i, e_i, e_p))))
        return ground_t, cond, pairs
    return _cached(x, "sts_index", build)


def _sts_graphs(x: StavInstance, n: int, c_of: np.ndarray, ids: np.ndarray) -> _Graphs:
    """Pair graphs conditioned on the middle face containing a ground set, for
    n sets; set k is the ground ids ``ids[c_of == k]``.

    The selected t are those with mass that contain the set, weighted by
    their mass.  Their "indep" tables sum to C diag(w) C^T over the
    conditional columns C, taken on the live rows (one matrix product per
    batch); "pairs" tables are added entry by entry.  A set that no t with
    mass contains has no graph.
    """
    ground_t, cond, (p_ptr, p_i, p_j, p_p) = _sts_index(x)
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

    def fill(b, shape):
        m, k = shape[0], int(n_sel[b].max())
        c = _scatter(cond_e, b, (m, k))
        dense = np.matmul(c * _scatter(slot_e, b, (1, k)), c.transpose(0, 2, 1))
        return dense + _scatter(pair_e, b, shape) if len(pe) else dense

    rows = (s_ptr, s_ids)
    return _Graphs(rows, rows, fill)


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
        t_sup = set(x.t_supports[ti])
        a_in = [ai for ai, sup in enumerate(x.a_supports) if set(sup) <= t_sup]
        if not a_in:
            raise ZeroConditioning(f"no A element inside {element}")
        # a drawn by its overall reach mass conditioned inside t, v uniform in a
        reach_mass = np.asarray(x.reach_joint().sum(axis=1)).ravel()
        w = reach_mass[a_in]
        w = w / w.sum()
        v_ids = sorted(t_sup)
        j = np.zeros((len(a_in), len(v_ids)))
        for row, ai in enumerate(a_in):
            sup = x.a_supports[ai]
            j[row, np.searchsorted(v_ids, sup)] = w[row] / len(sup)
        return BipartiteGraph([x.a_labels[i] for i in a_in],
                              [x.ground_labels[i] for i in v_ids], j)
    raise HdxError(f"unknown graph kind {kind!r}")


def _find(x: StavInstance, layer: str, element) -> int:
    """Position of ``element`` in a layer's label list (first occurrence)."""
    key = ("pos", layer)
    if key not in x._cache:
        labels = getattr(x, layer)
        x._cache[key] = {lab: i for i, lab in reversed(list(enumerate(labels)))}
    try:
        return x._cache[key][element]
    except (KeyError, TypeError):
        raise ZeroConditioning(f"element {element!r} not in layer") from None


def _accumulate(triplet, shape):
    r, c, v = triplet
    m = sp.coo_matrix((v, (r, c)), shape=shape).tocsr()
    m.sum_duplicates()
    return m


# -- goodness check ------------------------------------------------------------------


@dataclass
class GoodnessConfig:
    edge_expansion_threshold: float = 1.0 / 3.0
    a5_threshold: float = 0.5
    brute_force_vertices: int = 24
    sampler_spot_checks: int = 1000
    seed: int = 0


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


def _assemble_report(vals, gamma, r, cfg) -> GoodnessReport:
    a4_delta = r * gamma
    a4_sufficient = vals["a4_max_av_lambda"] ** 2 <= (8.0 / 27.0) * a4_delta
    passes = {
        "A1": vals["a1_reach_lambda"] <= math.sqrt(gamma) + 1e-9,
        "A2a": vals["a2a_min_edge_expansion"] >= cfg.edge_expansion_threshold - 1e-9,
        "A2b": vals["a2b_max_lambda"] <= gamma + 1e-9,
        "A3a": vals["a3a_max_lambda"] <= gamma + 1e-9,
        "A3b": vals["a3b_max_lambda"] <= math.sqrt(gamma) + 1e-9,
        "A4": bool(a4_sufficient and vals["a4_spot_check_failures"] == 0),
        "A5": vals["a5_min_conditional"] >= cfg.a5_threshold - 1e-9,
    }
    inferred = max(vals["a1_reach_lambda"] ** 2, vals["a2b_max_lambda"],
                   vals["a3a_max_lambda"], vals["a3b_max_lambda"] ** 2)
    overall = (passes["A1"] and passes["A2a"] and passes["A2b"] and passes["A3a"]
               and passes["A3b"] and (passes["A4"] or passes["A5"]))
    return GoodnessReport(gamma=gamma, r=r, passes=passes, overall_pass=overall,
                          inferred_gamma=inferred, **vals)


def goodness_check(x, gamma: float, r: float = 1.0,
                   config: GoodnessConfig | None = None) -> GoodnessReport:
    """Measure every goodness assumption and compare at the given gamma, r."""
    cfg = config or GoodnessConfig()
    if isinstance(x, StructuredHdxStav):
        return _goodness_structured(x, gamma, r, cfg)
    return _goodness_tabular(x, gamma, r, cfg)


def _sampler_spot_checks(joint: np.ndarray, delta: float, n_checks: int,
                         rng) -> int:
    """Direct checks of the delta-sampling property on random right subsets."""
    pi_l = joint.sum(axis=1)
    pi_r = joint.sum(axis=0)
    nr = joint.shape[1]
    if nr <= 12:
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


def _goodness_tabular(x: StavInstance, gamma, r, cfg) -> GoodnessReport:
    if x.n_s > 50_000 or len(x.vasa) > TABULAR_TABLE_CAP:
        raise SizeCapError("instance too large for the exhaustive goodness check")
    notes = {}
    reach = x.reach_joint()
    a1 = bipartite_lambda(reach, np.asarray(reach.sum(axis=1)).ravel(),
                          np.asarray(reach.sum(axis=0)).ravel()).lambda_bip
    rc = reach.tocoo()
    ra, rv = rc.row[rc.data > 0], rc.col[rc.data > 0]

    # A2a: edge expansion of every a-conditioned pair graph, brute force up
    # to the vertex cap, else the Cheeger lower bound (1 - lambda2) / 2
    a_ptr, a_ground = _flat_supports(x, "a_supports")
    n_a = len(x.a_labels)
    graphs = _sts_graphs(x, n_a, np.repeat(np.arange(n_a), np.diff(a_ptr)), a_ground)
    m = graphs.shapes[:, 0]
    small = np.flatnonzero((m > 0) & (m <= cfg.brute_force_vertices))
    large = np.flatnonzero(m > cfg.brute_force_vertices)
    phis = [np.inf]
    for shape, ids in _shape_batches(graphs.shapes[small]):
        stack = graphs.fill(small[ids], shape)
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
    lam2, lam_min = graphs.spectra(graphs.live())
    a2b = float(np.max(np.maximum(np.abs(lam2), np.abs(lam_min)), initial=0.0))

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
    rng = np.random.default_rng(cfg.seed)
    spot_failures = sum(_sampler_spot_checks(graphs.joint(si), r * gamma,
                                             cfg.sampler_spot_checks, rng)
                        for si in range(x.n_s))

    # A5: weighted conditional of landing in the reach of a inside s, over
    # the (a, s) pairs of the amplification's support
    vm = x.v_marginal()
    s_ptr, s_ground = _flat_supports(x, "s_supports")
    ground_to_v = np.full(max(int(s_ground.max(initial=-1)),
                              int(x.v_ground.max(initial=-1))) + 1, -1)
    ground_to_v[x.v_ground] = np.arange(x.n_v)
    vv, aa, ss, pp = x.vas_triples()
    _, first = _group(aa[pp > 0], ss[pp > 0])
    pa, ps = aa[pp > 0][first], ss[pp > 0][first]
    idx, k = _runs(s_ptr, ps)
    vi = ground_to_v[s_ground[idx]]
    k, vi = k[vi >= 0], vi[vi >= 0]  # outside the v-layer: zero mass
    hit = np.isin(pa[k] * x.n_v + vi, ra * x.n_v + rv)
    den = np.bincount(k, vm[vi], minlength=len(pa))
    num = np.bincount(k, vm[vi] * hit, minlength=len(pa))
    a5 = np.min(np.divide(num, den, out=np.zeros(len(pa)), where=den > 0), initial=np.inf)

    vals = dict(a1_reach_lambda=a1, a2a_min_edge_expansion=float(min(phis)),
                a2a_method=a2a_method, a2b_max_lambda=a2b,
                a2b_method="dense", a3a_max_lambda=a3a, a3b_max_lambda=a3b,
                a4_max_av_lambda=a4, a4_spot_check_failures=spot_failures,
                a5_min_conditional=float(a5))
    rep = _assemble_report(vals, gamma, r, cfg)
    rep.notes = notes
    return rep


# -- structured goodness path -----------------------------------------------------


def _one_orbit(c: Complex) -> bool:
    """Whether the automorphisms of ``c`` act transitively on every level, so
    one representative face stands for all (the uniform complete complex)."""
    return c.uniform_complete


def _goodness_structured(x: StructuredHdxStav, gamma, r, cfg) -> GoodnessReport:
    c, d, l = x.complex, x.d, x.l
    notes = {"path": "structured (containment-mass reductions in a pure complex)"}
    dedupe = _one_orbit(c)
    if dedupe:
        notes["orbits"] = ("one representative a-face (A2a, A3b) and vertex (A3a), "
                           "exact A5 ratio: all faces of a level are isomorphic")
    lev_t = c.level(l)
    lev_a = c.level(l - 1)

    # A1: reach graph assembled from level l
    reach = _reach(_drop_one(lev_t, lev_a), lev_t.measure, (lev_a.size, c.n_vertices))
    a1 = bipartite_lambda(reach, np.asarray(reach.sum(axis=1)).ravel(),
                          np.asarray(reach.sum(axis=0)).ravel()).lambda_bip

    # neighbor lists in the reach graph
    reach_csr = reach.tocsr()

    def candidates(ai):
        return reach_csr.indices[reach_csr.indptr[ai]:reach_csr.indptr[ai + 1]]

    # A2a and A3b share the level-(l+1) mass ratios
    min_l2 = -np.inf
    a3b = 0.0
    for ai in range(1 if dedupe else lev_a.size):
        a = lev_a.faces[ai]
        vs = candidates(ai)
        m = len(vs)
        rows_1 = np.sort(np.concatenate(
            [np.tile(a, (m, 1)), vs[:, None]], axis=1), axis=1)
        mass_1 = c.containment_mass_rows(rows_1)
        pairs = np.array(list(itertools.combinations(range(m), 2)), dtype=int)
        ratio = np.zeros((m, m))
        if len(pairs):
            rows_2 = np.sort(np.concatenate(
                [np.tile(a, (len(pairs), 1)), vs[pairs[:, 0], None],
                 vs[pairs[:, 1], None]], axis=1), axis=1)
            mass_2 = c.containment_mass_rows(rows_2)
            ratio[pairs[:, 0], pairs[:, 1]] = mass_2
            ratio[pairs[:, 1], pairs[:, 0]] = mass_2
        pi = mass_1 / mass_1.sum()
        # two-step pair graph through s: T[v1, v2]
        t_mat = ratio / mass_1[:, None] / (d + 1 - l)
        np.fill_diagonal(t_mat, 1.0 / (d + 1 - l))
        l2 = square_lambda(pi[:, None] * t_mat, pi).lambda2
        min_l2 = max(min_l2, l2)
        # bipartite amplification graph through (a', s) pairs: W[v1, v2]
        denom = (d + 1 - 2 * l) * math.comb(d - l, l)
        w_mat = ratio / mass_1[:, None] * (math.comb(d - l - 1, l) / denom)
        np.fill_diagonal(w_mat, 1.0 / (d + 1 - 2 * l))
        w_l2 = square_lambda(pi[:, None] * w_mat, pi).lambda2
        a3b = max(a3b, math.sqrt(max(w_l2, 0.0)))
    min_phi = (1.0 - min_l2) / 2.0
    notes["a2a"] = "lambda2 via the small-side pair operator; Cheeger lower bound"
    notes["a3b"] = "lambda via the small-side two-step of the bipartite graph"

    # A2b: conditioned on (a, v) the two tops are drawn independently, so the
    # pair operator is rank one and its nontrivial spectrum is exactly zero.
    a2b = 0.0
    notes["a2b"] = "structural (rank-one independent pair)"

    # A3a: v-conditioned amplification graph = disjointness walk in the link
    a3a = 0.0
    for v in range(1 if dedupe else c.n_vertices):
        a3a = max(a3a, _structured_vasa_v_lambda(c, d, l, v))

    # A4: the local reach graph depends only on (d, l) in a pure complex
    a4, spot_failures = _structured_a4(d, l, r * gamma, cfg)
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
    rep = _assemble_report(vals, gamma, r, cfg)
    rep.notes = notes
    return rep


def _structured_vasa_v_lambda(c: Complex, d: int, l: int, v: int) -> float:
    """Two-sided expansion of the disjoint-pair graph in the link of v.

    On a uniform complete complex it is the Kneser graph K(n-1, l), whose
    normalised eigenvalues are (-1)^i C(n-1-l-i, l-i) / C(n-1-l, l) for
    i = 0..l; the largest magnitude past i = 0 is the value.  Otherwise the
    operator is assembled from the 2l-faces through v.
    """
    if c.uniform_complete:
        m = c.n_vertices - 1
        return max(math.comb(m - l - i, l - i) / math.comb(m - l, l)
                   for i in range(1, l + 1))
    lev = c.level(2 * l)
    has_v = (lev.faces == v).any(axis=1)
    rows = lev.faces[has_v]
    union_rows = rows[rows != v].reshape(len(rows), 2 * l)
    mass = c.containment_mass_rows(rows)
    # each split of the other 2l vertices into two a-faces (level l-1); the
    # faces through v get no mass and leave with the other dead rows
    lev_a = c.level(l - 1)
    keep, rest = position_subsets(2 * l, l)
    j = sp.coo_matrix((np.tile(mass, len(keep)),
                       (lev_a.sub_faces(union_rows, keep).ravel(),
                        lev_a.sub_faces(union_rows, rest).ravel())),
                      shape=(lev_a.size, lev_a.size)).tocsr()
    j.sum_duplicates()
    live = np.asarray(j.sum(axis=1)).ravel() > 0
    keep_idx = np.flatnonzero(live)
    j = j[keep_idx][:, keep_idx]
    j = j / j.sum()
    pi = np.asarray(j.sum(axis=1)).ravel()
    rep = square_lambda(j, pi)
    return rep.two_sided


def _structured_a4(d: int, l: int, delta: float, cfg) -> tuple[float, int]:
    a_pat, outside = position_subsets(d + 1, l)
    joint = np.zeros((len(a_pat), d + 1))
    joint[np.arange(len(a_pat))[:, None], outside] = 1.0 / (len(a_pat) * (d + 1 - l))
    lam = bipartite_lambda(joint, joint.sum(axis=1), joint.sum(axis=0)).lambda_bip
    rng = np.random.default_rng(cfg.seed)
    failures = _sampler_spot_checks(joint, delta, cfg.sampler_spot_checks, rng)
    return lam, failures


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
    pairs = [x.sts.pair_arrays(ti) for ti in range(n_t)]
    e_i = np.empty(0, np.int64)
    pair_rows = np.split(_json_rows(*(np.concatenate([empty] + [tab[k] for tab in pairs])
                                      for k, empty in enumerate((e_i, e_i, np.empty(0))))),
                         np.cumsum([len(tab[0]) for tab in pairs])[:-1])
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
        "sts_pairs": [rows.tolist() for rows in pair_rows],
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
    st = sp.coo_matrix(([p for _, _, p in st_rows],
                        ([i for i, _, _ in st_rows], [j for _, j, _ in st_rows])),
                       shape=(len(s_labels), len(t_labels))).tocsr()
    st.sum_duplicates()
    t_probs = np.asarray(st.sum(axis=0)).ravel()
    av = AvTable(*_read_tables(data["av_tables"], "(a,v) table"))
    t_idx, *pairs = _read_tables(data["sts_pairs"], "pair table")
    tables = [("pairs", *tab) for tab in _cut(t_idx, len(data["sts_pairs"]), *pairs)]
    sts = STSTable(t_probs=t_probs, tables=tables, n_s=len(s_labels))
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
                        t_probs=t_probs, st_joint=st, av=av, sts=sts, vasa=vasa)
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

