"""Weighted pure simplicial complexes with the chain-sampling face measure.

A complex is stored by its top-dimensional faces and a probability weight per
top face.  Lower levels carry the measure induced by sampling a top face and
then a uniformly random chain of subfaces inside it; level k of a pure
d-complex therefore satisfies

    measure_k(s) = sum_{top t >= s} weight(t) / C(d+1, k+1).

Levels are enumerated lazily per k and cached.  The complete complex gets a
closed-form fast path (every level measure is uniform) so that large instances
never materialize their top level.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionTooLarge,
    DuplicateTopFace,
    EmptyPart,
    HdxError,
    IsolatedVertex,
    MixedDimension,
    NotAFace,
    SizeCapError,
    TruncationExceedsRank,
    UsageError,
    ZeroWeight,
)

Face = tuple[int, ...]

WEIGHT_TOL = 1e-12
RENORM_WARN = 1e-9
_BASE_LEVEL_CAP = 3_000_000


def size_cap_multiplier() -> float:
    """User-controlled multiplier for all size caps (HDX_SIZE_CAP env var)."""
    raw = os.environ.get("HDX_SIZE_CAP")
    if not raw:
        return 1.0
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise UsageError(f"HDX_SIZE_CAP must be a finite number, got {raw!r}")
    return max(1.0, value)


def level_cap() -> int:
    return int(_BASE_LEVEL_CAP * size_cap_multiplier())


def check_face(face) -> Face:
    """Validate strictly increasing vertex ids and return a canonical tuple."""
    t = tuple(int(v) for v in face)
    if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
        raise NotAFace(f"vertices must be strictly increasing, got {t}")
    return t


def _encode_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Encode sorted vertex rows into one int64 key per row (lexicographic)."""
    if rows.shape[1] == 0:
        return np.zeros(len(rows), dtype=np.int64)
    if float(n) ** rows.shape[1] >= 2.0**62:
        raise SizeCapError(f"cannot key faces of {rows.shape[1]} vertices over {n} ids")
    keys = np.zeros(len(rows), dtype=np.int64)
    for j in range(rows.shape[1]):
        keys *= n
        keys += rows[:, j]
    return keys


def _lookup_rows(sorted_keys: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Positions of sorted vertex rows among ascending ``_encode_rows`` keys;
    rows that are absent map to -1."""
    keys = _encode_rows(np.asarray(rows, dtype=np.int64), n)
    pos = np.clip(np.searchsorted(sorted_keys, keys), 0, len(sorted_keys) - 1)
    return np.where(sorted_keys[pos] == keys, pos, -1)


def position_subsets(m: int, *sizes: int) -> tuple[np.ndarray, ...]:
    """Every choice of disjoint ascending blocks of the given sizes inside m
    positions, and the positions left over as a last block: one (choices, size)
    array per block, in the order of nested ``itertools.combinations`` loops,
    each over the positions the blocks before it left.  With one size k: the
    k-subsets, and their complements in reverse lexicographic order."""
    def rest(blocks):
        return [p for p in range(m) if not any(p in b for b in blocks)]

    choices = [()]
    for k in sizes:
        choices = [blocks + (b,) for blocks in choices
                   for b in itertools.combinations(rest(blocks), k)]
    choices = [blocks + (tuple(rest(blocks)),) for blocks in choices]
    widths = [*sizes, m - sum(sizes)]
    return tuple(np.array([blocks[i] for blocks in choices], dtype=np.int64)
                 .reshape(len(choices), w) for i, w in enumerate(widths))


def _row_codes(rows: np.ndarray) -> np.ndarray:
    """One integer per row, equal for equal rows and ordered as the rows are
    lexicographically."""
    base = int(rows.max(initial=0)) + 1
    if base ** rows.shape[1] < 2 ** 62:
        return rows @ base ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
    return np.unique(rows, axis=0, return_inverse=True)[1].ravel()


def _group(*keys):
    """Ids of the distinct tuples of nonnegative integer keys, numbered in
    lexicographic order, and the index of each group's first member."""
    code = _row_codes(np.column_stack(keys))
    order = np.argsort(code, kind="stable")
    new = np.arange(len(order)) == 0
    new[1:] = code[order][1:] != code[order][:-1]
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids, order[new]


@dataclass(frozen=True)
class LevelIndex:
    """Indexed enumeration of one face level with its chain measure."""

    k: int
    faces: np.ndarray  # (m, k+1) int32, rows sorted by encoded key
    measure: np.ndarray  # (m,) probabilities summing to 1
    n_vertices: int
    _keys: np.ndarray = field(repr=False, default=None)

    @property
    def size(self) -> int:
        return len(self.faces)

    def keys(self) -> np.ndarray:
        return self._keys

    def face(self, i: int) -> Face:
        return tuple(int(v) for v in self.faces[i])

    def iter_faces(self):
        for row in self.faces:
            yield tuple(int(v) for v in row)

    def index_of(self, face) -> int:
        t = check_face(face)
        if len(t) != self.k + 1:
            raise NotAFace(f"face {t} is not at level {self.k}")
        key = _encode_rows(np.array([t], dtype=np.int64), self.n_vertices)[0]
        pos = int(np.searchsorted(self._keys, key))
        if pos >= len(self._keys) or self._keys[pos] != key:
            raise NotAFace(f"{t} is not a face of this complex")
        return pos

    def index_rows(self, rows: np.ndarray, strict: bool = True) -> np.ndarray:
        """Vectorized face-row lookup; missing rows raise or yield -1."""
        out = _lookup_rows(self._keys, rows, self.n_vertices)
        if strict and (out < 0).any():
            bad = np.asarray(rows)[out < 0][0]
            raise NotAFace(f"{tuple(int(v) for v in bad)} is not a face of this complex")
        return out

    def sub_faces(self, rows: np.ndarray, pattern) -> np.ndarray:
        """Positions at this level of the sub-faces rows[i, pattern[p]] of face
        rows, as a (len(pattern), len(rows)) array, pattern-major; each
        pattern row lists ascending columns, so sub-faces of sorted rows stay
        sorted.  A sub-face that is not at this level raises ``NotAFace``."""
        pattern = np.asarray(pattern, dtype=np.int64)
        (m, w), n = pattern.shape, len(rows)
        # column j of every sub-face as one contiguous (m, n) block, so the
        # keys are encoded column by column and looked up pattern by pattern
        cols = np.asarray(rows, dtype=np.int64).T[pattern.T]
        return self.index_rows(cols.reshape(w, m * n).T).reshape(m, n)

    def measure_of_rows(self, rows: np.ndarray) -> np.ndarray:
        idx = self.index_rows(rows, strict=False)
        out = np.zeros(len(idx))
        hit = idx >= 0
        out[hit] = self.measure[idx[hit]]
        return out


def _make_level(rows: np.ndarray, weights: np.ndarray, n: int, k: int) -> LevelIndex:
    keys = _encode_rows(rows, n)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    rows = rows[order]
    weights = weights[order]
    # collapse duplicates
    if len(keys) > 1:
        uniq = np.ones(len(keys), dtype=bool)
        uniq[1:] = keys[1:] != keys[:-1]
        if not uniq.all():
            group = np.cumsum(uniq) - 1
            agg = np.zeros(int(group[-1]) + 1)
            np.add.at(agg, group, weights)
            rows, keys, weights = rows[uniq], keys[uniq], agg
    return LevelIndex(k=k, faces=rows.astype(np.int32), measure=weights,
                      n_vertices=n, _keys=keys)


class Complex:
    """Pure d-dimensional weighted simplicial complex.

    ``coloring`` maps each vertex to a color in [0, d]; when present, every
    top face must be a color transversal (one vertex of each color).
    ``vertex_labels`` carries original ids when the complex arose as a link.
    """

    def __init__(self, n_vertices: int, d: int, top_rows: np.ndarray | None,
                 top_weights: np.ndarray | None, coloring=None,
                 uniform_complete: bool = False, vertex_labels=None,
                 _validated: bool = False):
        self.n_vertices = int(n_vertices)
        self.d = int(d)
        self.coloring = None if coloring is None else tuple(int(c) for c in coloring)
        self.uniform_complete = bool(uniform_complete)
        self.vertex_labels = None if vertex_labels is None else tuple(vertex_labels)
        self._levels: dict[int, LevelIndex] = {}
        self._colored_levels: dict[frozenset, tuple] = {}
        # k -> (lambda2, lambda_min) of every k-face's link, filled by spectra
        self._link_spectra: dict[int, tuple] = {}
        # (I, J) color sets -> colored-walk norm, filled by spectra
        self._colored_norms: dict[tuple, float] = {}
        if self.uniform_complete:
            self._tops = None
            self._weights = None
            return
        rows = np.asarray(top_rows, dtype=np.int32)
        weights = np.asarray(top_weights, dtype=float)
        if not _validated:
            rows, weights = self._validate(rows, weights)
        self._tops = rows
        self._weights = weights

    # -- construction helpers -------------------------------------------------

    def _validate(self, rows: np.ndarray, weights: np.ndarray):
        if rows.ndim != 2 or rows.shape[1] != self.d + 1:
            raise MixedDimension("all top faces must have dimension d")
        if np.any(np.diff(rows, axis=1) <= 0):
            raise NotAFace("top faces must list strictly increasing vertex ids")
        if rows.min(initial=0) < 0 or (len(rows) and rows.max() >= self.n_vertices):
            raise NotAFace("vertex id out of range")
        if np.any(weights <= 0):
            raise ZeroWeight("top-face weights must be strictly positive")
        keys = _encode_rows(rows, self.n_vertices)
        if len(np.unique(keys)) != len(keys):
            raise DuplicateTopFace("duplicate top face")
        seen = np.zeros(self.n_vertices, dtype=bool)
        seen[rows.ravel()] = True
        if not seen.all():
            raise IsolatedVertex(f"vertex {int(np.flatnonzero(~seen)[0])} is in no top face")
        total = weights.sum()
        if abs(total - 1.0) > RENORM_WARN:
            warnings.warn(f"top weights sum to {total:.12g}; renormalizing", stacklevel=3)
        weights = weights / total
        if self.coloring is not None:
            if len(self.coloring) != self.n_vertices:
                raise HdxError("coloring length must equal n_vertices")
            cols = np.asarray(self.coloring)[rows]
            cols.sort(axis=1)
            if np.any(cols != np.arange(self.d + 1)):
                raise HdxError("every top face must contain one vertex of each color")
        return rows, weights

    # -- basic queries ---------------------------------------------------------

    @property
    def n_top_faces(self) -> int:
        if self.uniform_complete:
            return math.comb(self.n_vertices, self.d + 1)
        return len(self._tops)

    def level_size(self, k: int) -> int:
        if k == -1:
            return 1
        if self.uniform_complete:
            return math.comb(self.n_vertices, k + 1)
        return self.level(k).size

    def level(self, k: int) -> LevelIndex:
        """Materialize level k (cached).  Raises SizeCapError over the cap."""
        if not -1 <= k <= self.d:
            raise HdxError(f"level {k} out of range for d={self.d}")
        if k in self._levels:
            return self._levels[k]
        if k == -1:
            lev = LevelIndex(k=-1, faces=np.zeros((1, 0), dtype=np.int32),
                             measure=np.ones(1), n_vertices=self.n_vertices,
                             _keys=np.zeros(1, dtype=np.int64))
            self._levels[-1] = lev
            return lev
        if self.uniform_complete:
            if math.comb(self.n_vertices, k + 1) > level_cap():
                raise SizeCapError(
                    f"level {k} has {math.comb(self.n_vertices, k + 1)} faces, over "
                    f"the cap {level_cap()} (raise HDX_SIZE_CAP to override)")
            rows = np.array(list(itertools.combinations(range(self.n_vertices), k + 1)),
                            dtype=np.int32).reshape(-1, k + 1)
            m = len(rows)
            lev = _make_level(rows, np.full(m, 1.0 / m), self.n_vertices, k)
        elif k == self.d:
            lev = _make_level(self._tops.copy(), self._weights.copy(), self.n_vertices, k)
        else:
            upper = self.level(k + 1)
            if upper.size * (k + 2) > level_cap() * 4:
                raise SizeCapError(f"materializing level {k} exceeds the size cap")
            keep = position_subsets(k + 2, 1)[1]
            rows = upper.faces[:, keep].swapaxes(0, 1).reshape(-1, k + 1)
            weights = np.tile(upper.measure / (k + 2), k + 2)
            lev = _make_level(rows, weights, self.n_vertices, k)
        self._levels[k] = lev
        return lev

    def measure_of(self, face) -> float:
        """Chain measure of a face at its own level."""
        t = check_face(face)
        k = len(t) - 1
        if k == -1:
            return 1.0
        if self.uniform_complete:
            if t[-1] >= self.n_vertices or k > self.d:
                raise NotAFace(f"{t} is not a face")
            return 1.0 / math.comb(self.n_vertices, k + 1)
        lev = self.level(k)
        return float(lev.measure[lev.index_of(t)])

    def containment_mass_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows)
        j = rows.shape[1]
        if self.uniform_complete:
            if j - 1 > self.d:
                return np.zeros(len(rows))
            return np.full(len(rows), math.comb(self.n_vertices - j, self.d + 1 - j)
                           / math.comb(self.n_vertices, self.d + 1))
        return math.comb(self.d + 1, j) * self.level(j - 1).measure_of_rows(rows)

    def is_face(self, face) -> bool:
        t = check_face(face)
        if len(t) == 0:
            return True
        if self.uniform_complete:
            return len(t) <= self.d + 1 and t[-1] < self.n_vertices
        try:
            self.level(len(t) - 1).index_of(t)
            return True
        except NotAFace:
            return False

    # -- partite structure -----------------------------------------------------

    @property
    def is_partite(self) -> bool:
        return self.coloring is not None

    def color_set(self, face) -> frozenset:
        return frozenset(self.coloring[v] for v in face)

    def colored_level(self, colors) -> tuple[np.ndarray, np.ndarray]:
        """Faces of exactly the given color set, with the transversal measure.

        The measure of a face s with col(s) = I is Pr[top >= s], which is also
        the probability that the color-I subface of a random top face equals s.
        """
        if not self.is_partite:
            raise HdxError("complex is not partite")
        key = frozenset(int(c) for c in colors)
        if key in self._colored_levels:
            return self._colored_levels[key]
        cols = sorted(key)
        col_arr = np.asarray(self.coloring)
        tops, weights = self.top_arrays()
        mask = np.isin(col_arr[tops], cols)
        sub = tops[mask].reshape(len(tops), len(cols))
        sub = np.sort(sub, axis=1)
        lev = _make_level(sub.astype(np.int64), weights.copy(), self.n_vertices,
                          len(cols) - 1)
        out = (lev.faces, lev.measure)
        self._colored_levels[key] = out
        return out

    # -- derived complexes -------------------------------------------------------

    def top_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self.uniform_complete:
            lev = self.level(self.d)
            return lev.faces, lev.measure
        return self._tops, self._weights

    def link(self, face) -> "Complex":
        """Link of a face: faces disjoint from it whose union with it is a face.

        Vertices are relabeled to dense ids; ``vertex_labels`` maps back.
        The top measure is the conditional measure Pr[t | t >= face].
        """
        s = check_face(face)
        if len(s) == 0:
            return self
        if not self.is_face(s):
            raise NotAFace(f"{s} is not a face of the complex")
        if len(s) - 1 == self.d:
            raise NotAFace("link of a top face is the empty complex")
        if self.uniform_complete:
            labels = [v for v in range(self.n_vertices) if v not in s]
            out = Complex(self.n_vertices - len(s), self.d - len(s), None, None,
                          uniform_complete=True, vertex_labels=labels)
            return out
        tops, weights = self.top_arrays()
        member = np.isin(tops, list(s))
        rows_hit = member.sum(axis=1) == len(s)
        sub = tops[rows_hit]
        w = weights[rows_hit]
        rest = sub[~np.isin(sub, list(s)).reshape(sub.shape)].reshape(len(sub), -1)
        labels = sorted(set(int(v) for v in rest.ravel()))
        relabel = {v: i for i, v in enumerate(labels)}
        dense = np.vectorize(relabel.__getitem__, otypes=[np.int32])(rest)
        dense.sort(axis=1)
        coloring = None
        if self.is_partite:
            used = self.color_set(s)
            new_colors = sorted(set(range(self.d + 1)) - used)
            cmap = {c: i for i, c in enumerate(new_colors)}
            coloring = [cmap[self.coloring[v]] for v in labels]
        return Complex(len(labels), self.d - len(s), dense, w / w.sum(),
                       coloring=coloring, vertex_labels=labels)

    def skeleton(self, k: int) -> "Complex":
        """Pure k-dimensional complex whose top measure is this level-k measure."""
        if not 0 <= k <= self.d:
            raise HdxError(f"skeleton level {k} out of range")
        if k == self.d:
            return self
        if self.uniform_complete:
            return Complex(self.n_vertices, k, None, None, uniform_complete=True,
                           vertex_labels=self.vertex_labels)
        lev = self.level(k)
        return Complex(self.n_vertices, k, lev.faces.copy(), lev.measure.copy(),
                       vertex_labels=self.vertex_labels)

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        tops, weights = self.top_arrays()
        return {
            "n_vertices": self.n_vertices,
            "d": self.d,
            "coloring": list(self.coloring) if self.coloring is not None else None,
            "top_faces": [{"verts": [int(v) for v in row], "weight": float(w)}
                          for row, w in zip(tops, weights)],
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    def __repr__(self) -> str:
        kind = "complete " if self.uniform_complete else ""
        return (f"Complex({kind}n={self.n_vertices}, d={self.d}, "
                f"tops={self.n_top_faces})")


# -- builders -------------------------------------------------------------------


def build_from_top_faces(n_vertices: int, tops) -> Complex:
    """Build a complex from (face, weight) pairs of one common dimension."""
    items = list(tops)
    if not items:
        raise HdxError("need at least one top face")
    faces = [check_face(f) for f, _ in items]
    dims = {len(f) for f in faces}
    if len(dims) != 1:
        raise MixedDimension(f"top faces of mixed sizes {sorted(dims)}")
    d = dims.pop() - 1
    rows = np.array(faces, dtype=np.int32)
    weights = np.array([w for _, w in items], dtype=float)
    return Complex(n_vertices, d, rows, weights)


def complete_complex(n: int, d: int) -> Complex:
    """All C(n, d+1) top faces with uniform weights (closed-form measures)."""
    if n < d + 1:
        raise DimensionTooLarge(f"complete complex needs n >= d+1, got n={n}, d={d}")
    return Complex(n, d, None, None, uniform_complete=True)


def partite_complete_complex(part_sizes) -> Complex:
    """All color transversals over the given parts, uniform weights."""
    sizes = [int(s) for s in part_sizes]
    if any(s < 1 for s in sizes):
        raise EmptyPart("every part needs at least one vertex")
    offsets = np.cumsum([0] + sizes)
    coloring = []
    for i, s in enumerate(sizes):
        coloring += [i] * s
    parts = [range(offsets[i], offsets[i + 1]) for i in range(len(sizes))]
    rows = np.array(list(itertools.product(*parts)), dtype=np.int32)
    weights = np.full(len(rows), 1.0 / len(rows))
    return Complex(int(offsets[-1]), len(sizes) - 1, rows, weights, coloring=coloring)


def graphic_matroid_complex(edges, truncation: int) -> Complex:
    """Forests of ``truncation + 1`` edges of a graph, uniform weights.

    The complex's vertices are the graph's edges; faces are independent edge
    sets (acyclic subgraphs) of the graphic matroid, truncated.
    """
    edge_list = [tuple(sorted((int(u), int(v)))) for u, v in edges]
    if not edge_list:
        raise HdxError("need at least one edge")
    nodes = sorted({u for e in edge_list for u in e})
    node_id = {u: i for i, u in enumerate(nodes)}

    def spanning_forest(edge_idxs) -> list:
        """Edges of ``edge_idxs`` that join two components of the ones before."""
        parent = list(range(len(nodes)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        kept = []
        for i in edge_idxs:
            u, v = edge_list[i]
            ru, rv = find(node_id[u]), find(node_id[v])
            if ru != rv:
                parent[ru] = rv
                kept.append(i)
        return kept

    # matroid rank = largest forest
    rank = len(spanning_forest(range(len(edge_list))))
    if truncation + 1 > rank:
        raise TruncationExceedsRank(
            f"truncation {truncation} needs rank >= {truncation + 1}, rank is {rank}")
    tops = [c for c in itertools.combinations(range(len(edge_list)), truncation + 1)
            if len(spanning_forest(c)) == len(c)]
    rows = np.array(tops, dtype=np.int32).reshape(-1, truncation + 1)
    weights = np.full(len(rows), 1.0 / len(rows))
    return Complex(len(edge_list), truncation, rows, weights)


def load_complex(path: str) -> Complex:
    """Load and validate the JSON complex format."""
    with open(path) as fh:
        data = json.load(fh)
    return complex_from_json_dict(data)


def complex_from_json_dict(data: dict) -> Complex:
    try:
        n = int(data["n_vertices"])
        d = int(data["d"])
        tops = data["top_faces"]
        coloring = data.get("coloring")
    except (KeyError, TypeError) as exc:
        raise HdxError(f"malformed complex JSON: missing {exc}") from exc
    rows = np.array([t["verts"] for t in tops], dtype=np.int32)
    weights = np.array([t["weight"] for t in tops], dtype=float)
    if rows.ndim != 2 or rows.shape[1] != d + 1:
        raise MixedDimension("top faces must all have d+1 vertices")
    c = Complex(n, d, rows, weights, coloring=coloring)
    # validated rows are distinct (d+1)-sets: all C(n, d+1) of them, equally
    # weighted and uncolored, are the complete complex with its closed forms
    if (coloring is None and c.n_top_faces == math.comb(n, d + 1)
            and np.all(c._weights == c._weights[0])):
        return Complex(n, d, None, None, uniform_complete=True)
    return c


def link(c: Complex, s) -> Complex:
    return c.link(s)


def skeleton(c: Complex, k: int) -> Complex:
    return c.skeleton(k)
