"""Weighted pure simplicial complexes with the chain-sampling face measure.

A complex is stored by its top-dimensional faces and a probability weight per
top face.  Lower levels carry the measure induced by sampling a top face and
then a uniformly random chain of subfaces inside it; level k of a pure
d-complex therefore satisfies

    measure_k(s) = sum_{top t >= s} weight(t) / C(d+1, k+1).

Levels are enumerated lazily per k and cached.  A level of a general complex
is its rows sorted by one integer key each, and a row is looked up by a search
over the keys.  The complete complex is closed form throughout: every level
measure is uniform, a level is the (k+1)-subsets of [n] built in
lexicographic order one column at a time, a row's position is its rank in the
combinatorial number system, and containment masses are one binomial ratio,
so large instances never materialize their top level and no complete level is
sorted or searched.

Distinct values and membership have one implementation each, and none is
numpy's ``unique`` or a set routine built on it (``union1d``, ``isin``,
``setdiff1d``), which take a hash path many times slower than a sort on
integer keys: ``_group`` numbers distinct key tuples, ``_member`` is a
boolean table indexed by id (colours, vertices, t ids), and ``_search`` finds
integer codes in a sorted code set.  Whether a table or a sort does the work
is decided inside ``_group`` and ``_search`` alone, from the size of the code
space against the number of keys, with the same output either way.
"""

from __future__ import annotations

import functools
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
# entries per block of a blocked gather: the sub-face lookups of a level and
# the structured goodness families of ``stav``
_GATHER_ENTRIES = 1 << 18


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
    rows that are absent map to -1, and so do rows with an id outside [0, n),
    whose keys could alias a present row."""
    rows = np.asarray(rows, dtype=np.int64)
    pos = _search(sorted_keys, _encode_rows(rows, n))
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        pos[~((rows >= 0) & (rows < n)).all(axis=1)] = -1
    return pos


def _search(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each key among the ascending ``sorted_keys`` (the first of
    equal ones), -1 where it is absent: the one membership test of integer
    codes in a code set.  A gather from a table over [0, largest code] where
    that is no larger than the keys looked up, else a sorted search."""
    if not len(sorted_keys):
        return np.full(keys.shape, -1, dtype=np.intp)
    hi = int(sorted_keys[-1])
    if sorted_keys[0] >= 0 and hi < keys.size:
        first = np.ones(len(sorted_keys), dtype=bool)  # the first of equal keys
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
        at = np.flatnonzero(first)
        table = np.full(hi + 2, -1, dtype=np.intp)  # a key outside [0, hi] reads -1
        table[sorted_keys[at]] = at
        idx = np.minimum(keys, hi + 1)
        return table[np.maximum(idx, -1, out=idx)]  # np.clip costs more on small keys
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return np.where(sorted_keys[pos] == keys, pos, -1)


def _member(ids, n: int) -> np.ndarray:
    """Lookup table over the ids [0, n), True at each of ``ids`` (an integer
    array-like) that lies there: ``_member(ids, n)[x]`` tests ids x in [0, n)
    for membership with one gather."""
    ids = np.asarray(ids, dtype=np.int64).ravel()
    table = np.zeros(n, dtype=bool)
    table[ids[(ids >= 0) & (ids < n)]] = True
    return table


def _is_subset(rows: np.ndarray, n: int) -> np.ndarray:
    """Which vertex rows list strictly increasing ids inside [0, n)."""
    ok = np.ones(len(rows), dtype=bool)
    if rows.shape[1]:
        ok &= (rows[:, 0] >= 0) & (rows[:, -1] < n)
    for j in range(rows.shape[1] - 1):
        ok &= rows[:, j] < rows[:, j + 1]
    return ok


def _subset_rows(n: int, w: int) -> np.ndarray:
    """The w-subsets of [n] (w >= 1) as lexicographically ordered rows, built
    one column at a time: a row ending in c gets each of c+1 .. n-w+j as its
    column j, in order."""
    rows = np.arange(n - w + 1, dtype=np.int32)[:, None]
    for j in range(1, w):
        last = rows[:, -1].astype(np.int64)
        counts = n - w + j - last
        parent = np.repeat(np.arange(len(rows)), counts)
        first = np.cumsum(counts) - counts
        out = np.empty((len(parent), j + 1), dtype=np.int32)
        out[:, :j] = rows[parent]
        out[:, j] = np.arange(len(parent)) + (last + 1 - first)[parent]
        rows = out
    return rows


def _subset_ranks(rows: np.ndarray, n: int) -> np.ndarray:
    """Positions of vertex rows among the lexicographically ordered w-subsets
    of [n], by the combinatorial number system:
    rank = C(n, w) - 1 - sum_j C(n-1-c_j, w-j).  A row that is not strictly
    increasing inside [0, n) maps to -1."""
    rows = np.asarray(rows, dtype=np.int64)
    w = rows.shape[1]
    # binom[m, c] = C(n-1-c, m), each row the running sum of the one before
    # (Pascal's rule); entries no subset reaches may wrap, and are never read
    binom = np.zeros((w + 1, n), dtype=np.int64)
    binom[0] = 1
    for m in range(1, w + 1):
        np.cumsum(binom[m - 1, :0:-1], out=binom[m, -2::-1])
    rank = np.full(len(rows), math.comb(n, w) - 1, dtype=np.int64)
    term = np.empty_like(rank)
    for j in range(w):
        rank -= binom[w - j].take(rows[:, j], mode="clip", out=term)
    ok = _is_subset(rows, n)
    if not ok.all():
        rank[~ok] = -1
    return rank


@functools.cache
def position_subsets(m: int, *sizes: int) -> tuple[np.ndarray, ...]:
    """Every choice of disjoint ascending blocks of the given sizes inside m
    positions, and the positions left over as a last block: one (choices, size)
    array per block, in the order of nested ``itertools.combinations`` loops,
    each over the positions the blocks before it left.  With one size k: the
    k-subsets, and their complements in reverse lexicographic order.  Built
    once per argument tuple; the arrays are read-only."""
    def rest(blocks):
        return [p for p in range(m) if not any(p in b for b in blocks)]

    choices = [()]
    for k in sizes:
        choices = [blocks + (b,) for blocks in choices
                   for b in itertools.combinations(rest(blocks), k)]
    choices = [blocks + (tuple(rest(blocks)),) for blocks in choices]
    widths = [*sizes, m - sum(sizes)]
    out = tuple(np.array([blocks[i] for blocks in choices], dtype=np.int64)
                .reshape(len(choices), w) for i, w in enumerate(widths))
    for arr in out:
        arr.flags.writeable = False
    return out


def _row_codes(rows: np.ndarray) -> np.ndarray:
    """One integer per row of nonnegative ints, equal for equal rows and
    ordered as the rows are lexicographically: each column a digit in its own
    radix (its largest value + 1)."""
    radix = [int(col.max(initial=0)) + 1 for col in rows.T]  # max(axis=0) is slow here
    if math.prod(radix) < 2 ** 62:
        weights = [math.prod(radix[j + 1:]) for j in range(len(radix))]
        return rows @ np.array(weights, dtype=np.int64)
    # too many digits for one int64: the rank among the distinct rows
    order = np.lexsort(rows.T[::-1])
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[order[1:]] != rows[order[:-1]]).any(axis=1)
    codes = np.empty(len(rows), dtype=np.int64)
    codes[order] = np.cumsum(new) - 1
    return codes


def _group(*keys):
    """Ids of the distinct tuples of nonnegative integer keys, numbered in
    lexicographic order, and each group's first (least) index: counted over
    the ``_row_codes`` space where it holds no more codes than there are
    keys, else sorted.  numpy's ``unique`` takes a hash path many times slower
    on these keys, so the package groups here and nowhere else."""
    rows = np.column_stack(keys)
    code = rows[:, 0] if rows.shape[1] == 1 else _row_codes(rows)  # a column is its own code
    n = len(code)
    space = int(code.max(initial=-1)) + 1
    if 0 < space <= n:
        present = np.bincount(code, minlength=space) > 0
        ids = (np.cumsum(present) - 1)[code]
        first = np.full(int(present.sum()), n, dtype=np.intp)
        np.minimum.at(first, ids, np.arange(n))
        return ids, first
    order = np.argsort(code)
    code = code[order]
    new = np.ones(n, dtype=bool)
    np.not_equal(code[1:], code[:-1], out=new[1:])
    ids = np.empty(n, dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    # the sort is not stable: a group's first member is its least index
    return ids, np.minimum.reduceat(order, np.flatnonzero(new))


@dataclass(frozen=True)
class LevelIndex:
    """Indexed enumeration of one face level with its chain measure.

    Rows are looked up among ``_keys``, their sorted ``_encode_rows`` keys; a
    level without keys holds every (k+1)-subset of [n] and ranks rows by
    formula (``_subset_ranks``)."""

    k: int
    faces: np.ndarray  # (m, k+1) int32, rows in lexicographic order
    measure: np.ndarray  # (m,) probabilities summing to 1
    n_vertices: int
    _keys: np.ndarray = field(repr=False, default=None)

    @property
    def size(self) -> int:
        return len(self.faces)

    def face(self, i: int) -> Face:
        return tuple(self.faces[i].tolist())

    def iter_faces(self):
        return map(tuple, self.faces.tolist())

    def index_of(self, face) -> int:
        t = check_face(face)
        if len(t) != self.k + 1:
            raise NotAFace(f"face {t} is not at level {self.k}")
        return int(self.index_rows(np.array(t, dtype=np.int64).reshape(1, -1))[0])

    def index_rows(self, rows: np.ndarray, strict: bool = True) -> np.ndarray:
        """Vectorized face-row lookup; missing rows raise or yield -1."""
        if self._keys is None:
            out = _subset_ranks(rows, self.n_vertices)
        else:
            out = _lookup_rows(self._keys, rows, self.n_vertices)
        if strict and (out < 0).any():
            bad = np.asarray(rows)[out < 0][0]
            raise NotAFace(f"{tuple(int(v) for v in bad)} is not a face of this complex")
        return out

    def sub_faces(self, rows: np.ndarray, pattern) -> np.ndarray:
        """Positions at this level of the sub-faces rows[i, pattern[p]] of face
        rows, as a (len(pattern), len(rows)) array, pattern-major, int32
        where the level has fewer than 2^31 faces; each pattern row lists
        ascending columns, so sub-faces of sorted rows stay sorted.  A
        sub-face that is not at this level raises ``NotAFace``."""
        pattern = np.asarray(pattern, dtype=np.int64)
        (m, w), n = pattern.shape, len(rows)
        columns = np.asarray(rows).T
        out = np.empty((m, n), dtype=np.int32 if self.size < 2**31 else np.int64)
        # the patterns in blocks of at most _GATHER_ENTRIES gathered ids, each
        # with column j of every sub-face as one contiguous (patterns, n) block,
        # so the keys are encoded column by column
        step = max(1, _GATHER_ENTRIES // max(1, n * w))
        for lo in range(0, m, step):
            cols = columns[pattern[lo:lo + step].T].astype(np.int64)
            size = cols.shape[1]
            out[lo:lo + size] = self.index_rows(cols.reshape(w, size * n).T).reshape(size, n)
        return out

    def measure_of_rows(self, rows: np.ndarray) -> np.ndarray:
        idx = self.index_rows(rows, strict=False)
        out = np.zeros(len(idx))
        hit = idx >= 0
        out[hit] = self.measure[idx[hit]]
        return out


def _make_level(rows: np.ndarray, weights: np.ndarray, n: int, k: int) -> LevelIndex:
    """The distinct rows in key order, duplicates' weights added in input order."""
    keys = _encode_rows(rows, n)
    ids, first = _group(keys)
    return LevelIndex(k=k, faces=rows[first].astype(np.int32),
                      measure=np.bincount(ids, weights, minlength=len(first)),
                      n_vertices=n, _keys=keys[first])


class Complex:
    """Pure d-dimensional weighted simplicial complex.

    ``coloring`` maps each vertex to a color in [0, d]; when present, every
    top face must be a color transversal (one vertex of each color).
    ``vertex_labels`` carries original ids when the complex arose as a link.
    """

    def __init__(self, n_vertices: int, d: int, top_rows: np.ndarray | None,
                 top_weights: np.ndarray | None, coloring=None,
                 uniform_complete: bool = False, vertex_labels=None):
        self.n_vertices = int(n_vertices)
        self.d = int(d)
        self.coloring = None if coloring is None else tuple(int(c) for c in coloring)
        self.uniform_complete = bool(uniform_complete)
        self.vertex_labels = None if vertex_labels is None else tuple(vertex_labels)
        self._levels: dict[int, LevelIndex] = {}
        self._colored_levels: dict[frozenset, LevelIndex] = {}
        # k -> (lambda2, lambda_min) of every k-face's link, filled by spectra
        self._link_spectra: dict[int, tuple] = {}
        # (I, J) color sets -> colored-walk norm, filled by spectra
        self._colored_norms: dict[tuple, float] = {}
        if self.uniform_complete:
            self._tops = None
            self._weights = None
            return
        self._tops, self._weights = self._validate(np.asarray(top_rows, dtype=np.int32),
                                                   np.asarray(top_weights, dtype=float))

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
        if len(_group(_encode_rows(rows, self.n_vertices))[1]) != len(rows):
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
            rows = _subset_rows(self.n_vertices, k + 1)
            lev = LevelIndex(k=k, faces=rows, measure=np.full(len(rows), 1.0 / len(rows)),
                             n_vertices=self.n_vertices)
        elif k == self.d:
            lev = _make_level(self._tops, self._weights, self.n_vertices, k)
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
            if t[0] < 0 or t[-1] >= self.n_vertices or k > self.d:
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
            mass = (math.comb(self.n_vertices - j, self.d + 1 - j)
                    / math.comb(self.n_vertices, self.d + 1))
            return np.where(_is_subset(rows, self.n_vertices), mass, 0.0)
        return math.comb(self.d + 1, j) * self.level(j - 1).measure_of_rows(rows)

    def is_face(self, face) -> bool:
        t = check_face(face)
        if len(t) == 0:
            return True
        if self.uniform_complete:
            return len(t) <= self.d + 1 and 0 <= t[0] and t[-1] < self.n_vertices
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

    def _color_mask(self, colors) -> np.ndarray:
        """Per vertex, whether its color is one of ``colors``: a lookup table
        over the colors [0, d], gathered by the coloring."""
        return _member(sorted(int(c) for c in colors), self.d + 1)[np.asarray(self.coloring)]

    def colored_level(self, colors) -> LevelIndex:
        """Faces of exactly the given color set, with the transversal measure,
        indexed like a level (cached).

        The measure of a face s with col(s) = I is Pr[top >= s], which is also
        the probability that the color-I subface of a random top face equals s.
        """
        if not self.is_partite:
            raise HdxError("complex is not partite")
        key = frozenset(int(c) for c in colors)
        if key in self._colored_levels:
            return self._colored_levels[key]
        tops, weights = self.top_arrays()
        sub = tops[self._color_mask(key)[tops]].reshape(len(tops), len(key))
        sub = np.sort(sub, axis=1)
        lev = _make_level(sub, weights, self.n_vertices, len(key) - 1)
        self._colored_levels[key] = lev
        return lev

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
        member = _member(s, self.n_vertices)[tops]
        rows_hit = member.sum(axis=1) == len(s)
        sub = tops[rows_hit]
        w = weights[rows_hit]
        rest = sub[~member[rows_hit]].reshape(len(sub), -1)
        # the link's vertices in id order, numbered densely
        used = _member(rest, self.n_vertices)
        dense = (np.cumsum(used, dtype=np.int32) - 1)[rest]  # rows stay increasing
        labels = np.flatnonzero(used).tolist()
        coloring = None
        if self.is_partite:
            free = ~_member([self.coloring[v] for v in s], self.d + 1)
            coloring = (np.cumsum(free) - 1)[np.asarray(self.coloring)[labels]].tolist()
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
    # one vertex per part, the last part's varying fastest
    rows = (np.indices(sizes).reshape(len(sizes), math.prod(sizes)).T
            + offsets[:-1]).astype(np.int32)
    weights = np.full(len(rows), 1.0 / len(rows))
    return Complex(int(offsets[-1]), len(sizes) - 1, rows, weights,
                   coloring=np.repeat(np.arange(len(sizes)), sizes).tolist())


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
