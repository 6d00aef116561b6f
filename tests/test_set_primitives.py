"""Distinct values and membership without numpy's set routines.

On numpy 2.x, ``np.unique`` and the routines built on it (``union1d``,
``isin``, ``setdiff1d`` ...) take a hash path that is many times slower than
a sort on the integer keys hdxlab groups.  The package finds distinct values,
first members and inverses with ``complexes._group`` (counted over the code
space of ``_row_codes``, one radix per column, where that space holds no more
codes than there are keys, else one sort and an adjacent compare;
``_row_codes`` ranks rows too wide for one int64 key by a lexsort), tests ids
for membership with a boolean table indexed by id (``complexes._member``, and
``Complex._color_mask`` for colours) and finds integer codes in a sorted code
set with ``complexes._search`` (a gather from a table over the codes where
that table is no larger than the keys looked up, else a sorted search).
Each is held here to the numpy call it replaced, bit for bit, on inputs
forced onto each side of its rule, and on ids that repeat, fall outside the
table or are absent; ``colored_level`` and ``link`` are held to their
``np.isin`` versions on random complexes.  The private sort-dedupe of
``_make_level``, the dict relabel of ``Complex.link`` and the sorted lookup
of ``SubspaceLevel.positions`` that ``_group`` replaced are kept as oracles:
levels, colored levels, links and Grassmann containment indices must equal
them bit for bit.  An AST check keeps the numpy set routines out of
``src/hdxlab``.
"""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hdxlab
from hdxlab.complexes import (Complex, LevelIndex, _encode_rows, _group, _lookup_rows,
                              _make_level, _member, _row_codes, _search, position_subsets)
from hdxlab.grassmann import GrassmannPoset, SubspaceLevel, _contained, _sub_level

from conftest import random_partite_complex, random_weighted_complex

SET_ROUTINES = {"unique", "union1d", "isin", "in1d", "setdiff1d", "intersect1d", "setxor1d"}


def key_columns(high, max_keys=40, ranges=None):
    """1 to 3 equal-length columns of nonnegative ints below ``high`` (or one
    column below each of ``ranges``), with repeated values."""
    highs = st.just(ranges) if ranges else st.integers(1, 3).map(lambda k: [high] * k)
    return st.tuples(highs, st.integers(0, max_keys)).flatmap(
        lambda hn: st.tuples(*(st.lists(st.integers(0, h - 1), min_size=hn[1], max_size=hn[1])
                               for h in hn[0])).map(list))


def assert_group_matches_unique(keys):
    ids, first = _group(*keys)
    if len(keys) == 1:
        values, index, inverse = np.unique(keys[0], return_index=True, return_inverse=True)
        assert np.array_equal(keys[0][first], values)
    else:
        rows = np.column_stack(keys)
        values, index, inverse = np.unique(rows, axis=0, return_index=True,
                                           return_inverse=True)
        assert np.array_equal(rows[first], values)
    assert np.array_equal(first, index)
    assert np.array_equal(ids, inverse.ravel())
    assert ids.dtype == first.dtype == np.intp


# 2**40 in two or three columns overflows one int64 code, so those keys take
# the lexsort ranks of ``_row_codes``
@given(st.one_of(key_columns(5), key_columns(2**40)))
def test_group_matches_unique(cols):
    assert_group_matches_unique([np.array(c, dtype=np.int64) for c in cols])


# many keys below 5: a code space of at most 125 codes, counted where the keys
# are at least as many; two columns of unequal small ranges, whose radices
# (50 and 3) span 150 codes where one radix for both would span 2500
@given(st.one_of(key_columns(5, max_keys=300), key_columns(0, 300, ranges=[50, 3]),
                 key_columns(0, 300, ranges=[3, 50])))
def test_group_of_small_code_spaces_matches_unique(cols):
    assert_group_matches_unique([np.array(c, dtype=np.int64) for c in cols])


def test_group_counts_small_code_spaces_and_sorts_large_ones():
    def refuse(*args, **kwargs):
        raise AssertionError("sorted")

    rng = np.random.default_rng(3)
    small = [rng.integers(0, 5, 200), rng.integers(0, 3, 200)]
    large = [rng.integers(0, 2**40, 200)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "argsort", refuse)
        counted = _group(*small)
        with pytest.raises(AssertionError, match="sorted"):
            _group(*large)
    for keys, got in ((small, counted), (large, _group(*large))):
        values, index, inverse = np.unique(np.column_stack(keys), axis=0, return_index=True,
                                           return_inverse=True)
        assert np.array_equal(got[0], inverse.ravel()) and np.array_equal(got[1], index)


def test_row_codes_take_one_radix_per_column():
    rows = np.array([[0, 2], [9, 0], [4, 1], [9, 2]])
    assert _row_codes(rows).tolist() == [2, 27, 13, 29]


@given(key_columns(5).filter(lambda cols: len(cols) > 1))
def test_row_codes_of_wide_rows_match_unique_inverse(cols):
    rows = np.array(cols, dtype=np.int64).T + 2**40  # past one int64 code
    assert np.array_equal(_row_codes(rows),
                          np.unique(rows, axis=0, return_inverse=True)[1].ravel())


@given(st.integers(0, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-3, n + 3), max_size=20),
    st.lists(st.integers(0, max(n - 1, 0)), max_size=40) if n else st.just([]))))
def test_member_matches_isin(case):
    n, ids, values = case
    table = _member(ids, n)
    assert table.shape == (n,) and table.dtype == bool
    assert np.array_equal(table[np.array(values, dtype=np.int64)], np.isin(values, ids))


def search_by_sort(sorted_keys, keys):
    """``_search`` as it was: a sorted search, -1 where the key is absent."""
    if not len(sorted_keys):
        return np.full(np.shape(keys), -1, dtype=np.intp)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return np.where(sorted_keys[pos] == keys, pos, -1)


@given(st.lists(st.integers(-50, 50), max_size=30), st.lists(st.integers(-60, 60), max_size=40))
def test_search_matches_isin(codes, keys):
    sorted_keys = np.sort(np.array(codes, dtype=np.int64))
    keys = np.array(keys, dtype=np.int64)
    pos = _search(sorted_keys, keys)
    assert np.array_equal(pos >= 0, np.isin(keys, codes))
    assert np.array_equal(sorted_keys[pos[pos >= 0]], keys[pos >= 0])


# codes below 20 looked up by at least 20 keys gather from a table; codes
# past 2^40, or negative ones, are searched
@given(st.one_of(
    st.tuples(st.lists(st.integers(0, 19), max_size=30),
              st.lists(st.integers(-3, 25), min_size=20, max_size=80)),
    st.tuples(st.lists(st.integers(0, 2**41), max_size=30),
              st.lists(st.integers(-3, 2**41), max_size=80)),
    st.tuples(st.lists(st.integers(-5, 19), max_size=30),
              st.lists(st.integers(-8, 25), max_size=80))))
def test_search_matches_the_sorted_search(case):
    sorted_keys = np.sort(np.array(case[0], dtype=np.int64))
    keys = np.array(case[1], dtype=np.int64)
    got = _search(sorted_keys, keys)
    assert got.dtype == np.intp and np.array_equal(got, search_by_sort(sorted_keys, keys))


def test_search_gathers_where_the_table_is_small_and_searches_elsewhere():
    def refuse(*args, **kwargs):
        raise AssertionError("searched")

    sorted_keys = np.array([1, 1, 4, 9], dtype=np.int64)
    keys = np.array([9, -1, 1, 3, 4, 10, 0, 9, 2, 1], dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "searchsorted", refuse)
        gathered = _search(sorted_keys, keys)
        with pytest.raises(AssertionError, match="searched"):
            _search(sorted_keys, keys[:9])
    assert gathered.tolist() == [3, -1, 0, -1, 2, -1, -1, 3, -1, 0]
    assert np.array_equal(_search(sorted_keys, keys[:9]), gathered[:9])


@given(st.integers(0, 2**31 - 1), st.sets(st.integers(-1, 5)))
def test_color_mask_matches_isin(seed, colors):
    c = random_partite_complex(seed, [2, 3, 1, 2])
    assert np.array_equal(c._color_mask(colors), np.isin(c.coloring, sorted(colors)))


def colored_level_by_isin(c: Complex, colors):
    """``Complex.colored_level`` as it was built on ``np.isin``."""
    cols = sorted(colors)
    tops, weights = c.top_arrays()
    mask = np.isin(np.asarray(c.coloring)[tops], cols)
    sub = np.sort(tops[mask].reshape(len(tops), len(cols)), axis=1)
    return _make_level(sub.astype(np.int64), weights.copy(), c.n_vertices, len(cols) - 1)


def link_rest_by_isin(c: Complex, s):
    """The top rows, weights and remaining vertices of ``Complex.link``, as
    they were found with ``np.isin``."""
    tops, weights = c.top_arrays()
    hit = np.isin(tops, list(s)).sum(axis=1) == len(s)
    sub = tops[hit]
    return sub[~np.isin(sub, list(s)).reshape(sub.shape)].reshape(len(sub), -1), weights[hit]


@given(st.integers(0, 2**31 - 1),
       st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
def test_colored_level_matches_isin(seed, colors):
    c = random_partite_complex(seed, [2, 3, 1, 2])
    got, want = c.colored_level(colors), colored_level_by_isin(c, colors)
    assert np.array_equal(got.faces, want.faces)
    assert np.array_equal(got.measure, want.measure)


@given(st.integers(0, 2**31 - 1), st.integers(0, 1), st.data())
def test_link_matches_isin(seed, partite, data):
    c = random_partite_complex(seed, [2, 3, 1, 2]) if partite else \
        random_weighted_complex(seed % 1000, 7, 3)
    k = data.draw(st.integers(0, c.d - 1))
    lev = c.level(k)
    s = lev.face(data.draw(st.integers(0, lev.size - 1)))
    rest, weights = link_rest_by_isin(c, s)
    link = c.link(s)
    labels = sorted(set(rest.ravel().tolist()))
    assert list(link.vertex_labels) == labels
    relabel = np.searchsorted(labels, rest).astype(np.int32)
    relabel.sort(axis=1)
    want = Complex(len(labels), c.d - len(s), relabel, weights / weights.sum())
    for got_arr, want_arr in zip(link.top_arrays(), want.top_arrays()):
        assert np.array_equal(got_arr, want_arr)


def test_package_calls_no_numpy_set_routine():
    found = []
    for path in sorted(pathlib.Path(hdxlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in SET_ROUTINES
                    and isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"}):
                found.append(f"{path.name}:{node.lineno} np.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                found += [f"{path.name}:{node.lineno} from {node.module} import {a.name}"
                          for a in node.names if a.name in SET_ROUTINES]
    assert not found, found


# -- the private group-bys that ``_group`` replaced, kept as oracles ------------------


def make_level_by_sort(rows, weights, n, k) -> LevelIndex:
    """``_make_level`` as it was: a stable sort of the row keys, an adjacent
    compare, and each duplicate run's weights added by ``np.add.at``."""
    keys = _encode_rows(rows, n)
    order = np.argsort(keys, kind="stable")
    keys, rows, weights = keys[order], rows[order], weights[order]
    if len(keys) > 1:
        uniq = np.ones(len(keys), dtype=bool)
        uniq[1:] = keys[1:] != keys[:-1]
        if not uniq.all():
            group = np.cumsum(uniq) - 1
            agg = np.zeros(int(group[-1]) + 1)
            np.add.at(agg, group, weights)
            rows, keys, weights = rows[uniq], keys[uniq], agg
    return LevelIndex(k=k, faces=rows.astype(np.int32), measure=weights, n_vertices=n,
                      _keys=keys)


def levels_by_sort(c: Complex) -> dict:
    """Every level of ``c`` as ``Complex.level`` builds it, top down, each
    from the one above, through ``make_level_by_sort``."""
    tops, weights = c.top_arrays()
    levels = {c.d: make_level_by_sort(tops.copy(), weights.copy(), c.n_vertices, c.d)}
    for k in range(c.d - 1, -1, -1):
        up = levels[k + 1]
        rows = up.faces[:, position_subsets(k + 2, 1)[1]].swapaxes(0, 1).reshape(-1, k + 1)
        levels[k] = make_level_by_sort(rows, np.tile(up.measure / (k + 2), k + 2),
                                       c.n_vertices, k)
    return levels


def link_by_dict(c: Complex, s) -> Complex:
    """``Complex.link`` of a general complex as it was: the remaining
    vertices relabelled through ``sorted(set(...))``, a dict and
    ``np.vectorize``, and the free colours through a colour dict."""
    tops, weights = c.top_arrays()
    member = _member(s, c.n_vertices)[tops]
    hit = member.sum(axis=1) == len(s)
    sub, w = tops[hit], weights[hit]
    rest = sub[~member[hit]].reshape(len(sub), -1)
    labels = sorted(set(int(v) for v in rest.ravel()))
    relabel = {v: i for i, v in enumerate(labels)}
    dense = np.vectorize(relabel.__getitem__, otypes=[np.int32])(rest)
    dense.sort(axis=1)
    coloring = None
    if c.is_partite:
        new_colors = sorted(set(range(c.d + 1)) - c.color_set(s))
        cmap = {col: i for i, col in enumerate(new_colors)}
        coloring = [cmap[c.coloring[v]] for v in labels]
    return Complex(len(labels), c.d - len(s), dense, w / w.sum(), coloring=coloring,
                   vertex_labels=labels)


def positions_by_search(level: SubspaceLevel, other: SubspaceLevel) -> np.ndarray:
    """``SubspaceLevel.positions`` as it was: the level's row codes sorted
    once, every subspace of ``other`` looked up among them."""
    codes = _row_codes(np.concatenate([level.codes, other.codes]))
    keys = codes[:len(level)]
    order = np.argsort(keys, kind="stable")
    pos = _lookup_rows(keys[order], codes[len(level):, None], int(codes.max()) + 1)
    return np.where(pos >= 0, order[pos], -1)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_level(got: LevelIndex, want: LevelIndex):
    for name in ("faces", "measure", "_keys"):
        assert_same_bits(getattr(got, name), getattr(want, name))
    assert (got.k, got.n_vertices) == (want.k, want.n_vertices)


def random_complex(seed, partite):
    return (random_partite_complex(seed, [2, 3, 1, 2]) if partite
            else random_weighted_complex(seed % 1000, 7, 3))


@given(st.integers(0, 2**31 - 1), st.integers(0, 1))
def test_levels_match_the_sort_dedupe(seed, partite):
    c = random_complex(seed, partite)
    for k, want in levels_by_sort(c).items():
        assert_same_level(c.level(k), want)


@given(st.integers(0, 2**31 - 1),
       st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
def test_colored_levels_match_the_sort_dedupe(seed, colors):
    c = random_partite_complex(seed, [2, 3, 1, 2])
    tops, weights = c.top_arrays()
    sub = np.sort(tops[c._color_mask(colors)[tops]].reshape(len(tops), len(colors)), axis=1)
    want = make_level_by_sort(sub.astype(np.int64), weights.copy(), c.n_vertices,
                              len(colors) - 1)
    assert_same_level(c.colored_level(colors), want)


def test_make_level_adds_duplicates_in_input_order():
    # three copies of one row with weights whose sum depends on the order
    rows = np.array([[1, 2], [0, 1], [1, 2], [1, 2]], dtype=np.int64)
    weights = np.array([1e16, 0.5, 1.0, -1e16])
    got, want = _make_level(rows, weights, 3, 1), make_level_by_sort(rows, weights, 3, 1)
    assert_same_level(got, want)
    assert got.measure.tolist() == [0.5, 0.0]


@given(st.integers(0, 2**31 - 1), st.integers(0, 1), st.data())
def test_link_matches_the_dict_relabel(seed, partite, data):
    c = random_complex(seed, partite)
    k = data.draw(st.integers(0, c.d - 1))
    lev = c.level(k)
    s = lev.face(data.draw(st.integers(0, lev.size - 1)))
    got, want = c.link(s), link_by_dict(c, s)
    for g, w in zip(got.top_arrays(), want.top_arrays()):
        assert_same_bits(g, w)
    assert got.vertex_labels == want.vertex_labels and got.coloring == want.coloring
    for labels in (got.vertex_labels, got.coloring or ()):
        assert all(type(v) is int for v in labels)
    assert (got.n_vertices, got.d) == (want.n_vertices, want.d)


@pytest.mark.parametrize("q,n,d,flavor", [(2, 4, 2, "linear"), (2, 4, 3, "affine"),
                                          (3, 3, 2, "linear"), (3, 3, 2, "affine")])
def test_positions_match_the_sorted_lookup(q, n, d, flavor):
    p = GrassmannPoset(q, n, d, flavor)
    rng = np.random.default_rng(q * 10 + n)
    for k in range(d + 1):
        for j in range(k + 1):
            sub = _sub_level(p, p.level(k), j)
            assert_same_bits(p.level(j).positions(sub), positions_by_search(p.level(j), sub))
            assert (_contained(p, p.level(k), j) >= 0).all()
            # a shuffled part of level j, in which the other subspaces are absent
            lev = p.level(j)
            keep = rng.permutation(len(lev))[:max(1, len(lev) // 2)]
            part = SubspaceLevel(q, flavor, lev.bases[keep],
                                 None if lev.offsets is None else lev.offsets[keep])
            got = part.positions(sub)
            assert_same_bits(got, positions_by_search(part, sub))
            assert (got < 0).any() or len(keep) == len(lev)
