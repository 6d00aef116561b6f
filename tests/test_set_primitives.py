"""Distinct values and membership without numpy's set routines.

On numpy 2.x, ``np.unique`` and the routines built on it (``union1d``,
``isin``, ``setdiff1d`` ...) take a hash path that is many times slower than
a sort on the integer keys hdxlab groups.  The package finds distinct values,
first members and inverses with ``complexes._group`` (one sort and an
adjacent compare; ``_row_codes`` ranks rows too wide for one int64 key by a
lexsort), tests ids for membership with a boolean table indexed by id
(``complexes._member``, and ``Complex._color_mask`` for colours) and tests
integer codes with a sorted search (``complexes._search``).  Each is held
here to the numpy call it replaced, bit for bit, on ids that repeat, fall
outside the table or are absent; ``colored_level`` and ``link`` are held to
their ``np.isin`` versions on random complexes.  An AST check keeps the numpy
set routines out of ``src/hdxlab``.
"""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hdxlab
from hdxlab.complexes import Complex, _group, _make_level, _member, _row_codes, _search

from conftest import random_partite_complex, random_weighted_complex

SET_ROUTINES = {"unique", "union1d", "isin", "in1d", "setdiff1d", "intersect1d", "setxor1d"}


def key_columns(high):
    """1 to 3 equal-length columns of nonnegative ints below ``high``, with
    repeated values."""
    return st.integers(1, 3).flatmap(lambda k: st.integers(0, 40).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, high - 1), min_size=n, max_size=n),
                           min_size=k, max_size=k)))


# 2**40 in two or three columns overflows one int64 code, so those keys take
# the lexsort ranks of ``_row_codes``
@given(st.one_of(key_columns(5), key_columns(2**40)))
def test_group_matches_unique(cols):
    keys = [np.array(c, dtype=np.int64) for c in cols]
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


@given(st.lists(st.integers(-50, 50), max_size=30), st.lists(st.integers(-60, 60), max_size=40))
def test_search_matches_isin(codes, keys):
    sorted_keys = np.sort(np.array(codes, dtype=np.int64))
    keys = np.array(keys, dtype=np.int64)
    pos = _search(sorted_keys, keys)
    assert np.array_equal(pos >= 0, np.isin(keys, codes))
    assert np.array_equal(sorted_keys[pos[pos >= 0]], keys[pos >= 0])


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
