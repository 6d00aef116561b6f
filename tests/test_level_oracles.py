"""The enumerated complete level kept as the oracle for its closed forms.

A complete complex's levels were built from ``itertools.combinations`` and
indexed like any other level: ``_make_level`` sorts the rows by their
``_encode_rows`` keys, and ``index_rows`` searches those keys.  Now
``Complex.level`` builds the rows of a complete complex one column at a time,
and its ``index_rows`` ranks rows by the combinatorial number system.  That
path is kept here; the tests require equal arrays (``np.array_equal``, no
tolerance), on every level of random complete(n, d) with n <= 14 and d <= 5,
and on query rows that are unsorted, repeated, negative, past n or empty.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from hdxlab.complexes import LevelIndex, _make_level, complete_complex, position_subsets
from hdxlab.errors import NotAFace


def complete_level_loop(n: int, k: int) -> LevelIndex:
    rows = np.array(list(itertools.combinations(range(n), k + 1)),
                    dtype=np.int32).reshape(-1, k + 1)
    return _make_level(rows, np.full(len(rows), 1.0 / len(rows)), n, k)


def query_rows(n: int, w: int):
    """Lists of width-w rows: faces of the complete level, and rows of ids in
    [-2, n+2) that may be unsorted, repeat an id or leave [0, n)."""
    face = st.sets(st.integers(0, n - 1), min_size=w, max_size=w).map(sorted)
    junk = st.lists(st.integers(-2, n + 1), min_size=w, max_size=w)
    return st.lists(st.one_of(face, junk), max_size=30)


def assert_same_lookup(lev: LevelIndex, want: LevelIndex, rows: np.ndarray):
    got = lev.index_rows(rows, strict=False)
    assert got.dtype == np.int64
    assert np.array_equal(got, want.index_rows(rows, strict=False))
    assert np.array_equal(lev.measure_of_rows(rows), want.measure_of_rows(rows))
    if (got < 0).any():
        with pytest.raises(NotAFace):
            lev.index_rows(rows)
    else:
        assert np.array_equal(lev.index_rows(rows), got)


@given(n=st.integers(1, 14), d=st.integers(0, 5))
def test_complete_levels_match_combinations(n, d):
    assume(d < n)
    c = complete_complex(n, d)
    for k in range(d + 1):
        lev, want = c.level(k), complete_level_loop(n, k)
        assert lev.faces.dtype == want.faces.dtype
        assert np.array_equal(lev.faces, want.faces), k
        assert np.array_equal(lev.measure, want.measure), k
        assert np.array_equal(lev.index_rows(lev.faces), np.arange(lev.size)), k


@given(data=st.data(), n=st.integers(1, 14), w=st.integers(1, 6))
def test_complete_index_rows_match_the_search(data, n, w):
    assume(w <= n)
    rows = np.array(data.draw(query_rows(n, w)), dtype=np.int64).reshape(-1, w)
    assert_same_lookup(complete_complex(n, w - 1).level(w - 1),
                       complete_level_loop(n, w - 1), rows)


def test_complete_index_rows_edge_cases():
    for n, w in [(1, 1), (7, 1), (7, 3), (9, 9)]:
        lev, want = complete_complex(n, w - 1).level(w - 1), complete_level_loop(n, w - 1)
        assert_same_lookup(lev, want, np.zeros((0, w), dtype=np.int64))
        assert_same_lookup(lev, want, np.zeros((0, w), dtype=np.int32))
    lev, want = complete_complex(7, 3).level(0), complete_level_loop(7, 0)
    assert_same_lookup(lev, want, np.array([[-1], [0], [6], [7], [3], [3]]))
    assert lev.index_rows(np.array([[-1], [0], [6], [7]]), strict=False).tolist() == [-1, 0, 6, -1]
    lev = complete_complex(7, 3).level(2)
    assert_same_lookup(lev, complete_level_loop(7, 2),
                       np.array([[0, 1, 2], [4, 5, 6], [2, 1, 0], [1, 1, 2], [-1, 0, 1],
                                 [4, 5, 7], [0, 2, 9]], dtype=np.int32))


def test_complete_sub_faces_match_the_search():
    c = complete_complex(40, 3)
    tops = c.level(3).faces
    assert np.array_equal(tops, complete_level_loop(40, 3).faces)
    for l in range(3):
        want = complete_level_loop(40, l)
        keep, rest = position_subsets(4, l + 1)
        for pattern in (keep, keep[::-1]):
            assert np.array_equal(c.level(l).sub_faces(tops, pattern),
                                  want.sub_faces(tops, pattern)), l
        assert np.array_equal(c.level(2 - l).sub_faces(tops, rest),
                              complete_level_loop(40, 2 - l).sub_faces(tops, rest)), l
