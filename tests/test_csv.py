"""CSV cells and chunked CSV writing.

Both are checked against the whole-file emitter they replaced, kept here as
the reference: one ``_reference_cell`` call per cell and one join of every
row.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchfix.cli import _CSV_CHUNK_ROWS, _Emitter, format_column, format_number, parse_config


def _reference_cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return repr(x)
    if x == 0.0:
        return "0.0"
    if abs(x) < 1e-4:
        return np.format_float_scientific(x, unique=True)
    return repr(x)


def _reference_csv(columns: dict, digest: str, seed: str) -> bytes:
    cells = [
        [_reference_cell(x) for x in (c.tolist() if isinstance(c, np.ndarray) else c)]
        for c in columns.values()
    ]
    rows = map(",".join, zip(*cells))
    lines = [",".join(columns), *rows, f"# config_sha256: {digest}", f"# seed: {seed}"]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _check_cells(column) -> None:
    cells = format_column(column)
    assert cells == [format_number(x) for x in column]
    assert cells == [_reference_cell(x) for x in column]


# ---------------------------------------------------------------------------
# cell rules, per column kind
# ---------------------------------------------------------------------------

EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 1e-4, -1e-4,
    np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
    -np.nextafter(1e-4, 0.0), -np.nextafter(1e-4, 1.0),
    5e-324, -5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
    1.7976931348623157e308, 1e16, 1e-5, 123.456,
]
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
float64_cells = st.one_of(floats, st.sampled_from(EDGE_FLOATS))


@settings(max_examples=200, deadline=None)
@given(st.lists(float64_cells, max_size=40))
def test_float64_column(values):
    _check_cells(np.array(values, dtype=np.float64))


def test_float64_column_with_repeats():
    # Each distinct value is formatted once and its cell gathered back: both
    # zeros must come out 0.0, NaNs of either sign or payload nan, and every
    # repeat in its own place.
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                    dtype=np.uint64).view(np.float64)
    distinct = np.concatenate([np.array(EDGE_FLOATS, dtype=np.float64), nans,
                               [np.nextafter(5e-324, 1.0), 0.1, 2.5e-5, -7.0]])
    rng = np.random.default_rng(5)
    column = distinct[rng.integers(0, len(distinct), size=2000)]
    assert len(np.unique(column)) < len(distinct) < len(column)
    _check_cells(column)
    assert format_column(nans) == ["nan"] * 3
    assert format_column(np.array([-0.0, 0.0, -0.0])) == ["0.0"] * 3


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.floats(width=32), st.sampled_from(
    [0.0, -0.0, math.inf, math.nan, 1e-4, 1e-45, 9.9e-5, 3.4e38])), max_size=40))
def test_float32_column(values):
    _check_cells(np.array(values, dtype=np.float32))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(-2**63, 2**63 - 1),
                          st.sampled_from([-2**63, 2**63 - 1, 0, -1])), max_size=40))
def test_int64_column(values):
    _check_cells(np.array(values, dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**64 - 1])),
                max_size=40))
def test_uint64_column(values):
    _check_cells(np.array(values, dtype=np.uint64))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.booleans(), max_size=40))
def test_bool_column(values):
    _check_cells(np.array(values, dtype=bool))
    _check_cells(values)


@settings(max_examples=50, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(0, 60), st.integers(1, 7))
def test_range_column(start, count, step):
    _check_cells(range(start, start + count * step, step))


mixed_cells = st.one_of(
    st.text(max_size=6), st.booleans(), st.integers(-2**70, 2**70), float64_cells,
    st.sampled_from([np.float32(1e-5), np.int64(-3), np.uint64(2**64 - 1), np.bool_(True)]),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(mixed_cells, max_size=30))
def test_mixed_list_column(values):
    _check_cells(values)
    _check_cells(np.array(values, dtype=object))


@pytest.mark.parametrize("column", [
    [], range(0), np.array([]), np.array([], dtype=np.int64), np.array([], dtype=bool),
    np.array([], dtype=object),
])
def test_empty_column(column):
    assert format_column(column) == []


def test_regularity_labels():
    _check_cells(["all", 1.0, 1.6])
    assert format_column(["all", 1, 2.5e-5]) == ["all", "1", "2.5e-05"]


@pytest.mark.parametrize("x", [5e-324, -5e-324, 1e-05, np.nextafter(1e-4, 0.0),
                               2.2250738585072014e-308])
def test_scientific_cell_is_numpys_shortest_form(x):
    # Below 1e-4 in size, the cell is repr with a point after an integral
    # mantissa; it equals numpy's shortest scientific form.
    assert format_number(x) == np.format_float_scientific(x, unique=True)
    assert format_column(np.array([x])) == [format_number(x)]


@pytest.mark.parametrize("column, cells", [
    (np.array([0, -2**63]), ["0", "-9223372036854775808"]),
    (np.array([2**64 - 1, 0], dtype=np.uint64), ["18446744073709551615", "0"]),
    (np.array([True, False]), ["True", "False"]),
    (np.array([1.0, -0.5, 2.5e-5]), ["1.0", "-0.5", "2.5e-05"]),
])
def test_distinct_array_keeps_row_order(column, cells):
    # A column without repeats skips np.unique's gather; its cells stay in
    # row order, not np.unique's sorted order.
    assert format_column(column) == cells


# ---------------------------------------------------------------------------
# chunked writing
# ---------------------------------------------------------------------------


def _emitter(tmp_path):
    config = parse_config({"model": {"kind": "cascade", "N": 2, "theta": 0.75},
                           "mc": {"depth": 2, "replicates": 2, "seed": 5}})
    return _Emitter(config, str(tmp_path / "out"))


def _trace_columns(rows: int, seed: int = 3) -> dict:
    rng = np.random.default_rng(seed)
    replicate, n = np.divmod(np.arange(rows), 11)
    w = rng.exponential(size=rows) * 10.0 ** rng.integers(-320, 3, size=rows)
    w[rng.random(rows) < 0.1] = 0.0
    return {"replicate": replicate, "n": n, "W_n_alpha": w, "R_n": -w[::-1].copy(),
            "label": ["all" if k % 7 == 0 else float(k) * 1e-6 for k in range(rows)]}


@pytest.mark.parametrize("rows", [
    0, 1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1, 3 * _CSV_CHUNK_ROWS + 7,
])
def test_chunked_csv_matches_whole_file_join(rows, tmp_path):
    em = _emitter(tmp_path)
    columns = _trace_columns(rows)
    em.csv("traces", columns)
    got = (tmp_path / "out-traces.csv").read_bytes()
    assert got == _reference_csv(columns, em.digest, em.seed)
    assert em.lines == [f"wrote {tmp_path / 'out-traces.csv'}"]


def test_chunked_csv_rejects_unequal_columns(tmp_path):
    em = _emitter(tmp_path)
    columns = {"n": range(_CSV_CHUNK_ROWS + 5), "t": np.linspace(0.0, 1.0, _CSV_CHUNK_ROWS + 2)}
    path = tmp_path / "out-short.csv"
    message = f"{path}: columns differ in length (n: 4101, t: 4098)"
    with pytest.raises(ValueError, match=re.escape(message)):
        em.csv("short", columns)
    assert not path.exists()
    assert em.lines == []


@pytest.mark.parametrize("first, second", [(3 * _CSV_CHUNK_ROWS + 7, 5), (0, 40), (40, 0)])
def test_rewrite_leaves_no_stale_bytes(first, second, tmp_path):
    # An artifact written again is a new file: with fewer rows, nothing of
    # the longer one (its rows or its trailer) is left after the new trailer.
    em = _emitter(tmp_path)
    em.csv("traces", _trace_columns(first))
    columns = _trace_columns(second, seed=9)
    em.csv("traces", columns)
    assert (tmp_path / "out-traces.csv").read_bytes() == _reference_csv(columns, em.digest,
                                                                        em.seed)


def test_chunked_csv_memory_is_bounded(tmp_path):
    # 200k rows are 8.8 MB of text.  Chunked writing holds one chunk's cells:
    # the traced peak measured 2.3 MB with 4096-row chunks, against a bound
    # of 2.9 MB.  The whole-file join held every cell and the joined text:
    # 90 MB.
    rows = 200_000
    replicate, n = np.divmod(np.arange(rows), 11)
    w = np.random.default_rng(4).exponential(size=rows)
    w[::13] = 0.0
    w[::17] *= 1e-6
    columns = {"replicate": replicate, "n": n, "W_n_alpha": w, "R_n": w * 0.5}
    em = _emitter(tmp_path)
    tracemalloc.start()
    try:
        em.csv("traces", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "out-traces.csv").stat().st_size
    assert size > 8_000_000
    assert peak < size / 3, (peak, size)
