"""The compiled float formatter prints what repr prints, and the number-table
writer gives the bytes csv.writer gave, a bounded block at a time."""

import csv
import io
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemlevy import _compiled, cli

EDGES = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
    sys.float_info.max, -sys.float_info.max,
    2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 1, 2.0 ** 53 + 2,
    1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1e-5, 1.5e16,
    0.1, 0.2, 0.3, 1 / 3, 2 / 3, 123456.789, 1e22, 1e23, 5e-5, 1e100, 1e-100,
    *(10.0 ** k for k in range(-30, 31)),
]


def repr_lines(block) -> bytes:
    """The lines the formatter must write: each cell its repr."""
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()


@pytest.fixture(scope="module")
def float_rows(compiled):
    formatter = _compiled.float_rows()
    assert formatter is not None, "the compiled float formatter did not load"
    return formatter


def every_exponent():
    """Each biased exponent, subnormal and special included, with the
    mantissas at and next to its ends and its middle, of both signs."""
    mantissas = (0, 1, 2, 3, 1 << 51, (1 << 52) - 2, (1 << 52) - 1)
    bits = [(sign << 63) | (e << 52) | m
            for sign in (0, 1) for e in range(2048) for m in mantissas]
    return np.array(bits, dtype=np.uint64).view(np.float64)


def test_formatter_prints_repr_on_the_edge_classes(float_rows):
    for block in (np.array(EDGES).reshape(-1, 1), np.array(EDGES).reshape(1, -1),
                  every_exponent().reshape(-1, 7)):
        assert float_rows(block) == repr_lines(block)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_formatter_prints_repr_on_any_floats(float_rows, values):
    for block in (np.array(values).reshape(-1, 1), np.array(values).reshape(1, -1)):
        assert float_rows(block) == repr_lines(block)


def test_formatter_prints_repr_on_random_bit_patterns(float_rows):
    """A million doubles of random bits, new ones on each run."""
    seed = np.random.SeedSequence().entropy
    rng = np.random.default_rng(seed)
    block = np.frombuffer(rng.bytes(8 * 1_000_000), np.float64).reshape(-1, 10)
    got, want = float_rows(block).splitlines(), repr_lines(block).splitlines()
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert (len(got), bad[:3]) == (len(want), []), f"seed {seed}"


def test_formatter_refuses_a_block_it_cannot_read(float_rows):
    block = np.zeros((4, 3))
    for misfit in (block[:, :2], block.astype(np.float32), block.ravel(), block.T):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            float_rows(misfit)


def csv_writer_bytes(header, columns) -> bytes:
    """What csv.writer wrote for these columns, before the writer took blocks."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(c.tolist() for c in columns)))
    return buf.getvalue().encode()


B = cli._BLOCK_ROWS


@pytest.mark.parametrize("formatter", ["compiled", "repr"])
@pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 2 * B + 1])
def test_writer_gives_csv_writers_bytes_at_any_block_boundary(tmp_path, monkeypatch, request,
                                                              formatter, rows):
    """Tables of 1, B - 1, B, B + 1 and 2B + 1 rows (B the writer's block
    size), written through the formatter and through repr, are the bytes
    csv.writer wrote."""
    if formatter == "compiled":
        request.getfixturevalue("float_rows")
    else:
        monkeypatch.setattr(_compiled, "float_rows", lambda: None)
    rng = np.random.default_rng(rows)
    columns = [rng.standard_normal(rows), np.frombuffer(rng.bytes(8 * rows), np.float64),
               rng.random(rows) * 1e-6, np.arange(rows, dtype=np.float64)]
    header = ["a", "b", "c", "d"]
    path = tmp_path / "table.csv"
    cli._write_numbers(path, header, columns)
    assert path.read_bytes() == csv_writer_bytes(header, columns)


@pytest.mark.parametrize("formatter, rows", [("compiled", 1_000_000), ("repr", 50_000)])
def test_writer_memory_does_not_grow_with_the_table(monkeypatch, request, formatter, rows):
    """A table of 10 float columns takes under 4 MB to write beyond its
    columns, however long it is: 1e6 rows make a 190 MB file, 5e4 rows
    (through the slower repr) 9.5 MB."""
    if formatter == "compiled":
        request.getfixturevalue("float_rows")
    else:
        monkeypatch.setattr(_compiled, "float_rows", lambda: None)
    base = np.random.default_rng(5).standard_normal(rows + 9)
    columns = [base[k:k + rows] for k in range(10)]  # ten columns from one array
    tracemalloc.start()
    try:
        cli._write_numbers(os.devnull, [f"c{k}" for k in range(10)], columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
