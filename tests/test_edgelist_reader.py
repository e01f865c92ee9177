"""The edge-list reader's vertex decoding and its refusal of bad bytes: each
vertex must read back as ``int(text, 2)`` of its digits, and a bad byte in
any column of a line must name that line and echo it whole."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronval import KroneckerParams, ParameterError, SampledGraph, read_edgelist, write_edgelist
from kronval import edgelist
from kronval.cli import main

from conftest import traced_peak


@st.composite
def vertex_pairs(draw):
    n = draw(st.integers(1, 62))
    vertex = st.integers(0, (1 << n) - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=30))


@settings(max_examples=150, deadline=None)
@given(case=vertex_pairs())
def test_round_trip_reads_every_vertex_as_its_binary_text(case):
    n, pairs = case
    params = KroneckerParams(alpha=0.5, beta=0.25, gamma=0.5, n=n)
    graph = SampledGraph.from_pairs(params, pairs, include_loops=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        write_edgelist(graph, path)
        lines = path.read_text().splitlines()[1:]
        back = read_edgelist(path)
    texts = [line.split(" ") for line in lines]
    assert all(len(u) == len(v) == n for u, v in texts)
    want = sorted((int(u, 2), int(v, 2)) for u, v in texts)
    got = sorted([tuple(row) for row in back.edges.tolist()] + [(w, w) for w in back.loops.tolist()])
    assert got == want
    assert back == graph


@settings(max_examples=150, deadline=None)
@given(case=vertex_pairs())
def test_parse_rows_decodes_unsorted_lines(case):
    # _parse_rows checks shape and digits only; order is read_edgelist's check
    n, pairs = case
    lines = [f"{u:0{n}b} {v:0{n}b}\n" for u, v in pairs]
    u, v = edgelist._parse_rows("".join(lines).encode("ascii"), n, 2)
    assert u.dtype == v.dtype == np.int64
    assert u.tolist() == [int(line[:n], 2) for line in lines]
    assert v.tolist() == [int(line[n + 1 : 2 * n + 1], 2) for line in lines]


def _bad_bytes(column: int, n: int) -> list:
    """Bytes that do not belong in a column of a body line."""
    if column == n:
        return [b"0", b"1", b"\t"]
    if column == 2 * n + 1:
        return [b"0", b" ", b"\r"]
    return [b"2", b"/", b" ", b"\n", b"\xb1"]


# (n, rows per block): every file has at least three blocks, the second full.
@pytest.mark.parametrize("n, block_rows", [(1, 1), (2, 3), (8, 3), (9, 3), (20, 3), (62, 3)])
def test_a_bad_byte_in_any_column_names_its_line(tmp_path, monkeypatch, n, block_rows):
    monkeypatch.setattr(edgelist, "_BLOCK_ROWS", block_rows)
    top = (1 << n) - 1
    values = sorted({0, 1, top >> 1, top - 1, top})
    rows = [(u, v) for u in values for v in values if u <= v]
    assert len(rows) > 2 * block_rows
    lines = [f"{u:0{n}b} {v:0{n}b}\n".encode("ascii") for u, v in rows]
    header = f"kron n={n} alpha=0.5 beta=0.25 gamma=0.5 loops=1\n".encode("ascii")
    path = tmp_path / "g.edges"
    path.write_bytes(header + b"".join(lines))
    whole = read_edgelist(path)
    assert len(whole.edges) + len(whole.loops) == len(rows)
    # the first and the last line of the second block
    for index in (block_rows, 2 * block_rows - 1):
        for column in range(2 * n + 2):
            for bad in _bad_bytes(column, n):
                line = bytearray(lines[index])
                line[column : column + 1] = bad
                path.write_bytes(header + b"".join(lines[:index] + [bytes(line)] + lines[index + 1 :]))
                text = bytes(line).decode("ascii", "replace")
                want = f"line {index + 2}: expected two {n}-digit vertices, got {text!r}"
                with pytest.raises(ParameterError) as caught:
                    read_edgelist(path)
                assert str(caught.value) == want


# (fault, index of the faulty line): each in the second block of three
# rows, at its first row, where the check carries the first block's last
# line, and inside it.
@pytest.mark.parametrize("index", [3, 4])
@pytest.mark.parametrize("fault", ["out of order", "repeated", "loop under loops=0"])
def test_a_fault_in_a_later_block_names_its_line(tmp_path, monkeypatch, fault, index):
    monkeypatch.setattr(edgelist, "_BLOCK_ROWS", 3)
    n = 5
    rows = [(0, 1), (0, 3), (1, 2), (2, 6), (3, 9), (4, 5), (7, 8), (9, 30)]
    loops = "1"
    if fault == "out of order":
        rows[index] = (rows[index - 1][0] - 1, 31)
        message = "lines must be sorted and distinct"
    elif fault == "repeated":
        rows[index] = rows[index - 1]
        message = "lines must be sorted and distinct"
    else:
        rows[index] = (rows[index][0], rows[index][0])
        loops = "0"
        message = "a loop line under loops=0"
    header = f"kron n={n} alpha=0.5 beta=0.25 gamma=0.5 loops={loops}\n"
    path = tmp_path / "g.edges"
    path.write_text(header + "".join(f"{u:05b} {v:05b}\n" for u, v in rows))
    with pytest.raises(ParameterError) as caught:
        read_edgelist(path)
    assert str(caught.value) == f"line {index + 2}: {message}"


# Traced peak of one 2^16-row block, in bytes per row, rounded up, of the
# byte-mask reader that came before the word decoder: two masks of a byte
# per column (2 × (2n + 2)), then its digit unpacking.  The word decoder
# must not allocate more.
_PARSE_PEAK_PER_ROW = {1: 37.1, 8: 51.1, 9: 54.1, 20: 84.2, 32: 132.2, 62: 252.2}


@pytest.mark.parametrize("n", sorted(_PARSE_PEAK_PER_ROW))
def test_a_block_allocates_no_more_than_the_byte_mask_reader(n):
    rows = 1 << 16
    rng = np.random.default_rng(n)
    u, v = rng.integers(0, 1 << n, size=(2, rows))
    block = "".join(f"{a:0{n}b} {b:0{n}b}\n" for a, b in zip(u.tolist(), v.tolist())).encode("ascii")
    (got_u, got_v), peak = traced_peak(lambda: edgelist._parse_rows(block, n, 2))
    assert np.array_equal(got_u, u) and np.array_equal(got_v, v)
    assert peak <= _PARSE_PEAK_PER_ROW[n] * rows


@pytest.mark.parametrize(
    "text",
    [
        "kron n=3 alpha=0.6 beta=0.5 gamma=0.6 loops=1 n=4\n0000 0001\n",
        "kron n=3 alpha=0.6 beta=0.5 gamma=0.6 loops=0 loops=1\n000 000\n",
    ],
    ids=["n", "loops"],
)
def test_a_repeated_header_field_exits_2(tmp_path, capsys, text):
    # each body fits the field's later value, which used to win silently
    path = tmp_path / "g.edges"
    path.write_text(text)
    with pytest.raises(ParameterError, match="repeated"):
        read_edgelist(path)
    assert main(["measure", "--input", str(path), "--what", "degrees"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
