import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronval import (
    KroneckerParams,
    ParameterError,
    SampledGraph,
    SeedSpec,
    generate_stratified,
    read_edgelist,
    write_edgelist,
)
from kronval import edgelist
from kronval.cli import main


def test_round_trip(tmp_path):
    p = KroneckerParams(alpha=0.6, beta=0.4, gamma=0.3, n=6)
    g = generate_stratified(p, include_loops=True, seed=SeedSpec(4))
    path = tmp_path / "g.edges"
    write_edgelist(g, path)
    back = read_edgelist(path)
    assert back == g


def test_bytes_stable(tmp_path):
    p = KroneckerParams(alpha=0.6, beta=0.4, gamma=0.3, n=6)
    g = generate_stratified(p, include_loops=True, seed=SeedSpec(4))
    one, two = tmp_path / "a.edges", tmp_path / "b.edges"
    write_edgelist(g, one)
    write_edgelist(read_edgelist(one), two)
    assert one.read_bytes() == two.read_bytes()


def test_format_details(tmp_path):
    p = KroneckerParams(alpha=0.5, beta=0.25, gamma=0.125, n=4)
    g = SampledGraph.from_pairs(p, [(9, 2), (0, 1), (3, 3)], include_loops=True)
    path = tmp_path / "g.edges"
    write_edgelist(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "kron n=4 alpha=0.5 beta=0.25 gamma=0.125 loops=1"
    assert lines[1:] == ["0000 0001", "0010 1001", "0011 0011"]
    # u <= v lexicographically on zero-padded strings, loops as "v v"


def test_loops_flag_round_trip(tmp_path):
    p = KroneckerParams(alpha=0.5, beta=0.25, gamma=0.125, n=3)
    g = SampledGraph.from_pairs(p, [(0, 1)], include_loops=False)
    path = tmp_path / "g.edges"
    write_edgelist(g, path)
    assert "loops=0" in path.read_text().splitlines()[0]
    assert read_edgelist(path).include_loops is False


def test_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("nonsense n=3\n")
    with pytest.raises(ParameterError):
        read_edgelist(path)
    path.write_text("kron n=3 alpha=0.5 beta=0.5\n")
    with pytest.raises(ParameterError):
        read_edgelist(path)


def test_rejects_bad_vertex_width(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("kron n=3 alpha=0.5 beta=0.25 gamma=0.5 loops=1\n01 001\n")
    with pytest.raises(ParameterError):
        read_edgelist(path)


HEADER = "kron n=3 alpha=0.5 beta=0.25 gamma=0.5 loops=1\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(HEADER + "000 001 010\n", id="three-tokens"),
        pytest.param(HEADER + "000 021\n", id="non-binary-digit"),
        pytest.param(HEADER + "000 001\n0001 0010\n", id="wrong-vertex-width"),
        pytest.param("kron n=3 alpha=0.5 beta beta=0.25 gamma=0.5 loops=1\n", id="header-field-without-equals"),
        pytest.param(HEADER.replace("loops=1", "loops=0") + "000 001\n011 011\n", id="loop-under-loops-0"),
        pytest.param(HEADER + "000 001\n000 001\n", id="duplicate-line"),
        pytest.param(HEADER + "000 010\n000 001\n", id="out-of-order-line"),
    ],
)
def test_cli_rejects_malformed_file_with_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(ParameterError):
        read_edgelist(path)
    assert main(["measure", "--input", str(path), "--what", "degrees"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("n", [31, 32])
@pytest.mark.parametrize("fault", ["out-of-order", "repeated"])
def test_rejects_unsorted_lines_at_n_31_and_32(tmp_path, n, fault):
    top = (1 << n) - 1
    rows = [(0, 1), (0, top), (1, top), (top - 1, top)]
    if fault == "out-of-order":
        rows[2], rows[3] = rows[3], rows[2]
    else:
        rows[3] = rows[2]
    body = "".join(f"{u:0{n}b} {v:0{n}b}\n" for u, v in rows)
    path = tmp_path / "bad.edges"
    path.write_text(f"kron n={n} alpha=0.5 beta=0.25 gamma=0.5 loops=1\n" + body)
    with pytest.raises(ParameterError, match="^line 5: lines must be sorted and distinct$"):
        read_edgelist(path)


@pytest.mark.parametrize("n", [1, 8, 9, 32, 62])
def test_reads_vertex_values_at_n_1_and_62(tmp_path, n):
    top = (1 << n) - 1
    values = sorted({0, 1, top >> 1, 1 << (n - 1), 0x2AAAAAAAAAAAAAAA & top, top})
    rows = [(u, v) for u in values for v in values if u <= v]
    body = "".join(f"{u:0{n}b} {v:0{n}b}\n" for u, v in rows)
    path = tmp_path / "g.edges"
    path.write_text(f"kron n={n} alpha=0.5 beta=0.25 gamma=0.5 loops=1\n" + body)
    g = read_edgelist(path)
    assert g.edges.tolist() == [[u, v] for u, v in rows if u < v]
    assert g.loops.tolist() == [u for u, v in rows if u == v]


def test_missing_final_newline_is_accepted(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text(HEADER + "000 001\n010 010")
    g = read_edgelist(path)
    assert g.edges.tolist() == [[0, 1]] and g.loops.tolist() == [2]


def test_lines_past_the_size_read_at_open_are_refused(tmp_path, monkeypatch):
    path = tmp_path / "g.edges"
    path.write_text(HEADER + "000 001\n010 010\n")
    real_fstat = edgelist.os.fstat
    # the file reports one line less than it holds, as if it grew after opening
    monkeypatch.setattr(
        edgelist.os, "fstat", lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size - 8)
    )
    with pytest.raises(ParameterError, match="^line 3: the file grew while it was read$"):
        read_edgelist(path)


def test_multi_block_file_round_trips(tmp_path, monkeypatch):
    monkeypatch.setattr(edgelist, "_BLOCK_ROWS", 7)
    p = KroneckerParams(alpha=0.8, beta=0.6, gamma=0.7, n=6)
    g = generate_stratified(p, include_loops=True, seed=SeedSpec(4))
    assert len(g.edges) > 3 * 7 and len(g.loops) > 0
    one, two = tmp_path / "a.edges", tmp_path / "b.edges"
    write_edgelist(g, one)
    back = read_edgelist(one)
    write_edgelist(back, two)
    assert back == g and one.read_bytes() == two.read_bytes()
    # swap the last row of the second block with the first of the third
    lines = one.read_text().splitlines()
    lines[14], lines[15] = lines[15], lines[14]
    one.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match="line 16"):
        read_edgelist(one)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 10))
    entry = st.floats(0.01, 0.99)
    params = KroneckerParams(alpha=draw(entry), beta=draw(entry), gamma=draw(entry), n=n)
    vertex = st.integers(0, (1 << n) - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    loops = [(w, w) for w in draw(st.lists(vertex, max_size=8))]
    include_loops = draw(st.booleans())
    return SampledGraph.from_pairs(params, pairs + loops, include_loops=include_loops)


EMPTY = KroneckerParams(alpha=0.5, beta=0.25, gamma=0.125, n=3)


@settings(max_examples=80, deadline=None)
@given(graph=small_graphs())
@example(graph=SampledGraph.from_pairs(EMPTY, [], include_loops=True))
@example(graph=SampledGraph.from_pairs(EMPTY, [], include_loops=False))
def test_round_trip_property(graph):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        write_edgelist(graph, path)
        assert read_edgelist(path) == graph
