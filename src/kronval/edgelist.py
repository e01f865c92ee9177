"""Edge-list file format.

Header line::

    kron n=<n> alpha=<a> beta=<b> gamma=<g> loops=<0|1>

followed by one ``u v`` line per pair, vertices written as zero-padded
binary strings of length n with u lexicographically <= v; self-loops appear
as ``v v``.  Lines are emitted in sorted order so identical graphs always
serialize to identical bytes.

Every body line is exactly ``2n + 2`` ASCII bytes, so both directions work
on fixed-width rows, a bounded block of rows at a time.  The writer takes
each vertex's digits from ``np.unpackbits`` of its big-endian bytes.  The
reader copies a block's digits into whole 8-byte words per vertex, padded
in front with "0", and checks every word at once: a word is good when
``w & 0xFE..FE == 0x30..30``, that is, when each of its bytes is "0" or
"1".  Only when a word or a separator column fails does it look for the
first bad line.  It then gathers each word's eight digits with one
multiply (``model._pack_digits``) into the block's two vertex columns.  The
reader is strict: a line of the wrong shape, a digit other than 0/1, a line
out of sorted order or repeated, a ``v v`` line under ``loops=0``, a bad,
unknown or repeated header field and lines past the file's size at open all
raise :class:`ParameterError`.  A missing newline after the last line is
accepted; blank lines are not.  Each block is checked as it is read, so an
order fault can be reported before a malformed line in a later block.
Order is checked with the graph model's own row comparison
(``model.pairs_ascend``), carrying the previous block's last line.  The
checked blocks go straight to :meth:`SampledGraph.from_blocks`, with room
for two int64 per line, so a read holds no vertex array of the whole file:
20.7 B per line under tracemalloc for 2.07M lines at n = 20.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ParameterError
from .model import (
    GRAPH_MAX_N,
    _DIGIT_BITS,
    KroneckerParams,
    SampledGraph,
    _pack_digits,
    pairs_ascend,
)

_BLOCK_ROWS = 1 << 16
_ZERO, _SPACE, _NEWLINE = ord("0"), ord(" "), ord("\n")
_ZERO_WORD = np.uint64(0x3030303030303030)  # eight "0" bytes


def _digits(values: np.ndarray, n: int) -> np.ndarray:
    """``(len(values), n)`` uint8 rows of the n binary digits of each value,
    most significant first: the unpacked bits of its low ceil(n / 8)
    big-endian bytes, less the padding on the left."""
    width = -(-n // 8)
    big = values.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - width :]
    return np.unpackbits(big, axis=1)[:, 8 * width - n :]


def write_edgelist(graph: SampledGraph, path: "str | os.PathLike") -> None:
    p = graph.params
    n = p.n
    header = (
        f"kron n={n} alpha={p.alpha!r} beta={p.beta!r} gamma={p.gamma!r}"
        f" loops={1 if graph.include_loops else 0}\n"
    )
    edges, loops = graph.edges, graph.loops
    # Each loop line "v v" sorts just before the edges (v, w > v), so loop i
    # is body line at[i] + i.  A block of lines is a slice of the edges with
    # its loops inserted: no column is copied whole.
    at = np.searchsorted(edges[:, 0], loops)
    starts = range(0, len(edges) + len(loops) + _BLOCK_ROWS, _BLOCK_ROWS)
    loop_cuts = np.searchsorted(at + np.arange(len(loops)), starts).tolist()
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for start, lo, hi in zip(starts, loop_cuts, loop_cuts[1:]):
            first = start - lo  # the block's first edge
            block = edges[first : start + _BLOCK_ROWS - hi]
            u = np.insert(block[:, 0], at[lo:hi] - first, loops[lo:hi])
            v = np.insert(block[:, 1], at[lo:hi] - first, loops[lo:hi])
            rows = np.empty((len(u), 2 * n + 2), dtype=np.uint8)
            rows[:, :n] = _digits(u, n)
            rows[:, n + 1 : 2 * n + 1] = _digits(v, n)
            rows += _ZERO
            rows[:, n] = _SPACE
            rows[:, 2 * n + 1] = _NEWLINE
            fh.write(rows.tobytes())


def _parse_header(line: bytes) -> tuple[KroneckerParams, bool]:
    try:
        header = line.decode("ascii").strip()
    except UnicodeDecodeError:
        raise ParameterError("not an edge-list file: header is not ASCII") from None
    fields = header.split()
    if not fields or fields[0] != "kron":
        raise ParameterError(f"not an edge-list file: bad header {header!r}")
    values = {}
    for item in fields[1:]:
        key, sep, value = item.partition("=")
        if not sep:
            raise ParameterError(f"header field {item!r} is not key=value")
        if key not in ("n", "alpha", "beta", "gamma", "loops"):
            raise ParameterError(f"header field {key!r} is unknown")
        if key in values:
            raise ParameterError(f"header field {key!r} is repeated")
        values[key] = value
    try:
        params = KroneckerParams(
            alpha=float(values["alpha"]),
            beta=float(values["beta"]),
            gamma=float(values["gamma"]),
            n=int(values["n"]),
        )
        loops = values["loops"]
    except KeyError as missing:
        raise ParameterError(f"header is missing field {missing}") from None
    except ValueError as bad:
        raise ParameterError(f"bad header value: {bad}") from None
    if loops not in ("0", "1"):
        raise ParameterError(f"header field loops must be 0 or 1, got {loops!r}")
    if params.n > GRAPH_MAX_N:
        raise ParameterError(f"edge lists support n <= {GRAPH_MAX_N}, got {params.n}")
    return params, loops == "1"


def _parse_rows(block: bytes, n: int, first_line: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex pairs of a block of whole ``2n + 2``-byte lines."""
    width = 2 * n + 2
    if len(block) % width:
        line = first_line + len(block) // width
        raise ParameterError(f"line {line}: expected two {n}-digit vertices")
    rows = np.frombuffer(block, dtype=np.uint8).reshape(-1, width)
    # Each vertex's digits, right-aligned in whole words padded with "0".
    pad = -n % 8
    digits = np.full((len(rows), 2, pad + n), _ZERO, dtype=np.uint8)
    digits[:, 0, pad:] = rows[:, :n]
    digits[:, 1, pad:] = rows[:, n + 1 : -1]
    # A digit word is good when (w & 0xFE..FE) == 0x30..30.  Flipped in
    # place to w ^ 0x30..30, each byte of a good word is 0 or 1, so one OR
    # over the block finds a bad byte without a temporary the block's size.
    words = digits.view("<u8")
    words ^= _ZERO_WORD
    separators = (rows[:, n] == _SPACE) & (rows[:, -1] == _NEWLINE)
    if np.bitwise_or.reduce(words, axis=None) & ~_DIGIT_BITS or not separators.all():
        good = ~np.any(words & ~_DIGIT_BITS, axis=(1, 2)) & separators
        row = int(np.argmin(good))
        line = first_line + row
        text = rows[row].tobytes().decode("ascii", "replace")
        raise ParameterError(f"line {line}: expected two {n}-digit vertices, got {text!r}")
    vertices = _pack_digits(digits, lsb_first=False)
    return vertices[:, 0], vertices[:, 1]


def read_header(path: "str | os.PathLike") -> tuple[KroneckerParams, bool]:
    """(params, include_loops) from the header line alone, body unread."""
    with open(path, "rb") as fh:
        return _parse_header(fh.readline())


def read_edgelist(path: "str | os.PathLike") -> SampledGraph:
    with open(path, "rb") as fh:
        params, include_loops = _parse_header(fh.readline())
        # One slot per body line; the last line may lack its newline.
        lines = max(os.fstat(fh.fileno()).st_size - fh.tell() + 1, 0) // (2 * params.n + 2)
        blocks = _checked_blocks(fh, params.n, include_loops, lines)
        return SampledGraph.from_blocks(params, blocks, 2 * lines, include_loops)


def _checked_blocks(fh, n: int, include_loops: bool, lines: int):
    """The ``(u, v)`` int64 vertex columns of each block of the body lines
    left in ``fh``, at most ``lines`` of them, checked as they are read:
    u <= v, no loop line without ``include_loops``, and each line sorted
    strictly after the one before it, the previous block's last line
    carried into the next block's check.  A fault names its line."""
    width = 2 * n + 2
    at = 0
    last_u = last_v = np.empty(0, dtype=np.int64)  # the previous block's last line
    while block := fh.read(_BLOCK_ROWS * width):
        if len(block) < _BLOCK_ROWS * width and not block.endswith(b"\n"):
            block += b"\n"  # accept a missing final newline
        rows = len(block) // width
        if at + rows > lines:
            raise ParameterError(f"line {2 + lines}: the file grew while it was read")
        first_line = 2 + at
        u, v = _parse_rows(block, n, first_line)
        if np.any(u > v):
            raise ParameterError(f"line {first_line + int(np.argmax(u > v))}: u must not exceed v")
        if not include_loops and np.any(u == v):
            raise ParameterError(
                f"line {first_line + int(np.argmax(u == v))}: a loop line under loops=0"
            )
        ascending = pairs_ascend(np.concatenate((last_u, u)), np.concatenate((last_v, v)))
        if not ascending.all():
            line = first_line - len(last_u) + 1 + int(np.argmin(ascending))
            raise ParameterError(f"line {line}: lines must be sorted and distinct")
        last_u, last_v = u[-1:].copy(), v[-1:].copy()
        at += rows
        yield u, v
