"""Serialization: field files, point clouds, Green metadata, PGM renders.

Field file format (plain text)::

    dim 2
    shape 257 257
    origin -1.0 -1.0
    spacing 0.0078125
    mask rle 130 3 250 6 ...
    <value>
    ...

The ``mask rle`` line run-length-encodes the row-major boolean mask as
alternating run lengths starting with the inactive run (a leading 0 means
the mask starts active).  After the header come the active-node values in
row-major order, one per line, written with ``repr`` so the round trip is
bit-exact; ``-inf`` is the literal minus-infinity.  The writer calls ``repr``
once per distinct float64 bit pattern and reuses the string for every node
that holds it; the bits keep ``-0.0``, ``0.0`` and ``-inf`` apart, so the
bytes are those of one ``repr`` per node.  ``write_field`` writes the text
piece by piece, so it never holds the whole of it.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
import warnings

import numpy as np

from .errors import PreconditionError, _require_memory
from .field import ScalarField
from .geometry import GridDomain

__all__ = [
    "write_field",
    "read_field",
    "field_to_text",
    "field_from_text",
    "write_points",
    "read_points",
    "render_pgm",
    "write_pgm",
    "write_json",
    "write_text_atomic",
]


def write_text_atomic(path, text):
    """Write ``text``, a str, bytes or an iterable of str pieces written one
    after another, via a temp file in the same directory plus rename, so
    readers never observe a half-written file; bytes are written as they
    are."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "wb" if isinstance(text, bytes) else "w") as handle:
            handle.writelines([text] if isinstance(text, (str, bytes)) else text)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _rle_encode(flat: np.ndarray) -> list:
    """Run lengths of a flat boolean mask.  Runs alternate starting with the
    inactive count, so a mask that starts active begins with a 0 run."""
    cuts = np.flatnonzero(np.diff(flat)) + 1
    runs = np.diff(np.concatenate(([0], cuts, [flat.size]))).tolist()
    return [0] + runs if flat.size and flat[0] else runs


def _rle_decode(runs, total: int) -> np.ndarray:
    if min(runs, default=0) < 0:
        raise PreconditionError("negative run length in mask rle")
    if sum(runs) != total:
        raise PreconditionError("mask rle does not cover the lattice")
    # runs alternate inactive, active, ...
    return np.repeat(np.arange(len(runs)) % 2 == 1, runs)


# lines in one piece of a field file's value block
_LINES_PER_PIECE = 2**12


def _field_pieces(v: ScalarField):
    """The text of a field file in pieces: the header, then the value block
    in slices of ``_LINES_PER_PIECE`` lines."""
    dom = v.domain
    header = [
        f"dim {dom.dim}",
        "shape " + " ".join(str(n) for n in dom.shape),
        "origin " + " ".join(repr(c) for c in dom.origin.coords),
        f"spacing {dom.spacing!r}",
        "mask rle " + " ".join(str(r) for r in _rle_encode(dom.mask.ravel())),
    ]
    yield "\n".join(header) + "\n"
    # repr depends only on a value's bits, so each distinct bit pattern is
    # formatted once and the strings are gathered back in row-major order;
    # tolist() yields Python floats, whose repr round-trips bit-exactly
    bits, where = np.unique(v.values[dom.mask].view(np.int64), return_inverse=True)
    texts = np.empty(bits.size, dtype=object)
    for start in range(0, bits.size, _LINES_PER_PIECE):
        part = bits[start : start + _LINES_PER_PIECE].view(np.float64).tolist()
        texts[start : start + _LINES_PER_PIECE] = list(map(repr, part))
    del bits
    for start in range(0, where.size, _LINES_PER_PIECE):
        yield "\n".join(texts[where[start : start + _LINES_PER_PIECE]].tolist()) + "\n"


def field_to_text(v: ScalarField) -> str:
    return "".join(_field_pieces(v))


# the line boundaries of str.splitlines
_LINE_END = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
# a field's lattice arrays: the decoded mask and the domain's copy (1 B a
# node each), the value array and the field's NaN-padded copy (8 B each)
_LATTICE_BYTES = 18
# what the per-line parser allocates for each line beyond the lattice
# arrays, the block copy and the characters of its line strings: 66-69 B
# measured on the README field at 257^2 and 1025^2
_LINE_BYTES = 72


def _header(text: str) -> tuple[list, int]:
    """The first five non-blank lines of ``text``, split as
    ``str.splitlines`` splits it, and the offset just past them."""
    lines, pos = [], 0
    while len(lines) < 5 and pos < len(text):
        brk = _LINE_END.search(text, pos)
        end, after = (brk.start(), brk.end()) if brk else (len(text), len(text))
        if text[pos:end].strip():
            lines.append(text[pos:end])
        pos = after
    return lines, pos


def _writer_layout(text: str, start: int, active: int) -> bool:
    """Whether the value block ``text[start:]`` is laid out as the writer
    lays it out: ``active`` newlines, no empty line and no whitespace but
    the newlines.  numpy's separator matches any run of whitespace, and a
    block of whitespace alone reads as ``-1``, so only this layout gives
    the per-line parser's lines."""
    return (
        not text.startswith("\n", start)
        and all(text.find(c, start) < 0 for c in (" ", "\t", "\r", "\v", "\f", "\n\n"))
        and text.count("\n", start) == active
    )


def _numpy_values(block: str, active: int):
    """The ``active`` values of a block in the writer's layout, converted in
    one numpy pass with the correctly rounded conversion ``float`` uses, or
    None where numpy rejects a token or reads another count."""
    with warnings.catch_warnings():
        # numpy 2 raises on a bad token; numpy 1 warns and stops there
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(block, dtype=float, sep="\n")
        except (ValueError, DeprecationWarning):
            return None
    # numpy also reads 'nan(...)', which float() rejects: a NaN goes to the
    # per-line parser, which names a bad line or passes the NaN on as is
    if values.size != active or math.isnan(values.max(initial=-np.inf)):
        return None
    return values


def field_from_text(text: str) -> ScalarField:
    """The field in the text of a field file.

    A value block in the writer's layout (one value a line, nothing else)
    is converted in one numpy pass; any other block, or one numpy rejects,
    is read line by line with ``float``, which accepts every layout
    ``str.splitlines`` splits and names a bad line.  Both give the same
    bits.  The memory guard counts what the path taken allocates."""
    lines, start = _header(text)
    if len(lines) < 5:
        raise PreconditionError("field file too short")

    def parse(kind, i, words):
        """``words`` of the ``i``-th line, converted by ``kind``."""
        try:
            return [kind(w) for w in words]
        except ValueError as exc:
            raise PreconditionError(f"field file: line {i + 1}: {exc}") from None

    def expect(i, key, kind, count=None):
        parts = lines[i].split()
        if len(parts) < 2 or parts[0] != key:
            raise PreconditionError(f"field file: expected '{key}' on line {i + 1}")
        if count not in (None, len(parts) - 1):
            raise PreconditionError(f"field file: line {i + 1} needs {count} value after '{key}'")
        return parse(kind, i, parts[1:])

    (d,) = expect(0, "dim", int, 1)
    shape = tuple(expect(1, "shape", int))
    origin = tuple(expect(2, "origin", float))
    (spacing,) = expect(3, "spacing", float, 1)
    mask_parts = expect(4, "mask", str)
    if mask_parts[0] != "rle":
        raise PreconditionError("field file: mask line must start with 'rle'")
    if len(shape) != d or len(origin) != d:
        raise PreconditionError("field file: dimension mismatch in header")
    if min(shape) < 2:
        raise PreconditionError("field file: each axis on line 2 needs at least 2 nodes")
    # the values become one float64 array of the whole lattice
    total = math.prod(shape)
    _require_memory(8 * total, f"a float64 array of the {total:,}-node lattice")
    flat = _rle_decode(parse(int, 4, mask_parts[1:]), total)
    mask = flat.reshape(shape)
    domain = GridDomain(origin, spacing, shape, mask)
    active = int(mask.sum())
    size = len(text) - start  # the characters of the value block
    what = f"reading {active:,} values of a {total:,}-node lattice"
    values = None
    if _writer_layout(text, start, active):
        # the block copy, the parsed values and the lattice arrays
        _require_memory(size + 8 * active + _LATTICE_BYTES * total, what)
        values = _numpy_values(text[start:], active)
    if values is None:
        # the lines, whether they end in LF, CRLF or a lone CR
        count = max(text.count("\n", start), text.count("\r", start)) + 1
        # the block copy, its characters in the line strings, the lines'
        # own objects and the lattice arrays
        _require_memory(2 * size + _LINE_BYTES * count + _LATTICE_BYTES * total, what)
        value_lines = [ln for ln in text[start:].splitlines() if ln.strip()]
        if len(value_lines) != active:
            raise PreconditionError(
                f"field file: {len(value_lines)} values for {active} active nodes"
            )
        try:
            values = [float(s) for s in value_lines]
        except ValueError:  # find the line to name
            for i, line in enumerate(value_lines, start=5):
                parse(float, i, [line])
            raise
    vals = np.zeros(shape)
    vals[mask] = values
    return ScalarField(domain, vals)


def write_field(v: ScalarField, path):
    """Write the text of :func:`field_to_text` piece by piece, never holding
    all of it."""
    write_text_atomic(path, _field_pieces(v))


def read_field(path) -> ScalarField:
    """The field in a field file; a ``PreconditionError`` naming the path if
    the file cannot be read as text."""
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise PreconditionError(f"cannot read field file {os.fspath(path)!r}: {reason}") from None
    return field_from_text(text)


def write_points(points: np.ndarray, path):
    """One point per line, coordinates separated by spaces, full precision."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lines = [" ".join(repr(float(c)) for c in row) for row in pts]
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_points(path) -> np.ndarray:
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split()])
    if not rows:
        raise PreconditionError("point file is empty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise PreconditionError("point file rows have mixed dimensions")
    return np.asarray(rows, dtype=float)


def write_json(record: dict, path):
    """Indented JSON with sorted keys, so equal records give equal bytes."""
    write_text_atomic(path, json.dumps(record, indent=2, sort_keys=True) + "\n")


def render_pgm(v: ScalarField, value_range=None) -> tuple[bytes, bool]:
    """Render a 2-d field as a plain (P2) PGM image.

    Finite values map linearly onto 0..255 over ``value_range`` (defaults to
    the field's finite range); ``-inf`` renders as 0 and inactive nodes as a
    64/192 checker.  Rows run north to south (largest second coordinate on
    top).  Returns ``(bytes, degenerate)`` where ``degenerate`` flags an
    empty finite range, rendered as uniform mid-gray 128.
    """
    dom = v.domain
    if dom.dim != 2:
        raise PreconditionError("PGM rendering is planar only")
    if value_range is None:
        lo, hi = v.finite_range()
    else:
        lo, hi = float(value_range[0]), float(value_range[1])
    degenerate = not (np.isfinite(lo) and np.isfinite(hi) and hi > lo)
    pix = np.zeros(dom.shape, dtype=int)
    ii, jj = np.meshgrid(
        np.arange(dom.shape[0]), np.arange(dom.shape[1]), indexing="ij"
    )
    checker = np.where((ii + jj) % 2 == 0, 64, 192)
    pix[~dom.mask] = checker[~dom.mask]
    if degenerate:
        pix[dom.mask] = 128
    else:
        vals = v.values
        scaled = np.zeros(dom.shape)
        finite = dom.mask & np.isfinite(vals)
        scaled[finite] = np.clip((vals[finite] - lo) / (hi - lo), 0.0, 1.0)
        levels = np.rint(255.0 * scaled).astype(int)
        pix[finite] = levels[finite]
        pix[dom.mask & (vals == -np.inf)] = 0
    # image rows from north to south: second grid axis is the vertical one
    img = pix.T[::-1, :]
    height, width = img.shape
    lines = [f"P2", f"{width} {height}", "255"]
    for row in img:
        for start in range(0, width, 17):
            lines.append(" ".join(str(int(p)) for p in row[start : start + 17]))
    return ("\n".join(lines) + "\n").encode("ascii"), degenerate


def write_pgm(v: ScalarField, path, value_range=None) -> bool:
    """Write :func:`render_pgm` of ``v`` to ``path``; returns its
    ``degenerate`` flag."""
    data, degenerate = render_pgm(v, value_range)
    write_text_atomic(path, data)
    return degenerate
