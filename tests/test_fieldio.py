import tracemalloc
import warnings

import numpy as np
import pytest

from subglue import (
    Ball,
    GridDomain,
    PreconditionError,
    ScalarField,
    kernel_field,
    rasterize,
    read_field,
    read_points,
    render_pgm,
    write_field,
    write_points,
)
from subglue import errors
from subglue.cli import main
from subglue.fieldio import (
    _rle_decode,
    _rle_encode,
    _writer_layout,
    field_from_text,
    field_to_text,
)

from conftest import disk_domain, minus_inf_set


def test_rle_round_trip_edge_cases():
    for flat in (
        np.array([True, True, False, True]),
        np.array([False, False, True]),
        np.ones(5, dtype=bool),
        np.zeros(4, dtype=bool),
    ):
        runs = _rle_encode(flat)
        assert np.array_equal(_rle_decode(runs, len(flat)), flat)
    # a mask that starts active begins with a zero inactive-run
    assert _rle_encode(np.array([True, False]))[0] == 0


def _rle_encode_loop(flat):
    """The per-entry loop the vectorized encoder replaced, as a reference."""
    runs = []
    current = False
    count = 0
    for bit in flat:
        if bool(bit) == current:
            count += 1
        else:
            runs.append(count)
            current = not current
            count = 1
    runs.append(count)
    return runs


def test_rle_encode_matches_the_loop_reference():
    rng = np.random.default_rng(11)
    masks = [rng.random(n) < p for n in (1, 2, 7, 500) for p in (0.1, 0.5, 0.9)]
    masks += [np.ones(n, dtype=bool) for n in (1, 6)]
    masks += [np.zeros(n, dtype=bool) for n in (0, 1, 6)]
    masks.append(disk_domain(h=0.0625).mask.ravel())
    for flat in masks:
        runs = _rle_encode(flat)
        assert runs == _rle_encode_loop(flat)
        assert all(type(r) is int for r in runs)


def test_field_file_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    dom = disk_domain(1.0, h=1 / 16)
    vals = np.where(dom.mask, rng.normal(size=dom.shape) * 1e-7, 0.0)
    v = ScalarField(dom, vals)
    path = tmp_path / "f.txt"
    write_field(v, path)
    back = read_field(path)
    assert back.domain == v.domain
    assert np.array_equal(back.values[dom.mask], v.values[dom.mask])


def test_field_file_minus_inf_literal(tmp_path):
    dom = disk_domain(1.0, h=1 / 8)
    v = kernel_field(dom, 2, (0.0, 0.0))
    path = tmp_path / "k.txt"
    write_field(v, path)
    text = path.read_text()
    assert "-inf" in text.splitlines()
    back = read_field(path)
    assert minus_inf_set(back).count == 1
    assert np.array_equal(back.values[dom.mask], v.values[dom.mask])


def test_field_text_matches_per_value_repr():
    # the values section must keep the bytes of one repr(float(val)) per
    # active node, also for signed zeros, subnormals and extreme magnitudes
    dom = disk_domain(1.0, h=1 / 8)
    specials = [-0.0, 0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -1e300, 1e-5,
                123456789.0, 0.1, -np.inf, 1e16, 2.0**-1074 * 3]
    active = int(dom.mask.sum())
    vals = np.zeros(dom.shape)
    vals[dom.mask] = np.resize(np.array(specials), active)
    v = ScalarField(dom, vals)
    text = field_to_text(v)
    body = text.splitlines()[5:]
    assert body == [repr(float(val)) for val in v.values[dom.mask]]
    assert "-0.0" in body and "5e-324" in body and "1.7976931348623157e+308" in body
    assert text.endswith("\n")


def _writer_cases():
    rng = np.random.default_rng(29)
    disk = disk_domain(1.0, h=1 / 16)
    distinct = np.zeros(disk.shape)
    distinct[disk.mask] = rng.normal(size=disk.active_count) * 10.0 ** rng.integers(
        -300, 300, size=disk.active_count
    )
    readme = disk_domain(1.0, h=1 / 128)
    line = rasterize([("add", Ball((0.0,), 1.0))], origin=(-1.0,), spacing=0.1, shape=(21,))
    ball3 = rasterize(
        [("add", Ball((0, 0, 0), 1.0))], origin=(-1, -1, -1), spacing=0.25, shape=(9, 9, 9)
    )
    lone = disk.with_mask(disk.distance2_to((0.0, 0.0)) == 0)
    return {
        "all-distinct": ScalarField(disk, distinct),
        "readme-kernel-disk": kernel_field(readme, 2, (0.0, 0.0)),
        "constant": ScalarField.constant(disk, -3.5),
        "1-d": ScalarField(line, np.sin(7.0 * line.coordinate_grids()[0])),
        "3-d": kernel_field(ball3, 3, (0.1, 0.0, -0.2)),
        "one-node": ScalarField(lone, np.where(lone.mask, 0.1, 0.0)),
    }


@pytest.mark.parametrize("name", list(_writer_cases()))
def test_field_text_is_one_repr_per_node(name, tmp_path):
    # the writer formats each distinct bit pattern once; the bytes must be
    # those of the plain per-node join
    v = _writer_cases()[name]
    values = v.values[v.domain.mask]
    text = field_to_text(v)
    *header, body = text.split("\n", 5)
    assert body == "\n".join(map(repr, values.tolist())) + "\n"
    assert header[0] == f"dim {v.domain.dim}"
    path = tmp_path / "f.txt"
    write_field(v, path)
    assert path.read_text() == text
    back = read_field(path)
    assert back.domain == v.domain
    assert np.array_equal(back.values[v.domain.mask].view(np.int64), values.view(np.int64))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("fmt", ["repr", "%.25e"])
def test_field_values_are_float_of_each_line_bit_for_bit(fmt):
    # the one-pass conversion against float() per line, on 10^5 random
    # finite bit patterns written shortest (the writer) and with 26 digits
    rng = np.random.default_rng(41)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=120_000)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:100_489]
    specials = [-0.0, -np.inf, 5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, 1e16, 1e-05]
    values[: len(specials)] = specials
    dom = GridDomain((0.0, 0.0), 1.0, (317, 317), np.ones((317, 317), dtype=bool))
    header = field_to_text(ScalarField.constant(dom, 0.0)).split("\n")[:5]
    lines = [repr(x) if fmt == "repr" or x == -np.inf else fmt % x for x in values.tolist()]
    text = "\n".join(header + lines) + "\n"
    assert _writer_layout(text, len("\n".join(header)) + 1, values.size)
    back = field_from_text(text).values[dom.mask]
    assert np.array_equal(_bits(back), _bits([float(line) for line in lines]))
    if fmt == "repr":
        assert np.array_equal(_bits(back), _bits(values))


def _nine_node_text():
    dom = GridDomain((0.0, 0.0), 0.5, (3, 3), np.ones((3, 3), dtype=bool))
    return field_to_text(ScalarField(dom, np.arange(9.0).reshape(3, 3) - 4.0))


_NINE = [-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0]
_ONE = "dim 1\nshape 2\norigin 0.0\nspacing 1.0\nmask rle 1 1\n"


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda t: t.replace("\n0.0\n", "\n\n0.0\n"), _NINE),
        (lambda t: t[:-1], _NINE),
        (lambda t: t.replace("\n0.0\n", "\n  0.0 \n"), _NINE),
        (lambda t: t.replace("\n4.0\n", "\n4_0\n"), _NINE[:-1] + [40.0]),
        (lambda t: t.replace("-4.0\n-3.0\n", "-4.0 -3.0\n"), "8 values for 9 active nodes"),
        (lambda t: t.replace("-4.0\n-3.0\n", "-4.0 -3.0\n\n"), "8 values for 9 active nodes"),
        (lambda t: t.replace("-4.0\n-3.0\n", "-4.0 -3.0\n \n"), "8 values for 9 active nodes"),
        (lambda t: t.replace("\n", "\r\n"), _NINE),
        (lambda t: t.replace("\n0.0\n", "\nabc\n"),
         "line 10: could not convert string to float: 'abc'"),
        (lambda t: t.replace("\n0.0\n", "\nnan(1)\n"),
         "line 10: could not convert string to float: 'nan(1)'"),
        (lambda t: t.replace("\n0.0\n", "\n\v\n"), "8 values for 9 active nodes"),
        (lambda t: _ONE + "\v\n", "0 values for 1 active nodes"),
        (lambda t: _ONE + "\n", "0 values for 1 active nodes"),
    ],
    ids=["blank-line", "no-final-newline", "padded-line", "underscore", "two-on-a-line",
         "two-on-a-line-and-blank", "two-on-a-line-and-a-space-line", "crlf", "bad-token",
         "nan-parenthesis", "vertical-tab-line", "lone-vertical-tab", "lone-newline"],
)
def test_irregular_value_blocks_read_as_line_by_line(edit, expected):
    # what the per-line parser makes of each layout, also where numpy's
    # separator would read it otherwise (it reads a lone whitespace as -1)
    text = edit(_nine_node_text())
    if isinstance(expected, str):
        with pytest.raises(PreconditionError) as err:
            field_from_text(text)
        assert str(err.value) == f"field file: {expected}"
    else:
        v = field_from_text(text)
        assert np.array_equal(_bits(v.values[v.domain.mask]), _bits(expected))


def test_a_numpy_1_partial_read_goes_to_the_per_line_parser(monkeypatch):
    # numpy 1.x warns on a bad token and returns what it read before it,
    # which for a bad tail on the last line is every value
    def numpy_1(block, dtype, sep):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return np.array(_NINE)

    text = _nine_node_text().replace("\n4.0\n", "\n4.0abc\n")
    monkeypatch.setattr(np, "fromstring", numpy_1)
    with pytest.raises(PreconditionError) as err:
        field_from_text(text)
    assert str(err.value) == "field file: line 14: could not convert string to float: '4.0abc'"


def test_reading_the_readme_field_peaks_below_three_mib(tmp_path):
    # a Python float and string per value took 6.8 MiB here
    import pathlib

    cfg = pathlib.Path(__file__).parent.parent / "demos" / "scene_configs" / "glue_full_disk.cfg"
    assert main(["--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    text = (tmp_path / "field.txt").read_text()
    tracemalloc.start()
    try:
        v = field_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.domain.active_count == 51_429
    assert peak <= 3 * 2**20


def test_writing_the_readme_field_peaks_below_45_bytes_a_node(tmp_path):
    # the whole text, its line list and a copy of that list took 54 B a
    # node here; the writer now holds one piece of the text at a time
    import pathlib

    cfg = pathlib.Path(__file__).parent.parent / "demos" / "scene_configs" / "glue_full_disk.cfg"
    assert main(["--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    v = read_field(tmp_path / "field.txt")
    tracemalloc.start()
    try:
        write_field(v, tmp_path / "again.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "again.txt").read_bytes() == (tmp_path / "field.txt").read_bytes()
    assert peak <= 45 * 257 * 257


@pytest.mark.parametrize("edit", [lambda t: t, lambda t: t.replace("\n", "\r\n")],
                         ids=["one-pass", "per-line"])
def test_field_reader_guard_counts_what_the_read_allocates(edit, monkeypatch):
    # under a budget that holds the 8 B a node of the value array but not
    # the read, the guard names the read's bytes, which bound its peak
    text = edit(field_to_text(kernel_field(disk_domain(1.0, h=1 / 64), 2, (0.0, 0.0))))
    tracemalloc.start()
    try:
        field_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(errors, "_MEMORY_BUDGET", 8 * 129 * 129)
    with pytest.raises(PreconditionError) as err:
        field_from_text(text)
    message = str(err.value)
    assert message.startswith("reading 12,849 values of a 16,641-node lattice needs ")
    named = int(message.split(" needs ")[1].split(" bytes")[0].replace(",", ""))
    assert peak <= named <= 2 * peak


def test_field_file_header_validation():
    with pytest.raises(PreconditionError):
        field_from_text("dim 2\nshape 4 4\norigin 0 0\nspacing 0.5\n")
    good = field_to_text(ScalarField.constant(disk_domain(1.0, h=1 / 4), 1.0))
    with pytest.raises(PreconditionError):
        field_from_text(good.replace("mask rle", "mask raw"))


def test_points_round_trip(tmp_path):
    pts = np.array([[0.1, -0.2], [1e-17, 3.25]])
    path = tmp_path / "p.txt"
    write_points(pts, path)
    back = read_points(path)
    assert np.array_equal(back, pts)


def test_render_constant_field_is_mid_gray():
    dom = disk_domain(1.0, h=1 / 8).full_lattice()
    data, degenerate = render_pgm(ScalarField.constant(dom, 7.0))
    assert degenerate
    lines = data.decode().splitlines()
    assert lines[0] == "P2" and lines[2] == "255"
    pixels = {int(p) for row in lines[3:] for p in row.split()}
    assert pixels == {128}


def test_render_two_level_field_hits_extremes():
    dom = disk_domain(1.0, h=1 / 8).full_lattice()
    grids = dom.coordinate_grids()
    vals = np.where(np.broadcast_to(grids[0], dom.shape) > 0, 1.0, 0.0)
    data, degenerate = render_pgm(ScalarField(dom, vals))
    assert not degenerate
    pixels = {int(p) for row in data.decode().splitlines()[3:] for p in row.split()}
    assert pixels == {0, 255}


def test_render_marks_inactive_as_checker_and_minus_inf_black():
    dom = disk_domain(1.0, h=1 / 8)
    v = kernel_field(dom, 2, (0.0, 0.0))
    data, _ = render_pgm(v)
    pixels = {int(p) for row in data.decode().splitlines()[3:] for p in row.split()}
    assert {64, 192} <= pixels  # checker outside the disk
    assert 0 in pixels  # the -inf pole


def test_render_deterministic():
    dom = disk_domain(1.0, h=1 / 8)
    v = kernel_field(dom, 2, (0.0, 0.0))
    a, _ = render_pgm(v)
    b, _ = render_pgm(v)
    assert a == b


def test_render_rejects_non_planar():
    h = 0.5
    dom = rasterize(
        [("add", Ball((0, 0, 0), 1.0))], origin=(-1, -1, -1), spacing=h, shape=(5, 5, 5)
    )
    with pytest.raises(PreconditionError):
        render_pgm(ScalarField.constant(dom, 0.0))
