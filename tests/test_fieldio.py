import numpy as np
import pytest

from subglue import (
    Ball,
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
from subglue.fieldio import _rle_decode, _rle_encode, field_from_text, field_to_text

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
