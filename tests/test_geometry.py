import numpy as np
import pytest
from scipy import ndimage

from subglue import (
    Ball,
    Box,
    GridDomain,
    NodeSet,
    Point,
    PreconditionError,
    dist_to_complement,
    inversion,
    parallel_set,
    rasterize,
    rasterize_ball,
    regularized_domain,
)

from subglue.geometry import _bounding_box, _recipe_mask

from conftest import disk_domain


# ---------------------------------------------------------------------------
# rasterize
# ---------------------------------------------------------------------------


def test_rasterize_unit_ball_coarse():
    # h = 0.5 lattice centred at the origin: the 9 nodes strictly inside the
    # unit ball are the centre, the 4 axis nodes at 0.5 and the 4 diagonals
    # at distance ~0.707
    dom = rasterize_ball((0, 0), 1.0, origin=(-1, -1), spacing=0.5, shape=(5, 5))
    assert dom.active_count == 9
    idx = np.argwhere(dom.mask)
    pts = dom.node_points(idx)
    assert np.all(np.linalg.norm(pts, axis=1) < 1.0)


def test_rasterize_empty_recipe_errors():
    with pytest.raises(PreconditionError):
        rasterize([], origin=(0, 0), spacing=0.5, shape=(4, 4))


def test_rasterize_box_minus_ball_matches_brute_force():
    h = 1.0 / 16.0
    shape = (21, 21)
    origin = (-0.125, -0.125)
    recipe = [
        ("add", Box((0.0, 0.0), (1.0, 1.0))),
        ("sub", Ball((0.5, 0.5), 0.25)),
    ]
    dom = rasterize(recipe, origin, h, shape)

    count = 0
    for i in range(shape[0]):
        for j in range(shape[1]):
            x = origin[0] + i * h
            y = origin[1] + j * h
            in_box = 0.0 < x < 1.0 and 0.0 < y < 1.0
            in_ball = (x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.25**2
            count += int(in_box and not in_ball)
    assert dom.active_count == count


@pytest.mark.parametrize(
    "shp", [Ball((0, 0, 0), 1.0), Box((-1, -1, -1), (1, 1, 1)), Ball((0,), 1.0)]
)
def test_rasterize_rejects_a_shape_of_another_dimension(shp):
    with pytest.raises(PreconditionError, match="dimension"):
        rasterize([("add", shp)], origin=(-1, -1), spacing=0.125, shape=(17, 17))


def _stacked_contains(shp, pts):
    """Membership evaluated on an (..., d) stacked point array, the way the
    shapes were evaluated before they took per-axis coordinate grids."""
    if isinstance(shp, Ball):
        return np.sum((pts - shp.center.as_array()) ** 2, axis=-1) < shp.radius**2
    return np.all((pts > shp.lo.as_array()) & (pts < shp.hi.as_array()), axis=-1)


@pytest.mark.parametrize("d", [2, 3])
def test_shape_masks_on_coordinate_grids_are_bit_identical_to_stacked_points(d):
    # centres on nodes, half-nodes and random points; radii and box corners
    # on multiples of h hit the strict boundary inequalities exactly
    rng = np.random.default_rng(d)
    h = 1 / 16 if d == 2 else 1 / 8
    n = int(round(2 / h)) + 1
    lattice = GridDomain((-1.0,) * d, h, (n,) * d, np.zeros((n,) * d, dtype=bool))
    grids = lattice.coordinate_grids()
    pts = np.stack(np.broadcast_arrays(*grids), axis=-1)
    shapes = []
    for k in range(12):
        centre = rng.integers(-n // 2, n // 2, d) * h * (0.5 if k % 3 else 1.0)
        if k % 4 == 3:
            centre = rng.uniform(-1.0, 1.0, d)
        radius = rng.integers(1, n // 2) * h if k % 2 else rng.uniform(0.05, 1.5)
        shapes.append(Ball(centre, radius))
        lo = rng.integers(-n // 2, n // 4, d) * h
        span = rng.integers(1, n // 2, d) * h if k % 2 else rng.uniform(0.05, 1.0, d)
        shapes.append(Box(lo, lo + span))
    for shp in shapes:
        expected = _stacked_contains(shp, pts)
        assert np.array_equal(_recipe_mask([("add", shp)], lattice), expected)
        flat = pts.reshape(-1, d)
        assert np.array_equal(shp.contains(flat.T), expected.ravel())


def test_rasterize_empty_result_errors():
    with pytest.raises(PreconditionError, match="empty domain"):
        rasterize(
            [("add", Ball((10.0, 10.0), 0.1))], origin=(-1, -1), spacing=0.5, shape=(5, 5)
        )


# ---------------------------------------------------------------------------
# parallel sets
# ---------------------------------------------------------------------------


def _full_grid(h=1.0, n=9):
    half = (n - 1) / 2 * h
    return rasterize(
        [("add", Box((-half - h, -half - h), (half + h, half + h)))],
        origin=(-half, -half),
        spacing=h,
        shape=(n, n),
    )


def test_parallel_set_tiny_radius_is_identity():
    dom = _full_grid()
    s = NodeSet(dom, dom.distance2_to((0, 0)) == 0)
    assert parallel_set(s, dom.spacing / 2) == s


def test_parallel_set_covers_diagonals():
    dom = _full_grid()
    h = dom.spacing
    s = NodeSet(dom, dom.distance2_to((0, 0)) == 0)
    grown = parallel_set(s, 1.5 * h)
    # centre + 4 axis neighbours + 4 diagonals (sqrt(2) h < 1.5 h)
    assert grown.count == 9
    d2 = dom.distance2_to((0, 0))
    assert bool(np.all(d2[grown.mask] < (1.5 * h) ** 2 + 1e-12))


def test_parallel_set_matches_brute_force():
    rng = np.random.default_rng(3)
    dom = _full_grid(h=1.0 / 8.0, n=64)
    mask = rng.random(dom.shape) < 0.02
    mask &= dom.mask
    s = NodeSet(dom, mask)
    r = 0.3
    grown = parallel_set(s, r)

    # O(n^2) oracle: pairwise distances between all nodes and members
    all_pts = dom.active_set().points()
    member_pts = s.points()
    d2 = ((all_pts[:, None, :] - member_pts[None, :, :]) ** 2).sum(axis=2)
    near = (d2 < r**2).any(axis=1)
    oracle = np.zeros(dom.shape, dtype=bool)
    oracle[tuple(dom.active_set().indices().T)] = near
    oracle |= s.mask
    assert np.array_equal(grown.mask, oracle)


def test_node_set_distance_is_exact_cached_and_read_only():
    dom = disk_domain(1.0, h=1 / 16)
    s = NodeSet(dom, dom.mask & (dom.distance2_to((0.1, -0.2)) < 0.3**2))
    dist = s.distance
    assert dist is s.distance
    assert not dist.flags.writeable
    lattice_pts = dom.full_lattice().active_set().points()
    d2 = ((lattice_pts[:, None, :] - s.points()[None, :, :]) ** 2).sum(axis=2)
    oracle = np.sqrt(d2.min(axis=1)).reshape(dom.shape)
    assert np.allclose(dist, oracle, rtol=0.0, atol=1e-12)
    with pytest.raises(PreconditionError):
        NodeSet(dom, np.zeros(dom.shape, dtype=bool)).distance


@pytest.mark.parametrize("slab", [1, 2**14])
@pytest.mark.parametrize("shape", [(500,), (37, 53), (17, 19, 23)])
def test_node_set_distance_is_scipys_transform_bit_for_bit(monkeypatch, shape, slab):
    # the distances formed slab by slab from the feature transform are the
    # bits of scipy's own distance transform, at any slab size
    from subglue import geometry

    monkeypatch.setattr(geometry, "_SLAB_NODES", slab)
    rng = np.random.default_rng(len(shape))
    for fraction, h in [(0.002, 1 / 3), (0.05, 0.0078125), (0.6, 0.1)]:
        mask = rng.random(shape) < fraction
        mask.flat[-1] = True
        dom = GridDomain((0.0,) * len(shape), h, shape, np.ones(shape, dtype=bool))
        want = ndimage.distance_transform_edt(~mask, sampling=[h] * len(shape))
        assert np.array_equal(NodeSet(dom, mask).distance.view(np.int64), want.view(np.int64))


def test_squared_distance_on_a_box_is_the_whole_lattice_s():
    from subglue.geometry import _distance2

    dom = _full_grid(h=0.1, n=21)
    whole = dom.distance2_to((0.33, -0.71))
    for box in [(slice(3, 9), slice(0, 21)), (slice(20, 21), slice(5, 6)), (slice(0, 0), slice(2, 4))]:
        part = _distance2(dom, Point(0.33, -0.71), box)
        assert np.array_equal(part.view(np.int64), whole[box].view(np.int64))


def test_parallel_set_monotone_and_contains_seed():
    dom = _full_grid(h=0.25, n=33)
    rng = np.random.default_rng(11)
    mask = (rng.random(dom.shape) < 0.01) & dom.mask
    mask[16, 16] = True
    s = NodeSet(dom, mask)
    for r1, r2 in ((0.3, 0.6), (0.6, 1.1)):
        a, b = parallel_set(s, r1), parallel_set(s, r2)
        assert s.issubset(a)
        assert a.issubset(b)


def test_parallel_set_of_connected_is_connected():
    dom = disk_domain(1.0, h=1 / 32)
    r2 = dom.distance2_to((0.3, 0.0))
    s = NodeSet(dom, dom.mask & (r2 < 0.04))
    assert s.is_connected()
    assert parallel_set(s, 0.25).is_connected()


# ---------------------------------------------------------------------------
# regularized domain
# ---------------------------------------------------------------------------


def test_regularized_domain_sandwich():
    h = 1.0 / 64.0
    host = disk_domain(1.0, h=h)
    s0 = NodeSet(host, host.mask & (host.distance2_to((0, 0)) < 0.2**2))
    d = regularized_domain(s0, 0.3, host)
    inner = parallel_set(s0, 0.1)
    outer = parallel_set(s0, 0.2)
    d_set = NodeSet(host, d.mask)
    assert inner.issubset(d_set) and inner.count < d_set.count
    assert d_set.issubset(outer) and d_set.count < outer.count


def test_regularized_domain_resolution_guard():
    host = disk_domain(1.0, h=1 / 16)
    s0 = NodeSet(host, host.mask & (host.distance2_to((0, 0)) < 0.04))
    with pytest.raises(PreconditionError, match="resolution too coarse"):
        regularized_domain(s0, 0.3, host)  # r/3 = 0.1 < 2h = 0.125


def test_regularized_domain_disconnected_seed_errors():
    host = disk_domain(1.0, h=1 / 64)
    two = (host.distance2_to((0.5, 0.0)) < 0.01) | (host.distance2_to((-0.5, 0.0)) < 0.01)
    s0 = NodeSet(host, host.mask & two)
    with pytest.raises(PreconditionError, match="connected"):
        regularized_domain(s0, 0.3, host)


# ---------------------------------------------------------------------------
# distance to the complement
# ---------------------------------------------------------------------------


def test_dist_to_complement_full_grid_centre():
    dom = _full_grid(h=1.0, n=5)
    centre = NodeSet(dom, dom.distance2_to((0, 0)) == 0)
    assert dist_to_complement(centre, dom) == pytest.approx(2.0)


def test_dist_to_complement_near_boundary_matches_brute_force():
    h = 1.0 / 32.0
    dom = disk_domain(1.0, h=h)
    r2 = dom.distance2_to((0.9, 0.0))
    s = NodeSet(dom, dom.mask & (r2 < 0.05**2))
    got = dist_to_complement(s, dom)

    target = ~dom.mask
    edge = np.ones(dom.shape, dtype=bool)
    edge[1:-1, 1:-1] = False
    target |= edge
    s_pts = s.points()
    t_pts = dom.node_points(np.argwhere(target))
    d2 = ((s_pts[:, None, :] - t_pts[None, :, :]) ** 2).sum(axis=2)
    assert got == pytest.approx(float(np.sqrt(d2.min())), abs=1e-12)
    assert got < 3 * h  # the set reaches within a couple of cells of the edge


def test_dist_to_complement_concentric_balls():
    h = 1.0 / 64.0
    dom = disk_domain(1.0, h=h)
    s = NodeSet(dom, dom.mask & (dom.distance2_to((0, 0)) < 0.25**2))
    got = dist_to_complement(s, dom)
    assert abs(got - 0.75) <= 2 * h


def _dist_to_complement_edt_of_complement(s, o):
    """The formula that transformed the complement itself, as a reference."""
    ring = np.ones(o.shape, dtype=bool)
    ring[(slice(1, -1),) * o.dim] = False
    target = ~o.mask | ring
    edt = ndimage.distance_transform_edt(~target, sampling=[o.spacing] * o.dim)
    return float(edt[s.mask].min())


def test_dist_to_complement_matches_the_complement_transform():
    # bit for bit: the distance of one node pair does not depend on which
    # end the transform starts from
    rng = np.random.default_rng(17)
    cases = 0
    for d, n in ((2, 24), (3, 10)):
        for h in (1 / 128, 0.1, 1 / 3, 1.0):
            for _ in range(12):
                shape = tuple(int(k) for k in rng.integers(n // 2, n, size=d))
                o_mask = rng.random(shape) < rng.uniform(0.6, 1.0)
                s_mask = o_mask & (rng.random(shape) < rng.uniform(0.02, 0.4))
                if not s_mask.any():
                    continue
                o = GridDomain((0.0,) * d, h, shape, o_mask)
                s = NodeSet(o, s_mask)
                assert dist_to_complement(s, o) == _dist_to_complement_edt_of_complement(s, o)
                cases += 1
    # sets touching the outer ring, and a lattice with no inactive node
    dom = _full_grid(h=0.25, n=9)
    edge = np.zeros(dom.shape, dtype=bool)
    edge[0, 3] = edge[4, 4] = True
    next_to_edge = np.zeros(dom.shape, dtype=bool)
    next_to_edge[1, 1:-1] = True
    for mask in (edge, next_to_edge, ~edge):
        s = NodeSet(dom, mask)
        assert dist_to_complement(s, dom) == _dist_to_complement_edt_of_complement(s, dom)
    assert dist_to_complement(NodeSet(dom, edge), dom) == 0.0
    assert dist_to_complement(NodeSet(dom, next_to_edge), dom) == 0.25
    assert cases > 80


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def test_inversion_examples():
    assert inversion((2.0, 0.0), (0.0, 0.0)) == Point(0.5, 0.0)
    on_sphere = inversion((0.6, 0.8), (0.0, 0.0))
    assert np.allclose(on_sphere.as_array(), (0.6, 0.8))
    # o + (x - o) / |x - o|^2 with |x - o| = 2
    assert inversion((3.0, 0.0), (1.0, 0.0)) == Point(1.5, 0.0)


def test_inversion_pole_errors():
    with pytest.raises(PreconditionError, match="pole of inversion"):
        inversion((1.0, 1.0), (1.0, 1.0))


def test_inversion_is_an_involution():
    rng = np.random.default_rng(5)
    o = Point(0.3, -0.2)
    for _ in range(200):
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        radius = 10.0 ** rng.uniform(-3, 3)
        x = Point(o.as_array() + radius * direction)
        back = inversion(inversion(x, o), o)
        assert np.allclose(back.as_array(), x.as_array(), rtol=1e-12, atol=1e-12)


def test_point_validation():
    with pytest.raises(PreconditionError):
        Point(np.inf, 0.0)
    with pytest.raises(PreconditionError):
        Ball((0, 0), -1.0)
    with pytest.raises(PreconditionError):
        Box((0, 0), (0, 1))


def test_radius_and_spacing_whose_powers_overflow_are_rejected():
    # a ball squares its radius; the stencil divides by h**2 and the Green
    # pole strength by h**d
    with pytest.raises(PreconditionError, match=r"^ball radius 1e\+155 is too large"):
        Ball((0, 0), 1e155)
    assert Ball((0, 0), 1e150).radius == 1e150
    with pytest.raises(PreconditionError, match=r"^grid spacing 1e\+103 is too large: its power 3"):
        GridDomain((0.0,) * 3, 1e103, (2, 2, 2), np.ones((2, 2, 2), dtype=bool))
    assert GridDomain((0.0, 0.0), 1e103, (2, 2), np.ones((2, 2), dtype=bool)).spacing == 1e103


# ---------------------------------------------------------------------------
# node-set operations on the bounding box against the whole lattice
# ---------------------------------------------------------------------------


def _edge_masks(shape, seed):
    """Masks that touch the near or the far lattice edge, sparse ones with
    several components, one corner node, the whole lattice and none."""
    rng = np.random.default_rng(seed)
    near = np.zeros(shape, dtype=bool)
    near[tuple(slice(0, n // 2) for n in shape)] = True
    far = np.zeros(shape, dtype=bool)
    far[tuple(slice(n // 3, None) for n in shape)] = True
    corner = np.zeros(shape, dtype=bool)
    corner[(-1,) * len(shape)] = True
    return [
        near & (rng.random(shape) < 0.6),
        far & (rng.random(shape) < 0.3),
        near & (rng.random(shape) < 0.15),
        corner,
        np.ones(shape, dtype=bool),
        np.zeros(shape, dtype=bool),
    ]


def _diagonal_masks(shape):
    """``(mask, Moore component count)`` for masks that are not
    axis-connected, in 2-d and 3-d: a diagonal staircase, two blocks meeting
    at a corner and, in 3-d, two cubes sharing only an edge, each one Moore
    component; and the corner blocks with an isolated node, two."""
    d = len(shape)
    if d < 2:
        return []

    def blocks(*starts):
        mask = np.zeros(shape, dtype=bool)
        for start in starts:
            mask[tuple(slice(a, a + 2) for a in start)] = True
        return mask

    staircase = np.zeros(shape, dtype=bool)
    for i in range(1, min(shape) - 1):
        staircase[(i,) * d] = True
    corner = blocks((1,) * d, (3,) * d)
    masks = [(staircase, 1), (corner, 1)]
    if d == 3:
        masks.append((blocks((1, 1, 1), (3, 3, 1)), 1))
    apart = corner.copy()
    apart[(-1,) * d] = True
    return masks + [(apart, 2)]


SHAPES = [(30,), (13, 11), (7, 6, 8)]


@pytest.mark.parametrize("shape", SHAPES)
def test_bounding_box_is_the_smallest_box_grown_and_clipped(shape):
    for mask in _edge_masks(shape, 1):
        for grow in (0, 1, 2):
            box = _bounding_box(mask, grow)
            if not mask.any():
                assert box is None
                continue
            idx = np.argwhere(mask)
            expected = tuple(
                slice(max(lo - grow, 0), min(hi + 1 + grow, n))
                for lo, hi, n in zip(idx.min(axis=0), idx.max(axis=0), shape)
            )
            assert box == expected


@pytest.mark.parametrize("shape", SHAPES)
def test_box_dilation_and_labels_match_the_whole_lattice(shape):
    dom = GridDomain((0.0,) * len(shape), 0.1, shape, np.ones(shape, dtype=bool))
    moore = np.ones((3,) * len(shape), dtype=bool)
    axis = ndimage.generate_binary_structure(len(shape), 1)
    diagonal = _diagonal_masks(shape)
    for mask in _edge_masks(shape, 2) + [mask for mask, _ in diagonal]:
        s = NodeSet(dom, mask)
        assert np.array_equal(s.dilate("moore").mask, ndimage.binary_dilation(mask, moore))
        assert np.array_equal(s.dilate("axis").mask, ndimage.binary_dilation(mask, axis))
        labels, count = ndimage.label(mask, structure=moore)
        assert dom.with_mask(mask).component_count() == count
        assert s.is_connected() == (count == 1)
        for node in map(tuple, np.argwhere(mask)[::5]):
            expected = labels == labels[node]
            assert np.array_equal(s.component_containing(node).mask, expected)
            negative = tuple(i - n for i, n in zip(node, shape))
            assert np.array_equal(s.component_containing(negative).mask, expected)
        if not mask.all():
            with pytest.raises(PreconditionError, match="not a member"):
                s.component_containing(tuple(np.argwhere(~mask)[0]))
    # the diagonal masks have several axis components, so the count took the
    # Moore fallback on each
    for mask, moore_count in diagonal:
        assert ndimage.label(mask, structure=axis)[1] > 1
        assert ndimage.label(mask, structure=moore)[1] == moore_count
