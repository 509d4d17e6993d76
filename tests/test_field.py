import math

import numpy as np
import pytest

from subglue import (
    ExtReal,
    GridDomain,
    MINUS_INF,
    NodeSet,
    PreconditionError,
    ScalarField,
    boundary_limsup,
    discrete_laplacian,
    extremal_constants,
    interpolate,
    is_harmonic,
    is_subharmonic,
    kernel_field,
    mean_inf_constant,
    rasterize_ball,
    spherical_mean,
)
from subglue.field import _neighbour_sum, check, check_on, laplacian_array, neighbour_max

from conftest import annulus_domain, disk_domain, log_field, minus_inf_set, nearest_node


def quad_field(domain, alpha=1.0, center=(0.0, 0.0)):
    return ScalarField(
        domain, np.where(domain.mask, alpha * domain.distance2_to(center), 0.0)
    )


# ---------------------------------------------------------------------------
# ScalarField basics
# ---------------------------------------------------------------------------


def test_field_rejects_plus_inf_and_nan():
    dom = disk_domain(1.0, h=1 / 8)
    bad = np.where(dom.mask, np.inf, 0.0)
    with pytest.raises(PreconditionError):
        ScalarField(dom, bad)
    nanbad = np.where(dom.mask, np.nan, 0.0)
    with pytest.raises(PreconditionError):
        ScalarField(dom, nanbad)
    # inactive nodes are never read: NaN or +inf there is accepted
    for junk in (np.nan, np.inf):
        field = ScalarField(dom, np.where(dom.mask, 0.0, junk))
        assert np.all(field.values[dom.mask] == 0.0)
    # NaN is reported before +inf, wherever each lies
    both = np.where(dom.mask, 0.0, 1.0)
    active = np.argwhere(dom.mask)
    both[tuple(active[0])] = np.inf
    both[tuple(active[-1])] = np.nan
    with pytest.raises(PreconditionError, match="NaN value on an active node"):
        ScalarField(dom, both)


def test_minus_inf_set_is_tracked():
    dom = disk_domain(1.0, h=1 / 8)
    v = kernel_field(dom, 2, (0.0, 0.0))
    assert minus_inf_set(v).count == 1
    assert v.at(nearest_node(dom, (0, 0))) == MINUS_INF


def test_affine_image_zero_scale_kills_minus_inf():
    dom = disk_domain(1.0, h=1 / 8)
    v = kernel_field(dom, 2, (0.0, 0.0))
    z = v.affine_image(0.0, 0.0)
    assert minus_inf_set(z).count == 0
    assert np.all(z.values[dom.mask] == 0.0)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def test_interpolate_exact_on_affine():
    dom = disk_domain(1.0, h=1 / 16)
    v = ScalarField.affine(dom, (2.0, -1.0), 0.5)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.5, 0.5, size=(200, 2))
    got = interpolate(v, pts)
    expected = 2.0 * pts[:, 0] - 1.0 * pts[:, 1] + 0.5
    assert np.allclose(got, expected, atol=1e-13)


def test_interpolate_escape_raises():
    dom = disk_domain(1.0, h=1 / 16)
    v = ScalarField.constant(dom, 1.0)
    with pytest.raises(PreconditionError):
        interpolate(v, np.array([[5.0, 5.0]]))


# ---------------------------------------------------------------------------
# spherical means
# ---------------------------------------------------------------------------


def test_spherical_mean_constant_exact():
    dom = disk_domain(1.0, h=1 / 32)
    v = ScalarField.constant(dom, 4.25)
    assert spherical_mean(v, (0.1, -0.2), 0.3) == pytest.approx(4.25, abs=1e-13)


def test_spherical_mean_affine_equals_centre():
    dom = disk_domain(1.0, h=1 / 32)
    v = ScalarField.affine(dom, (1.0, 0.0), 0.0)
    assert spherical_mean(v, (0.15, 0.2), 0.25, samples=64) == pytest.approx(
        0.15, abs=1e-12
    )


def test_spherical_mean_log_matches_closed_form():
    # mean of log|x| over a circle not enclosing the origin is log|centre|;
    # at h = 1/256 the bilinear-interpolation bias is well under 1e-6
    h = 1 / 256
    dom = annulus_domain(0.3, 1.19, h, half=1.2)
    v = log_field(dom)
    rng = np.random.default_rng(7)
    for _ in range(10):
        ang = rng.uniform(0, 2 * np.pi)
        rad = rng.uniform(0.55, 0.9)
        centre = (rad * np.cos(ang), rad * np.sin(ang))
        r = rng.uniform(0.05, min(0.2, rad - 0.35, 1.15 - rad))
        got = spherical_mean(v, centre, r, samples=256)
        assert got == pytest.approx(np.log(rad), abs=1e-6)


def test_spherical_mean_minus_inf_absorbs():
    dom = disk_domain(1.0, h=1 / 16)
    v = kernel_field(dom, 2, (0.25, 0.0))
    assert spherical_mean(v, (0.0, 0.0), 0.25, samples=64) == -np.inf


def test_spherical_mean_preconditions():
    dom = disk_domain(1.0, h=1 / 16)
    v = ScalarField.constant(dom, 1.0)
    with pytest.raises(PreconditionError):
        spherical_mean(v, (0, 0), 0.5, samples=4)
    with pytest.raises(PreconditionError, match="sphere exits"):
        spherical_mean(v, (0.9, 0.0), 0.5)


def test_spherical_mean_three_dimensional():
    h = 1 / 16
    n = int(round(2 / h)) + 1
    dom = rasterize_ball((0, 0, 0), 1.0, origin=(-1, -1, -1), spacing=h, shape=(n, n, n))
    v = ScalarField.affine(dom, (0.0, 1.0, 0.0), 2.0)
    got = spherical_mean(v, (0.1, 0.1, -0.1), 0.3, samples=512)
    assert got == pytest.approx(2.1, abs=5e-4)


# ---------------------------------------------------------------------------
# discrete Laplacian
# ---------------------------------------------------------------------------


def test_laplacian_exact_on_quadratic():
    dom = disk_domain(1.0, h=1 / 32)
    v = quad_field(dom)
    node = nearest_node(dom, (0.25, 0.25))
    assert float(discrete_laplacian(v, node)) == pytest.approx(4.0, abs=1e-9)


def test_laplacian_zero_on_affine():
    dom = disk_domain(1.0, h=1 / 32)
    v = ScalarField.affine(dom, (3.0, -2.0), 1.0)
    node = nearest_node(dom, (0.1, -0.3))
    assert float(discrete_laplacian(v, node)) == pytest.approx(0.0, abs=1e-9)


def test_laplacian_minus_inf_neighbour():
    dom = disk_domain(1.0, h=1 / 8)
    v = kernel_field(dom, 2, (0.0, 0.0))
    pole = nearest_node(dom, (0, 0))
    beside = (pole[0] + 1, pole[1])
    assert discrete_laplacian(v, beside) == MINUS_INF


def test_laplacian_not_interior_errors():
    dom = disk_domain(1.0, h=1 / 8)
    v = ScalarField.constant(dom, 0.0)
    edge = tuple(np.argwhere(dom.active_set().inner_boundary().mask)[0])
    with pytest.raises(PreconditionError, match="not interior"):
        discrete_laplacian(v, edge)


@pytest.mark.parametrize("shape", [(9, 11), (6, 7, 5)])
def test_laplacian_at_a_node_matches_the_array(shape):
    # random masks and values with -inf centres and neighbours: the node
    # value is bit-identical to the array's, also at negative indices
    rng = np.random.default_rng(len(shape))
    mask = rng.random(shape) < 0.85
    vals = rng.normal(size=shape)
    vals[rng.random(shape) < 0.1] = -np.inf
    v = ScalarField(GridDomain((0.0,) * len(shape), 0.3, shape, mask), vals)
    lap, interior = laplacian_array(v)
    nodes = np.argwhere(interior)
    assert len(nodes) > 10 and np.isinf(lap[interior]).any()
    for node in nodes:
        want = lap[tuple(node)]
        for index in (node, node - shape):
            got = float(discrete_laplacian(v, index))
            assert got == want and np.signbit(got) == np.signbit(want)
    for node in np.argwhere(mask & ~interior)[:20]:
        with pytest.raises(PreconditionError, match="not interior"):
            discrete_laplacian(v, node - shape)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_is_subharmonic_kernel_passes_and_concave_fails():
    dom = disk_domain(1.0, h=1 / 32)
    neg = ScalarField(dom, np.where(dom.mask, -dom.distance2_to((0, 0)), 0.0))
    rep = is_subharmonic(neg, 1e-6)
    assert not rep.passed
    assert rep.worst == pytest.approx(4.0, abs=1e-6)


def test_is_subharmonic_max_closure():
    # max of certified-subharmonic fields is certified at the joint tolerance
    h = 1 / 32
    dom = disk_domain(1.0, h=h)
    rng = np.random.default_rng(9)
    pool = []
    pool.append((quad_field(dom, 0.7), 1e-9))
    pool.append((ScalarField.affine(dom, (1.0, 2.0), -0.5), 1e-9))
    for _ in range(3):
        p = rng.uniform(1.5, 3.0) * np.array(
            [np.cos(rng.uniform(0, 2 * np.pi)), np.sin(rng.uniform(0, 2 * np.pi))]
        )
        pool.append((log_field(dom, p), 4 * h * h / 0.5**4))
    for _ in range(10):
        i, j = rng.integers(0, len(pool), size=2)
        (a, ta), (b, tb) = pool[i], pool[j]
        assert is_subharmonic(a, max(ta, 1e-12)).passed
        assert is_subharmonic(b, max(tb, 1e-12)).passed
        glued = ScalarField(dom, np.where(dom.mask, np.maximum(a.values, b.values), 0.0))
        assert is_subharmonic(glued, max(ta, tb, 1e-12)).passed


def test_is_harmonic_saddle_and_quadratic():
    dom = disk_domain(1.0, h=1 / 32)
    grids = dom.coordinate_grids()
    saddle = ScalarField(dom, np.where(dom.mask, grids[0] * grids[1], 0.0))
    region = NodeSet(dom, dom.interior_mask())
    assert is_harmonic(saddle, region, 1e-9).passed
    assert not is_harmonic(quad_field(dom), region, 1e-6).passed


def test_is_harmonic_empty_region_errors():
    dom = disk_domain(1.0, h=1 / 16)
    v = ScalarField.constant(dom, 0.0)
    with pytest.raises(PreconditionError):
        is_harmonic(v, NodeSet(dom, np.zeros(dom.shape, dtype=bool)), 1e-6)


def test_sub_mean_value_property_on_random_pairs():
    # certified subharmonic fields satisfy v(x) <= mean + tol at admissible
    # centres and radii
    h = 1 / 64
    dom = disk_domain(1.0, h=h)
    fields = [
        (quad_field(dom, 0.5), 1e-9),
        (ScalarField.affine(dom, (2.0, 1.0), 0.0), 1e-9),
        (log_field(dom, (2.0, 0.5)), 100 * h * h),
    ]
    rng = np.random.default_rng(21)
    for v, tol in fields:
        assert is_subharmonic(v, max(tol, 1e-12)).passed
        for _ in range(100):
            ang = rng.uniform(0, 2 * np.pi)
            rad = rng.uniform(0.0, 0.6)
            centre = (rad * np.cos(ang), rad * np.sin(ang))
            r = rng.uniform(2 * h, 0.3)
            node = nearest_node(dom, centre)
            mean = spherical_mean(v, dom.node_point(node), r, samples=128)
            assert float(v.at(node)) <= mean + tol + 1e-7


def test_report_invariant_fail_iff_worst_exceeds_tol():
    passing = check("x", "t", worst=0.5, tol=0.5)
    failing = check("x", "t", worst=0.5000001, tol=0.5)
    assert passing.passed and not failing.passed


def test_pointwise_report_names_its_first_worst_node():
    mask = np.zeros((4, 5), dtype=bool)
    mask[1, 1:4] = mask[2, 0] = True
    box = (slice(3, 7), slice(1, 6))
    rep = check_on("x", "t", np.array([0.5, 2.0, 1.0, 2.0]), mask, 1.0, box=box)
    assert (rep.worst, rep.where, rep.passed) == (2.0, (4, 3), False)
    # a zero worst names no node and is +0.0, also when it comes from -0.0
    zero = check_on("x", "t", np.maximum(0.0, -np.zeros(4)), mask, 1.0)
    assert zero.where is None and not np.signbit(zero.worst)
    empty = check_on("x", "t", np.array([]), np.zeros((4, 5), dtype=bool), 0.0)
    assert (empty.worst, empty.where, empty.passed) == (0.0, None, True)


# ---------------------------------------------------------------------------
# boundary limsup and extremal constants
# ---------------------------------------------------------------------------


def _limsup_oracle(v, from_mask, node):
    best = -np.inf
    d = v.domain.dim
    for offset in np.ndindex(*(3,) * d):
        if all(o == 1 for o in offset):
            continue
        idx = tuple(node[k] + offset[k] - 1 for k in range(d))
        if all(0 <= idx[k] < v.domain.shape[k] for k in range(d)) and from_mask[idx]:
            best = max(best, v.values[idx])
    return best


def test_boundary_limsup_constant_and_single_neighbour():
    dom = disk_domain(1.0, h=1 / 8)
    v = ScalarField.constant(dom, 2.5)
    inner = NodeSet(dom, dom.mask & (dom.distance2_to((0, 0)) < 0.25))
    outside = np.argwhere(dom.mask & ~inner.mask & inner.adjacent("moore").mask)[0]
    assert boundary_limsup(v, inner, tuple(outside)) == 2.5

    lone_mask = np.zeros(dom.shape, dtype=bool)
    node = nearest_node(dom, (0.2, 0.2))
    lone_mask[node] = True
    vals = np.where(dom.mask, 0.0, 0.0)
    vals[node] = -3.5
    w = ScalarField(dom, vals)
    assert boundary_limsup(w, NodeSet(dom, lone_mask), (node[0] + 1, node[1])) == -3.5


def test_boundary_limsup_matches_brute_force():
    rng = np.random.default_rng(4)
    dom = disk_domain(1.0, h=1 / 16)
    vals = np.where(dom.mask, rng.normal(size=dom.shape), 0.0)
    v = ScalarField(dom, vals)
    from_mask = dom.mask & (rng.random(dom.shape) < 0.5)
    from_set = NodeSet(dom, from_mask)
    candidates = np.argwhere(dom.mask)[::7]
    for node in map(tuple, candidates):
        oracle = _limsup_oracle(v, from_mask, node)
        if oracle == -np.inf:
            with pytest.raises(PreconditionError):
                boundary_limsup(v, from_set, node)
        else:
            assert float(boundary_limsup(v, from_set, node)) == oracle


def test_extremal_constants_bound_spherical_means():
    # when the sphere stays inside the node set, its mean sits between the
    # set's extremal constants (up to interpolation rounding)
    dom = disk_domain(1.0, h=1 / 32)
    rng = np.random.default_rng(40)
    rr = np.sqrt(dom.distance2_to((0, 0)))
    s = NodeSet(dom, dom.mask & (rr < 0.7))
    v = ScalarField(
        dom, np.where(dom.mask, 0.4 * dom.distance2_to((0.2, 0.1)), 0.0)
    )
    m, big = extremal_constants(v, s)
    for _ in range(50):
        ang = rng.uniform(0, 2 * np.pi)
        rad = rng.uniform(0.0, 0.3)
        centre = (rad * np.cos(ang), rad * np.sin(ang))
        r = rng.uniform(1 / 16, 0.3)
        mean = spherical_mean(v, centre, r, samples=64)
        assert float(m) - 1e-9 <= mean <= float(big) + 1e-9


def test_extremal_constants():
    dom = disk_domain(1.0, h=1 / 16)
    s = NodeSet(dom, dom.mask & (dom.distance2_to((0, 0)) < 0.25))
    v = ScalarField.constant(dom, 5.0)
    assert extremal_constants(v, s) == (ExtReal(5.0), ExtReal(5.0))

    w = kernel_field(dom, 2, (0.0, 0.0))
    m, big = extremal_constants(w, s)
    assert m == MINUS_INF and math.isfinite(big)

    rng = np.random.default_rng(12)
    vals = np.where(dom.mask, rng.normal(size=dom.shape), 0.0)
    u = ScalarField(dom, vals)
    m2, b2 = extremal_constants(u, s)
    assert float(m2) == vals[s.mask].min()
    assert float(b2) == vals[s.mask].max()


# ---------------------------------------------------------------------------
# mean-infimum constant
# ---------------------------------------------------------------------------


def test_mean_inf_constant_constant_field():
    dom = disk_domain(1.0, h=1 / 32)
    v = ScalarField.constant(dom, -1.25)
    rr = np.sqrt(dom.distance2_to((0, 0)))
    shell = NodeSet(dom, dom.mask & (rr > 0.4) & (rr < 0.6))
    assert mean_inf_constant(v, shell, 0.3) == pytest.approx(-1.25, abs=1e-12)


@pytest.mark.parametrize("samples", [0, 4])
def test_mean_inf_constant_needs_eight_samples(samples):
    # the same floor as spherical_mean; fewer samples used to reach the
    # interpolation with an empty or undersampled sphere
    dom = disk_domain(1.0, h=1 / 32)
    v = ScalarField.constant(dom, -1.25)
    rr = np.sqrt(dom.distance2_to((0, 0)))
    shell = NodeSet(dom, dom.mask & (rr > 0.4) & (rr < 0.6))
    with pytest.raises(PreconditionError, match="at least 8"):
        mean_inf_constant(v, shell, 0.3, samples=samples)
    with pytest.raises(PreconditionError, match="at least 8"):
        spherical_mean(v, (0.0, 0.0), 0.3, samples=samples)


def test_mean_inf_constant_harmonic_equals_min():
    dom = disk_domain(1.0, h=1 / 64)
    v = ScalarField.affine(dom, (1.0, 0.0), 0.0)
    rr = np.sqrt(dom.distance2_to((0, 0)))
    shell = NodeSet(dom, dom.mask & (rr > 0.4) & (rr < 0.6))
    got = mean_inf_constant(v, shell, 0.3)
    assert got == pytest.approx(float(v.values[shell.mask].min()), abs=1e-9)


def test_mean_inf_constant_log_matches_quadrature_oracle():
    h = 1 / 128
    dom = annulus_domain(0.4, 1.6, h, half=1.75)
    v = log_field(dom)
    rr = np.sqrt(dom.distance2_to((0, 0)))
    shell = NodeSet(dom, dom.mask & (rr > 0.8) & (rr < 1.0))
    got = mean_inf_constant(v, shell, 0.6, samples=256)  # averaging radius 0.2

    # independent oracle: dense quadrature of the exact log, no grid involved
    pts = shell.points()
    ang = 2 * np.pi * np.arange(4096) / 4096
    circ = 0.2 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    means = np.array(
        [np.log(np.linalg.norm(c + circ, axis=1)).mean() for c in pts]
    )
    assert got == pytest.approx(float(means.min()), abs=1e-4)


# ---------------------------------------------------------------------------
# certification and neighbour maxima on the bounding box against the whole
# lattice
# ---------------------------------------------------------------------------


def _padded_shift(padded, offset, shape):
    """``padded`` (one node of padding) read at every lattice node plus
    ``offset``."""
    return padded[tuple(slice(1 + o, 1 + o + n) for o, n in zip(offset, shape))]


def _whole_lattice_neighbour_sum(vals, fill):
    """The sum of the axis neighbours, ``fill`` beyond the lattice, added
    axis by axis, +1 before -1."""
    d = vals.ndim
    padded = np.pad(vals, 1, constant_values=fill)
    nb = np.zeros_like(vals)
    for k in range(d):
        for step in (1, -1):
            nb = nb + _padded_shift(padded, np.eye(d, dtype=int)[k] * step, vals.shape)
    return nb


def _whole_lattice_laplacian(v):
    """The stencil Laplacian of the whole lattice."""
    vals = v.values
    interior = v.domain.interior_mask()
    with np.errstate(invalid="ignore"):
        nb = _whole_lattice_neighbour_sum(vals, np.nan)
        lap = (nb - 2.0 * vals.ndim * vals) / v.spacing**2
    lap = np.where(interior, lap, np.nan)
    centre_minus = interior & (vals == -np.inf)
    lap[interior & (nb == -np.inf) & ~centre_minus] = -np.inf
    lap[centre_minus] = np.inf
    return lap, interior


def _worst_node(arr, where_mask):
    if not where_mask.any():
        return None
    idx = np.unravel_index(np.argmax(np.where(where_mask, arr, -np.inf)), arr.shape)
    return tuple(int(i) for i in idx)


def _whole_lattice_subharmonic(v, tol, exclude):
    lap, tested = _whole_lattice_laplacian(v)
    if exclude is not None:
        tested &= ~exclude
    skipped = tested & ~np.isfinite(lap)
    tested &= np.isfinite(lap)
    violation = np.where(tested, np.maximum(0.0, -lap), 0.0)
    worst = float(violation.max()) if tested.any() else 0.0
    return check(
        "subharmonic", "subharmonic", worst, tol, _worst_node(violation, tested),
        tested_nodes=int(tested.sum()), minus_inf_skipped=int(skipped.sum()),
    ).as_record()


def _whole_lattice_harmonic(v, region, tol):
    lap, interior = _whole_lattice_laplacian(v)
    tested = region & interior
    if not tested.any():
        return "no interior node to test in the region"
    with np.errstate(invalid="ignore"):
        violation = np.where(tested & np.isfinite(lap), np.abs(lap), 0.0)
    violation[tested & ~np.isfinite(lap)] = np.inf
    return check(
        "harmonic", "harmonic", violation.max(), tol, _worst_node(violation, tested),
        tested_nodes=int(tested.sum()),
    ).as_record()


def _whole_lattice_neighbour_max(v, from_mask):
    shape = v.values.shape
    padded = np.pad(np.where(from_mask, v.values, -np.inf), 1, constant_values=-np.inf)
    out = np.full(shape, -np.inf)
    for offset in np.ndindex(*(3,) * len(shape)):
        if offset != (1,) * len(shape):
            out = np.maximum(out, _padded_shift(padded, np.array(offset) - 1, shape))
    return out


def _edge_fields(shape, seed):
    """Fields with a few -inf values on masks that touch the lattice edge,
    and one on a mask with no active node."""
    rng = np.random.default_rng(seed)
    near = np.zeros(shape, dtype=bool)
    near[tuple(slice(0, 2 * n // 3) for n in shape)] = True
    far = np.zeros(shape, dtype=bool)
    far[tuple(slice(n // 4, None) for n in shape)] = True
    out = []
    for mask in (near & (rng.random(shape) < 0.9), far, np.zeros(shape, dtype=bool)):
        dom = GridDomain((0.0,) * len(shape), 0.25, shape, mask)
        vals = rng.normal(size=shape)
        vals[rng.random(shape) < 0.03] = -np.inf
        out.append(ScalarField(dom, np.where(mask, vals, 0.0)))
    return out


@pytest.mark.parametrize("shape", [(40,), (14, 12), (8, 7, 9)])
def test_box_certification_matches_the_whole_lattice(shape):
    rng = np.random.default_rng(len(shape))
    for v in _edge_fields(shape, len(shape)):
        dom = v.domain
        for fill in (np.nan, 0.0, -1.5):
            with np.errstate(invalid="ignore"):
                assert np.array_equal(
                    _neighbour_sum(v.values, fill),
                    _whole_lattice_neighbour_sum(v.values, fill),
                    equal_nan=True,
                )
        lap, interior = laplacian_array(v)
        ref_lap, ref_interior = _whole_lattice_laplacian(v)
        assert np.array_equal(interior, ref_interior)
        assert np.array_equal(lap, ref_lap, equal_nan=True)
        corner = np.zeros(shape, dtype=bool)
        corner[(0,) * len(shape)] = True
        sets = [
            None,
            np.zeros(shape, dtype=bool),
            corner,
            rng.random(shape) < 0.1,
            dom.mask & (rng.random(shape) < 0.5),
            np.ones(shape, dtype=bool),
        ]
        for tol in (1e-3, 1e3):
            for exclude in sets:
                ref = _whole_lattice_subharmonic(v, tol, exclude)
                ex = None if exclude is None else NodeSet(dom, exclude)
                assert is_subharmonic(v, tol, exclude=ex).as_record() == ref
            for region in sets[1:]:
                ref = _whole_lattice_harmonic(v, region, tol)
                if isinstance(ref, str):
                    with pytest.raises(PreconditionError, match=ref):
                        is_harmonic(v, NodeSet(dom, region), tol)
                else:
                    assert is_harmonic(v, NodeSet(dom, region), tol).as_record() == ref
        for from_mask in sets[1:]:
            from_mask = from_mask & dom.mask
            assert np.array_equal(
                neighbour_max(v, NodeSet(dom, from_mask)),
                _whole_lattice_neighbour_max(v, from_mask),
            )
