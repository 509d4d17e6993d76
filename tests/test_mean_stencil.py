"""mean_inf_constant against the exact per-point path.

The reference interpolates every sample point of every sphere with
``interpolate`` (the path ``spherical_mean`` uses) and means per centre.
The stencil sums in another order, so values agree to 1e-12 relative, -inf
results agree exactly, and the errors agree by message.
"""

import tracemalloc

import numpy as np
import pytest

from subglue import GridDomain, NodeSet, PreconditionError, ScalarField, mean_inf_constant
from subglue import field as field_module
from subglue.field import interpolate, sphere_points

from conftest import annulus_domain, log_field

REL = 1e-12


def exact_mean(v, centre, radius, samples):
    """The per-centre mean of the exact path; raises as mean_inf_constant."""
    pts = sphere_points(centre, radius, samples, v.domain.dim)
    try:
        vals = interpolate(v, pts)
    except PreconditionError as exc:
        raise PreconditionError(f"sphere exits domain: {exc}") from exc
    return float(vals.mean())


@pytest.fixture
def interpolated(monkeypatch):
    """Counts the points mean_inf_constant hands to the exact path."""
    calls = []
    real = field_module.interpolate

    def counting(v, points):
        calls.append(len(points))
        return real(v, points)

    monkeypatch.setattr(field_module, "interpolate", counting)
    return calls


def single_node(domain, index):
    mask = np.zeros(domain.shape, dtype=bool)
    mask[index] = True
    return NodeSet(domain, mask)


def assert_same_mean(got, want):
    if want == -np.inf:
        assert got == -np.inf
    else:
        assert got == pytest.approx(want, rel=REL, abs=0.0)


def random_scene(dim, n, seed, holes=3, minus_inf_frac=0.01):
    """[-1, 1]^dim with a few random balls removed from the mask and normal
    values about 3, a few of them -inf."""
    rng = np.random.default_rng(seed)
    shape = (n,) * dim
    dom = GridDomain((-1.0,) * dim, 2.0 / (n - 1), shape, np.ones(shape, dtype=bool))
    mask = np.ones(shape, dtype=bool)
    for _ in range(holes):
        centre = rng.uniform(-0.8, 0.8, size=dim)
        mask &= dom.distance2_to(centre) >= rng.uniform(0.1, 0.25) ** 2
    vals = 3.0 + rng.normal(size=shape)
    vals[mask & (rng.random(shape) < minus_inf_frac)] = -np.inf
    return ScalarField(dom.with_mask(mask), np.where(mask, vals, 0.0))


@pytest.mark.parametrize(
    "dim, n, seed, r, samples",
    [(2, 25, 1, 0.6, 256), (2, 25, 2, 0.45, 64), (3, 11, 3, 0.9, 64), (3, 11, 4, 0.75, 128)],
)
def test_every_centre_matches_the_exact_path(interpolated, dim, n, seed, r, samples):
    # every active node as a one-node shell: fast centres, centres next to
    # inactive corners, centres near -inf values, and spheres that leave the
    # lattice box or the active region
    v = random_scene(dim, n, seed)
    radius = r / 3.0
    kinds = {"fast": 0, "exact": 0, "-inf": 0, "raises": 0}
    for index in map(tuple, np.argwhere(v.domain.mask)):
        shell = single_node(v.domain, index)
        centre = shell.points()[0]
        interpolated.clear()
        try:
            want = exact_mean(v, centre, radius, samples)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError) as got:
                mean_inf_constant(v, shell, r, samples=samples)
            assert str(got.value) == str(exc)
            kinds["raises"] += 1
            continue
        assert_same_mean(mean_inf_constant(v, shell, r, samples=samples), want)
        kinds["exact" if interpolated else "fast"] += 1
        kinds["-inf"] += want == -np.inf
    assert all(count > 0 for count in kinds.values()), kinds


@pytest.mark.parametrize("dim, n, seed", [(2, 25, 5), (3, 11, 6)])
def test_whole_shell_is_the_minimum_of_the_exact_means(dim, n, seed):
    v = random_scene(dim, n, seed, minus_inf_frac=0.0)
    radius = 0.25
    # the shell: every active node whose sphere the exact path can mean
    shell = np.zeros(v.domain.shape, dtype=bool)
    means = []
    for index in map(tuple, np.argwhere(v.domain.mask)):
        try:
            means.append(exact_mean(v, v.domain.node_points([index])[0], radius, 128))
        except PreconditionError:
            continue
        shell[index] = True
    got = mean_inf_constant(v, NodeSet(v.domain, shell), 3 * radius, samples=128)
    assert_same_mean(got, min(means))


def test_annulus_scene_matches_the_exact_path(interpolated):
    # spheres of radius 0.2 about 0.6 < |x| < 0.8 graze the inner mask edge
    # at |x| = 0.4, so the shell mixes stencil and renormalized centres
    h = 1 / 32
    dom = annulus_domain(0.4, 1.6, h, half=1.75)
    v = log_field(dom)
    rr = np.sqrt(dom.distance2_to((0, 0)))
    shell = NodeSet(dom, dom.mask & (rr > 0.6) & (rr < 0.8))
    means = np.array([exact_mean(v, c, 0.2, 256) for c in shell.points()])
    got = mean_inf_constant(v, shell, 0.6, samples=256)
    assert_same_mean(got, float(means.min()))
    assert 0 < sum(interpolated) < shell.count * 256
    # and centre by centre on a sample of the shell
    for index, want in list(zip(map(tuple, shell.indices()), means))[::7]:
        assert_same_mean(mean_inf_constant(v, single_node(dom, index), 0.6), want)


def full_lattice(n=33, h=1 / 16):
    """A fully active 2-d lattice and the constant field 3 on it."""
    dom = GridDomain((-1.0, -1.0), h, (n, n), np.ones((n, n), dtype=bool))
    return dom, ScalarField.constant(dom, 3.0)


def test_minus_inf_on_a_contributing_corner_absorbs_the_mean(interpolated):
    dom, v = full_lattice()
    vals = v.values.copy()
    vals[16 + 3, 16 + 2] = -np.inf  # on the circle of radius 4h about (16, 16)
    v = v.with_values(vals)
    shell = single_node(dom, (16, 16))
    assert exact_mean(v, shell.points()[0], 0.25, 256) == -np.inf
    assert mean_inf_constant(v, shell, 0.75) == -np.inf
    assert interpolated == []


def test_minus_inf_on_a_zero_weight_corner_is_not_absorbing(interpolated):
    # radius 4h: the sample at angle 0 lands on node (20, 16) exactly, so
    # its cell corner (21, 16) has weight 0 and no other sample reaches it
    dom, v = full_lattice()
    vals = v.values.copy()
    vals[21, 16] = -np.inf
    v = v.with_values(vals)
    shell = single_node(dom, (16, 16))
    want = exact_mean(v, shell.points()[0], 0.25, 256)
    assert want == pytest.approx(3.0, rel=REL)
    assert_same_mean(mean_inf_constant(v, shell, 0.75), want)
    assert interpolated == []


def test_sphere_leaving_the_lattice_box_raises():
    dom, v = full_lattice()
    shell = single_node(dom, (16, 2))
    with pytest.raises(PreconditionError, match="sphere exits domain: .*lattice box"):
        mean_inf_constant(v, shell, 0.75)
    # one exiting sphere fails the whole shell, as on the exact path
    with pytest.raises(PreconditionError, match="sphere exits domain: .*lattice box"):
        mean_inf_constant(v, NodeSet(dom, dom.mask), 0.75)


def test_sphere_grazing_the_lattice_box_matches_the_exact_path(interpolated):
    # the sample at angle 0 lies 5e-10 cells past the last gridline, inside
    # the box tolerance; its outer cell corner is off the lattice with a tiny
    # weight, which a wrapping gather would read from the opposite edge
    h = 1 / 16
    dom, _ = full_lattice(h=h)
    v = ScalarField.affine(dom, (100.0, 0.0), 3.0)
    shell = single_node(dom, (28, 16))
    radius = (4.0 + 5e-10) * h
    want = exact_mean(v, shell.points()[0], radius, 8)
    assert_same_mean(mean_inf_constant(v, shell, 3.0 * radius, samples=8), want)
    assert interpolated == [8]


def test_mean_stage_memory_is_bounded_by_the_block():
    # a 3-d ball shell of 3,004 centres with 512 Fibonacci samples: the
    # exact path over all 1.5M points at once peaks at about 0.7 GB
    n = 33
    h = 2.0 / (n - 1)
    axis = np.linspace(-1.0, 1.0, n)
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
    rr = np.sqrt(x * x + y * y + z * z)
    dom = GridDomain((-1.0,) * 3, h, (n,) * 3, rr < 0.95)
    v = ScalarField(dom, np.where(dom.mask, 1.0 / np.maximum(rr, h), 0.0))
    shell = NodeSet(dom, dom.mask & (rr > 0.35) & (rr < 0.6))
    assert shell.count * 512 > 10**6
    tracemalloc.start()
    try:
        got = mean_inf_constant(v, shell, 0.9, samples=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # lattice- and shell-sized arrays (at most ten float64 arrays of the
    # lattice's size), plus one block: its points and at most eight float64
    # or index arrays of 2**d corners per point
    lattice_bytes = 10 * 8 * dom.mask.size
    block_bytes = 8 * field_module._MEAN_BLOCK_POINTS * (3 + 8 * 2**3)
    assert peak < lattice_bytes + block_bytes
    assert np.isfinite(got)
