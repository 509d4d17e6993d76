"""mean_inf_constant against the exact per-point path.

The reference interpolates every sample point of every sphere with
``interpolate`` (the path ``spherical_mean`` uses) and means per centre.
The stencil sums in another order, so values agree to 1e-12 relative, -inf
results agree exactly, and the errors agree by message.

``mean_inf_constant`` computes only the centres its screen cannot rule out;
``full_pass`` keeps the formula that computes every centre (the stencil sum,
each row summed on its own by ``einsum``, where the stencil lies in the
lattice box on active nodes, ``interpolate`` elsewhere), and the two are
compared bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from subglue import GridDomain, NodeSet, PreconditionError, ScalarField, mean_inf_constant
from subglue import cli, errors
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


# ---------------------------------------------------------------------------
# bit for bit against the pass over every centre
# ---------------------------------------------------------------------------


def full_pass(v, shell, r, samples=256):
    """The least mean over every shell centre, each by the formula its kind
    takes: the stencil sum, or interpolate."""
    dom = v.domain
    d = dom.dim
    radius = r / 3.0
    directions = sphere_points((0.0,) * d, 1.0, samples, d)
    nodes = shell.indices()
    centres = shell.points()
    strides = field_module._strides(dom.shape)
    offsets, weights, absorbs, lo, hi = field_module._sphere_stencil(
        radius * directions / dom.spacing, strides
    )[:5]
    active = dom.mask.ravel()
    values = v.values.ravel()
    safe = np.where(active & np.isfinite(values), values, 0.0)
    minus_inf = values == -np.inf
    means = np.empty(len(nodes))
    block = max(1, field_module._MEAN_BLOCK_POINTS // samples)
    in_box = np.all((nodes + lo >= 0) & (nodes + hi < dom.shape), axis=1)
    inside = np.flatnonzero(in_box)
    exact = [np.flatnonzero(~in_box)]
    for start in range(0, len(inside), block):
        ids = inside[start : start + block]
        idx = (nodes[ids] @ strides)[:, None] + offsets
        means[ids] = np.einsum("ij,j->i", safe[idx], weights) / samples
        means[ids[minus_inf[idx[:, absorbs]].any(axis=1)]] = -np.inf
        exact.append(ids[~active[idx].all(axis=1)])
    exact = np.concatenate(exact)
    for start in range(0, len(exact), block):
        ids = exact[start : start + block]
        pts = (centres[ids, None, :] + radius * directions).reshape(-1, d)
        try:
            vals = interpolate(v, pts)
        except PreconditionError as exc:
            raise PreconditionError(f"sphere exits domain: {exc}") from exc
        means[ids] = vals.reshape(len(ids), samples).mean(axis=1)
    return float(means.min())


def outcome(fn, *args, **kwargs):
    """The value, or the message of the PreconditionError raised."""
    try:
        return fn(*args, **kwargs)
    except PreconditionError as exc:
        return str(exc)


def assert_bit_identical(v, shell, r, samples=256):
    got = outcome(mean_inf_constant, v, shell, r, samples=samples)
    want = outcome(full_pass, v, shell, r, samples=samples)
    assert got == want
    return got


@pytest.mark.parametrize("dim, n, seed", [(2, 41, 12), (2, 41, 16), (3, 15, 14), (3, 15, 24)])
def test_shell_minimum_matches_the_full_pass_on_random_scenes(dim, n, seed):
    # holes and -inf values; three shells of centres no closer to a hole
    # than the averaging radius (spheres that graze inactive nodes but do not
    # escape) and one shell that may escape (the same error)
    from scipy import ndimage

    rng = np.random.default_rng(seed)
    finite = 0
    for minus_inf_frac in (0.0, 0.002):
        v = random_scene(dim, n, seed, minus_inf_frac=minus_inf_frac)
        rr = np.sqrt(v.domain.distance2_to((0.0,) * dim))
        reach = ndimage.distance_transform_edt(v.domain.mask) * v.domain.spacing
        for k in range(4):
            r = rng.uniform(0.3, 0.8)
            a = rng.uniform(0.0, 0.3)
            b = min(a + rng.uniform(0.15, 0.3), 0.95 - r / 3)
            keep = v.domain.mask & (rr > a) & (rr < b)
            if k < 3:
                keep &= reach >= r / 3
            samples = int(rng.choice([8, 64, 256]))
            got = assert_bit_identical(v, NodeSet(v.domain, keep), r, samples)
            finite += isinstance(got, float) and np.isfinite(got)
    assert finite >= 3


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_near_ties_under_a_wide_value_range_match_the_full_pass(seed):
    # means that differ by 1e-12 while the screen's error scales with the
    # box's 1e6 corner block: only a slack relative to that bound keeps the
    # true minimum among the recomputed centres
    n = 49
    dom = GridDomain((-1.0, -1.0), 2.0 / (n - 1), (n, n), np.ones((n, n), dtype=bool))
    rr = np.sqrt(dom.distance2_to((0.0, 0.0)))
    dom = dom.with_mask(rr > 0.25)
    vals = 3.0 + 1e-12 * np.random.default_rng(seed).normal(size=dom.shape)
    vals[:8, :8] = 1e6
    v = ScalarField(dom, vals)
    shell = NodeSet(dom, dom.mask & (rr > 0.44) & (rr < 0.75))
    assert np.isfinite(assert_bit_identical(v, shell, 0.6, samples=64))


def test_constant_field_ties_everywhere_and_matches_the_full_pass():
    dom = annulus_domain(0.4, 1.6, 1 / 16, half=1.75)
    rr = np.sqrt(dom.distance2_to((0.0, 0.0)))
    v = ScalarField.constant(dom, 3.0)
    shell = NodeSet(dom, dom.mask & (rr > 0.6) & (rr < 0.8))
    assert assert_bit_identical(v, shell, 0.6) == pytest.approx(3.0, rel=REL)


def stencil_of(v, node, r, samples=256):
    """Flat indices of the merged stencil's nodes about a lattice node."""
    strides = field_module._strides(v.domain.shape)
    directions = sphere_points((0.0,) * v.domain.dim, 1.0, samples, v.domain.dim)
    offsets = field_module._sphere_stencil(
        r / 3.0 * directions / v.domain.spacing, strides
    )[0]
    return np.asarray(node) @ strides + offsets


def test_stencil_touching_one_inactive_node_matches_the_full_pass(interpolated):
    # the minimum sits at the centre whose stencil loses one node
    dom, _ = full_lattice()
    mask = dom.mask.copy()
    mask[20, 16] = False  # the sample at angle 0 lands on it
    dom = dom.with_mask(mask)
    v = ScalarField(dom, dom.distance2_to(dom.node_points([(16, 16)])[0]))
    assert (~dom.mask.ravel()[stencil_of(v, (16, 16), 0.75)]).sum() == 1
    shell = NodeSet(dom, dom.distance2_to((0.0, 0.0)) < (2.5 / 16) ** 2)
    assert_bit_identical(v, shell, 0.75)
    assert interpolated  # the centre by the inactive node took the exact path


def test_minus_inf_at_one_absorbing_corner_in_3d_matches_the_full_pass():
    # one -inf node at a corner where a single sample of centre (8, 8, 8)
    # weighs more than _WEIGHT_EPS
    n = 17
    dom = GridDomain((-1.0,) * 3, 1 / 8, (n,) * 3, np.ones((n,) * 3, dtype=bool))
    strides = field_module._strides(dom.shape)
    directions = sphere_points((0.0,) * 3, 1.0, 64, 3)
    offsets, _, absorbs = field_module._sphere_stencil(0.3 * directions / dom.spacing, strides)[:3]
    vals = np.broadcast_to(3.0 + dom.coordinate_grids()[0], dom.shape).copy()
    vals[np.unravel_index((8, 8, 8) @ strides + offsets[absorbs][0], dom.shape)] = -np.inf
    v = ScalarField(dom, vals)
    shell = NodeSet(dom, dom.distance2_to((0.0,) * 3) < 0.2**2)
    assert assert_bit_identical(v, shell, 0.9, samples=64) == -np.inf


def test_minus_inf_on_a_light_corner_by_an_inactive_node_absorbs_the_mean():
    # the stencil of centre (16, 16) touches the inactive node (19, 19), and
    # its sample at angle 0 gives the -inf corner (21, 16) a weight of
    # 1.5e-12, just above the cut interpolate uses: its mean is -inf, while
    # the field rises along y, so centre (16, 8) has the least finite mean
    h = 1 / 16
    dom, _ = full_lattice(h=h)
    mask = dom.mask.copy()
    mask[19, 19] = False
    dom = dom.with_mask(mask)
    vals = np.broadcast_to(3.0 + dom.coordinate_grids()[1], dom.shape).copy()
    vals[21, 16] = -np.inf
    v = ScalarField(dom, vals)
    mask = np.zeros(dom.shape, dtype=bool)
    mask[16, 16] = mask[16, 8] = True
    shell = NodeSet(dom, mask)
    radius = (4.0 + 1.5e-12) * h
    assert (~dom.mask.ravel()[stencil_of(v, (16, 16), 3 * radius, 8)]).sum() == 1
    assert assert_bit_identical(v, shell, 3.0 * radius, samples=8) == -np.inf


def test_minus_inf_one_node_beyond_the_least_stencil_matches_the_full_pass(interpolated):
    # the field rises away from (16, 16), so that centre holds the least
    # mean; the -inf at (21, 16) lies one node beyond its stencil (the
    # sample at angle 0 lands on (20, 16)), so it absorbs no mean of the shell
    dom, _ = full_lattice()
    vals = dom.distance2_to(dom.node_points([(16, 16)])[0])
    vals[21, 16] = -np.inf
    v = ScalarField(dom, vals)
    flat = np.ravel_multi_index((21, 16), dom.shape)
    stencil = stencil_of(v, (16, 16), 0.75)
    assert flat not in stencil and flat - dom.shape[1] in stencil
    mask = np.zeros(dom.shape, dtype=bool)
    mask[16, 16] = mask[16, 8] = mask[16, 24] = mask[8, 16] = True
    got = assert_bit_identical(v, NodeSet(dom, mask), 0.75)
    assert got == mean_inf_constant(v, single_node(dom, (16, 16)), 0.75)
    assert_same_mean(got, exact_mean(v, dom.node_points([(16, 16)])[0], 0.25, 256))
    assert interpolated == []  # the stencil sum, not interpolate


def test_centre_outside_the_lattice_box_holding_the_minimum_matches_the_full_pass(interpolated):
    # the field falls along x, so the grazing centre (28, 16), whose stencil
    # leaves the lattice box, holds the least mean
    h = 1 / 16
    dom, _ = full_lattice(h=h)
    v = ScalarField.affine(dom, (-100.0, 0.0), 3.0)
    mask = np.zeros(dom.shape, dtype=bool)
    mask[20:29, 16] = True
    radius = (4.0 + 5e-10) * h
    got = assert_bit_identical(v, NodeSet(dom, mask), 3.0 * radius, samples=8)
    assert got == exact_mean(v, dom.node_points([(28, 16)])[0], radius, 8)
    assert interpolated == [8]


def test_escaping_sphere_raises_even_when_another_centre_is_lower():
    # the sample at angle 0 of centre (16, 16) lands on node (20, 16), in the
    # middle of a hole; centre (16, 8) has the lower mean
    dom, _ = full_lattice()
    hole = dom.distance2_to(dom.node_points([(20, 16)])[0]) < (2.5 / 16) ** 2
    dom = dom.with_mask(~hole)
    v = ScalarField(dom, np.broadcast_to(3.0 + dom.coordinate_grids()[1], dom.shape))
    mask = np.zeros(dom.shape, dtype=bool)
    mask[16, 16] = mask[16, 8] = True
    with pytest.raises(PreconditionError, match="escapes the active region"):
        mean_inf_constant(v, NodeSet(dom, mask), 0.75, samples=8)
    assert_bit_identical(v, NodeSet(dom, mask), 0.75, samples=8)


# ---------------------------------------------------------------------------
# the FFT arrays under the memory budget
# ---------------------------------------------------------------------------


def test_fft_screen_over_the_memory_budget_raises(monkeypatch):
    dom, v = full_lattice()
    shell = NodeSet(dom, dom.distance2_to((0.0, 0.0)) < 0.25)
    monkeypatch.setattr(errors, "_MEMORY_BUDGET", 10_000)  # the stencil's 8,192 B fit
    with pytest.raises(PreconditionError, match=r"FFT correlation over the \d+x\d+ box .*bytes"):
        mean_inf_constant(v, shell, 0.75)


GLUE_FULL_SMALL = """
grid {
  origin -1 -1
  spacing 0.03125
  shape 65 65
}
set O  { add ball 0 0 1 }
set S0 { add ball 0 0 0.3 }
field v { kernel 2 0 0 }
command glue-full {
  v v
  domain O
  S0 S0
  pole 0 0
  r 0.45
  M_v -0.3
  tol 0.01
}
"""


def test_fft_screen_over_the_memory_budget_exits_precondition(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(GLUE_FULL_SMALL)
    # the command's lattice budget held to one float64 array (33,800 B)
    # fits; the screen's padded box does not
    monkeypatch.setattr(cli, "_LATTICE_BYTES", {})
    monkeypatch.setattr(errors, "_MEMORY_BUDGET", 40_000)
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "mean stage: an FFT correlation over the" in err and "bytes" in err
