import math
import tracemalloc

import numpy as np
import pytest

from subglue import (
    DiscreteMeasure,
    PreconditionError,
    equilibrium_weights,
    fekete_capacity,
    mutual_energy,
)
from subglue import capacity as capacity_module
from subglue.capacity import _kernel_matrix
from subglue.kernels import kernel_k

from conftest import project_simplex


def roots_of_unity(n, radius=1.0):
    ang = 2 * np.pi * np.arange(n) / n
    return radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def brute_force_energy(support, weights, d):
    """Independent O(n^2) loop with identical diagonal regularization."""
    n = len(weights)
    total = 0.0
    for i in range(n):
        dists = [np.linalg.norm(support[i] - support[j]) for j in range(n) if j != i]
        delta = min(dists) / 2.0
        for j in range(n):
            if i == j:
                t = delta
            else:
                t = np.linalg.norm(support[i] - support[j])
            if d == 4:
                raise NotImplementedError
            q = d - 2
            k = math.log(t) if q == 0 else -math.copysign(1, q) * t ** (-q)
            total += weights[i] * weights[j] * k
    return total


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def test_measure_invariants():
    pts = roots_of_unity(4)
    with pytest.raises(PreconditionError):
        DiscreteMeasure(pts, [0.5, 0.5, 0.1, 0.1])  # sums to 1.2
    with pytest.raises(PreconditionError):
        DiscreteMeasure(pts, [0.5, 0.7, -0.1, -0.1])  # negative
    with pytest.raises(PreconditionError):
        DiscreteMeasure(np.vstack([pts, pts[:1]]), np.full(5, 0.2))  # duplicate


# ---------------------------------------------------------------------------
# mutual energy
# ---------------------------------------------------------------------------


def test_two_point_off_diagonal_energy_is_zero():
    mu = DiscreteMeasure.uniform([[0.0, 0.0], [1.0, 0.0]])
    e = mutual_energy(mu, 2)
    assert e.off_diagonal == pytest.approx(0.0, abs=1e-15)


def test_roots_of_unity_energy_oracle():
    # off-diagonal part = (1/16) sum_{i != j} log |w_i - w_j|; the ordered
    # pairwise product over 4th roots of unity is 4^4 = 256
    pts = roots_of_unity(4)
    product = 1.0
    for i in range(4):
        for j in range(4):
            if i != j:
                product *= np.linalg.norm(pts[i] - pts[j])
    assert product == pytest.approx(256.0, rel=1e-12)
    e = mutual_energy(DiscreteMeasure.uniform(pts), 2)
    assert e.off_diagonal == pytest.approx(np.log(256.0) / 16.0, abs=1e-12)


def test_mutual_energy_matches_brute_force():
    rng = np.random.default_rng(17)
    for d in (2, 3):
        pts = rng.uniform(-1, 1, size=(9, d))
        w = rng.uniform(0.1, 1.0, size=9)
        w /= w.sum()
        mu = DiscreteMeasure(pts, w)
        e = mutual_energy(mu, d)
        assert e.value == pytest.approx(brute_force_energy(pts, w, d), abs=1e-12)


def test_single_atom_is_degenerate():
    mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
    e = mutual_energy(mu, 2)
    assert e.degenerate and e.value == -np.inf


def test_energy_invariant_under_support_permutation():
    rng = np.random.default_rng(23)
    pts = rng.uniform(-1, 1, size=(7, 2))
    w = rng.uniform(0.1, 1.0, size=7)
    w /= w.sum()
    perm = rng.permutation(7)
    a = mutual_energy(DiscreteMeasure(pts, w), 2)
    b = mutual_energy(DiscreteMeasure(pts[perm], w[perm]), 2)
    assert a.value == pytest.approx(b.value, abs=1e-13)


def test_dilation_adds_log_factor_exactly():
    rng = np.random.default_rng(29)
    pts = rng.uniform(-1, 1, size=(6, 2))
    w = np.full(6, 1 / 6)
    lam = 2.75
    a = mutual_energy(DiscreteMeasure(pts, w), 2)
    b = mutual_energy(DiscreteMeasure(lam * pts, w), 2)
    assert b.off_diagonal - a.off_diagonal == pytest.approx(
        np.log(lam) * (1.0 - w @ w), abs=1e-12
    )


def test_regularization_share_flag():
    # two clusters of nearly-coincident points make the diagonal term matter
    pts = np.array([[0, 0], [1e-9, 0], [1, 0], [1, 1e-9]], dtype=float)
    e = mutual_energy(DiscreteMeasure.uniform(pts), 2)
    assert e.regularization_share > 0.01


# ---------------------------------------------------------------------------
# equilibrium weights
# ---------------------------------------------------------------------------


def test_project_simplex():
    w = project_simplex(np.array([0.2, 0.8, 1.4]))
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0)
    assert project_simplex(np.array([0.25, 0.25, 0.5])) == pytest.approx(
        np.array([0.25, 0.25, 0.5])
    )


def test_equilibrium_symmetric_configurations():
    res = equilibrium_weights(roots_of_unity(8), 2)
    assert res.converged
    assert np.allclose(res.measure.weights, 1 / 8, atol=1e-6)

    two = equilibrium_weights(np.array([[0.0, 0.0], [1.0, 0.0]]), 2)
    assert np.allclose(two.measure.weights, 0.5, atol=1e-9)


def test_equilibrium_beats_uniform_on_random_cloud():
    rng = np.random.default_rng(31)
    pts = rng.uniform(-1, 1, size=(12, 2))
    res = equilibrium_weights(pts, 2)
    uniform_energy = mutual_energy(DiscreteMeasure.uniform(pts), 2).value
    assert res.energy >= uniform_energy - 1e-12


def test_equilibrium_matches_simplex_grid_search():
    # dense grid over the 3-point simplex, step 0.01, as the independent
    # optimizer; energies must agree to 1e-4
    rng = np.random.default_rng(37)
    for _ in range(3):
        pts = rng.uniform(-1, 1, size=(3, 2))
        res = equilibrium_weights(pts, 2)
        best = -np.inf
        a = _kernel_matrix(pts, 2)
        for i in range(101):
            for j in range(101 - i):
                w = np.array([i, j, 100 - i - j], dtype=float) / 100.0
                best = max(best, float(w @ a @ w))
        assert res.energy == pytest.approx(best, abs=1e-4)
        assert res.energy >= best - 1e-12


def test_equilibrium_step_does_not_depend_on_dilation():
    # dilating the support shifts the log kernel by a constant, which moves
    # only the multiplier of the bordered system, so the rounds must not change
    t = np.linspace(-1.0, 1.0, 256)
    segment = np.stack([t, np.zeros_like(t)], axis=1)
    runs = {s: equilibrium_weights(s * segment, 2) for s in (0.5, 1.0, 2.0)}
    assert runs[0.5].converged
    assert len({res.iterations for res in runs.values()}) == 1
    # every point of the segment carries weight: one bordered solve
    assert runs[1.0].iterations == 1
    for s, res in runs.items():
        assert np.exp(res.energy) == pytest.approx(s / 2.0, rel=0.02)


def projected_gradient_weights(support, d, max_iter=5000, tol=1e-12):
    """The projected-gradient ascent the active-set solve replaced, kept as
    the reference its energy must not fall below."""
    a = _kernel_matrix(support, d)
    n = support.shape[0]
    centred = a - a.mean(axis=0)
    centred -= centred.mean(axis=1)[:, None]
    step = 1.0 / (2.0 * float(np.linalg.norm(centred, 2)))
    w = np.full(n, 1.0 / n)
    aw = a @ w
    energy = float(w @ aw)
    for _ in range(max_iter):
        w_next = project_simplex(w + step * 2.0 * aw)
        aw = a @ w_next
        e_next = float(w_next @ aw)
        delta = abs(e_next - energy)
        move = float(np.abs(w_next - w).max())
        w, energy = w_next, e_next
        if delta < tol and move < math.sqrt(tol):
            break
    return energy


def lattice_ball(n, dim):
    """Nodes of the lattice (1/n) Z^dim strictly inside the unit ball."""
    g = np.arange(-n, n + 1) / n
    grid = np.stack(np.meshgrid(*([g] * dim)), axis=-1).reshape(-1, dim)
    return grid[np.sum(grid * grid, axis=1) < 1.0]


def _equilibrium_cases():
    t = np.linspace(-1.0, 1.0, 256)
    yield "segment", np.stack([t, np.zeros_like(t)], axis=1), 2
    yield "lattice-disk", lattice_ball(8, 2), 2
    yield "lattice-ball", lattice_ball(4, 3), 3
    rng = np.random.default_rng(47)
    for k in range(3):
        yield f"cloud{k}", rng.uniform(-1, 1, size=(300, 2)), 2


EQUILIBRIUM_CASES = list(_equilibrium_cases())
equilibrium_cases = pytest.mark.parametrize(
    "pts, d", [case[1:] for case in EQUILIBRIUM_CASES], ids=[case[0] for case in EQUILIBRIUM_CASES]
)


def assert_frostman(res, d, tol=1e-12):
    """The discrete Frostman conditions at the returned weights: a
    probability vector whose potential is constant on its support and no
    larger off it, the constant being the energy."""
    w = res.measure.weights
    assert np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    p = _kernel_matrix(res.measure.support, d) @ w
    lam = res.energy
    scale = max(1.0, abs(lam))
    on = w > 0
    assert np.abs(p[on] - lam).max() <= 1e-12 * scale
    if not on.all():
        assert (p[~on] - lam).max() <= tol * scale


@equilibrium_cases
def test_equilibrium_energy_is_at_least_the_projected_gradient(pts, d):
    res = equilibrium_weights(pts, d)
    assert res.converged
    assert res.energy >= projected_gradient_weights(pts, d) - 1e-12


@equilibrium_cases
def test_equilibrium_satisfies_the_frostman_conditions(pts, d):
    res = equilibrium_weights(pts, d)
    assert res.converged
    assert_frostman(res, d)
    w = res.measure.weights
    assert res.energy == float(w @ (_kernel_matrix(pts, d) @ w))


def test_equilibrium_readds_a_dropped_atom():
    # dropping every nonpositive atom at once can drop one that belongs to
    # the support; a later round must add it back as a violator of p <= lam.
    # Two of these 200 seeded clouds take such a round.
    rng = np.random.default_rng(59)
    for _ in range(200):
        res = equilibrium_weights(rng.uniform(-1, 1, size=(20, 2)), 2)
        assert res.converged
        assert_frostman(res, 2)


@pytest.mark.parametrize("length, angle, shift", [(2.0, 0.0, 0.0), (0.3, 0.7, 5.0), (7.5, 2.1, -3.0)])
def test_equilibrium_segment_matches_arcsine_capacity(length, angle, shift):
    # the equilibrium measure of a segment is the arcsine law, and the
    # capacity of a segment of length L is L / 4
    t = np.linspace(-0.5 * length, 0.5 * length, 256)
    direction = np.array([math.cos(angle), math.sin(angle)])
    pts = t[:, None] * direction + shift
    res = equilibrium_weights(pts, 2)
    assert res.converged
    assert math.exp(res.energy) == pytest.approx(length / 4.0, rel=0.02)


def test_equilibrium_is_uniform_on_roots_of_unity():
    res = equilibrium_weights(roots_of_unity(64), 2)
    assert res.converged
    assert res.iterations == 1
    assert np.allclose(res.measure.weights, 1 / 64, rtol=0.0, atol=1e-12)


def test_equilibrium_converges_on_a_thousand_point_cloud():
    pts = np.random.default_rng(53).uniform(-1, 1, size=(1000, 2))
    res = equilibrium_weights(pts, 2)
    assert res.converged
    assert res.iterations <= 20
    assert_frostman(res, 2)


def test_equilibrium_round_cap_returns_a_probability_measure():
    pts = lattice_ball(8, 2)
    res = equilibrium_weights(pts, 2, max_iter=1)
    assert not res.converged
    assert res.iterations == 1
    w = res.measure.weights
    assert np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.energy == pytest.approx(float(w @ _kernel_matrix(pts, 2) @ w), abs=1e-15)
    # the full bordered system puts negative weight inside the disk, so the
    # last nonnegative iterate is the uniform start
    assert np.allclose(w, 1.0 / len(pts))


def test_equilibrium_rejects_duplicate_points():
    pts = np.vstack([roots_of_unity(8), roots_of_unity(8)[:1]])
    with pytest.raises(PreconditionError):
        equilibrium_weights(pts, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_equilibrium_builds_one_distance_array_and_rejects_duplicates(d, monkeypatch):
    # the kernel matrix is the only pairwise-distance pass: the returned
    # measure skips its own distinctness check, which the zero distance of
    # a duplicate already fails inside the kernel
    calls = []
    real = capacity_module._pairwise_dist2
    monkeypatch.setattr(
        capacity_module, "_pairwise_dist2", lambda pts: calls.append(len(pts)) or real(pts)
    )
    rng = np.random.default_rng(d)
    pts = rng.uniform(-1.0, 1.0, (40, d))
    res = equilibrium_weights(pts, d)
    assert calls == [40]
    assert res.measure.size == 40
    for dup in (np.vstack([pts, pts[17:18]]), np.vstack([pts[:5], pts[:5]])):
        with pytest.raises(PreconditionError, match="kernel argument must be positive"):
            equilibrium_weights(dup, d)


@pytest.mark.parametrize("fill", [0.0, np.nan], ids=["singular", "non-finite"])
def test_equilibrium_singular_system_names_the_support_size(fill, monkeypatch):
    # a zero kernel makes every bordered system of 2 or more points singular
    # (LinAlgError); a NaN kernel gives a non-finite solution instead
    monkeypatch.setattr(
        capacity_module, "_kernel_matrix", lambda pts, d: np.full((len(pts),) * 2, fill)
    )
    with pytest.raises(PreconditionError, match="on 5 support points"):
        equilibrium_weights(roots_of_unity(5), 2)


# ---------------------------------------------------------------------------
# Fekete configurations
# ---------------------------------------------------------------------------


def test_fekete_circle_matches_n_point_diameter():
    pts = roots_of_unity(512)
    rep = fekete_capacity(pts, 64)
    target = 64.0 ** (1.0 / 63.0)
    assert abs(rep.capacity / target - 1.0) <= 0.01
    assert rep.converged
    # report invariant: the capacity is the inverse planar profile of the
    # normalized energy
    assert rep.capacity == pytest.approx(math.exp(rep.energy), rel=1e-12)


def test_fekete_scaling_in_the_radius():
    pts = roots_of_unity(512)
    base = fekete_capacity(pts, 64)
    scaled = fekete_capacity(2.5 * pts, 64)
    assert scaled.capacity / base.capacity == pytest.approx(2.5, rel=1e-9)


def test_fekete_three_points_equilateral():
    pts = roots_of_unity(512)
    rep = fekete_capacity(pts, 3)
    p = rep.points
    sides = sorted(
        [
            np.linalg.norm(p[0] - p[1]),
            np.linalg.norm(p[0] - p[2]),
            np.linalg.norm(p[1] - p[2]),
        ]
    )
    assert sides[0] == pytest.approx(np.sqrt(3.0), abs=0.02)
    assert sides[2] == pytest.approx(np.sqrt(3.0), abs=0.02)


def test_fekete_monotone_under_set_inclusion():
    pts = roots_of_unity(512)
    half = pts[:256]
    small = fekete_capacity(half, 16)
    big = fekete_capacity(pts, 16)
    assert small.capacity <= big.capacity + 1e-9


def test_fekete_preconditions():
    pts = roots_of_unity(16)
    with pytest.raises(PreconditionError):
        fekete_capacity(pts, 32)  # not enough candidates
    with pytest.raises(PreconditionError):
        fekete_capacity(pts, 2)
    with pytest.raises(PreconditionError):
        fekete_capacity(np.zeros((10, 3)), 4)  # planar only


def test_fekete_with_no_candidates_is_a_precondition_error():
    with pytest.raises(PreconditionError, match="only 0 candidate points for n = 3"):
        fekete_capacity(np.empty((0, 2)), 3)


def test_fekete_needs_n_distinct_candidates():
    # a repeated point would have log distance -inf to its copy
    with pytest.raises(PreconditionError, match="only 1 distinct candidate points for n = 4"):
        fekete_capacity(np.zeros((64, 2)), 4)
    three = np.repeat(roots_of_unity(3), 10, axis=0)
    with pytest.raises(PreconditionError, match="only 3 distinct candidate points for n = 4"):
        fekete_capacity(three, 4)
    # distinct points whose squared distance underflows coincide too
    tiny = np.array([[0.0, 0.0], [1e-200, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(PreconditionError, match="zero squared distance"):
        fekete_capacity(tiny, 4)
    # n distinct points among repeats are enough
    rep = fekete_capacity(np.repeat(roots_of_unity(4), 10, axis=0), 4)
    assert rep.capacity == pytest.approx(fekete_capacity(roots_of_unity(4), 4).capacity)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_points_whose_squared_distances_overflow_are_rejected():
    circle = roots_of_unity(64)
    with pytest.raises(PreconditionError, match="squared distances of the"):
        fekete_capacity(circle * 1e155, 8)
    with pytest.raises(PreconditionError, match="squared distances of the"):
        equilibrium_weights(circle[:16] * 1e155, 2)
    # a spread of 2e308 overflows before it is squared
    wide = np.array([[-1e308, 0.0], [1e308, 0.0], [0.0, 1.0]])
    with pytest.raises(PreconditionError, match="squared distances of the"):
        fekete_capacity(wide, 3)
    # squared distances near 4e300 still fit
    rep = fekete_capacity(circle * 1e150, 8)
    assert rep.capacity == pytest.approx(1.3459e150, rel=1e-4)
    # coordinates near the float limit with no spread coincide; their mean
    # would overflow, their bounding-box centre does not
    with pytest.raises(PreconditionError, match="only 1 distinct candidate points for n = 4"):
        fekete_capacity(np.full((64, 2), 1e307), 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_points_are_rejected(bad):
    pts = roots_of_unity(16)
    pts[3, 1] = bad
    with pytest.raises(PreconditionError, match="must be finite"):
        fekete_capacity(pts, 4)
    with pytest.raises(PreconditionError, match="must be finite"):
        equilibrium_weights(pts, 2)
    with pytest.raises(PreconditionError, match="must be finite"):
        DiscreteMeasure.uniform(pts)


# ---------------------------------------------------------------------------
# dense references and the memory guard
# ---------------------------------------------------------------------------


def dense_kernel_matrix(support, d):
    """The m x m x d difference-array construction the kernel matrix
    replaced, kept as its bit-for-bit reference."""
    diff = support[:, None, :] - support[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    n = dist.shape[0]
    a = kernel_k(d - 2, dist + np.eye(n))
    nearest = np.where(np.eye(n, dtype=bool), np.inf, dist).min(axis=1)
    a[np.eye(n, dtype=bool)] = kernel_k(d - 2, nearest / 2.0)
    return a


def dense_fekete(cand, n, max_passes=200):
    """The O(m^2)-memory Fekete search over the full log-distance matrix,
    kept as the bit-for-bit reference of ``fekete_capacity``."""
    diff = cand[:, None, :] - cand[None, :, :]
    d2 = np.sum(diff * diff, axis=-1)
    np.fill_diagonal(d2, -np.inf)
    i0, j0 = np.unravel_index(np.argmax(d2), d2.shape)
    selected = [int(i0), int(j0)]
    with np.errstate(divide="ignore"):
        logd = 0.5 * np.log(np.maximum(d2, 0.0))
    np.fill_diagonal(logd, -np.inf)
    score = logd[:, selected].sum(axis=1)
    score[selected] = -np.inf
    while len(selected) < n:
        nxt = int(np.argmax(score))
        selected.append(nxt)
        score = score + logd[:, nxt]
        score[nxt] = -np.inf
    sel = np.array(selected)
    colsum = logd[:, sel].sum(axis=1)
    pair = logd[np.ix_(sel, sel)]
    rowsum = np.where(np.isfinite(pair), pair, 0.0).sum(axis=1)
    swaps = 0
    converged = False
    for _ in range(max_passes):
        with np.errstate(invalid="ignore"):
            delta = (colsum[None, :] - logd[:, sel].T) - rowsum[:, None]
        delta = np.where(np.isfinite(delta), delta, -np.inf)
        delta[:, sel] = -np.inf
        j, c = np.unravel_index(np.argmax(delta), delta.shape)
        if not (delta[j, c] > 1e-12):
            converged = True
            break
        sel[j] = c
        swaps += 1
        colsum = logd[:, sel].sum(axis=1)
        pair = logd[np.ix_(sel, sel)]
        rowsum = np.where(np.isfinite(pair), pair, 0.0).sum(axis=1)
    total = 0.5 * float(np.where(np.isfinite(pair), pair, 0.0).sum())
    energy = 2.0 * total / (n * (n - 1))
    return energy, math.exp(energy), swaps, converged, cand[sel]


def lattice_disk(nodes):
    """The nodes of the ``nodes`` x ``nodes`` lattice on [-1, 1]^2 inside the
    open unit disk."""
    axis = np.linspace(-1.0, 1.0, nodes)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    return pts[np.sum(pts * pts, axis=1) < 1.0]


def _fekete_cases():
    rng = np.random.default_rng(41)
    for k in range(4):
        m = int(rng.integers(40, 500))
        cloud = rng.normal(size=(m, 2)) * rng.uniform(0.1, 10.0) + rng.uniform(-5, 5, 2)
        yield f"cloud{k}", cloud, int(rng.integers(3, 30))
    yield "far-offset", rng.uniform(-1, 1, (300, 2)) + 1e6, 8
    base = rng.uniform(-1, 1, (80, 2))
    yield "duplicates", np.vstack([base, base[:30], base[5:10]]), 20
    yield "all-equal", np.zeros((10, 2)), 4
    t = np.linspace(0.0, 1.0, 200)
    line = np.stack([t, 2.0 * t + 1.0], axis=1)
    yield "collinear", line, 12
    yield "collinear-shuffled", line[rng.permutation(200)], 12
    square = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5], [0.2, 0.7]], dtype=float)
    yield "tied-square", square, 3
    grid = np.stack(np.meshgrid(np.arange(9.0), np.arange(9.0)), axis=-1).reshape(-1, 2)
    yield "tied-grid", grid, 10
    # every candidate lies on the farthest-pair ring, so none is pruned
    yield "circle", roots_of_unity(512), 64
    yield "half-circle", roots_of_unity(512)[:256], 16
    # several exchange passes at the benchmark size: the 3,205-point lattice
    # disk, as it is and rotated, scaled and shifted
    disk = lattice_disk(65)
    yield "lattice-disk", disk, 32
    c, s = math.cos(0.7), math.sin(0.7)
    yield "lattice-disk-moved", 1.3 * disk @ np.array([[c, -s], [s, c]]).T + [0.4, -0.2], 32
    # squared distances near 4e300, short of overflow
    yield "circle-1e150", roots_of_unity(64, 1e150), 8
    # every candidate twice, so duplicates of the selected points stay
    # candidates through the exchanges
    small = lattice_disk(17)
    yield "duplicated-lattice", np.vstack([small, small[::-1]]), 16


FEKETE_CASES = list(_fekete_cases())


@pytest.mark.parametrize(
    "cand, n", [case[1:] for case in FEKETE_CASES], ids=[case[0] for case in FEKETE_CASES]
)
def test_fekete_is_bit_identical_to_dense_search(cand, n, monkeypatch):
    energy, capacity, swaps, converged, points = dense_fekete(cand, n)
    distinct = len(np.unique(cand, axis=0))
    # the default block scans these sets in one block; 7 entries per block
    # splits the farthest-pair scan into one row per block
    for block in (capacity_module._PAIR_BLOCK, 7):
        monkeypatch.setattr(capacity_module, "_PAIR_BLOCK", block)
        if len(np.unique(points, axis=0)) < n:
            # the reference configuration repeats a point, which has no energy
            with pytest.raises(PreconditionError, match=f"only {distinct} distinct"):
                fekete_capacity(cand, n)
            continue
        rep = fekete_capacity(cand, n)
        assert rep.energy == energy
        assert rep.capacity == capacity
        assert rep.iterations == swaps
        assert rep.converged == converged
        assert np.array_equal(rep.points, points)


def test_kernel_matrix_is_bit_identical_to_difference_array():
    rng = np.random.default_rng(43)
    for dim in (2, 3):
        pts = rng.uniform(-1, 1, size=(150, dim))
        assert np.array_equal(_kernel_matrix(pts, dim), dense_kernel_matrix(pts, dim))


def test_fekete_lattice_cases_take_several_exchanges():
    # the bit-identity cases above that exercise the exchange passes
    swaps = {
        name: fekete_capacity(cand, n).iterations
        for name, cand, n in FEKETE_CASES
        if name in ("lattice-disk", "lattice-disk-moved", "duplicated-lattice")
    }
    assert min(swaps.values()) >= 2, swaps


def test_fekete_lattice_disk_memory_is_linear():
    # ~20k candidates: the dense search's m x m x 2 difference array alone
    # took 6.4 GB; a block of 20k x 32 doubles takes 5 MB, and the search
    # holds the n x m row block, its m x n copy and an n x m scratch block
    g = np.arange(-80, 81) / 80.0
    grid = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    disk = grid[np.sum(grid * grid, axis=1) < 1.0]
    assert 19_000 < disk.shape[0] < 21_000
    tracemalloc.start()
    try:
        rep = fekete_capacity(disk, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * disk.shape[0] * 32
    assert rep.converged
    assert rep.capacity == pytest.approx(32.0 ** (1.0 / 31.0), rel=0.01)


@pytest.mark.parametrize(
    "call, m, n",
    [
        (lambda pts: fekete_capacity(pts, pts.shape[0]), 8200, 8200),
        (lambda pts: equilibrium_weights(pts, 2), 8193, 8193),
        (lambda pts: DiscreteMeasure.uniform(pts), 8193, 8193),
    ],
    ids=["fekete", "equilibrium", "measure"],
)
def test_memory_guard_names_the_estimate_before_allocating(call, m, n):
    pts = roots_of_unity(m)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError) as info:
            call(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"needs {8 * m * n:,} bytes" in str(info.value)
    assert peak < 5e6


def test_bordered_system_guard_rejects_a_full_8192_point_support():
    # the 8192 x 8192 pairwise array fits the budget exactly; the 8193 x 8193
    # bordered system of the first round does not, and is refused first
    pts = roots_of_unity(8192)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError) as info:
            equilibrium_weights(pts, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "a 8193 x 8193 bordered system needs 537,001,992 bytes" in str(info.value)
    assert peak < 5e6
