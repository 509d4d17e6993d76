import math

import numpy as np
import pytest

from subglue import (
    DiscreteMeasure,
    PreconditionError,
    equilibrium_weights,
    fekete_capacity,
    mutual_energy,
)
from subglue.capacity import project_simplex


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
    assert e.regularization_dominant


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
        from subglue.capacity import _kernel_matrix

        a = _kernel_matrix(pts, 2)
        for i in range(101):
            for j in range(101 - i):
                w = np.array([i, j, 100 - i - j], dtype=float) / 100.0
                best = max(best, float(w @ a @ w))
        assert res.energy == pytest.approx(best, abs=1e-4)
        assert res.energy >= best - 1e-12


def test_equilibrium_step_does_not_depend_on_dilation():
    # dilating the support shifts the log kernel by a constant; the step is
    # taken from the doubly centred kernel, so the iteration must not change
    t = np.linspace(-1.0, 1.0, 256)
    segment = np.stack([t, np.zeros_like(t)], axis=1)
    runs = {s: equilibrium_weights(s * segment, 2) for s in (0.5, 1.0, 2.0)}
    assert runs[0.5].converged
    assert len({res.iterations for res in runs.values()}) == 1
    for s, res in runs.items():
        assert np.exp(res.energy) == pytest.approx(s / 2.0, rel=0.02)


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
