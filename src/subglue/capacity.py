"""Discrete-measure energies and logarithmic-capacity estimation.

The mutual energy of a discrete probability measure is the double kernel sum
with the singular diagonal replaced by a regularized self-term (half the
nearest-neighbour distance), the standard transfinite-diameter surrogate for
the continuous energy an atomic measure cannot attain.  Capacity estimates
come from the inverse kernel profile; in the plane that is ``exp(energy)``.

``equilibrium_weights`` maximizes the regularized energy over the
probability simplex exactly, by an active-set solve of the discrete Frostman
conditions (the potential is constant on the support and no larger off it);
``iterations`` counts its bordered-system solves, and ``converged`` means
the conditions hold to ``tol``.  ``fekete_capacity`` estimates the capacity
of a planar candidate set by a greedy-plus-exchange search for an n-point
configuration maximizing the sum of pairwise log distances in O(m n)
memory: an n x m row block of log distances, one m x n copy of it and an
n x m scratch block for the exchange passes, about 3 * 8 m n bytes at peak.

The energies and the equilibrium weights build m x m arrays over their m
support points, and the equilibrium solve an (m + 1) x (m + 1) bordered
system.  Every such array, and Fekete's 8 m n bytes, is checked against the
512 MiB budget of ``errors._require_memory`` before it is allocated; a
larger request, or points whose squared distances could overflow, raise a
``PreconditionError`` before any pairwise work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, _require_memory
from .geometry import NodeSet
from .kernels import kernel_k, kernel_k_inverse

__all__ = [
    "DiscreteMeasure",
    "EnergyBreakdown",
    "EnergyReport",
    "EquilibriumResult",
    "mutual_energy",
    "equilibrium_weights",
    "fekete_capacity",
]


class DiscreteMeasure:
    """Support points with nonnegative weights summing to one.

    ``_distinct=True`` skips the pairwise distinctness check, and its m x m
    distance array, for a caller that has already rejected coincident
    points.
    """

    def __init__(self, support, weights, _distinct=False):
        support = np.atleast_2d(np.asarray(support, dtype=float))
        weights = np.asarray(weights, dtype=float)
        if support.shape[0] != weights.shape[0]:
            raise PreconditionError("support and weight counts differ")
        if support.shape[0] < 1:
            raise PreconditionError("measure needs at least one support point")
        _require_finite(support, "support")
        if np.any(weights < -1e-15):
            raise PreconditionError("weights must be nonnegative")
        weights = np.maximum(weights, 0.0)
        total = weights.sum()
        if abs(total - 1.0) > 1e-12:
            raise PreconditionError("weights must sum to 1 within 1e-12")
        if support.shape[0] > 1 and not _distinct:
            d2 = _pairwise_dist2(support)
            np.fill_diagonal(d2, np.inf)
            if d2.min() <= 0.0:
                raise PreconditionError("support points must be pairwise distinct")
        self.support = support.copy()
        self.weights = weights.copy()
        self.support.setflags(write=False)
        self.weights.setflags(write=False)

    @classmethod
    def uniform(cls, support) -> "DiscreteMeasure":
        support = np.atleast_2d(np.asarray(support, dtype=float))
        n = support.shape[0]
        return cls(support, np.full(n, 1.0 / n))

    @property
    def size(self) -> int:
        return self.support.shape[0]


@dataclass
class EnergyBreakdown:
    """Mutual energy split into its off-diagonal and regularized diagonal
    parts; ``degenerate`` marks a single-atom measure (energy -inf)."""

    value: float
    off_diagonal: float
    diagonal: float
    regularization_share: float
    degenerate: bool = False


@dataclass
class EnergyReport:
    """Capacity-estimation outcome: the normalized pairwise energy, the
    capacity it implies through the inverse kernel profile, and iteration
    bookkeeping."""

    energy: float
    capacity: float
    iterations: int
    converged: bool
    points: np.ndarray | None = None


@dataclass
class EquilibriumResult:
    """Weight optimization outcome."""

    measure: DiscreteMeasure
    energy: float
    iterations: int
    converged: bool


# entries per row block of the farthest-pair scan
_PAIR_BLOCK = 1 << 20
# passes of point exchanges before fekete_capacity stops unconverged
_FEKETE_MAX_PASSES = 200


def _require_finite(pts: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(pts)):
        raise PreconditionError(f"{what} points must be finite")
    # rounding is monotone, so the squared norm of the per-axis spread bounds
    # every pair's dx*dx + dy*dy + ...; rows per axis reduce contiguously
    coords = pts.T.copy()
    with np.errstate(over="ignore"):
        spread = coords.max(axis=1) - coords.min(axis=1)
        if not math.isfinite(float(np.sum(spread * spread))):
            raise PreconditionError(f"squared distances of the {what} points overflow")


def _pairwise_dist2(pts: np.ndarray) -> np.ndarray:
    m = pts.shape[0]
    _require_memory(8 * m * m, f"a {m} x {m} pairwise distance array")
    diff = np.subtract.outer(pts[:, 0], pts[:, 0])
    d2 = diff * diff
    for k in range(1, pts.shape[1]):
        np.subtract.outer(pts[:, k], pts[:, k], out=diff)
        diff *= diff
        d2 += diff
    return d2


def _kernel_matrix(support: np.ndarray, d: int) -> np.ndarray:
    """Kernel values on pairs, the diagonal regularized at half the
    nearest-neighbour distance."""
    dist = _pairwise_dist2(support)
    np.sqrt(dist, out=dist)
    np.fill_diagonal(dist, np.inf)
    nearest = dist.min(axis=1)
    np.fill_diagonal(dist, 1.0)  # placeholder, overwritten below
    a = kernel_k(d - 2, dist)
    np.fill_diagonal(a, kernel_k(d - 2, nearest / 2.0))
    return a


def mutual_energy(mu: DiscreteMeasure, d: int) -> EnergyBreakdown:
    """Double kernel sum of a measure against itself.

    The diagonal terms use the kernel at half the nearest-neighbour distance
    of each atom; the breakdown reports how much of the total that
    regularization contributed.  A single-atom measure is degenerate (atoms
    are polar for d >= 2) and returns -inf.
    """
    if d < 2:
        raise PreconditionError("mutual energy needs dimension d >= 2")
    if mu.size == 1:
        return EnergyBreakdown(
            value=-math.inf,
            off_diagonal=0.0,
            diagonal=-math.inf,
            regularization_share=1.0,
            degenerate=True,
        )
    a = _kernel_matrix(mu.support, d)
    w = mu.weights
    quad = w[:, None] * w[None, :] * a
    diag = float(np.trace(quad))
    off = float(quad.sum() - np.trace(quad))
    denom = abs(off) + abs(diag)
    share = abs(diag) / denom if denom > 0 else 0.0
    return EnergyBreakdown(
        value=off + diag,
        off_diagonal=off,
        diagonal=diag,
        regularization_share=share,
    )


def _solve_bordered(a: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``[A_SS -1; 1^T 0] [w_S; lam] = [0; 1]`` on the active indices."""
    k = active.size
    system = np.empty((k + 1, k + 1))
    if k == a.shape[0]:
        system[:k, :k] = a
    else:
        system[:k, :k] = a[np.ix_(active, active)]
    system[:k, k] = -1.0
    system[k, :k] = 1.0
    system[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    singular = f"the equilibrium system on {k} support points is singular"
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError(singular) from exc
    if not np.all(np.isfinite(sol)):
        raise PreconditionError(singular)
    return sol[:k], float(sol[k])


def equilibrium_weights(
    support,
    d: int,
    max_iter: int = 5000,
    tol: float = 1e-12,
) -> EquilibriumResult:
    """Weights maximizing the regularized mutual energy over the simplex.

    The maximizer is characterized by the discrete Frostman conditions: the
    potential ``p = A w`` equals a constant ``lam`` on the support of ``w``
    and is at most ``lam`` off it, and then the energy ``w @ A w`` is
    ``lam``.  They are solved on an active set S, starting from every point:
    each round solves the bordered system ``[A_SS -1; 1^T 0] [w_S; lam] =
    [0; 1]``, drops every atom with a nonpositive weight and solves again,
    and once all weights are positive adds the worst off-support violator
    of ``p <= lam``.  ``iterations`` counts the bordered solves, at most
    ``max_iter`` of them.  ``converged`` means that the conditions hold:
    ``p_i - lam <= tol * max(1, |lam|)`` at every point off S.  When the
    cap stops the rounds first, the result is the last nonnegative iterate
    (the uniform measure if no solve gave one) with ``converged`` False.
    The rounds are deterministic, and a dilation of the support, which
    shifts the log kernel by a constant, changes only ``lam``.
    """
    support = np.atleast_2d(np.asarray(support, dtype=float))
    if support.shape[0] < 2:
        raise PreconditionError("equilibrium weights need at least 2 points")
    _require_finite(support, "support")
    if d < 2:
        raise PreconditionError("equilibrium weights need dimension d >= 2")
    n = support.shape[0]
    # the first round solves on every point, so its two arrays are the
    # largest of the run; check both before building either
    _require_memory(8 * n * n, f"a {n} x {n} pairwise distance array")
    _require_memory(8 * (n + 1) ** 2, f"a {n + 1} x {n + 1} bordered system")
    a = _kernel_matrix(support, d)
    w = np.full(n, 1.0 / n)
    energy = float(w @ a @ w)
    in_support = np.ones(n, dtype=bool)
    converged = False
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        active = np.flatnonzero(in_support)
        w_s, lam = _solve_bordered(a, active)
        drop = w_s <= 0.0
        if drop.any():
            in_support[active[drop]] = False
            continue
        w = np.zeros(n)
        w[active] = w_s / w_s.sum()
        p = a @ w
        energy = float(w @ p)
        gap = np.where(in_support, -np.inf, p - lam)
        worst = int(np.argmax(gap))
        if gap[worst] <= tol * max(1.0, abs(lam)):
            converged = True
            break
        in_support[worst] = True
    # _kernel_matrix has rejected coincident points (a zero distance)
    measure = DiscreteMeasure(support, w, _distinct=True)
    return EquilibriumResult(
        measure=measure, energy=energy, iterations=iterations, converged=converged
    )


def _candidate_points(s) -> np.ndarray:
    if isinstance(s, NodeSet):
        return s.points()
    return np.atleast_2d(np.asarray(s, dtype=float))


def _farthest_pair(x: np.ndarray, y: np.ndarray) -> tuple[int, int]:
    """The first (i, j) in row-major order with the largest squared distance
    ``dx*dx + dy*dy``, i != j: the pair ``argmax`` picks from the dense
    matrix with a -inf diagonal, found without building that matrix."""
    # the bounding-box centre: a mean of coordinates near the float limit
    # overflows, and their spread does not
    cx, cy = (v.min() + 0.5 * (v.max() - v.min()) for v in (x, y))
    dx, dy = x - cx, y - cy
    r = np.sqrt(dx * dx + dy * dy)
    p = int(np.argmax(r))
    radius = float(r[p])
    dx, dy = x - x[p], y - y[p]
    far = math.sqrt(float((dx * dx + dy * dy).max()))
    # |x_i - x_j| <= r_i + radius, so both ends of any pair at least `far`
    # apart lie at least far - radius from the centre; the slack covers
    # rounding in r, far and the centre
    slack = 1e-9 * (far + radius + abs(cx) + abs(cy))
    keep = np.flatnonzero(r >= far - radius - slack)
    xs, ys = x[keep], y[keep]
    k = keep.size
    rows = max(1, _PAIR_BLOCK // k)
    best, pair = -np.inf, (0, 1)
    for lo in range(0, k, rows):
        hi = min(lo + rows, k)
        dx = np.subtract.outer(xs[lo:hi], xs)
        dy = np.subtract.outer(ys[lo:hi], ys)
        d2 = dx * dx + dy * dy
        d2[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf
        flat = int(np.argmax(d2))
        if d2.flat[flat] > best:
            best = d2.flat[flat]
            i, j = divmod(flat, k)
            pair = (int(keep[lo + i]), int(keep[j]))
    return pair


def _write_log_row(x: np.ndarray, y: np.ndarray, c: int, out: np.ndarray) -> None:
    """Write the log distances from candidate ``c`` to every candidate into
    ``out``, -inf at ``c`` itself and at any duplicate of it: the ufuncs of
    ``0.5 * np.log(dx * dx + dy * dy)`` in place, so the bits are the same."""
    np.subtract(x, x[c], out=out)
    out *= out
    dy = y - y[c]
    dy *= dy
    out += dy
    np.log(out, out=out)
    out *= 0.5


def fekete_capacity(s, n: int) -> EnergyReport:
    """Estimate the logarithmic capacity of a planar candidate set.

    Greedily selects ``n`` points of ``s`` (a NodeSet or an (m, 2) point
    array) maximizing the sum of pairwise log distances, then improves the
    configuration by steepest-ascent point exchanges until no swap helps.
    The capacity estimate is ``exp(mean pairwise log distance)``, i.e. the
    n-point diameter of the selected configuration.

    Memory is O(m n): an n x m row block of the selected points' log
    distances, one m x n copy and an n x m scratch block; the starting
    farthest pair is found by a blocked scan of the candidates that can
    belong to it.  A configuration that must repeat a point, from fewer
    than ``n`` distinct candidates, raises.
    """
    if n < 3:
        raise PreconditionError("need at least n = 3 configuration points")
    cand = _candidate_points(s)
    if cand.shape[1] != 2:
        raise PreconditionError("candidate points must be planar")
    m = cand.shape[0]
    if m < n:
        raise PreconditionError(f"only {m} candidate points for n = {n}")
    _require_finite(cand, "candidate")
    _require_memory(8 * m * n, f"a {m} x {n} log-distance block")
    x, y = cand.T.copy()

    # greedy: start from the farthest pair, then add the point with the
    # largest log-distance sum to the current selection.  rows[k] holds the
    # log distances from the k-th selected point to every candidate.
    i0, j0 = _farthest_pair(x, y)
    rows = np.empty((n, m))
    with np.errstate(divide="ignore"):
        _write_log_row(x, y, i0, rows[0])
        _write_log_row(x, y, j0, rows[1])
        selected = [i0, j0]
        score = rows[0] + rows[1]
        score[selected] = -np.inf
        while len(selected) < n:
            nxt = int(np.argmax(score))
            _write_log_row(x, y, nxt, rows[len(selected)])
            score += rows[len(selected)]
            selected.append(nxt)
            score[nxt] = -np.inf

        sel = np.array(selected)
        cols = rows.T.copy()  # cols[c, k] = rows[k, c], summed per candidate
        colsum = cols.sum(axis=1)
        pair = cols[sel]
        rowsum = np.where(np.isfinite(pair), pair, 0.0).sum(axis=1)
        # log distances are finite or -inf (a zero squared distance), so
        # colsum is -inf exactly at candidates coinciding with a selected
        # point; their gains stay -inf with the -inf of rows zeroed, and no
        # other gain changes
        rows[rows == -np.inf] = 0.0
        part = np.empty((n, m))

        swaps = 0
        converged = False
        for _ in range(_FEKETE_MAX_PASSES):
            # the gain of replacing selected j by candidate c is (colsum[c] -
            # rows[j, c]) - rowsum[j]; rounding is monotone, so row j's largest
            # gain is max(part[j]) - rowsum[j], and only the first row attaining
            # the overall largest needs its gains, for the first c attaining it
            np.subtract(colsum, rows, out=part)
            gain = part.max(axis=1) - rowsum
            j = int(np.argmax(gain))
            c = int(np.argmax(part[j] - rowsum[j]))
            if not (gain[j] > 1e-12):
                converged = True
                break
            sel[j] = c
            swaps += 1
            _write_log_row(x, y, c, rows[j])
            cols[:, j] = rows[j]
            rows[j][rows[j] == -np.inf] = 0.0
            colsum = cols.sum(axis=1)
            pair = cols[sel]
            rowsum = np.where(np.isfinite(pair), pair, 0.0).sum(axis=1)

    # a -inf off the diagonal is a coincident pair: greedy and exchanges
    # repeat a point only when no distinct candidate is left, or when two
    # distinct ones are too close for their squared distance
    if np.count_nonzero(pair == -np.inf) > n:
        distinct = len(np.unique(cand, axis=0))
        if distinct < n:
            raise PreconditionError(f"only {distinct} distinct candidate points for n = {n}")
        raise PreconditionError("two selected candidate points have a zero squared distance")
    total = 0.5 * float(np.where(np.isfinite(pair), pair, 0.0).sum())
    energy = 2.0 * total / (n * (n - 1))
    capacity = kernel_k_inverse(0, energy)
    return EnergyReport(
        energy=energy,
        capacity=capacity,
        iterations=swaps,
        converged=converged,
        points=cand[sel],
    )
