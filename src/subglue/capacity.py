"""Discrete-measure energies and logarithmic-capacity estimation.

The mutual energy of a discrete probability measure is the double kernel sum
with the singular diagonal replaced by a regularized self-term (half the
nearest-neighbour distance), the standard transfinite-diameter surrogate for
the continuous energy an atomic measure cannot attain.  Capacity estimates
come from the inverse kernel profile; in the plane that is ``exp(energy)``.

``equilibrium_weights`` maximizes the regularized energy over the
probability simplex by projected gradient ascent (the quadratic form is
concave for these kernels, so the ascent reaches the global maximum), and
``fekete_capacity`` estimates the capacity of a planar candidate set by a
greedy-plus-exchange search for an n-point configuration maximizing the sum
of pairwise log distances.  It holds only the log-distance columns of the n
selected points, so m candidates take O(m n) memory.

The energies and the equilibrium weights build m x m arrays over their m
support points.  Every such array, and Fekete's m x n block, is checked
against a fixed budget of 512 MiB before it is allocated; a larger request
raises a ``PreconditionError`` that names the size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
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
    "project_simplex",
]


class DiscreteMeasure:
    """Support points with nonnegative weights summing to one."""

    def __init__(self, support, weights):
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
        if support.shape[0] > 1:
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

    @property
    def regularization_dominant(self) -> bool:
        """Whether the diagonal regularization contributed more than 1%."""
        return self.regularization_share > 0.01


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


# largest single array the estimators below may allocate; a call that needs
# more fails up front with a PreconditionError instead of exhausting memory
_MEMORY_BUDGET = 1 << 29

# entries per row block of the farthest-pair scan
_PAIR_BLOCK = 1 << 20


def _require_memory(nbytes: int, what: str) -> None:
    """Raise before allocating ``what`` when its ``nbytes`` exceed the budget."""
    if nbytes > _MEMORY_BUDGET:
        raise PreconditionError(
            f"{what} needs {nbytes:,} bytes, above the {_MEMORY_BUDGET:,}-byte budget"
        )


def _require_finite(pts: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(pts)):
        raise PreconditionError(f"{what} points must be finite")


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


def project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    w = np.asarray(w, dtype=float)
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, len(w) + 1)
    cond = u - css / ind > 0
    rho = int(np.count_nonzero(cond))
    theta = css[rho - 1] / rho
    return np.maximum(w - theta, 0.0)


def equilibrium_weights(
    support,
    d: int,
    max_iter: int = 5000,
    tol: float = 1e-12,
) -> EquilibriumResult:
    """Weights maximizing the regularized mutual energy over the simplex.

    Projected gradient ascent from the uniform measure with a fixed step
    ``1 / (2 ||C||)``, where ``C`` is the doubly centred kernel matrix: the
    part of ``A`` acting on the simplex's tangent space.  A constant shift
    of the kernel, which is what dilating the support does to the log
    kernel, leaves ``C`` and hence the iteration unchanged.  The run is
    deterministic.  ``converged`` is set once the energy change between
    iterates drops below ``tol``.
    """
    support = np.atleast_2d(np.asarray(support, dtype=float))
    if support.shape[0] < 2:
        raise PreconditionError("equilibrium weights need at least 2 points")
    _require_finite(support, "support")
    if d < 2:
        raise PreconditionError("equilibrium weights need dimension d >= 2")
    a = _kernel_matrix(support, d)
    n = support.shape[0]
    # A - column means - row means + overall mean, built with one n x n
    # temporary that is freed before the iteration
    centred = a - a.mean(axis=0)
    centred -= centred.mean(axis=1)[:, None]
    lip = 2.0 * float(np.linalg.norm(centred, 2))
    del centred
    step = 1.0 / lip if lip > 0 else 1.0
    w = np.full(n, 1.0 / n)
    aw = a @ w
    energy = float(w @ aw)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w_next = project_simplex(w + step * 2.0 * aw)
        aw = a @ w_next
        e_next = float(w_next @ aw)
        delta = abs(e_next - energy)
        move = float(np.abs(w_next - w).max())
        w, energy = w_next, e_next
        if delta < tol and move < math.sqrt(tol):
            converged = True
            break
    measure = DiscreteMeasure(support, w)
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
    cx, cy = x.mean(), y.mean()
    dx, dy = x - cx, y - cy
    r = np.sqrt(dx * dx + dy * dy)
    p = int(np.argmax(r))
    radius = float(r[p])
    dx, dy = x - x[p], y - y[p]
    far = math.sqrt(float((dx * dx + dy * dy).max()))
    # |x_i - x_j| <= r_i + radius, so both ends of any pair at least `far`
    # apart lie at least far - radius from the centroid; the slack covers
    # rounding in r, far and the centroid
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


def _log_column(x: np.ndarray, y: np.ndarray, c: int) -> np.ndarray:
    """Log distances from candidate ``c`` to every candidate, -inf at ``c``
    itself and at any duplicate of it."""
    dx, dy = x - x[c], y - y[c]
    with np.errstate(divide="ignore"):
        return 0.5 * np.log(dx * dx + dy * dy)


def fekete_capacity(
    s,
    n: int,
    d: int = 2,
    max_passes: int = 200,
) -> EnergyReport:
    """Estimate the logarithmic capacity of a planar candidate set.

    Greedily selects ``n`` points of ``s`` (a NodeSet or an (m, 2) point
    array) maximizing the sum of pairwise log distances, then improves the
    configuration by steepest-ascent point exchanges until no swap helps.
    The capacity estimate is ``exp(mean pairwise log distance)``, i.e. the
    n-point diameter of the selected configuration.

    Memory is O(m n): only the log-distance columns of the ``n`` selected
    points are held, and the starting farthest pair is found by a blocked
    scan of the candidates that can belong to it.
    """
    if d != 2:
        raise PreconditionError("Fekete capacity estimation is planar only (d = 2)")
    if n < 3:
        raise PreconditionError("need at least n = 3 configuration points")
    cand = _candidate_points(s)
    if cand.shape[1] != 2:
        raise PreconditionError("candidate points must be planar")
    _require_finite(cand, "candidate")
    m = cand.shape[0]
    if m < n:
        raise PreconditionError(f"only {m} candidate points for n = {n}")
    _require_memory(8 * m * n, f"a {m} x {n} log-distance block")
    x, y = cand.T.copy()

    # greedy: start from the farthest pair, then add the point with the
    # largest log-distance sum to the current selection.  cols[:, k] holds
    # the log distances to the k-th selected point.
    i0, j0 = _farthest_pair(x, y)
    cols = np.empty((m, n))
    cols[:, 0] = _log_column(x, y, i0)
    cols[:, 1] = _log_column(x, y, j0)
    selected = [i0, j0]
    score = cols[:, 0] + cols[:, 1]
    score[selected] = -np.inf
    while len(selected) < n:
        nxt = int(np.argmax(score))
        col = _log_column(x, y, nxt)
        cols[:, len(selected)] = col
        score += col
        selected.append(nxt)
        score[nxt] = -np.inf

    sel = np.array(selected)
    colsum = cols.sum(axis=1)  # per candidate, sum over selected
    pair = cols[sel]
    rowsum = np.where(np.isfinite(pair), pair, 0.0).sum(axis=1)

    swaps = 0
    converged = False
    for _ in range(max_passes):
        # delta[j, c]: gain from replacing selected j by candidate c; -inf
        # log distances (duplicate positions) can only lose, so any NaN from
        # inf arithmetic means "never pick this swap"
        with np.errstate(invalid="ignore"):
            delta = colsum[None, :] - cols.T
            delta -= rowsum[:, None]
        delta[~np.isfinite(delta)] = -np.inf
        delta[:, sel] = -np.inf
        j, c = np.unravel_index(np.argmax(delta), delta.shape)
        if not (delta[j, c] > 1e-12):
            converged = True
            break
        sel[j] = c
        swaps += 1
        cols[:, j] = _log_column(x, y, c)
        colsum = cols.sum(axis=1)
        pair = cols[sel]
        rowsum = np.where(np.isfinite(pair), pair, 0.0).sum(axis=1)

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
