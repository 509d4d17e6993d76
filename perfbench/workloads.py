"""Seeded inputs, ops and output checks for the benchmark workloads.

Each workload draws a few scenes from its seed by stratified sampling: scene
j draws each ranged parameter uniformly from the j-th of k equal slices of
its range, and the scenes run in a seeded order. A run cycles through whole
rounds of its scenes, so on every seed the smallest, middle and largest
scenes are alike and the per-run medians and maxima do not hinge on one
lucky draw. Every scene stores its closed-form oracle beside the input. The
library receives only generated config text and arrays, and is called
through its public API.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

import subglue

# Scene sizes and oracle limits. "full" is what the benchmark measures;
# "smoke" is a reduced size of each workload for the benchmark's own
# self-test, with limits widened for its coarser grids.
#
# disk_full: max |field - log|x|| on the band between the 2r/3- and r-parallel
#   sets. No test bounds it; set from measurements when this benchmark was
#   added: at most 3.1e-5 at n = 257 and 1.3e-4 at n = 129.
# green_ball3d: max |g - (1/r - 1/R)| over r >= 0.2. Full: the 0.1 tolerance of
#   test_green_three_dimensional_ball_oracle. Smoke: set from measurements
#   when this benchmark was added: at most 0.40 at h = 1/8.
# capacity: relative errors. Fekete full: the 1 % tolerance of the Fekete
#   circle tests. The rest are set from measurements when this benchmark
#   was added: Fekete 1.75 % at the smoke size, equilibrium 1.15 % with 256
#   points and 7.95 % with 32.
SIZES = {
    "full": {
        "disk_full": {"n": 257, "scenes": 5, "limit": 1e-3},
        "green_ball3d": {"n": 65, "scenes": 5, "limit": 0.1},
        "capacity": {"lattice_n": 65, "fekete_n": 32, "segment": 256, "scenes": 5,
                     "fekete_limit": 0.01, "equilibrium_limit": 0.02},
    },
    "smoke": {
        "disk_full": {"n": 129, "scenes": 2, "limit": 1e-3},
        "green_ball3d": {"n": 17, "scenes": 2, "limit": 0.5},
        "capacity": {"lattice_n": 33, "fekete_n": 8, "segment": 32, "scenes": 2,
                     "fekete_limit": 0.03, "equilibrium_limit": 0.1},
    },
}


# The README glue-full disk scene; the core radius, r and M_v vary. The
# tolerance follows the README's example, 1e-6 + 100 h^2, rather than the
# config's 0.0032: with 0.0032 the mean-constant hypothesis (4.2') fails for
# some cores and radii in the seeded ranges, by O(h^2) discretization slack.
DISK_CONFIG = """\
grid {{
  origin -1 -1
  spacing {h!r}
  shape {n} {n}
}}
set O  {{ add ball 0 0 1 }}
set S0 {{ add ball 0 0 {core!r} }}
field v {{ kernel 2 0 0 }}
command glue-full {{
  v v
  domain O
  S0 S0
  pole 0 0
  r {r!r}
  M_v {m_v!r}
  tol {tol!r}
  cert-tol 0.05
}}
"""


@dataclass
class Outcome:
    """What the check of one op found.

    ``problems`` lists every reason the op counts as failed; ``errors``
    holds layer-level oracle errors for the traced run.
    """

    oracle_err: float
    problems: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    digest: str | None = None


def _strata(rng, k, *ranges):
    """k draws of each (lo, hi) range; draw j of every range lies in the
    j-th of k equal slices. Returns k tuples in a seeded order."""
    slices = (np.arange(k)[:, None] + rng.random((k, len(ranges)))) / k
    lo, hi = np.array(ranges).T
    draws = lo + (hi - lo) * slices
    return [tuple(float(x) for x in row) for row in draws[rng.permutation(k)]]


def _lattice(n, dim):
    """Node coordinates of the [-1, 1]^dim lattice with n nodes per axis."""
    axis = np.linspace(-1.0, 1.0, n)
    return np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1)


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# disk_full: the whole certified pipeline through config + cli
# ---------------------------------------------------------------------------


class DiskFull:
    """The README glue-full disk scene, parsed and run in process."""

    name = "disk_full"

    def scenes(self, seed, size):
        rng = np.random.default_rng(seed)
        k, n = size["scenes"], size["n"]
        h = 2.0 / (n - 1)
        pts = _lattice(n, 2)
        radius = np.sqrt(np.sum(pts * pts, axis=-1))
        with np.errstate(divide="ignore"):
            log_r = np.log(radius)
        out = []
        for core, r in _strata(rng, k, (0.13, 0.17), (0.27, 0.33)):
            m_v = math.log(core + r)
            text = DISK_CONFIG.format(h=h, n=n, core=core, r=r, m_v=m_v, tol=1e-6 + 100 * h * h)
            # the oracle: distances to the rasterized core, as the library's
            # parallel sets measure them
            core_mask = radius**2 < core**2
            dist = ndimage.distance_transform_edt(~core_mask, sampling=[h, h])
            inside = radius**2 < 1.0
            band = inside & (dist >= 2.0 * r / 3.0) & (dist < r)
            shell = inside & (dist >= r / 3.0) & (dist < 2.0 * r / 3.0)
            out.append({
                "text": text,
                "band": band,
                "band_oracle": log_r[band],
                "mean_oracle": float(log_r[shell].min()),
                "limit": size["limit"],
            })
        return out

    def op(self, scene, out_dir, calls):
        cfg = calls.parse_config(scene["text"])
        return calls.run(cfg, out_dir=out_dir)

    def check(self, scene, report, out_dir):
        problems = []
        if report["exit_status"] != 0:
            problems.append(f"exit status {report['exit_status']}")
        problems += [f"report {c['tag']} failed" for c in report["checks"] if not c["pass"]]
        with open(os.path.join(out_dir, "report.json"), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        glued = subglue.read_field(os.path.join(out_dir, "field.txt"))
        band = scene["band"]
        if not glued.domain.mask[band].all():
            problems.append("field.txt does not cover the oracle band")
        err = float(np.abs(glued.values[band] - scene["band_oracle"]).max())
        if err > scene["limit"]:
            problems.append(f"oracle error {err:.4g} above {scene['limit']}")
        mean_err = abs(report["constants"]["m_v"] - scene["mean_oracle"])
        return Outcome(err, problems, {"field.mean_err": mean_err}, digest)


# ---------------------------------------------------------------------------
# green_ball3d: a 3-d Green solve and its harmonicity certificate
# ---------------------------------------------------------------------------


class GreenBall3d:
    """The 3-d ball Green function with the pole at 0, as in the ball test."""

    name = "green_ball3d"

    def scenes(self, seed, size):
        rng = np.random.default_rng(seed)
        n = size["n"]
        pts = _lattice(n, 3)
        radius = np.sqrt(np.sum(pts * pts, axis=-1))
        out = []
        for (big_r,) in _strata(rng, size["scenes"], (0.72, 0.78)):
            sel = (radius < big_r) & (radius >= 0.2)
            out.append({
                "R": big_r,
                "n": n,
                "sel": sel,
                "oracle": 1.0 / radius[sel] - 1.0 / big_r,
                "limit": size["limit"],
            })
        return out

    def op(self, scene, out_dir, calls):
        n = scene["n"]
        h = 2.0 / (n - 1)
        dom = calls.rasterize_ball((0.0, 0.0, 0.0), scene["R"], origin=(-1.0, -1.0, -1.0),
                                   spacing=h, shape=(n, n, n))
        green = calls.green_function(dom, (0.0, 0.0, 0.0))
        lattice = green.field.domain
        pole = np.zeros(lattice.shape, dtype=bool)
        pole[green.pole_node] = True
        ring = subglue.NodeSet(lattice, pole).dilate("axis")
        region = subglue.NodeSet(lattice, dom.interior_mask() & ~ring.mask)
        cert = calls.is_harmonic(green.field, region, 10.0 * h,
                                 name="Green field harmonic off the pole ring", tag="4.4h")
        return green, cert

    def check(self, scene, result, out_dir):
        green, cert = result
        problems = [] if cert.passed else [f"report {cert.tag} failed"]
        err = float(np.abs(green.values[scene["sel"]] - scene["oracle"]).max())
        if err > scene["limit"]:
            problems.append(f"oracle error {err:.4g} above {scene['limit']}")
        return Outcome(err, problems)


# ---------------------------------------------------------------------------
# capacity: Fekete points on a moved lattice disk, equilibrium on a segment
# ---------------------------------------------------------------------------


class Capacity:
    """Fekete capacity of a moved unit-disk lattice and the equilibrium
    measure of a moved segment; the grid layers stay idle."""

    name = "capacity"

    def scenes(self, seed, size):
        rng = np.random.default_rng(seed)
        n = size["lattice_n"]
        pts = _lattice(n, 2).reshape(-1, 2)
        disk = pts[np.sum(pts * pts, axis=1) < 1.0]
        ends = np.linspace(-1.0, 1.0, size["segment"])
        segment = np.stack([ends, np.zeros_like(ends)], axis=1)
        k = size["scenes"]
        out = []
        # The segment is dilated by 1 to 2 only: below 1 the fixed step
        # 1 / (2 ||A||) of equilibrium_weights shrinks as log(scale) shifts
        # the kernel, and when this benchmark was added it stopped at
        # max_iter = 5000 without converging (4,871 iterations at scale 1,
        # none converge at 0.9).
        for scale, seg_scale in _strata(rng, k, (0.5, 2.0), (1.0, 2.0)):
            rot = _rotation(rng.uniform(0.0, 2.0 * math.pi))
            shift = rng.uniform(-1.0, 1.0, 2)
            seg_rot = _rotation(rng.uniform(0.0, 2.0 * math.pi))
            seg_shift = rng.uniform(-1.0, 1.0, 2)
            fn = size["fekete_n"]
            out.append({
                "candidates": scale * disk @ rot.T + shift,
                "fekete_n": fn,
                # n-point diameter of the circle of radius `scale`
                "fekete_oracle": scale * fn ** (1.0 / (fn - 1)),
                "segment": seg_scale * segment @ seg_rot.T + seg_shift,
                # capacity of a segment of length 2 * seg_scale
                "equilibrium_oracle": seg_scale / 2.0,
                "fekete_limit": size["fekete_limit"],
                "equilibrium_limit": size["equilibrium_limit"],
            })
        return out

    def op(self, scene, out_dir, calls):
        fekete = calls.fekete_capacity(scene["candidates"], scene["fekete_n"])
        equilibrium = calls.equilibrium_weights(scene["segment"], 2)
        return fekete, equilibrium

    def check(self, scene, result, out_dir):
        fekete, equilibrium = result
        problems = []
        if not fekete.converged:
            problems.append("fekete_capacity did not converge")
        if not equilibrium.converged:
            problems.append("equilibrium_weights did not converge")
        f_err = abs(fekete.capacity / scene["fekete_oracle"] - 1.0)
        e_err = abs(math.exp(equilibrium.energy) / scene["equilibrium_oracle"] - 1.0)
        if f_err > scene["fekete_limit"]:
            problems.append(f"Fekete error {f_err:.4g} above {scene['fekete_limit']}")
        if e_err > scene["equilibrium_limit"]:
            problems.append(f"equilibrium error {e_err:.4g} above {scene['equilibrium_limit']}")
        errors = {"capacity.fekete_err": f_err, "capacity.equilibrium_err": e_err}
        return Outcome(max(f_err, e_err), problems, errors)


WORKLOADS = {w.name: w for w in (DiskFull(), GreenBall3d(), Capacity())}

