import numpy as np
import pytest

from subglue import Ball, GridDomain, NodeSet, ScalarField, as_point, rasterize, rasterize_ball
from subglue.harmonic import _snap_pole


def disk_domain(radius=1.0, h=1 / 64, pad=0.0, center=(0.0, 0.0)):
    half = radius + pad if pad > 0 else radius
    n = int(round(2 * half / h)) + 1
    return rasterize_ball(center, radius, origin=(-half, -half), spacing=h, shape=(n, n))


def annulus_domain(r_in, r_out, h, half=None, center=(0.0, 0.0)):
    half = half if half is not None else r_out + 4 * h
    n = int(round(2 * half / h)) + 1
    return rasterize(
        [("add", Ball(center, r_out)), ("sub", Ball(center, r_in))],
        origin=(-half, -half),
        spacing=h,
        shape=(n, n),
    )


def log_field(domain, center=(0.0, 0.0)):
    """The planar kernel profile |x| -> log|x - center| sampled on a grid."""
    r2 = domain.distance2_to(center)
    with np.errstate(divide="ignore"):
        vals = 0.5 * np.log(np.where(r2 > 0, r2, 1.0))
    vals[r2 == 0] = -np.inf
    return ScalarField(domain, np.where(domain.mask, vals, 0.0))


def radius_field(domain, center=(0.0, 0.0)):
    return np.sqrt(domain.distance2_to(center))


def nearest_node(domain, p):
    """The active node nearest to ``p``, as the Green solve snaps its pole."""
    return _snap_pole(domain, domain.mask, as_point(p))[0]


def minus_inf_set(v):
    return NodeSet(v.domain, v.values == -np.inf)


def equal_on(a, b, mask):
    """Bit-exact equality of two fields' values on the given nodes."""
    return bool(np.array_equal(a.values[mask], b.values[mask]))


def report_by_tag(result, tag):
    for r in result.reports:
        if r.tag == tag:
            return r
    raise KeyError(tag)


def worst_report(result):
    """The failing report furthest beyond its tolerance, None if all pass."""
    failing = [r for r in result.reports if not r.passed]
    return max(failing, key=lambda r: r.worst - r.tol) if failing else None


def project_simplex(w):
    """Euclidean projection onto the probability simplex (sort-based)."""
    w = np.asarray(w, dtype=float)
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, len(w) + 1)
    cond = u - css / ind > 0
    rho = int(np.count_nonzero(cond))
    theta = css[rho - 1] / rho
    return np.maximum(w - theta, 0.0)


@pytest.fixture(scope="session")
def pipeline_scene():
    """The shared full-pipeline disk scene used by several acceptance checks:
    unit disk, core = closed ball of radius 0.15, pole at the origin,
    v = log|x|, r = 0.3, h = 1/128."""
    from subglue.gluing import glue_full

    h = 1.0 / 128.0
    outer = rasterize_ball((0, 0), 1.0, origin=(-1, -1), spacing=h, shape=(257, 257))
    r2 = outer.distance2_to((0.0, 0.0))
    s0 = NodeSet(outer, outer.mask & (r2 < 0.15**2))
    v_domain = outer.with_mask(outer.mask & ~s0.mask)
    with np.errstate(divide="ignore"):
        vals = 0.5 * np.log(np.where(r2 > 0, r2, 1.0))
    v = ScalarField(v_domain, np.where(v_domain.mask, vals, 0.0))
    m_upper = float(np.log(0.45))
    tol = 1e-6 + 100.0 * h * h  # interpolation allowance for grazing spheres
    result = glue_full(
        v, s0, (0.0, 0.0), r=0.3, M_v=m_upper, tol=tol, cert_tol=0.05
    )
    return {
        "h": h,
        "outer": outer,
        "s0": s0,
        "v": v,
        "M_v": m_upper,
        "tol": tol,
        "r": 0.3,
        "result": result,
    }
