"""Gluing constructions for discrete subharmonic fields.

Five constructions are provided, each checking its hypotheses, assembling
the glued field, and certifying the advertised conclusions:

* :func:`glue_basic`     -- max-gluing of a field over a subset of its domain,
* :func:`glue_two`       -- two-sided gluing over overlapping domains,
* :func:`glue_quantitative` -- gluing against an affine image of a reference
  field built from interface constants,
* :func:`glue_green`     -- gluing against a scaled Green's function,
* :func:`glue_full`      -- the full r-parallel pipeline: spherical-mean
  lower constant, harmonic layer continuation, regularized domain, then
  Green-function gluing.

A failed hypothesis does not abort the construction: the result is returned
with the failing, named report and ``verified`` false, since the discrete
limsup surrogate can raise false alarms at grid scale while the construction
itself is still useful.  Conclusion certifications always run.

Every check carries a short rule tag (``"1.1"``, ``"3.1_0"``, ``"3.3g"``,
``"4.10"``, ...) used consistently across reports, errors and the batch
runner's exit codes.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import PreconditionError
from .field import (
    ScalarField,
    check,
    check_on,
    is_harmonic,
    is_subharmonic,
    default_certification_tol,
    mean_inf_constant,
    neighbour_max,
)
from .geometry import (
    GridDomain,
    NodeSet,
    _bounding_box,
    _distance2,
    as_point,
    dist_to_complement,
    parallel_set,
    regularized_domain,
)
from .harmonic import (
    ContinuationResult,
    GreenField,
    SolverParams,
    _snap_pole,
    green_function,
    green_min_constant,
    harmonic_layer_continuation,
)
from .kernels import kernel_k

__all__ = [
    "GlueConstants",
    "GlueResult",
    "glue_basic",
    "glue_two",
    "quantitative_v0",
    "glue_quantitative",
    "glue_green",
    "glue_full",
]


@dataclass(frozen=True)
class GlueConstants:
    """Interface constants for the quantitative constructions.

    ``m_v``/``M_v`` must be finite; ``m_g < M_g`` strictly.  ``plus_part``
    is the combination ``max(M_v, 0) + max(-m_v, 0)`` entering every scale
    factor.
    """

    M_v: float
    m_v: float
    M_g: float
    m_g: float = 0.0

    def __post_init__(self):
        for name in ("M_v", "m_v", "M_g", "m_g"):
            val = getattr(self, name)
            object.__setattr__(self, name, float(val))
        if not math.isfinite(self.m_v):
            raise PreconditionError("lower field constant must be finite", tag="3.3m")
        if not math.isfinite(self.M_v):
            raise PreconditionError("upper field constant must be finite", tag="3.3M")
        if not (math.isfinite(self.m_g) and math.isfinite(self.M_g)):
            raise PreconditionError("reference constants must be finite", tag="3.3g")
        if not (self.m_g < self.M_g):
            raise PreconditionError(
                "reference constants must satisfy m_g < M_g strictly", tag="3.3g"
            )

    @property
    def plus_part(self) -> float:
        return max(self.M_v, 0.0) + max(-self.m_v, 0.0)

    @property
    def scale(self) -> float:
        return self.plus_part / (self.M_g - self.m_g)

    def as_dict(self) -> dict:
        return {
            "M_v": self.M_v,
            "m_v": self.m_v,
            "M_g": self.M_g,
            "m_g": self.m_g,
            "scale": self.scale,
        }


@dataclass
class GlueResult:
    """A glued field together with its hypothesis and conclusion reports.

    ``verified`` is true only when every report passed; a result with a
    failing hypothesis is still constructed but must not be trusted.
    """

    field: ScalarField
    reports: list
    constants: GlueConstants | None = None
    green: GreenField | None = None
    continuation: ContinuationResult | None = None
    regularized: GridDomain | None = None
    pole_node: tuple | None = None
    extras: dict = dataclass_field(default_factory=dict)

    @property
    def hypotheses_ok(self) -> bool:
        return all(r.passed for r in self.reports if r.kind == "hypothesis")

    @property
    def conclusions_ok(self) -> bool:
        return all(r.passed for r in self.reports if r.kind == "conclusion")

    @property
    def verified(self) -> bool:
        return self.hypotheses_ok and self.conclusions_ok

    @property
    def scale(self) -> float | None:
        return None if self.constants is None else self.constants.scale


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

# tolerance of the nonnegativity conclusions on the core ("4.5+", "4.11+")
_POSITIVITY_TOL = 1e-6
# relative tolerance of the pole slope conclusions ("4.5o", "4.11o")
_SLOPE_REL_TOL = 0.05


def _one_sided_violation(lhs, rhs) -> np.ndarray:
    """Violation of ``lhs <= rhs``, either side (not both) a scalar or an
    array: IEEE makes -inf the bottom element, and ``fmax`` reads the NaN of
    the one undefined form, -inf - (-inf), as no violation."""
    with np.errstate(invalid="ignore"):
        violation = np.subtract(lhs, rhs)
    return np.fmax(violation, 0.0, out=violation)


def _bound(name, tag, lhs, rhs, mask, tol, kind="conclusion", count=None, **details):
    """Report ``lhs <= rhs`` on ``mask``: each side is a lattice array, read
    on the mask, or a scalar.  ``count`` names the detail that records the
    mask's node count."""
    lhs, rhs = (side[mask] if np.ndim(side) else side for side in (lhs, rhs))
    if count is not None:
        details[count] = int(mask.sum())
    return check_on(name, tag, _one_sided_violation(lhs, rhs), mask, tol, kind, **details)


def _equal(name, tag, a, b, mask, tol=0.0, kind="conclusion", count="region_nodes"):
    """Report ``a == b`` on ``mask`` for two lattice arrays: the violation
    ``|a - b|`` is 0 for -inf against -inf (a NaN that ``fmax`` reads as 0)
    and for +0.0 against -0.0.  At the default ``tol`` of 0 it fails exactly
    when the values differ."""
    violation = a[mask]
    with np.errstate(invalid="ignore"):
        violation -= b[mask]
    np.abs(violation, out=violation)
    np.fmax(violation, 0.0, out=violation)
    return check_on(name, tag, violation, mask, tol, kind, **{count: int(mask.sum())})


def _max_glue(domain, first, first_mask, second, overlap) -> ScalarField:
    """The field on ``domain``, whose mask is the union of ``first``'s mask
    ``first_mask`` and ``second``'s: ``first`` where only it lives,
    ``second`` where only it lives and ``np.maximum(first, second)`` on the
    ``overlap`` of the two masks.  The operand order decides which zero a
    tie of +0.0 and -0.0 keeps.  The field adopts the array it builds."""
    vals = np.where(first_mask, first, second)
    np.maximum(first, second, out=vals, where=overlap)
    return ScalarField._adopt(domain, vals)


def _overlap_interfaces(v: ScalarField, v0: ScalarField) -> tuple:
    """The overlap of two fields' domains, as a node set, and the two
    interfaces bordering it: ``iface0`` in ``v0``'s domain only, at ``v``'s
    edge, and ``iface1`` in ``v``'s domain only, at ``v0``'s edge."""
    v.domain.require_same_lattice(v0.domain)
    o_mask = v.domain.mask
    o0_mask = v0.domain.mask
    overlap_set = NodeSet(v.domain, o_mask & o0_mask)
    near_overlap = overlap_set.dilate().mask
    return overlap_set, o0_mask & ~o_mask & near_overlap, o_mask & ~o0_mask & near_overlap


@contextmanager
def _stage(name: str):
    """Prefix a precondition failure raised inside with ``"<name> stage: "``,
    keeping its tag."""
    try:
        yield
    except PreconditionError as exc:
        raise PreconditionError(f"{name} stage: {exc}", tag=exc.tag) from exc


def _pole_slope_report(name, tag, glued, green, region_mask, target):
    """Least-squares slope of the glued field against ``-k_{d-2}(|x - o|)``
    over the region's part of the ring ``2h <= |x - o| <= 8h``, checked
    relative to ``target``; a ring of fewer than 8 nodes (or with no spread
    in the profile) is too thin to regress and fails.  Distances are
    measured on the region's bounding box, whose row-major order is the
    lattice's."""
    lattice = glued.domain
    h = lattice.spacing
    box = _bounding_box(region_mask) or (slice(0, 0),) * lattice.dim
    r = np.sqrt(_distance2(lattice, green.pole, box))
    ring = region_mask[box] & (r >= 2.0 * h * (1 - 1e-12)) & (r <= 8.0 * h * (1 + 1e-12))
    n = int(ring.sum())
    x = -kernel_k(lattice.dim - 2, r[ring])
    vx = float(np.var(x)) if n >= 8 else 0.0
    if vx == 0.0:
        return check(name, tag, math.inf, _SLOPE_REL_TOL, ring_nodes=n, reason="ring too thin")
    y = glued.values[box][ring]
    slope = float(np.mean((x - x.mean()) * (y - y.mean())) / vx)
    worst = abs(slope - target) / max(abs(target), 1e-300)
    return check(name, tag, worst, _SLOPE_REL_TOL, ring_nodes=n, slope=slope, target=target)


def _core_conclusions(glued, core_mask, green, scale, tag, phrase, harmonic_tol) -> list:
    """The Green-gluing conclusions on a core minus the pole node: harmonic
    (``tag + "h"``, ``harmonic_tol`` defaulting to 10 h), nonnegative
    (``tag + "+"``), and either the pole slope ``2 * scale`` against the
    kernel profile or, at zero scale, the collapse of the core to zero
    (``tag + "o"``)."""
    core_mask = core_mask.copy()
    core_mask[green.pole_node] = False
    harmonic_tol = 10.0 * glued.spacing if harmonic_tol is None else harmonic_tol
    reports = [
        is_harmonic(
            glued, NodeSet(glued.domain, core_mask), harmonic_tol,
            name=f"glued field harmonic on the {phrase} off the pole", tag=tag + "h",
        ),
        _bound(
            f"glued field nonnegative on the {phrase}", tag + "+", 0.0, glued.values,
            core_mask, _POSITIVITY_TOL, count="core_nodes",
        ),
    ]
    if scale == 0.0:
        reports.append(
            check_on(
                "zero scale collapses the core to zero", tag + "o",
                np.abs(glued.values[core_mask]), core_mask, 0.0,
            )
        )
    else:
        reports.append(
            _pole_slope_report(
                f"pole slope against the kernel profile on the {phrase}", tag + "o",
                glued, green, core_mask, 2.0 * scale,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# basic and two-set gluing
# ---------------------------------------------------------------------------


def glue_basic(
    u: ScalarField, u0: ScalarField, tol: float, cert_tol: float | None = None
) -> GlueResult:
    """Glue ``u0`` into ``u`` over a subset of ``u``'s domain by a pointwise
    max, under the matching hypothesis that the boundary limsup of ``u0``
    equals ``u`` on the interface (checked two-sidedly within ``tol``).

    The output equals ``max(u, u0)`` on ``u0``'s domain and ``u`` elsewhere,
    and is certified subharmonic.
    """
    u.domain.require_same_lattice(u0.domain)
    o_mask = u.domain.mask
    o0_mask = u0.domain.mask
    if np.any(o0_mask & ~o_mask):
        raise PreconditionError("inner domain must be a subset of the outer domain")

    inner = u0.domain.active_set()
    interface = o_mask & inner.adjacent().mask
    limsup_u0 = neighbour_max(u0, inner)
    reports = [
        _equal(
            "interface matching: limsup of inner field equals outer field", "1.1",
            limsup_u0, u.values, interface, tol, "hypothesis", "interface_nodes",
        )
    ]

    # u0 lives inside u's domain, which is then the glued field's
    glued = _max_glue(u.domain, u.values, o_mask, u0.values, o0_mask)

    cert_tol = default_certification_tol(glued) if cert_tol is None else cert_tol
    reports += [
        is_subharmonic(glued, cert_tol, name="glued field subharmonic", tag="1.2"),
        _equal(
            "glued field equals outer field off the inner set", "1.2=",
            glued.values, u.values, o_mask & ~o0_mask,
        ),
        _bound(
            "glued field dominates the outer field", "1.2>=", u.values, glued.values,
            o_mask, 0.0, count="interface_nodes",
        ),
    ]
    return GlueResult(field=glued, reports=reports)


def glue_two(
    v: ScalarField, v0: ScalarField, tol: float, cert_tol: float | None = None
) -> GlueResult:
    """Glue two fields over overlapping domains.

    Hypotheses (checked within ``tol``): approaching through the overlap,
    the limsup of ``v`` does not exceed ``v0`` on the part of ``v0``'s domain
    bordering ``v``'s, and symmetrically.  The output is ``v0`` where only it
    lives, ``v`` where only it lives, and their max on the overlap.
    """
    overlap_set, iface0, iface1 = _overlap_interfaces(v, v0)
    o_mask = v.domain.mask
    o0_mask = v0.domain.mask
    only0 = o0_mask & ~o_mask
    only1 = o_mask & ~o0_mask

    limsup_v = neighbour_max(v, overlap_set)
    limsup_v0 = neighbour_max(v0, overlap_set)

    reports = [
        _bound(
            "outer-field limsup below inner field at the inner edge", "3.1_0",
            limsup_v, v0.values, iface0, tol, "hypothesis", "interface_nodes",
        ),
        _bound(
            "inner-field limsup below outer field at the outer edge", "3.1_1",
            limsup_v0, v.values, iface1, tol, "hypothesis", "interface_nodes",
        ),
    ]

    # rasterization faithfulness: exclusive regions that touch on the grid
    # away from the overlap glue nodes no hypothesis controls (the continuum
    # sets would be separated there); report the contact as a failed
    # hypothesis rather than let an uncontrolled stencil surprise the
    # certification
    far0 = only0 & ~iface0
    far1 = only1 & ~iface1
    contact = far0 & NodeSet(v.domain, far1).adjacent().mask
    touching = int(contact.sum())
    reports.append(
        check(
            "exclusive regions touch only through the overlap", "contact",
            touching, 0.0,
            tuple(int(i) for i in np.argwhere(contact)[0]) if touching else None,
            "hypothesis", contact_nodes=touching,
        )
    )

    glued = _max_glue(
        v.domain.with_mask(o_mask | o0_mask), v.values, o_mask, v0.values, overlap_set.mask
    )

    cert_tol = default_certification_tol(glued) if cert_tol is None else cert_tol
    reports += [
        is_subharmonic(glued, cert_tol, name="glued field subharmonic", tag="3.2"),
        _equal(
            "glued field equals the outer field off the inner domain", "3.2=",
            glued.values, v.values, only1,
        ),
        _equal(
            "glued field equals the inner field off the outer domain", "3.2=0",
            glued.values, v0.values, only0,
        ),
    ]
    return GlueResult(field=glued, reports=reports)


# ---------------------------------------------------------------------------
# quantitative gluing
# ---------------------------------------------------------------------------


def quantitative_v0(g: ScalarField, c: GlueConstants) -> ScalarField:
    """The affine image ``scale * (2 g - M_g - m_g)`` of a reference field,
    with ``scale = (max(M_v,0) + max(-m_v,0)) / (M_g - m_g)``.

    A zero scale collapses the output to the zero field exactly (the
    ``0 * (-inf) = 0`` convention, which IEEE leaves undefined); otherwise
    IEEE arithmetic maps ``-inf`` to ``-inf``.
    """
    scale = c.scale
    if scale == 0.0:
        vals = np.zeros(g.domain.shape)
    else:
        # in place, each entry taking scale * (2 g - M_g - m_g) in that order
        vals = np.multiply(g.values, 2.0)
        vals -= c.M_g
        vals -= c.m_g
        vals *= scale
    return ScalarField._adopt(g.domain, vals)


def glue_quantitative(
    v: ScalarField,
    g: ScalarField,
    c: GlueConstants,
    tol: float,
    cert_tol: float | None = None,
) -> GlueResult:
    """Quantitative gluing: build the inner field from ``g`` and the
    interface constants, then glue.

    Hypotheses checked within ``tol``: ``m_v`` bounds ``v`` from below on the
    outer side of the inner domain's edge; ``M_v`` bounds the limsup of ``v``
    on the inner side of the outer domain's edge; and the reference chain
    ``limsup g <= m_g < M_g <= inf g`` across the two interfaces.  The
    certification replays the two inequality chains of the construction at
    grid nodes.
    """
    overlap_set, iface0, iface1 = _overlap_interfaces(v, g)
    limsup_v = neighbour_max(v, overlap_set)
    reports = [
        # lower bound on v at the outer side of the inner edge
        _bound(
            "lower constant below the outer field at the inner edge", "3.3m",
            c.m_v, v.values, iface1, tol, "hypothesis", "interface_nodes",
        ),
        # upper bound on the limsup of v at the inner side of the outer edge
        _bound(
            "outer-field limsup below the upper constant at the outer edge", "3.3M",
            limsup_v, c.M_v, iface0, tol, "hypothesis", "interface_nodes",
        ),
    ]

    # reference chain: limsup g <= m_g on one side, M_g <= g on the other
    # (the two interfaces are disjoint)
    limsup_g = neighbour_max(g, overlap_set)
    viol_g_low = _one_sided_violation(limsup_g, c.m_g)
    if iface1.any() and limsup_g[iface1].max() == -np.inf:
        viol_g_low[:] = np.inf
    chain = iface0 | iface1
    chain_viol = np.where(iface1, viol_g_low, _one_sided_violation(c.M_g, g.values))
    reports.append(
        check_on(
            "reference-field chain across the interfaces", "3.3g",
            chain_viol[chain], chain, tol, "hypothesis", interface_nodes=int(chain.sum()),
        )
    )
    # the reports hold scalars and locations: free the lattice arrays
    # before the inner gluing peaks
    del limsup_v, limsup_g, viol_g_low, chain, chain_viol

    v0 = quantitative_v0(g, c)
    inner = glue_two(v, v0, tol, cert_tol=cert_tol)
    reports.extend(inner.reports)

    # replay the two displayed inequality chains at grid nodes
    plus = c.plus_part
    reports += [
        _bound(
            "chain replay: inner field dominates the combined constant at the outer edge",
            "3.4.outer", plus, v0.values, iface0, tol, count="interface_nodes",
        ),
        _bound(
            "chain replay: inner-field limsup below the negated constant at the inner edge",
            "3.4.inner", neighbour_max(v0, overlap_set), -plus, iface1, tol,
            count="interface_nodes",
        ),
    ]

    return GlueResult(field=inner.field, reports=reports, constants=c)


# ---------------------------------------------------------------------------
# Green-function gluing
# ---------------------------------------------------------------------------


def _green_preamble(v: ScalarField, s0: NodeSet, o, params, *domains) -> tuple:
    """The checks shared by the Green gluings: the pole's dimension, one
    lattice for ``v``, the core and ``domains``, and ``v`` defined off the
    core.  Returns the solver parameters (defaulted) and the ambient domain,
    ``v``'s domain plus the core."""
    lattice = v.domain
    if as_point(o).dim != lattice.dim:
        raise PreconditionError("pole dimension does not match the grid")
    for other in (s0.domain, *domains):
        lattice.require_same_lattice(other)
    if np.any(lattice.mask & s0.mask):
        raise PreconditionError("field must be defined off the core set")
    return params or SolverParams(), lattice.with_mask(lattice.mask | s0.mask)


def _require_green_chain(ambient: GridDomain, s0: NodeSet, s: NodeSet, d_domain, o):
    """The hard preconditions of the Green gluing: the inclusion chain
    ``o in Int s0``, ``s0`` compactly inside ``s``, ``s`` inside the ambient
    domain (tag ``"4.3"``), and the sandwich ``s0`` compactly inside
    ``d_domain`` compactly inside ``s`` (tag ``"4.3'"``)."""
    try:
        # the lattice node nearest the pole, snapped as green_function snaps
        pole_node = _snap_pole(ambient, np.broadcast_to(True, ambient.shape), as_point(o))[0]
    except PreconditionError:  # the pole lies beyond the lattice
        pole_node = None
    if pole_node is None or not s0.interior().mask[pole_node]:
        raise PreconditionError(
            "pole does not lie in the grid interior of the core set", tag="4.3"
        )
    if not s0.compactly_inside(s):
        raise PreconditionError(
            "core set is not compactly inside the intermediate set", tag="4.3"
        )
    if np.any(s.mask & ~ambient.mask):
        raise PreconditionError(
            "intermediate set leaves the ambient domain", tag="4.3"
        )
    d_set = NodeSet(ambient, d_domain.mask)
    if not s0.compactly_inside(d_set):
        raise PreconditionError(
            "core set is not compactly inside the Green domain", tag="4.3'"
        )
    if not d_set.compactly_inside(s):
        raise PreconditionError(
            "Green domain is not compactly inside the intermediate set", tag="4.3'"
        )


def glue_green(
    v: ScalarField,
    s0: NodeSet,
    s: NodeSet,
    d_domain: GridDomain,
    o,
    m_v: float,
    M_v: float,
    params: SolverParams | None = None,
    tol: float = 1e-9,
    cert_tol: float | None = None,
    harmonic_tol: float | None = None,
) -> GlueResult:
    """Glue a field against a scaled Green's function of an intermediate
    domain, producing a field harmonic and nonnegative on the core.

    ``v`` must live off the core ``s0``; the inclusion chain
    ``o in Int s0, s0 compactly inside s, s inside the ambient domain`` and
    the sandwich ``s0 compactly inside d_domain compactly inside s`` are hard
    preconditions (tags ``"4.3"`` / ``"4.3'"``).  The bound hypothesis
    ``m_v <= v <= M_v`` on ``s minus s0`` is checked as a report
    (tag ``"4.2'"``).  The reference offset constant is fixed at 0, so the
    inner field is ``scale * (2 g - M_g)`` with
    ``scale = (max(M_v,0) + max(-m_v,0)) / M_g``.

    Certified conclusions: the glued field is subharmonic off the pole node
    (``"4.5"``), equals ``v`` outside ``s`` bit-exactly (``"4.5="``), is
    harmonic (``"4.5h"``) and nonnegative (``"4.5+"``) on the core, and has
    pole slope ``2 * scale`` against the kernel profile (``"4.5o"``).
    """
    params, ambient = _green_preamble(v, s0, o, params, s.domain, d_domain)
    _require_green_chain(ambient, s0, s, d_domain, o)

    # v lives on the ambient domain minus s0, which s holds: the shell is
    # where v and s overlap.  v is read on its domain alone.
    shell = s.mask & ~s0.mask
    v_shell = v.values[shell]
    reports = [
        check_on(
            "field bounds on the intermediate shell", "4.2'",
            np.maximum(_one_sided_violation(m_v, v_shell), _one_sided_violation(v_shell, M_v)),
            shell, tol, "hypothesis", shell_nodes=int(shell.sum()),
        )
    ]
    del v_shell

    green = green_function(d_domain, o, params)
    big_m = green_min_constant(green, s0)
    constants = GlueConstants(M_v=M_v, m_v=m_v, M_g=big_m, m_g=0.0)

    # v0 alone fills s0, so the glued field lives on the ambient domain; v0
    # goes as soon as the max assembly has read it, and so does the shell
    glued = _max_glue(
        ambient, quantitative_v0(green.field, constants).values, s.mask, v.values, shell
    )
    del shell

    cert_tol = default_certification_tol(glued) if cert_tol is None else cert_tol
    reports += [
        is_subharmonic(
            glued, cert_tol, exclude=green.pole_set(),
            name="glued field subharmonic off the pole", tag="4.5",
        ),
        _equal(
            "glued field equals the outer field off the intermediate set", "4.5=",
            glued.values, v.values, ambient.mask & ~s.mask,
        ),
        *_core_conclusions(glued, s0.mask, green, constants.scale, "4.5", "core", harmonic_tol),
    ]
    return GlueResult(
        field=glued,
        reports=reports,
        constants=constants,
        green=green,
        pole_node=green.pole_node,
    )


# ---------------------------------------------------------------------------
# the full r-parallel pipeline
# ---------------------------------------------------------------------------


def glue_full(
    v: ScalarField,
    s0: NodeSet,
    o,
    r: float,
    M_v: float,
    params: SolverParams | None = None,
    tol: float = 1e-9,
    cert_tol: float | None = None,
    harmonic_tol: float | None = None,
    mean_samples: int = 256,
) -> GlueResult:
    """The full pipeline: from a field defined off a connected core and an
    upper bound on it near the core, build a glued field that is harmonic
    and nonnegative on the core and untouched away from it.

    Stages (each surfacing its own errors):

    1. lower constant ``m_v`` = infimum of spherical means at radius ``r/3``
       over the middle parallel shell;
    2. harmonic continuation of ``v`` into the open layer between the core
       and its r-parallel set, guarded below by ``v``;
    3. regularized intermediate domain from the r/2-parallel set;
    4. Green-function gluing with the r/3- and 2r/3-parallel sets as core
       and intermediate set.

    Hard preconditions: ``0 < r < dist(core, domain complement)`` (tag
    ``"4.10"``) and the resolution guard ``r/3 >= 2h``.  The bound hypothesis
    ``v <= M_v`` on the r-parallel collar is a report (tag ``"4.9M"``).
    Final conclusions: harmonicity on the core (``"4.11h"``), bit-exact
    equality with ``v`` outside the r-parallel set (``"4.11="``), and the
    pole slope (``"4.11o"``).
    """
    params, ambient = _green_preamble(v, s0, o, params)
    if s0.is_empty():
        raise PreconditionError("core set is empty")
    if not s0.is_connected():
        raise PreconditionError("core set must be connected")
    lattice = v.domain
    h = lattice.spacing

    if r / 3.0 < 2.0 * h:
        raise PreconditionError(
            f"resolution too coarse: need r/3 >= 2h, got r/3={r / 3.0:g}, h={h:g}"
        )
    core = NodeSet(lattice, s0.mask)
    dist = dist_to_complement(core, ambient)
    if not (0.0 < r < dist):
        raise PreconditionError(
            f"parallel radius must satisfy 0 < r < distance to the domain "
            f"complement ({dist:g}), got r={r:g}",
            tag="4.10",
        )

    p_third = parallel_set(core, r / 3.0)
    p_two_thirds = parallel_set(core, 2.0 * r / 3.0)
    p_full = parallel_set(core, r)

    collar = p_full.mask & ~s0.mask
    reports = [
        _bound(
            "field bounded above on the r-parallel collar", "4.9M",
            v.values, M_v, collar, tol, "hypothesis", "collar_nodes",
        )
    ]

    shell = NodeSet(lattice, p_two_thirds.mask & ~p_third.mask)
    if shell.is_empty():
        raise PreconditionError("resolution too coarse: empty middle shell")
    with _stage("mean"):
        m_v = mean_inf_constant(v, shell, r, samples=mean_samples)
    if m_v == -math.inf:
        raise PreconditionError(
            "lower mean constant is -inf: the field is degenerate near the core",
            tag="4.9m",
        )
    reports.append(
        check(
            "lower mean constant is finite", "4.9m", 0.0, 0.0,
            kind="hypothesis", m_v=m_v, shell_nodes=shell.count,
        )
    )

    layer = NodeSet(lattice, collar & lattice.interior_mask())
    layer_nodes = layer.count
    with _stage("continuation"):
        if layer.is_empty():
            raise PreconditionError("empty open layer")
        continuation = harmonic_layer_continuation(v, layer, params)
    tilde = continuation.field

    reports += [
        _bound(
            "continued field dominated from below by the mean constant on the middle shell",
            "cont.lower", m_v, tilde.values, shell.mask, tol, count="shell_nodes",
        ),
        _bound(
            "continued field bounded above on the collar", "cont.upper",
            tilde.values, M_v, collar, tol, count="collar_nodes",
        ),
        _bound(
            "continued field dominates the original", "cont.dom", v.values, tilde.values,
            v.domain.mask, 1e-9, max_engaged=continuation.max_engaged,
        ),
    ]

    with _stage("regularization"):
        d_domain = regularized_domain(core, r, ambient)

    # the Green gluing takes tilde on the ambient domain minus the r/3-set,
    # sharing tilde's values: it reads a field on its domain alone
    v_outer = ScalarField._sharing(lattice.with_mask(ambient.mask & ~p_third.mask), tilde.values)
    outside = ambient.mask & ~p_full.mask
    # what the Green stage does not read goes before it: the core's distance
    # field with the core, and the masks of the earlier stages
    del core, collar, shell, layer, p_full, ambient
    with _stage("green"):
        inner = glue_green(
            v_outer, p_third, p_two_thirds, d_domain, o, m_v, M_v,
            params=params, tol=tol, cert_tol=cert_tol, harmonic_tol=harmonic_tol,
        )
    reports.extend(inner.reports)
    glued = inner.field

    harmonic, positive, slope = _core_conclusions(
        glued, s0.mask, inner.green, inner.constants.scale, "4.11", "original core",
        harmonic_tol,
    )
    identity = _equal(
        "glued field equals the original outside the r-parallel set", "4.11=",
        glued.values, v.values, outside,
    )
    reports.extend([harmonic, positive, identity, slope])

    return GlueResult(
        field=glued,
        reports=reports,
        constants=inner.constants,
        green=inner.green,
        continuation=continuation,
        regularized=d_domain,
        pole_node=inner.pole_node,
        extras={"m_v": m_v, "layer_nodes": layer_nodes},
    )
