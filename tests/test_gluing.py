import numpy as np
import pytest

from subglue import (
    Ball,
    GlueConstants,
    NodeSet,
    PreconditionError,
    ScalarField,
    glue_basic,
    glue_full,
    glue_green,
    glue_quantitative,
    glue_two,
    parallel_set,
    quantitative_v0,
    rasterize,
    rasterize_ball,
    regularized_domain,
)

from conftest import disk_domain, equal_on, log_field, report_by_tag, worst_report


def quad_field(domain, alpha=1.0, center=(0.0, 0.0)):
    return ScalarField(
        domain, np.where(domain.mask, alpha * domain.distance2_to(center), 0.0)
    )


# ---------------------------------------------------------------------------
# basic gluing
# ---------------------------------------------------------------------------


def test_glue_basic_identity():
    # restricting u to the inner set satisfies the matching hypothesis up to
    # the O(h |grad u|) slack of the discrete limsup surrogate
    h = 1 / 32
    dom = disk_domain(1.0, h=h)
    u = quad_field(dom, 0.5)
    inner = dom.with_mask(dom.mask & (dom.distance2_to((0, 0)) < 0.25))
    u0 = u.restricted(inner.mask)
    res = glue_basic(u, u0, tol=2 * h)  # |grad u| <= 1 on the disk
    assert res.verified, worst_report(res)
    assert equal_on(res.field, u, dom.mask)


def test_glue_basic_dominated_inner_piece():
    # u0 = u + bump with a subharmonic bump that is <= 0 inside and vanishes
    # at the interface: the max discards u0 and the glue returns u bit-exactly
    h = 1 / 64
    dom = rasterize(
        [("add", Ball((0, 0), 1.0)), ("sub", Ball((0, 0), 0.2))],
        origin=(-1.05, -1.05), spacing=h, shape=(int(round(2.1 / h)) + 1,) * 2,
    )
    u = log_field(dom)
    rr = np.sqrt(dom.distance2_to((0, 0)))
    inner = dom.with_mask(dom.mask & (rr > 0.3) & (rr < 0.8))
    # (r - 0.3)(r - 0.8) is <= 0 between the radii, zero at both, and has
    # positive Laplacian there since 4 >= (0.3 + 0.8) / r for r >= 0.3
    bump = (rr - 0.3) * (rr - 0.8)
    u0 = ScalarField(inner, np.where(inner.mask, u.values + bump, 0.0))
    res = glue_basic(u, u0, tol=3 * h * 4.0, cert_tol=100 * h * h / 0.2**2)
    assert res.verified, worst_report(res)
    assert equal_on(res.field, u, dom.mask)


def test_glue_basic_flags_hypothesis_violation():
    dom = disk_domain(1.0, h=1 / 32)
    u = ScalarField.constant(dom, 0.0)
    inner = dom.with_mask(dom.mask & (dom.distance2_to((0, 0)) < 0.25))
    u0 = ScalarField.constant(inner, 1.0)
    res = glue_basic(u, u0, tol=1e-6)
    assert not res.verified
    rep = report_by_tag(res, "1.1")
    assert not rep.passed and rep.kind == "hypothesis"
    assert rep.worst == pytest.approx(1.0)
    # the construction is still returned
    assert res.field is not None


def test_glue_basic_requires_subset():
    dom = disk_domain(1.0, h=1 / 32)
    full = dom.full_lattice()  # strictly larger than the disk
    u = ScalarField.constant(dom, 0.0)
    u0 = ScalarField.constant(full, 0.0)
    with pytest.raises(PreconditionError, match="subset"):
        glue_basic(u, u0, tol=1e-6)


# ---------------------------------------------------------------------------
# two-set gluing
# ---------------------------------------------------------------------------


def test_glue_two_identical_pieces():
    dom = disk_domain(1.0, h=1 / 32)
    v = quad_field(dom, 0.3)
    res = glue_two(v, v, tol=1e-9)
    assert res.verified
    assert equal_on(res.field, v, dom.mask)


def test_glue_two_disjoint_closures():
    h = 1 / 32
    lattice_shape = (65, 65)
    left = rasterize([("add", Ball((-0.5, 0), 0.3))], (-1, -1), h, lattice_shape)
    right = rasterize([("add", Ball((0.5, 0), 0.3))], (-1, -1), h, lattice_shape)
    v = ScalarField.constant(left, 1.0)
    v0 = ScalarField.constant(right, -1.0)
    res = glue_two(v, v0, tol=1e-9)
    assert res.verified
    assert res.field.domain.mask.sum() == left.mask.sum() + right.mask.sum()
    assert equal_on(res.field, v, left.mask)
    assert equal_on(res.field, v0, right.mask)


def test_glue_two_overlapping_disks_certified():
    # both pieces restrict one global subharmonic field to overlapping disks;
    # the hypotheses then hold up to the grid limsup slack O(h |grad|)
    h = 1 / 64
    shape = (int(round(2.6 / h)) + 1,) * 2
    left = rasterize([("add", Ball((-0.3, 0), 0.7))], (-1.3, -1.3), h, shape)
    right = rasterize([("add", Ball((0.3, 0), 0.7))], (-1.3, -1.3), h, shape)

    def base(dom):
        vals = 0.5 * dom.distance2_to((0.0, 0.0)) + 0.5 * np.log(
            np.maximum(dom.distance2_to((2.5, 0.0)), 1e-12)
        )
        return ScalarField(dom, np.where(dom.mask, vals, 0.0))

    res = glue_two(base(left), base(right), tol=4 * h, cert_tol=1e-4)
    assert res.verified, worst_report(res)
    assert report_by_tag(res, "3.2").passed


def test_glue_two_one_sided_violations_are_named():
    h = 1 / 32
    shape = (int(round(2.6 / h)) + 1,) * 2
    left = rasterize([("add", Ball((-0.3, 0), 0.7))], (-1.3, -1.3), h, shape)
    right = rasterize([("add", Ball((0.3, 0), 0.7))], (-1.3, -1.3), h, shape)

    # the outer piece towers over the inner one: only the first hypothesis
    # (limsup v <= v0 at v0's exclusive side) breaks
    res = glue_two(
        ScalarField.constant(left, 10.0), ScalarField.constant(right, 0.0), tol=1e-6
    )
    assert not report_by_tag(res, "3.1_0").passed
    assert report_by_tag(res, "3.1_1").passed

    # swap the roles: only the second hypothesis breaks
    res2 = glue_two(
        ScalarField.constant(left, 0.0), ScalarField.constant(right, 10.0), tol=1e-6
    )
    assert report_by_tag(res2, "3.1_0").passed
    assert not report_by_tag(res2, "3.1_1").passed


# ---------------------------------------------------------------------------
# quantitative gluing
# ---------------------------------------------------------------------------


def test_quantitative_v0_exact_formula():
    dom = disk_domain(1.0, h=1 / 16)
    g = ScalarField.constant(dom, 2.0)
    c = GlueConstants(M_v=1.0, m_v=0.0, M_g=2.0, m_g=0.0)
    v0 = quantitative_v0(g, c)
    assert np.all(v0.values[dom.mask] == 1.0)


def test_quantitative_v0_zero_scale_collapses():
    dom = disk_domain(1.0, h=1 / 16)
    g = quad_field(dom)
    c = GlueConstants(M_v=0.0, m_v=0.0, M_g=2.0, m_g=0.0)
    v0 = quantitative_v0(g, c)
    assert np.all(v0.values[dom.mask] == 0.0)


def test_quantitative_v0_midpoint_annihilates():
    dom = disk_domain(1.0, h=1 / 16)
    c = GlueConstants(M_v=1.0, m_v=-0.5, M_g=3.0, m_g=1.0)
    g = ScalarField.constant(dom, (c.M_g + c.m_g) / 2.0)
    v0 = quantitative_v0(g, c)
    assert np.allclose(v0.values[dom.mask], 0.0, atol=1e-15)


def test_glue_constants_invariants():
    with pytest.raises(PreconditionError):
        GlueConstants(M_v=1.0, m_v=0.0, M_g=1.0, m_g=1.0)  # m_g < M_g fails
    with pytest.raises(PreconditionError):
        GlueConstants(M_v=np.inf, m_v=0.0, M_g=1.0, m_g=0.0)
    with pytest.raises(PreconditionError):
        GlueConstants(M_v=1.0, m_v=-np.inf, M_g=1.0, m_g=0.0)


def _quant_scene(h=1 / 64):
    shape = (int(round(2.4 / h)) + 1,) * 2
    outer = rasterize(
        [("add", Ball((0, 0), 1.0)), ("sub", Ball((0, 0), 0.35))],
        (-1.2, -1.2), h, shape,
    )
    inner = rasterize([("add", Ball((0, 0), 0.6))], (-1.2, -1.2), h, shape)
    v = ScalarField.constant(outer, 0.0)
    # reference field decaying outward: 1 at the inner edge region, 0 at the
    # outer interface; harmonic log profile
    rr = np.sqrt(inner.distance2_to((0, 0)))
    g_vals = np.log(0.6 / np.maximum(rr, 1e-12)) / np.log(0.6 / 0.35)
    g = ScalarField(inner, np.where(inner.mask, g_vals, 0.0))
    return v, g


def test_glue_quantitative_zero_field_scene():
    h = 1 / 64
    v, g = _quant_scene(h)
    # sup g near the outer interface of v's domain (|x| ~ 0.35) is ~1;
    # limsup g at the inner interface (|x| ~ 0.6) is ~0
    c = GlueConstants(M_v=0.0, m_v=0.0, M_g=0.9, m_g=0.1)
    res = glue_quantitative(v, g, c, tol=0.05, cert_tol=0.05)
    assert res.verified, worst_report(res)
    # zero scale: the inner field collapses to zero
    assert res.constants.scale == 0.0


def test_glue_quantitative_violated_reference_chain_is_named():
    h = 1 / 64
    v, g = _quant_scene(h)
    # M_g = 5 exceeds the actual infimum of g (~1) at the outer interface
    c = GlueConstants(M_v=0.0, m_v=0.0, M_g=5.0, m_g=0.1)
    res = glue_quantitative(v, g, c, tol=0.05, cert_tol=0.05)
    rep = report_by_tag(res, "3.3g")
    assert not rep.passed and rep.kind == "hypothesis"
    assert not res.verified


def test_glue_quantitative_replay_records_present():
    v, g = _quant_scene()
    c = GlueConstants(M_v=0.0, m_v=0.0, M_g=0.9, m_g=0.1)
    res = glue_quantitative(v, g, c, tol=0.05, cert_tol=0.05)
    tags = {r.tag for r in res.reports}
    assert {"3.3m", "3.3M", "3.3g", "3.1_0", "3.1_1", "3.2", "3.4.outer", "3.4.inner"} <= tags


# ---------------------------------------------------------------------------
# Green gluing
# ---------------------------------------------------------------------------


def _green_scene(h=1 / 128):
    outer = rasterize_ball((0, 0), 1.0, origin=(-1, -1), spacing=h,
                           shape=(int(round(2 / h)) + 1,) * 2)
    rr2 = outer.distance2_to((0, 0))
    s0 = NodeSet(outer, outer.mask & (rr2 < 0.2**2))
    s = NodeSet(outer, outer.mask & (rr2 < 0.5**2))
    v_dom = outer.with_mask(outer.mask & ~s0.mask)
    return outer, s0, s, v_dom


def test_glue_green_zero_field_collapses():
    h = 1 / 128
    outer, s0, s, v_dom = _green_scene(h)
    v = ScalarField.constant(v_dom, 0.0)
    d_dom = regularized_domain(s0, 0.3, outer)
    res = glue_green(v, s0, s, d_dom, (0, 0), m_v=0.0, M_v=0.0, tol=1e-9,
                     cert_tol=1e-6)
    assert res.verified, worst_report(res)
    assert res.constants.scale == 0.0
    inner_vals = res.field.values[s0.mask]
    assert np.all(inner_vals == 0.0)
    outside = res.field.values[outer.mask & ~s.mask]
    assert np.all(outside == 0.0)


def test_glue_green_log_scene_certified():
    h = 1 / 128
    outer, s0, s, v_dom = _green_scene(h)
    v = log_field(v_dom)
    d_dom = regularized_domain(s0, 0.3, outer)
    res = glue_green(
        v, s0, s, d_dom, (0, 0),
        m_v=float(np.log(0.2) - 0.01), M_v=float(np.log(0.5) + 0.01),
        tol=1e-6, cert_tol=0.05,
    )
    assert res.verified, worst_report(res)
    assert report_by_tag(res, "4.5o").passed
    assert report_by_tag(res, "4.5+").passed
    # region identity off the intermediate set
    assert equal_on(res.field, v, outer.mask & ~s.mask)


def test_glue_green_pole_outside_core_errors():
    outer, s0, s, v_dom = _green_scene(1 / 64)
    v = ScalarField.constant(v_dom, 0.0)
    d_dom = regularized_domain(s0, 0.3, outer)
    with pytest.raises(PreconditionError) as err:
        glue_green(v, s0, s, d_dom, (0.9, 0.0), m_v=0.0, M_v=0.0, tol=1e-9)
    assert err.value.tag == "4.3"


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


def test_glue_full_radius_exceeding_distance_errors():
    h = 1 / 64
    outer = rasterize_ball((0, 0), 1.0, origin=(-1, -1), spacing=h, shape=(129, 129))
    rr2 = outer.distance2_to((0, 0))
    s0 = NodeSet(outer, outer.mask & (rr2 < 0.15**2))
    v = ScalarField.constant(outer.with_mask(outer.mask & ~s0.mask), 0.0)
    with pytest.raises(PreconditionError) as err:
        glue_full(v, s0, (0, 0), r=0.9, M_v=0.0, tol=1e-9)
    assert err.value.tag == "4.10"


def test_glue_full_resolution_guard():
    h = 1 / 16
    outer = rasterize_ball((0, 0), 1.0, origin=(-1, -1), spacing=h, shape=(33, 33))
    rr2 = outer.distance2_to((0, 0))
    s0 = NodeSet(outer, outer.mask & (rr2 < 0.15**2))
    v = ScalarField.constant(outer.with_mask(outer.mask & ~s0.mask), 0.0)
    with pytest.raises(PreconditionError, match="resolution too coarse"):
        glue_full(v, s0, (0, 0), r=0.3, M_v=0.0, tol=1e-9)


def test_glue_full_zero_field_scene():
    h = 1 / 128
    outer = rasterize_ball((0, 0), 1.0, origin=(-1, -1), spacing=h, shape=(257, 257))
    rr2 = outer.distance2_to((0, 0))
    s0 = NodeSet(outer, outer.mask & (rr2 < 0.15**2))
    v = ScalarField.constant(outer.with_mask(outer.mask & ~s0.mask), 0.0)
    res = glue_full(v, s0, (0, 0), r=0.3, M_v=0.0, tol=1e-6, cert_tol=1e-6)
    assert res.verified, worst_report(res)
    assert res.constants.scale == 0.0
    assert np.all(res.field.values[res.field.domain.mask] == 0.0)


def test_glue_full_pipeline_invariants(pipeline_scene):
    res = pipeline_scene["result"]
    assert res.verified, worst_report(res)
    # dominance where the max applies: the glued field is >= the continued
    # field everywhere both live, up to nothing (max is exact)
    tilde = res.continuation.field
    both = res.field.domain.mask & tilde.domain.mask & ~pipeline_scene["s0"].mask
    assert bool(np.all(res.field.values[both] >= tilde.values[both] - 1e-12))
    # the regularized domain sits between the r/3 and 2r/3 parallel shells
    from subglue import parallel_set

    s0 = pipeline_scene["s0"]
    core = NodeSet(res.field.domain, s0.mask)
    inner = parallel_set(core, 0.1)
    outer_shell = parallel_set(core, 0.2)
    d_set = NodeSet(res.field.domain, res.regularized.mask)
    assert inner.issubset(d_set)
    assert d_set.issubset(outer_shell)


def test_glue_full_computes_two_distance_fields(monkeypatch):
    # one, shared by dist_to_complement and every parallel set of the core:
    # the distance to the complement is read off the core's own field
    from scipy import ndimage

    calls = []
    edt = ndimage.distance_transform_edt

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return edt(*args, **kwargs)

    monkeypatch.setattr(ndimage, "distance_transform_edt", counting)
    # the README glue_full scene
    h = 1 / 128
    outer = rasterize_ball((0, 0), 1.0, origin=(-1, -1), spacing=h, shape=(257, 257))
    r2 = outer.distance2_to((0.0, 0.0))
    core = NodeSet(outer, outer.mask & (r2 < 0.15**2))
    vdom = outer.with_mask(outer.mask & ~core.mask)
    v = ScalarField(vdom, np.where(vdom.mask, 0.5 * np.log(np.maximum(r2, 1e-300)), 0))
    res = glue_full(v, core, o=(0, 0), r=0.3, M_v=float(np.log(0.45)),
                    tol=1e-6 + 100 * h * h, cert_tol=0.05)
    assert res.verified
    assert len(calls) == 1


def test_glue_green_minus_inf_on_shell_fails_bounds_by_inf():
    # a -inf on the shell leaves the finite lower constant by inf
    outer, s0, s, v_dom = _green_scene(1 / 64)
    shell_node = tuple(np.argwhere(s.mask & ~s0.mask)[0])
    vals = np.zeros(outer.shape)
    vals[shell_node] = -np.inf
    v = ScalarField(v_dom, np.where(v_dom.mask, vals, 0.0))
    d_dom = regularized_domain(s0, 0.3, outer)
    res = glue_green(v, s0, s, d_dom, (0, 0), m_v=-1.0, M_v=0.0, tol=1e-9)
    bounds = report_by_tag(res, "4.2'")
    assert bounds.worst == np.inf and not bounds.passed
    assert not res.verified


def test_glue_full_bound_checks_name_the_lowest_shell_node(pipeline_scene):
    # cont.lower and 4.2' both bound the continued field from below by m_v on
    # the middle shell; each names the node where it is lowest
    res, s0, r = pipeline_scene["result"], pipeline_scene["s0"], pipeline_scene["r"]
    shell = parallel_set(s0, 2 * r / 3).mask & ~parallel_set(s0, r / 3).mask
    tilde = res.continuation.field.values
    lowest = np.unravel_index(np.flatnonzero(shell)[np.argmin(tilde[shell])], shell.shape)
    for tag in ("cont.lower", "4.2'"):
        rep = report_by_tag(res, tag)
        assert rep.worst == res.extras["m_v"] - tilde[lowest] > 0
        assert rep.where == tuple(int(i) for i in lowest)


def test_bound_violation_minus_inf_convention():
    # the bound checks (4.2', 4.9M, cont.*) as the larger of the two one-sided
    # violations, reported through the shared builder
    from subglue.field import check_on
    from subglue.gluing import _one_sided_violation

    def bound_worst(vals, lo=-np.inf, hi=np.inf):
        viol = np.maximum(_one_sided_violation(lo, vals), _one_sided_violation(vals, hi))
        return check_on("bounds", "b", viol, np.ones(vals.shape, dtype=bool), 0.0).worst

    vals = np.array([-np.inf, 0.5])
    assert bound_worst(vals, -np.inf, 1.0) == 0.0
    assert bound_worst(vals, -1.0, 1.0) == np.inf
    assert bound_worst(vals, hi=0.25) == 0.25
    assert bound_worst(np.array([]), 1.0, 0.0) == 0.0

    # the equality checks (1.2=, 3.2=, 4.5=, 4.11=): -inf equals -inf, a
    # finite value is infinitely far from -inf, and the two zeros are equal
    from subglue.gluing import _equal

    def equal(a, b):
        return _equal("equal", "e", np.array([a]), np.array([b]), np.ones(1, dtype=bool))

    assert equal(-np.inf, -np.inf).worst == 0.0
    assert equal(-np.inf, 2.0).worst == np.inf and equal(2.0, -np.inf).worst == np.inf
    zeros = equal(0.0, -0.0)
    assert zeros.passed and zeros.worst == 0.0 and zeros.where is None


def _full_scene_h64(vals=None):
    h = 1 / 64
    outer = rasterize_ball((0, 0), 1.0, origin=(-1, -1), spacing=h, shape=(129, 129))
    rr2 = outer.distance2_to((0, 0))
    s0 = NodeSet(outer, outer.mask & (rr2 < 0.15**2))
    v_dom = outer.with_mask(outer.mask & ~s0.mask)
    vals = np.zeros(outer.shape) if vals is None else vals
    return outer, s0, ScalarField(v_dom, np.where(v_dom.mask, vals, 0.0))


def test_glue_full_green_stage_error_is_prefixed_and_tagged():
    # the pole lies in the original core's domain but outside the r/3 core
    _, s0, v = _full_scene_h64()
    with pytest.raises(PreconditionError) as err:
        glue_full(v, s0, (0.9, 0), r=0.3, M_v=0.0, tol=1e-9)
    assert str(err.value) == "green stage: pole does not lie in the grid interior of the core set"
    assert err.value.tag == "4.3"


def test_glue_full_continuation_stage_error_is_prefixed():
    from subglue import parallel_set

    outer, s0, v = _full_scene_h64()
    # a -inf on the far side of the layer's ring, out of reach of the means
    p_full = parallel_set(s0, 0.3).mask
    layer = NodeSet(outer, p_full & ~s0.mask & v.domain.active_set().interior().mask)
    ring = layer.adjacent("axis").mask & ~p_full
    vals = np.zeros(outer.shape)
    vals[tuple(np.argwhere(ring)[0])] = -np.inf
    _, _, v = _full_scene_h64(vals)
    with pytest.raises(PreconditionError) as err:
        glue_full(v, s0, (0, 0), r=0.3, M_v=0.0, tol=1e-9)
    assert str(err.value) == "continuation stage: -inf value on the layer's boundary ring"
    assert err.value.tag is None


# ---------------------------------------------------------------------------
# tied zeros on the overlap
# ---------------------------------------------------------------------------


def _signed_zeros(dom, parity):
    """+0.0 on the lattice nodes of one checkerboard parity, -0.0 on the
    others."""
    even = np.indices(dom.shape).sum(axis=0) % 2 == parity
    return ScalarField(dom, np.where(even, 0.0, -0.0))


def _tied_zero_glue(construction):
    """A gluing whose two fields tie at zeros of opposite signs on the
    overlap.  Returns the result, the overlap and the construction's two
    operands of the max, in its order."""
    h = 1 / 32
    if construction == "basic":
        dom = disk_domain(1.0, h=h)
        inner = dom.with_mask(dom.mask & (dom.distance2_to((0, 0)) < 0.25))
        u, u0 = _signed_zeros(dom, 0), _signed_zeros(inner, 1)
        return glue_basic(u, u0, tol=1e-9), inner.mask, u.values, u0.values
    if construction == "two":
        left = rasterize([("add", Ball((-0.3, 0), 0.7))], (-1, -1), h, (65, 65))
        right = rasterize([("add", Ball((0.3, 0), 0.7))], (-1, -1), h, (65, 65))
        v, v0 = _signed_zeros(left, 0), _signed_zeros(right, 1)
        return glue_two(v, v0, tol=1e-9), left.mask & right.mask, v.values, v0.values
    outer, s0, s, v_dom = _green_scene(1 / 64)
    v = _signed_zeros(v_dom, 0)
    d_dom = regularized_domain(s0, 0.3, outer)
    # zero bounds give a zero scale, so the inner field is +0.0 everywhere
    res = glue_green(v, s0, s, d_dom, (0, 0), m_v=0.0, M_v=0.0, tol=1e-9)
    v0 = quantitative_v0(res.green.field, res.constants).values
    return res, s.mask & ~s0.mask, v0, v.values


@pytest.mark.parametrize("construction", ["basic", "two", "green"])
def test_max_gluing_keeps_the_operand_order_of_tied_zeros(construction):
    # np.maximum of +0.0 and -0.0 returns one of its operands, which one
    # depends on the platform; the glued field takes the zero that
    # np.maximum gives in the construction's operand order, so the zeros
    # written to field.txt do not depend on how the max is assembled
    res, overlap, first, second = _tied_zero_glue(construction)
    glued = res.field.values[overlap]
    expected = np.maximum(first[overlap], second[overlap])
    assert overlap.any() and np.all(glued == 0.0)
    assert np.any(np.signbit(first[overlap]) != np.signbit(second[overlap]))
    assert np.array_equal(np.signbit(glued), np.signbit(expected))


def _readme_full_inputs(n):
    """The README glue-full disk scene on an n x n lattice: the field off
    the core and the core, as the batch runner builds them."""
    from subglue import kernel_field

    h = 2 / (n - 1)
    outer = rasterize_ball((0, 0), 1.0, origin=(-1, -1), spacing=h, shape=(n, n))
    core = NodeSet(outer, outer.mask & (outer.distance2_to((0.0, 0.0)) < 0.15**2))
    v = kernel_field(outer.with_mask(outer.mask & ~core.mask), 2, (0.0, 0.0))
    return v, core


def _readme_full(v, core):
    return glue_full(v, core, (0, 0), r=0.3, M_v=-0.7985, tol=0.0032, cert_tol=0.05)


def test_glue_full_peak_memory_above_its_inputs():
    # the tracemalloc peak of the README scene's glue_full at 257^2, counted
    # from after its inputs: the Green stage's checks, the mean stage's
    # block and the field copies once held it at 88.9 B a lattice node
    import tracemalloc

    _readme_full(*_readme_full_inputs(65))  # loads the modules scipy imports on first use
    n = 257
    v, core = _readme_full_inputs(n)
    tracemalloc.start()
    try:
        res = _readme_full(v, core)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.verified, worst_report(res)
    assert peak <= 60 * n * n


def test_glue_green_reads_its_field_on_its_mask_alone():
    # glue_full hands the Green gluing the continued field on a smaller
    # domain without a copy, so its values off that domain are not NaN:
    # finite junk there changes no report and no bit of the glued field
    outer, s0, s, v_dom = _green_scene(1 / 64)
    v = log_field(v_dom)
    junk = np.where(v_dom.mask, v.values, np.random.default_rng(5).normal(size=outer.shape))
    junk.setflags(write=False)
    d_dom = regularized_domain(s0, 0.3, outer)
    results = [
        glue_green(
            field, s0, s, d_dom, (0, 0), m_v=float(np.log(0.2) - 0.01),
            M_v=float(np.log(0.5) + 0.01), tol=1e-6, cert_tol=0.05,
        )
        for field in (v, ScalarField._sharing(v_dom, junk))
    ]
    clean, shared = results
    assert clean.verified, worst_report(clean)
    assert [r.as_record() for r in shared.reports] == [r.as_record() for r in clean.reports]
    assert np.array_equal(shared.field.domain.mask, clean.field.domain.mask)
    assert np.array_equal(
        shared.field.values.view(np.int64), clean.field.values.view(np.int64)
    )


def _whole_lattice_pole_slope(glued, green, region_mask, target):
    """The pole slope regression with distances over the whole lattice."""
    from subglue.kernels import kernel_k

    h = glued.domain.spacing
    r = np.sqrt(glued.domain.distance2_to(green.pole))
    ring = region_mask & (r >= 2.0 * h * (1 - 1e-12)) & (r <= 8.0 * h * (1 + 1e-12))
    x = -kernel_k(glued.domain.dim - 2, r[ring])
    y = glued.values[ring]
    return float(np.mean((x - x.mean()) * (y - y.mean())) / np.var(x)), int(ring.sum())


def test_pole_slope_on_the_region_box_matches_the_whole_lattice(pipeline_scene):
    from subglue.gluing import _pole_slope_report

    res = pipeline_scene["result"]
    glued, green = res.field, res.green
    core = pipeline_scene["s0"].mask.copy()
    core[green.pole_node] = False
    # the core, its upper half, and the core plus a node at the lattice corner
    half = core.copy()
    half[: green.pole_node[0]] = False
    corner = core.copy()
    corner[0, 0] = True
    for region in (core, half, corner):
        report = _pole_slope_report("slope", "o", glued, green, region, 1.0)
        slope, nodes = _whole_lattice_pole_slope(glued, green, region, 1.0)
        assert report.details["slope"] == slope
        assert report.details["ring_nodes"] == nodes
    empty = _pole_slope_report("slope", "o", glued, green, np.zeros_like(core), 1.0)
    assert empty.details == {"ring_nodes": 0, "reason": "ring too thin"}
