import numpy as np
import pytest

from subglue import (
    Ball,
    MINUS_INF,
    PreconditionError,
    ScalarField,
    is_harmonic,
    is_subharmonic,
    kelvin_transform,
    kernel_K,
    kernel_field,
    kernel_k,
    rasterize,
)
from subglue.geometry import NodeSet

from conftest import annulus_domain, log_field, minus_inf_set


# ---------------------------------------------------------------------------
# the radial profile
# ---------------------------------------------------------------------------


def test_kernel_k_log_branch():
    assert kernel_k(0, 1.0) == 0.0
    assert kernel_k(0, np.e) == pytest.approx(1.0)


def test_kernel_k_signed_power_branches():
    assert kernel_k(1, 2.0) == pytest.approx(-0.5)
    assert kernel_k(-1, 3.0) == pytest.approx(3.0)
    assert kernel_k(2, 2.0) == pytest.approx(-0.25)


def test_kernel_k_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        kernel_k(0, 0.0)
    with pytest.raises(PreconditionError):
        kernel_k(1, -2.0)


def test_kernel_k_strictly_increasing():
    t = np.linspace(0.05, 4.0, 200)
    for q in (-3, -1, 0, 1, 3):
        vals = kernel_k(q, t)
        assert bool(np.all(np.diff(vals) > 0)), f"not increasing for q={q}"


# ---------------------------------------------------------------------------
# the point-pair kernel
# ---------------------------------------------------------------------------


def test_kernel_K_values():
    assert kernel_K(2, (0.0, 0.0), (1.0, 0.0)) == 0.0
    assert kernel_K(3, (1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == MINUS_INF
    assert kernel_K(3, (0.0, 0.0, 0.0), (2.0, 0.0, 0.0)) == pytest.approx(-0.5)
    assert kernel_K(1, (0.5,), (0.5,)) == 0.0


def test_kernel_K_symmetry():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        for _ in range(50):
            x = rng.normal(size=d)
            y = rng.normal(size=d)
            assert kernel_K(d, x, y) == kernel_K(d, y, x)


def test_kernel_field_subharmonic_on_punctured_grid():
    # puncture a fixed disk of radius 0.1 around the pole; the sampled kernel
    # then satisfies the discrete inequality up to its h^2 / rho^4 stencil
    # truncation, worst at the puncture radius
    h = 1.0 / 64.0
    rho = 0.1
    dom = rasterize(
        [("add", Ball((0, 0), 1.0)), ("sub", Ball((0, 0), rho))],
        origin=(-1, -1), spacing=h, shape=(129, 129),
    )
    v = kernel_field(dom, 2, (0.0, 0.0))
    tol = 2.0 * h * h / rho**4
    rep = is_subharmonic(v, tol)
    assert rep.passed, rep
    # and discretely harmonic away from the pole at the same truncation scale
    far = NodeSet(dom, dom.mask & (dom.distance2_to((0, 0)) > 0.3**2))
    rep_h = is_harmonic(v, far, 2.0 * h * h / 0.3**4)
    assert rep_h.passed, rep_h


def test_kernel_field_minus_inf_at_pole_node():
    h = 0.5
    dom = rasterize([("add", Ball((0, 0), 2.0))], origin=(-1.5, -1.5), spacing=h, shape=(7, 7))
    v = kernel_field(dom, 2, (0.0, 0.0))
    assert minus_inf_set(v).count == 1


# ---------------------------------------------------------------------------
# Kelvin transform
# ---------------------------------------------------------------------------


def test_kelvin_planar_factor_is_one():
    # d = 2: the weight |x - o|^(d-2) is 1, so a constant stays a constant
    h = 1 / 32
    src = annulus_domain(0.45, 2.1, h, half=2.2)
    tgt = annulus_domain(0.5, 2.0, h, half=2.2)
    w = kelvin_transform(ScalarField.constant(src, 3.25), (0.0, 0.0), tgt)
    assert np.allclose(w.values[tgt.mask], 3.25, atol=1e-12)


def test_kelvin_three_dimensional_weight():
    # u == 1 on an annulus around o transforms to |x - o| = 1 / |y - o|
    h = 1 / 24
    half = 2.3
    n = int(round(2 * half / h)) + 1
    src = rasterize(
        [("add", Ball((0, 0, 0), 2.1)), ("sub", Ball((0, 0, 0), 0.4))],
        origin=(-half,) * 3, spacing=h, shape=(n,) * 3,
    )
    tgt = rasterize(
        [("add", Ball((0, 0, 0), 2.0)), ("sub", Ball((0, 0, 0), 0.5))],
        origin=(-half,) * 3, spacing=h, shape=(n,) * 3,
    )
    w = kelvin_transform(ScalarField.constant(src, 1.0), (0.0, 0.0, 0.0), tgt)
    r = np.sqrt(tgt.distance2_to((0, 0, 0)))
    expected = np.where(r > 0, 1.0 / np.maximum(r, 1e-300), 0.0)
    assert np.allclose(w.values[tgt.mask], expected[tgt.mask], atol=1e-12)


def test_kelvin_log_field_closed_form():
    # log|x| pulled through the unit-circle inversion becomes -log|y|; the
    # only error is bilinear interpolation, O(h^2 / rho^2)
    h = 1 / 64
    src = annulus_domain(0.45, 2.1, h, half=2.25)
    tgt = annulus_domain(0.5, 2.0, h, half=2.25)
    w = kelvin_transform(log_field(src), (0.0, 0.0), tgt)
    r2 = tgt.distance2_to((0, 0))
    expected = -0.5 * np.log(np.where(r2 > 0, r2, 1.0))
    err = np.abs(w.values - expected)[tgt.mask]
    assert float(err.max()) <= 3e-4


def test_kelvin_maps_minus_inf_to_minus_inf():
    h = 1 / 32
    src = annulus_domain(0.45, 2.1, h, half=2.2)
    tgt = annulus_domain(0.5, 2.0, h, half=2.2)
    # a field that is -inf on part of the source shows up as -inf targets
    vals = np.where(src.mask, 1.0, 0.0)
    idx = tuple(np.argwhere(src.mask & (src.distance2_to((1.0, 0.0)) < (4 * h) ** 2)).T)
    vals[idx] = -np.inf
    u = ScalarField(src, vals)
    w = kelvin_transform(u, (0.0, 0.0), tgt)
    assert minus_inf_set(w).count > 0


def test_kelvin_centre_inside_source_rejected():
    h = 1 / 32
    src = rasterize([("add", Ball((0, 0), 1.0))], origin=(-1.1, -1.1), spacing=h,
                    shape=(int(round(2.2 / h)) + 1,) * 2)
    tgt = annulus_domain(0.5, 2.0, h, half=2.2)
    with pytest.raises(PreconditionError, match="centre lies in the source"):
        kelvin_transform(ScalarField.constant(src, 1.0), (0.0, 0.0), tgt)


def test_kelvin_escape_error():
    h = 1 / 32
    src = annulus_domain(0.9, 1.5, h, half=2.2)  # too thin: preimages escape
    tgt = annulus_domain(0.5, 2.0, h, half=2.2)
    with pytest.raises(PreconditionError, match="escapes source"):
        kelvin_transform(ScalarField.constant(src, 1.0), (0.0, 0.0), tgt)


def test_kelvin_preserves_subharmonicity_verdict():
    # strictly subharmonic alpha |x|^2 with a harmonic log part: the verdict
    # survives the transform at the supersampled interpolation tolerance
    h_src, h_tgt = 1 / 128, 1 / 32
    src = annulus_domain(0.45, 2.1, h_src, half=2.25)
    tgt = annulus_domain(0.5, 2.0, h_tgt, half=2.25)
    r2 = src.distance2_to((0, 0))
    d2p = src.distance2_to((0.25, 0.1))
    vals = 0.8 * r2 + 0.4 * 0.5 * np.log(np.where(d2p > 0, d2p, 1.0))
    u = ScalarField(src, np.where(src.mask, vals, 0.0))
    assert is_subharmonic(u, 1e-6).passed
    w = kelvin_transform(u, (0.0, 0.0), tgt)
    # equal-grid interpolation noise ~ kappa * max|D^2 u| (measured ~3);
    # supersampling scales it by (h_src / h_tgt)^2 = 1/16
    tol = 3.0 * (h_src / h_tgt) ** 2 * 2.0
    assert is_subharmonic(w, tol).passed
