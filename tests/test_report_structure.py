"""The shape of every command's report: which checks run, in which order,
under which tag, kind and name, and with which detail keys.

Other tests look at subsets of tags; these pin the whole ordered list, so a
refactor of how reports are built cannot drop, reorder or rename a check
unnoticed.
"""

import json

import numpy as np
import pytest

from subglue import NodeSet, ScalarField, config, glue_green, rasterize_ball, regularized_domain
from subglue.cli import _HANDLERS, main

G33 = """
grid {
  origin -1 -1
  spacing 0.0625
  shape 33 33
}
"""
G129 = """
grid {
  origin -1 -1
  spacing 0.015625
  shape 129 129
}
"""

SCENES = {
    "verify": G33 + """
set P {
  add ball 0 0 1
  sub ball 0 0 0.2
}
set E { add ball 0.5 0 0.1 }
field k { kernel 2 0 0 }
command verify {
  field k
  on P
  tol 50
  exclude E
}
""",
    "green": G33 + """
set D  { add ball 0 0 1 }
set S0 { add ball 0 0 0.5 }
command green {
  domain D
  pole 0 0
  S0 S0
}
""",
    "glue-basic": G33 + """
set O { add ball 0 0 1 }
set I { add ball 0 0 0.5 }
field u { constant 1 }
command glue-basic {
  u u
  on O
  u0 u
  on0 I
  tol 1e-9
}
""",
    "glue-two": G33 + """
set A { add box -1 -1 0.25 1 }
set B { add box -0.25 -1 1 1 }
field v { affine 1 0 0 }
command glue-two {
  v v
  on A
  v0 v
  on0 B
  tol 1
}
""",
    "glue-quant": G33 + """
set O { add ball 0 0 1 }
set I { add ball 0 0 0.5 }
field v { kernel 2 0 0 }
field g { constant 1 }
command glue-quant {
  v v
  on O
  g g
  on0 I
  M_v -0.2
  m_v -1.5
  M_g 2
  m_g 0
  tol 1e-6
}
""",
    "glue-green": G129 + """
set O  { add ball 0 0 1 }
set S0 { add ball 0 0 0.2 }
set S  { add ball 0 0 0.5 }
set D  { add ball 0 0 0.35 }
field v { kernel 2 0 0 }
command glue-green {
  v v
  domain O
  S0 S0
  S S
  D D
  pole 0 0
  m_v -1.62
  M_v -0.68
  tol 1e-6
  cert-tol 0.05
}
""",
    "glue-full": G129 + """
set O  { add ball 0 0 1 }
set S0 { add ball 0 0 0.15 }
field v { kernel 2 0 0 }
command glue-full {
  v v
  domain O
  S0 S0
  pole 0 0
  r 0.3
  M_v -0.7985
  tol 0.01
  cert-tol 0.05
  samples 64
}
""",
    "capacity": G33 + """
command capacity {
  mode fekete
  circle 0 0 1 64
  n 8
}
""",
}

H = "hypothesis"
C = "conclusion"
SUB = ["minus_inf_skipped", "tested_nodes"]
TESTED = ["tested_nodes"]
IFACE = ["interface_nodes"]
REGION = ["region_nodes"]
SLOPE = ["ring_nodes", "slope", "target"]

GLUE_TWO_CHECKS = [
    ("3.1_0", H, "outer-field limsup below inner field at the inner edge", IFACE),
    ("3.1_1", H, "inner-field limsup below outer field at the outer edge", IFACE),
    ("contact", H, "exclusive regions touch only through the overlap", ["contact_nodes"]),
    ("3.2", C, "glued field subharmonic", SUB),
    ("3.2=", C, "glued field equals the outer field off the inner domain", REGION),
    ("3.2=0", C, "glued field equals the inner field off the outer domain", REGION),
]


def green_checks(zero_scale=False):
    last = (
        ("4.5o", C, "zero scale collapses the core to zero", [])
        if zero_scale
        else ("4.5o", C, "pole slope against the kernel profile on the core", SLOPE)
    )
    return [
        ("4.2'", H, "field bounds on the intermediate shell", ["shell_nodes"]),
        ("4.5", C, "glued field subharmonic off the pole", SUB),
        ("4.5=", C, "glued field equals the outer field off the intermediate set", REGION),
        ("4.5h", C, "glued field harmonic on the core off the pole", TESTED),
        ("4.5+", C, "glued field nonnegative on the core", ["core_nodes"]),
        last,
    ]


EXPECTED = {
    "verify": [("subharmonic", C, "subharmonic", SUB)],
    "green": [
        ("4.4h", C, "Green field harmonic off the pole ring", TESTED),
        ("4.4s", C, "Green field nonnegative", []),
        ("4.4_0", C, "Green field vanishes outside its domain", []),
    ],
    "glue-basic": [
        ("1.1", H, "interface matching: limsup of inner field equals outer field", IFACE),
        ("1.2", C, "glued field subharmonic", SUB),
        ("1.2=", C, "glued field equals outer field off the inner set", REGION),
        ("1.2>=", C, "glued field dominates the outer field", IFACE),
    ],
    "glue-two": GLUE_TWO_CHECKS,
    "glue-quant": [
        ("3.3m", H, "lower constant below the outer field at the inner edge", IFACE),
        ("3.3M", H, "outer-field limsup below the upper constant at the outer edge", IFACE),
        ("3.3g", H, "reference-field chain across the interfaces", IFACE),
        *GLUE_TWO_CHECKS,
        ("3.4.outer", C,
         "chain replay: inner field dominates the combined constant at the outer edge", IFACE),
        ("3.4.inner", C,
         "chain replay: inner-field limsup below the negated constant at the inner edge", IFACE),
    ],
    "glue-green": green_checks(),
    "glue-full": [
        ("4.9M", H, "field bounded above on the r-parallel collar", ["collar_nodes"]),
        ("4.9m", H, "lower mean constant is finite", ["m_v", "shell_nodes"]),
        ("cont.lower", C,
         "continued field dominated from below by the mean constant on the middle shell",
         ["shell_nodes"]),
        ("cont.upper", C, "continued field bounded above on the collar", ["collar_nodes"]),
        ("cont.dom", C, "continued field dominates the original", ["max_engaged"]),
        *green_checks(),
        ("4.11h", C, "glued field harmonic on the original core off the pole", TESTED),
        ("4.11+", C, "glued field nonnegative on the original core", ["core_nodes"]),
        ("4.11=", C, "glued field equals the original outside the r-parallel set", REGION),
        ("4.11o", C, "pole slope against the kernel profile on the original core", SLOPE),
    ],
    "capacity": [],
}


def structure(records):
    return [
        (r["tag"], r["kind"], r["name"], sorted(r.get("details", {})))
        for r in records
    ]


def test_handler_table_covers_every_command():
    assert set(_HANDLERS) == set(config.COMMANDS)
    assert set(SCENES) == set(config.COMMANDS)


@pytest.mark.parametrize("command", config.COMMANDS)
def test_report_checks_are_pinned(tmp_path, command):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(SCENES[command])
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["command"] == command
    assert report["exit_status"] == code
    assert "error" not in report
    assert structure(report["checks"]) == EXPECTED[command]


def test_zero_scale_green_report_is_pinned():
    # the scene of test_glue_green_zero_field_collapses: zero scale takes the
    # collapse branch of 4.5o instead of the pole slope
    outer = rasterize_ball((0, 0), 1.0, origin=(-1, -1), spacing=1 / 128, shape=(257, 257))
    rr2 = outer.distance2_to((0, 0))
    s0 = NodeSet(outer, outer.mask & (rr2 < 0.2**2))
    s = NodeSet(outer, outer.mask & (rr2 < 0.5**2))
    v = ScalarField.constant(outer.with_mask(outer.mask & ~s0.mask), 0.0)
    d_dom = regularized_domain(s0, 0.3, outer)
    res = glue_green(v, s0, s, d_dom, (0, 0), m_v=0.0, M_v=0.0, tol=1e-9,
                     cert_tol=1e-6)
    assert res.constants.scale == 0.0
    records = [r.as_record() for r in res.reports]
    assert structure(records) == green_checks(zero_scale=True)
    assert all(np.isfinite(r["worst_violation"]) for r in records)


# the checks that measure no pointwise worst: a flag and the slope regressions
NOT_POINTWISE = {"4.9m", "4.5o", "4.11o"}


@pytest.mark.parametrize("command", config.COMMANDS)
def test_positive_pointwise_worst_names_a_lattice_node(tmp_path, command):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(SCENES[command])
    main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    shape = config.parse_config(SCENES[command]).shape
    for r in json.loads((tmp_path / "out" / "report.json").read_text())["checks"]:
        if r["tag"] in NOT_POINTWISE:
            continue
        if r["worst_violation"] > 0:
            assert r["location"] is not None, r["tag"]
            assert all(0 <= i < n for i, n in zip(r["location"], shape, strict=True))
        else:
            assert r["location"] is None, r["tag"]
