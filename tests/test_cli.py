import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from subglue import parse_config, rasterize_ball, read_field
from subglue.cli import main, render, run

VERIFY_KERNEL = """
grid {
  origin -1 -1
  spacing 0.015625
  shape 129 129
}
set P {
  add ball 0 0 1
  sub ball 0 0 0.1
}
field k { kernel 2 0 0 }
command verify {
  field k
  on P
  tol 4.9
}
"""
# tol = 2 h^2 / rho^4 for h = 1/64 and puncture radius 0.1

VERIFY_CONCAVE = """
grid {
  origin -1 -1
  spacing 0.0625
  shape 33 33
}
set O { add ball 0 0 1 }
field neg { file neg.txt }
command verify {
  field neg
  on O
  tol 1e-6
}
"""


def _write_concave_file(tmp_path):
    from subglue import GridDomain, ScalarField, write_field

    h = 0.0625
    lattice = GridDomain((-1, -1), h, (33, 33), np.ones((33, 33), dtype=bool))
    v = ScalarField(lattice, -lattice.distance2_to((0.0, 0.0)))
    write_field(v, tmp_path / "neg.txt")

GLUE_GREEN_BAD_POLE = """
grid {
  origin -1 -1
  spacing 0.0078125
  shape 257 257
}
set O  { add ball 0 0 1 }
set S0 { add ball 0 0 0.2 }
set S  { add ball 0 0 0.5 }
set D  { add ball 0 0 0.3 }
field z { constant 0 }
command glue-green {
  v z
  domain O
  S0 S0
  S S
  D D
  pole 0.9 0
  m_v 0
  M_v 0
  tol 1e-9
}
"""


def write_cfg(tmp_path, text, name="scene.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_verify_kernel_over_punctured_disk_exits_zero(tmp_path):
    cfg = write_cfg(tmp_path, VERIFY_KERNEL)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert all(c["pass"] for c in report["checks"])


def test_verify_concave_field_exits_certification_status(tmp_path):
    cfg = write_cfg(tmp_path, VERIFY_CONCAVE)
    _write_concave_file(tmp_path)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 4


def test_failing_check_is_printed_on_stderr_even_when_quiet(tmp_path, capsys):
    # the kernel's stencil Laplacian by the puncture is far above 0.01
    cfg = write_cfg(tmp_path, VERIFY_KERNEL)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--tol", "0.01", "--quiet"])
    assert code == 4
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    (failed,) = [c for c in report["checks"] if not c["pass"]]
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"subglue: check failed: {failed['tag']} {failed['name']}: "
        f"worst={failed['worst_violation']:.3e} tol=1.000e-02 "
        f"location={failed['location']}"
    ]
    assert failed["location"] is not None


def test_glue_green_pole_outside_core_exits_precondition(tmp_path):
    cfg = write_cfg(tmp_path, GLUE_GREEN_BAD_POLE)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["tag"] == "4.3"


def test_parse_error_exits_two(tmp_path):
    cfg = write_cfg(tmp_path, "grid {\n  origin 0 0\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 2
    missing = tmp_path / "nope.cfg"
    assert main(["--config", str(missing), "--out", str(tmp_path), "--quiet"]) == 2


def test_nonconvergence_exits_internal(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
grid {
  origin -1 -1
  spacing 0.03125
  shape 65 65
}
set D { add ball 0 0 1 }
command green {
  domain D
  pole 0 0
  max-iter 2
}
""",
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 5


def test_runs_are_byte_identical(tmp_path):
    cfg_text = VERIFY_KERNEL
    cfg = parse_config(cfg_text)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run(cfg, out_dir=str(out1), do_render=True)
    run(cfg, out_dir=str(out2), do_render=True)
    for name in ("report.json", "field.txt", "field.pgm"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_green_render_deterministic(tmp_path):
    cfg = parse_config(
        """
grid {
  origin -1 -1
  spacing 0.03125
  shape 65 65
}
set D { add ball 0 0 1 }
command green {
  domain D
  pole 0 0
}
"""
    )
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run(cfg, out_dir=str(out1), do_render=True)
    run(cfg, out_dir=str(out2), do_render=True)
    for name in ("field.pgm", "field.txt", "green_meta.json", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_field_output_round_trips(tmp_path):
    cfg = parse_config(VERIFY_KERNEL)
    report = run(cfg, out_dir=str(tmp_path))
    field = read_field(tmp_path / "field.txt")
    assert field.domain.spacing == cfg.spacing
    assert "field.txt" in report["outputs"]


def test_render_api(tmp_path):
    cfg = parse_config(VERIFY_KERNEL)
    run(cfg, out_dir=str(tmp_path))
    out = render(tmp_path / "field.txt", tmp_path / "img.pgm")
    data = (tmp_path / "img.pgm").read_bytes()
    assert data.startswith(b"P2\n")
    assert out.endswith("img.pgm")


def test_green_command_writes_sidecar(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
grid {
  origin -1 -1
  spacing 0.03125
  shape 65 65
}
set D  { add ball 0 0 1 }
set S0 { add ball 0 0 0.5 }
command green {
  domain D
  pole 0 0
  S0 S0
}
""",
    )
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    meta = json.loads((tmp_path / "out" / "green_meta.json").read_text())
    assert meta["pole"] == [0.0, 0.0]
    assert meta["residual"] >= 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["constants"]["M_g"] == pytest.approx(np.log(2.0), abs=0.05)


def test_green_sidecar_names_the_solver(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
grid {
  origin -1 -1
  spacing 0.0625
  shape 33 33
}
set D { add ball 0 0 1 }
command green {
  domain D
  pole 0 0
}
""",
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    meta = json.loads((tmp_path / "out" / "green_meta.json").read_text())
    # the iteration count is CG iterations over the interior unknowns
    disk = rasterize_ball((0, 0), 1.0, origin=(-1, -1), spacing=0.0625, shape=(33, 33))
    assert meta["method"] == "cg"
    assert meta["unknowns"] == int(disk.interior_mask().sum())
    assert 0 < meta["iterations"] < meta["unknowns"]


def test_capacity_command(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
grid {
  origin -1 -1
  spacing 0.5
  shape 5 5
}
command capacity {
  mode fekete
  circle 0 0 1 512
  n 64
}
""",
    )
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["capacity"]["capacity"] == pytest.approx(64 ** (1 / 63), rel=0.01)
    assert (tmp_path / "out" / "points.txt").exists()


def test_glue_full_demo_scene_exits_zero(tmp_path):
    import pathlib

    cfg = pathlib.Path(__file__).parent.parent / "demos" / "scene_configs" / "glue_full_disk.cfg"
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    conclusion_tags = {"4.5", "4.11h", "4.11=", "4.11o"}
    seen = {c["tag"]: c["pass"] for c in report["checks"]}
    assert conclusion_tags <= set(seen)
    assert all(seen[t] for t in conclusion_tags)


def test_capacity_demo_scene_exits_zero(tmp_path):
    import pathlib

    cfg = pathlib.Path(__file__).parent.parent / "demos" / "scene_configs" / "capacity_disk.cfg"
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["capacity"]["converged"]
    assert report["capacity"]["capacity"] == pytest.approx(32 ** (1 / 31), rel=0.01)


def test_equilibrium_demo_scene_converges(tmp_path):
    import pathlib

    cfg = pathlib.Path(__file__).parent.parent / "demos" / "scene_configs" / "equilibrium_disk.cfg"
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["capacity"]["converged"]
    # the 793 lattice nodes of the unit disk, whose capacity is 1
    assert len((out / "weights.txt").read_text().splitlines()) == 793
    assert math.exp(report["capacity"]["energy"]) == pytest.approx(1.0, rel=0.03)


def test_console_module_smoke(tmp_path):
    cfg = write_cfg(tmp_path, VERIFY_CONCAVE)
    _write_concave_file(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "subglue", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4


def test_seed_is_echoed_not_used(tmp_path):
    cfg = parse_config(VERIFY_KERNEL)
    rep = run(cfg, out_dir=str(tmp_path / "s"), seed=42)
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert report["echo"]["seed"] == 42
    rep2 = run(cfg, out_dir=str(tmp_path / "s2"), seed=43)
    a = (tmp_path / "s" / "field.txt").read_bytes()
    b = (tmp_path / "s2" / "field.txt").read_bytes()
    assert a == b  # the seed changes nothing but the echo


GLUE_FULL_SMALL = """
grid {
  origin -1 -1
  spacing 0.015625
  shape 129 129
}
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
  samples 0
}
"""


def test_glue_full_too_few_samples_exits_precondition(tmp_path):
    cfg = write_cfg(tmp_path, GLUE_FULL_SMALL)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["exit_status"] == 3
    assert "at least 8 sphere samples" in report["error"]["message"]


def test_glue_full_huge_samples_exits_precondition(tmp_path):
    # 10^9 sphere samples: the guard refuses the 32 GB corner arrays by their
    # estimate, before the mean stage allocates anything sample-sized
    cfg = write_cfg(tmp_path, GLUE_FULL_SMALL.replace("samples 0", "samples 1000000000"))
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["exit_status"] == 3
    assert "1000000000-sample sphere stencil needs 32,000,000,000 bytes" in (
        report["error"]["message"]
    )


CAPACITY_CIRCLE = """
grid {
  origin -1 -1
  spacing 0.5
  shape 5 5
}
command capacity {
  mode fekete
  circle 0 0 1 64
  n 8
}
"""


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("circle 0 0 1 64", "circle 0 0 1 4.5", "circle"),
        ("circle 0 0 1 64", "circle 0 0 1 x", "circle"),
        ("circle 0 0 1 64", "circle 0 x 1 64", "circle"),
        ("n 8", "n 3.7", "n"),
        ("n 8", "n inf", "n"),
    ],
)
def test_bad_numbers_exit_config_status(tmp_path, capsys, old, new, key):
    cfg = write_cfg(tmp_path, CAPACITY_CIRCLE.replace(old, new))
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert f"key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, pole",
    [
        (GLUE_GREEN_BAD_POLE.replace("pole 0.9 0", "pole 0"), "0"),
        (GLUE_FULL_SMALL.replace("  samples 0\n", "").replace("pole 0 0", "pole 0"), "0"),
        (GLUE_FULL_SMALL.replace("  samples 0\n", "").replace("pole 0 0", "pole 0 0 5"), "0 0 5"),
    ],
    ids=["glue-green-1d", "glue-full-1d", "glue-full-3d"],
)
def test_pole_dimension_mismatch_exits_precondition(tmp_path, text, pole):
    assert f"pole {pole}\n" in text
    cfg = write_cfg(tmp_path, text)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["exit_status"] == 3
    assert report["error"]["message"] == "pole dimension does not match the grid"


def test_capacity_over_memory_budget_exits_precondition(tmp_path):
    # equilibrium on 200,000 circle points would need a 320 GB kernel matrix
    text = CAPACITY_CIRCLE.replace("mode fekete", "mode equilibrium").replace(
        "circle 0 0 1 64", "circle 0 0 1 200000"
    )
    cfg = write_cfg(tmp_path, text)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["exit_status"] == 3
    assert "320,000,000,000 bytes" in report["error"]["message"]


def test_verify_on_a_constant_field_reports_an_unsigned_zero_and_no_node(tmp_path):
    text = VERIFY_CONCAVE.replace("field neg { file neg.txt }", "field c { constant 2 }")
    cfg = write_cfg(tmp_path, text.replace("field neg\n", "field c\n"))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    text = (tmp_path / "out" / "report.json").read_text()
    assert '"worst_violation": 0.0\n' in text and "-0.0" not in text
    assert json.loads(text)["checks"][0]["location"] is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "circle", ["circle 0 0 1 0", "circle 0 0 1 -5", "circle 0 0 -1 64", "circle 0 0 inf 64"]
)
def test_capacity_circle_out_of_range_exits_config_status(tmp_path, capsys, circle):
    # an empty sample, a negative radius and an infinite one are out-of-range
    # config values, refused before any point is sampled
    cfg = write_cfg(tmp_path, CAPACITY_CIRCLE.replace("circle 0 0 1 64", circle))
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "key 'circle'" in err and "Traceback" not in err


def test_capacity_of_coincident_circle_points_exits_precondition(tmp_path):
    # a circle of radius 0 samples one point 64 times
    cfg = write_cfg(tmp_path, CAPACITY_CIRCLE.replace("circle 0 0 1 64", "circle 0 0 0 64"))
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["message"] == "only 1 distinct candidate points for n = 8"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["fekete", "equilibrium"])
def test_capacity_of_an_overflowing_circle_exits_precondition(tmp_path, capsys, mode):
    # squared distances of about 4e400 overflow to inf
    text = CAPACITY_CIRCLE.replace("circle 0 0 1 64", "circle 0 0 1e200 64")
    cfg = write_cfg(tmp_path, text.replace("mode fekete", f"mode {mode}"))
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    what = "candidate" if mode == "fekete" else "support"
    assert report["error"]["message"] == f"squared distances of the {what} points overflow"


def test_capacity_with_support_and_circle_exits_config_status(tmp_path, capsys):
    import pathlib

    # the 33 x 33 unit-disk scene given a circle of radius 5 as well: neither
    # key may silently win
    root = pathlib.Path(__file__).parent.parent
    text = (root / "demos" / "scene_configs" / "equilibrium_disk.cfg").read_text()
    text = text.replace("  support D\n", "  support D\n  circle 0 0 5 64\n")
    assert "circle 0 0 5 64" in text
    cfg = write_cfg(tmp_path, text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert "key 'support' or key 'circle', not both" in capsys.readouterr().err


def test_import_loads_no_scipy(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).parent.parent
    cfg = root / "demos" / "scene_configs" / "equilibrium_disk.cfg"
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    script = f"""
import sys
import subglue
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "import"
from subglue.cli import main
assert main(["--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}, "--quiet"]) == 0
assert "scipy.ndimage" not in sys.modules, "equilibrium run"
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


HUGE_GRID = """
grid {
  origin -1 -1
  spacing 0.0078125
  shape 200000 200000
}
set O { add ball 0 0 1 }
field c { constant 1 }
command verify {
  field c
  on O
  tol 1e-6
}
"""

# runs main() with the address space capped at 1 GiB, so an allocation that
# skipped its guard fails at once with a MemoryError traceback (exit 1)
# instead of reserving tens of gigabytes
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from subglue.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "text, nbytes",
    [
        (
            CAPACITY_CIRCLE.replace("mode fekete", "mode equilibrium").replace(
                "circle 0 0 1 64", "circle 0 0 1 100000000000"
            ),
            "1,600,000,000,000 bytes",  # the (count, 2) float64 sample
        ),
        (HUGE_GRID, "320,000,000,000 bytes"),  # one float64 lattice array
    ],
    ids=["circle-sampler", "lattice"],
)
def test_config_sized_allocation_is_guarded(tmp_path, text, nbytes):
    cfg = write_cfg(tmp_path, text)
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert nbytes in proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert nbytes in report["error"]["message"]


def test_2049_lattice_passes_the_lattice_guard(tmp_path):
    # a 2049 x 2049 lattice array takes 34 MB, well inside the budget
    text = HUGE_GRID.replace("shape 200000 200000", "shape 2049 2049").replace(
        "add ball 0 0 1", "add ball 0 0 0.05"
    )
    cfg = write_cfg(tmp_path, text)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0


def test_capacity_n_is_required_only_by_fekete(tmp_path, capsys):
    no_n = CAPACITY_CIRCLE.replace("  n 8\n", "")
    cfg = write_cfg(tmp_path, no_n.replace("mode fekete", "mode equilibrium"))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "eq"), "--quiet"]) == 0
    cfg = write_cfg(tmp_path, no_n)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "fk"), "--quiet"]) == 2
    assert "key 'n'" in capsys.readouterr().err


SET_REFERENCES = """
grid {
  origin -1 -1
  spacing 0.125
  shape 17 17
}
set A { add ball 0.25 0 0.5 }
set B {
  add box -0.8 -0.6 0.5 0.6
  sub ball 0 0 0.3
  add set A
}
set X {
  add set A
  sub set B
}
field c { constant 1 }
command verify {
  field c
  on B
  tol 1e-9
}
"""


def test_verify_rasterizes_set_references(tmp_path):
    cfg = write_cfg(tmp_path, SET_REFERENCES)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    mask = read_field(tmp_path / "out" / "field.txt").domain.mask
    brute = np.zeros((17, 17), dtype=bool)
    for i in range(17):
        for j in range(17):
            x, y = -1 + 0.125 * i, -1 + 0.125 * j
            in_a = (x - 0.25) ** 2 + y**2 < 0.5**2
            in_box = -0.8 < x < 0.5 and -0.6 < y < 0.6
            brute[i, j] = (in_box and not x**2 + y**2 < 0.3**2) or in_a
    assert np.array_equal(mask, brute)
    # the reference re-adds nodes the sub ball removed and reaches past the box
    assert mask[8, 8] and mask[13, 8]


def test_verify_on_an_empty_set_exits_precondition(tmp_path):
    cfg = write_cfg(tmp_path, SET_REFERENCES.replace("  on B\n", "  on X\n"))
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["message"].startswith("empty domain: set 'X'")


@pytest.mark.parametrize(
    "entry", ["add ball 0 0 0 1", "add box -1 -1 -1 1 1 1", "add ball 0 1"]
)
def test_shape_dimension_mismatch_exits_config_status(tmp_path, capsys, entry):
    text = SET_REFERENCES.replace("set A { add ball 0.25 0 0.5 }", f"set A {{ {entry} }}")
    cfg = write_cfg(tmp_path, text)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert "set 'A': " in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("  on B\n", "  on A B\n", "on"),
        ("  field c\n", "  field c c\n", "field"),
        ("  tol 1e-9\n", "  tol 1e-9\n  exclude A B\n", "exclude"),
        (SET_REFERENCES[SET_REFERENCES.index("command verify"):],
         "command capacity {\n  mode equilibrium\n  support A B\n}\n", "support"),
    ],
    ids=["on", "field", "exclude", "support"],
)
def test_name_key_given_two_names_exits_config_status(tmp_path, capsys, old, new, key):
    assert old in SET_REFERENCES
    cfg = write_cfg(tmp_path, SET_REFERENCES.replace(old, new))
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert f"key {key!r} takes one value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, old",
    [(GLUE_GREEN_BAD_POLE, "pole 0.9 0"), (GLUE_FULL_SMALL.replace("  samples 0\n", ""), "pole 0 0")],
    ids=["glue-green", "glue-full"],
)
def test_far_pole_exits_precondition(tmp_path, text, old):
    # a pole far beyond the lattice must fail the 4.3 inclusion check, not
    # overflow while it is snapped to a node
    assert old in text
    cfg = write_cfg(tmp_path, text.replace(old, "pole 1e308 0"))
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["tag"] == "4.3"
    assert report["error"]["message"].endswith(
        "pole does not lie in the grid interior of the core set"
    )


VERIFY_BALL3D = """
grid {
  origin -1 -1 -1
  spacing 0.25
  shape 9 9 9
}
set B { add ball 0 0 0 1 }
field c { constant 1 }
command verify {
  field c
  on B
  tol 1e-9
}
"""


def test_render_of_a_3d_field_fails_before_the_command_runs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, VERIFY_BALL3D)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet", "--render"]) == 3
    assert "PGM rendering is planar only" in capsys.readouterr().err
    assert not (out / "field.txt").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["message"] == "PGM rendering is planar only"


def test_render_leaves_capacity_on_a_3d_grid_alone(tmp_path):
    # capacity writes no field, so there is nothing to render
    cfg = write_cfg(
        tmp_path,
        VERIFY_BALL3D[: VERIFY_BALL3D.index("set B")]
        + "command capacity {\n  mode fekete\n  circle 0 0 1 64\n  n 8\n}\n",
    )
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet", "--render"]) == 0
    assert sorted(os.listdir(out)) == ["points.txt", "report.json"]


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("shape 33 33", "shape -5 5", "each axis on line 2 needs at least 2 nodes"),
        ("shape 33 33", "shape a 5", "line 2: invalid literal for int() with base 10: 'a'"),
        ("\n-2.0\n", "\nabc\n", "line 6: could not convert string to float: 'abc'"),
        ("shape 33 33", "shape 100000 100000", "80,000,000,000 bytes"),  # the values
        ("spacing 0.0625", "spacing 0.0625 abc", "line 4 needs 1 value after 'spacing'"),
    ],
    ids=["negative-axis", "bad-int", "bad-value", "huge-lattice", "extra-word"],
)
def test_malformed_field_file_exits_precondition_status(tmp_path, old, new, message):
    # under the 1 GiB cap, an allocation that skipped its guard would fail
    # with a MemoryError traceback
    cfg = write_cfg(tmp_path, VERIFY_CONCAVE)
    _write_concave_file(tmp_path)
    text = (tmp_path / "neg.txt").read_text()
    assert old in text
    (tmp_path / "neg.txt").write_text(text.replace(old, new, 1))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert message in report["error"]["message"]


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS picks the summation order of a dot product or a gemv by its
    # thread count; the 3-d demo scene differed in its last bits when one did
    import pathlib

    root = pathlib.Path(__file__).parent.parent
    cfg = root / "demos" / "scene_configs" / "glue_full_ball3d.cfg"
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "subglue", "--config", str(cfg),
             "--out", str(tmp_path / threads), "--quiet"],
            capture_output=True,
            text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
    for name in ("report.json", "field.txt"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
