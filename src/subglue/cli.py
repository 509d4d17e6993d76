"""Batch front end: parse a scene config, run its command, emit artifacts.

One ``_Scene`` holds a run: the lattice, each set resolved once, the field
recipes and tolerances, and the checks, records and files it emits.  Every
run writes a ``report.json`` (stable key order, no timing data, so identical
inputs give byte-identical output) and, for field-producing commands, a
``field.txt``; ``--render`` adds a ``field.pgm``.  Exit status:
0 all checks passed, 2 config problem, 3 precondition or hypothesis failure,
4 conclusion certification failure, 5 internal error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from .capacity import equilibrium_weights, fekete_capacity
from .config import SceneConfig, parse_config
from .errors import (
    ConfigError,
    ConfigValueError,
    ConvergenceError,
    PreconditionError,
    SubglueError,
    _require_memory,
)
from .field import ScalarField, check_on, is_harmonic, is_subharmonic, sphere_points
from .fieldio import read_field, write_field, write_json, write_pgm, write_points
from .geometry import Ball, Box, GridDomain, NodeSet, _recipe_mask
from .gluing import GlueConstants, glue_basic, glue_full, glue_green, glue_quantitative, glue_two
from .harmonic import SolverParams, green_function, green_min_constant
from .kernels import kernel_field

__all__ = ["run", "render", "main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_CERTIFICATION = 4
EXIT_INTERNAL = 5


# ---------------------------------------------------------------------------
# scene construction
# ---------------------------------------------------------------------------

# config shape kind -> geometry shape; a "set" entry names an earlier set
_SHAPES = {"ball": Ball, "box": Box}

# Peak bytes a lattice node of a whole run, inputs and field.txt included:
# the tracemalloc peak in a fresh process at 2049^2 and 129^3 and of the
# warm 257^2 test scene (README lists them), rounded up.  The writer holds
# one repr string a distinct value, so verify and the two-field gluings are
# measured on fields whose values are all distinct.  capacity is held to one
# float64 array of the lattice.
_LATTICE_BYTES = {
    "green": 83, "glue-green": 58, "glue-full": 66, "verify": 86,
    "glue-basic": 88, "glue-two": 108, "glue-quant": 106,
}


class _Scene:
    """One run of a config: its lattice, its sets, each resolved once into
    the NodeSet the handlers get, its field recipes and tolerances, and what
    it emits: checks, constants, records, output files, the result field."""

    def __init__(self, cfg: SceneConfig, base_dir: str, tol=None, out_dir="."):
        self.cfg = cfg
        self.value = value = cfg.value
        self.base_dir = base_dir
        self.out_dir = out_dir
        # checked before the first lattice array is allocated
        nodes = math.prod(cfg.shape)
        per_node = _LATTICE_BYTES.get(cfg.command, 8)
        _require_memory(
            per_node * nodes, f"{cfg.command} on the {nodes:,}-node lattice at {per_node} B a node"
        )
        self.lattice = GridDomain(
            cfg.origin, cfg.spacing, cfg.shape, np.broadcast_to(True, cfg.shape)
        ).full_lattice()
        self.sets = {}
        for name, ops in cfg.sets.items():
            recipe = [
                (op, self.sets[args[0]].mask if kind == "set" else _SHAPES[kind](*args))
                for op, kind, *args in ops
            ]
            self.sets[name] = NodeSet(self.lattice, _recipe_mask(recipe, self.lattice))
        self.tol = value("tol") if tol is None else tol
        # a tolerance at or below 0 means the library default
        self.cert_tol, self.harmonic_tol = (
            t if t > 0 else None for t in (value("cert-tol", 0.0), value("harmonic-tol", 0.0))
        )
        self.checks = []
        self.constants = {}
        self.records = {}
        self.outputs = []
        self.result = None

    def domain(self, name: str) -> GridDomain:
        mask = self.sets[name].mask
        if not mask.any():
            raise PreconditionError(f"empty domain: set {name!r} has no active nodes")
        return self.lattice.with_mask(mask)

    def node_set(self, name: str) -> NodeSet:
        return self.sets[name]

    def field(self, name: str, domain: GridDomain) -> ScalarField:
        recipe = self.cfg.fields[name]
        kind = recipe[0]
        if kind == "constant":
            return ScalarField.constant(domain, recipe[1])
        if kind == "kernel":
            return kernel_field(domain, recipe[1], recipe[2])
        if kind == "affine":
            return ScalarField.affine(domain, recipe[1], recipe[2])
        if kind == "max":
            a = self.field(recipe[1], domain)
            b = self.field(recipe[2], domain)
            return ScalarField(domain, np.maximum(a.values, b.values))
        if kind == "scale":
            return self.field(recipe[1], domain).affine_image(recipe[2], 0.0)
        if kind == "offset":
            return self.field(recipe[1], domain).affine_image(1.0, recipe[2])
        # file; os.path.join keeps an absolute path as it is
        loaded = read_field(os.path.join(self.base_dir, recipe[1]))
        if not loaded.domain.same_lattice(domain):
            raise PreconditionError("field file lattice does not match the grid block")
        if np.any(domain.mask & ~loaded.domain.mask):
            raise PreconditionError("field file does not cover the requested domain")
        return loaded.restricted(domain.mask)

    def emit(self, name, write, data):
        """Write ``data`` to ``name`` in the output directory and list it;
        returns what ``write`` returns."""
        path = os.path.join(self.out_dir, name)
        self.outputs.append(path)
        return write(data, path)

    def glued(self, res):
        self.checks.extend(res.reports)
        self.result = res.field
        if res.constants is not None:
            self.constants.update(res.constants.as_dict())


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _green_reports(green, d_domain) -> list:
    lattice = green.field.domain
    ring = green.pole_set().dilate("axis")
    region = NodeSet(lattice, d_domain.interior_mask() & ~ring.mask)
    inside, outside = d_domain.mask, ~d_domain.mask
    return [
        is_harmonic(
            green.field, region, 10.0 * lattice.spacing,
            name="Green field harmonic off the pole ring", tag="4.4h",
        ),
        check_on(
            "Green field nonnegative", "4.4s",
            np.maximum(0.0, -green.values[inside]), inside, 0.0,
        ),
        check_on(
            "Green field vanishes outside its domain", "4.4_0",
            np.abs(green.values[outside]), outside, 0.0,
        ),
    ]


def _given(**kwargs) -> dict:
    """The keyword arguments whose config key is present, so that an absent
    key leaves the library's default in force."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _solver_params(scene: _Scene) -> SolverParams:
    return SolverParams(**_given(max_iter=scene.value("max-iter"), rtol=scene.value("rtol")))


def _green_settings(scene: _Scene) -> dict:
    """Both Green gluings' solver parameters and tolerances, passed last."""
    return dict(
        params=_solver_params(scene), tol=scene.tol,
        cert_tol=scene.cert_tol, harmonic_tol=scene.harmonic_tol,
    )


def _verify(scene: _Scene):
    scene.result = scene.field(scene.value("field"), scene.domain(scene.value("on")))
    exclude = scene.node_set(scene.value("exclude")) if scene.value("exclude") else None
    scene.checks.append(is_subharmonic(scene.result, scene.tol, exclude=exclude))


def _green(scene: _Scene):
    d_domain = scene.domain(scene.value("domain"))
    green = green_function(d_domain, scene.value("pole"), _solver_params(scene))
    if scene.value("S0"):
        scene.constants["M_g"] = green_min_constant(green, scene.node_set(scene.value("S0")))
    scene.checks.extend(_green_reports(green, d_domain))
    scene.result = green.field
    scene.emit("green_meta.json", write_json, green.metadata())


def _two_fields(scene: _Scene, outer_key, inner_key):
    """The fields named by two keys on the ``on`` and ``on0`` domains."""
    outer, inner = scene.domain(scene.value("on")), scene.domain(scene.value("on0"))
    return scene.field(scene.value(outer_key), outer), scene.field(scene.value(inner_key), inner)


def _glue_basic(scene: _Scene):
    u, u0 = _two_fields(scene, "u", "u0")
    scene.glued(glue_basic(u, u0, scene.tol, cert_tol=scene.cert_tol))


def _glue_two(scene: _Scene):
    v, v0 = _two_fields(scene, "v", "v0")
    scene.glued(glue_two(v, v0, scene.tol, cert_tol=scene.cert_tol))


def _glue_quant(scene: _Scene):
    v, g = _two_fields(scene, "v", "g")
    consts = GlueConstants(*(scene.value(k) for k in ("M_v", "m_v", "M_g", "m_g")))
    scene.glued(glue_quantitative(v, g, consts, scene.tol, cert_tol=scene.cert_tol))


def _field_off_core(scene: _Scene):
    """The ``v`` field on the ambient set minus the core, and the core."""
    s0 = scene.node_set(scene.value("S0"))
    v_domain = scene.lattice.with_mask(scene.node_set(scene.value("domain")).mask & ~s0.mask)
    if not v_domain.mask.any():
        raise PreconditionError("empty domain: ambient set minus the core is empty")
    return scene.field(scene.value("v"), v_domain), s0


def _glue_green(scene: _Scene):
    v, s0 = _field_off_core(scene)
    scene.glued(glue_green(
        v,
        s0=s0,
        s=scene.node_set(scene.value("S")),
        d_domain=scene.domain(scene.value("D")),
        o=scene.value("pole"),
        m_v=scene.value("m_v"),
        M_v=scene.value("M_v"),
        **_green_settings(scene),
    ))


def _glue_full(scene: _Scene):
    v, s0 = _field_off_core(scene)
    scene.glued(glue_full(
        v,
        s0=s0,
        o=scene.value("pole"),
        r=scene.value("r"),
        M_v=scene.value("M_v"),
        **_green_settings(scene),
        **_given(mean_samples=scene.value("samples")),
    ))


def _capacity(scene: _Scene):
    value = scene.value
    mode = value("mode")
    if mode not in ("fekete", "equilibrium"):
        raise ConfigValueError(f"unknown capacity mode {mode!r}")
    if value("support") and value("circle"):
        raise ConfigValueError("capacity takes key 'support' or key 'circle', not both")
    if value("support"):
        points = scene.node_set(value("support")).points()
    elif value("circle"):
        cx, cy, radius, count = value("circle")
        _require_memory(16 * count, f"a {count:,}-point circle sample")
        points = sphere_points((cx, cy), radius, count, 2)
    else:
        raise ConfigValueError("capacity needs a support set or a circle sampler")
    if mode == "fekete":
        if value("n") is None:
            raise ConfigValueError("mode fekete needs key 'n'")
        rep = fekete_capacity(points, value("n"))
        record = {"energy": rep.energy, "capacity": rep.capacity}
        points = rep.points
    else:
        rep = equilibrium_weights(points, value("dim", points.shape[1]))
        record = {"energy": rep.energy}
    scene.records["capacity"] = {**record, "iterations": rep.iterations, "converged": rep.converged}
    scene.emit("points.txt", write_points, points)
    if mode == "equilibrium":
        scene.emit("weights.txt", write_points, rep.measure.weights[:, None])


# command -> handler.  Handlers reach the library through this module's
# globals, so a name rebound here is seen by every command.
_HANDLERS = {
    "verify": _verify,
    "green": _green,
    "glue-basic": _glue_basic,
    "glue-two": _glue_two,
    "glue-quant": _glue_quant,
    "glue-green": _glue_green,
    "glue-full": _glue_full,
    "capacity": _capacity,
}


def run(
    cfg: SceneConfig,
    out_dir: str = ".",
    tol: float | None = None,
    do_render: bool = False,
    base_dir: str = ".",
    seed: int | None = None,
) -> dict:
    """Execute a parsed config and write its artifacts into ``out_dir``.

    Returns the run report as a dict; the ``exit_status`` entry carries the
    status contract (0 ok / 3 precondition / 4 certification).  The report
    written to disk omits the wall time so identical runs are byte-identical.
    """
    if cfg.command not in _HANDLERS:
        raise ConfigValueError(f"unknown command {cfg.command!r}")
    # every command but capacity renders a field of the grid: fail a 3-d
    # render before the command runs rather than after it wrote field.txt
    if do_render and cfg.command != "capacity" and len(cfg.shape) != 2:
        raise PreconditionError("PGM rendering is planar only")
    os.makedirs(out_dir, exist_ok=True)
    scene = _Scene(cfg, base_dir, tol, out_dir)
    start = time.monotonic()
    _HANDLERS[cfg.command](scene)
    if scene.result is not None:
        scene.emit("field.txt", write_field, scene.result)
        if do_render and scene.emit("field.pgm", write_pgm, scene.result):
            scene.records["render_warning"] = "empty finite range, uniform image"
    elapsed = time.monotonic() - start
    failed = {c.kind for c in scene.checks if not c.passed}
    if "hypothesis" in failed:
        exit_status = EXIT_PRECONDITION
    elif "conclusion" in failed:
        exit_status = EXIT_CERTIFICATION
    else:
        exit_status = EXIT_OK
    report = {
        "command": cfg.command,
        "echo": {k: list(v) if isinstance(v, tuple) else v for k, v in cfg.params.items()},
        "constants": scene.constants,
        "checks": [c.as_record() for c in scene.checks],
        "outputs": [os.path.basename(p) for p in scene.outputs],
        "exit_status": exit_status,
    }
    if seed is not None:
        report["echo"]["seed"] = seed
    report.update(scene.records)
    report_path = os.path.join(out_dir, "report.json")
    write_json(report, report_path)
    report["wall_time_s"] = elapsed
    report["report_path"] = report_path
    return report


def render(field_path, out_path, value_range=None) -> str:
    """Render a field file to a plain PGM image; returns the output path."""
    write_pgm(read_field(field_path), out_path, value_range)
    return str(out_path)


def _error_report(out_dir, command, exit_status, message, tag=None):
    try:
        record = {
            "command": command,
            "error": {"message": message, "tag": tag},
            "checks": [],
            "exit_status": exit_status,
        }
        write_json(record, os.path.join(out_dir, "report.json"))
    except OSError:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subglue",
        description="Run a subharmonic-gluing scene config and emit its artifacts.",
    )
    parser.add_argument("--config", required=True, help="scene config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--tol", type=float, default=None, help="tolerance override")
    parser.add_argument("--render", action="store_true", help="write a PGM render")
    parser.add_argument("--seed", type=int, default=None,
                        help="recorded in the report; the runner itself uses no randomness")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)
    if args.tol is not None and not math.isfinite(args.tol):
        parser.error(f"argument --tol: a tolerance must be finite, got {args.tol}")

    command = "?"
    try:
        with open(args.config) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"subglue: cannot read config: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"subglue: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        cfg = parse_config(text)
        command = cfg.command
        report = run(
            cfg,
            out_dir=args.out,
            tol=args.tol,
            do_render=args.render,
            base_dir=os.path.dirname(os.path.abspath(args.config)),
            seed=args.seed,
        )
    except ConfigError as exc:
        print(f"subglue: config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        _error_report(args.out, command, EXIT_PRECONDITION, str(exc), exc.tag)
        print(f"subglue: precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConvergenceError as exc:
        _error_report(args.out, command, EXIT_INTERNAL, str(exc))
        print(f"subglue: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except SubglueError as exc:
        _error_report(args.out, command, EXIT_INTERNAL, str(exc))
        print(f"subglue: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    # failing checks go to stderr even with --quiet
    for c in report["checks"]:
        if not c["pass"]:
            print(
                f"subglue: check failed: {c['tag']} {c['name']}: "
                f"worst={c['worst_violation']:.3e} tol={c['tol']:.3e} "
                f"location={c['location']}",
                file=sys.stderr,
            )
    if not args.quiet:
        n_pass = sum(1 for c in report["checks"] if c["pass"])
        print(
            f"{report['command']}: {n_pass}/{len(report['checks'])} checks passed, "
            f"exit {report['exit_status']}, {report['wall_time_s']:.2f}s, "
            f"report {report['report_path']}"
        )
    return int(report["exit_status"])


if __name__ == "__main__":
    sys.exit(main())
