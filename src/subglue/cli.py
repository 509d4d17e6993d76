"""Batch front end: parse a scene config, run its command, emit artifacts.

Every run writes a ``report.json`` (stable key order, no timing data, so
identical inputs give byte-identical output) and, for field-producing
commands, a ``field.txt``; ``--render`` adds a ``field.pgm``.  Exit status:
0 all checks passed, 2 config problem, 3 precondition or hypothesis failure,
4 conclusion certification failure, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .capacity import equilibrium_weights, fekete_capacity
from .config import SceneConfig, parse_config, serialize_config
from .errors import (
    ConfigError,
    ConfigValueError,
    ConvergenceError,
    PreconditionError,
    SubglueError,
)
from .field import ScalarField, is_harmonic, is_subharmonic, VerificationReport
from .fieldio import (
    read_field,
    render_pgm,
    write_field,
    write_points,
    write_text_atomic,
)
from .geometry import Ball, Box, GridDomain, NodeSet
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


class _Scene:
    """Resolved lattice, set masks and field recipes for one config."""

    def __init__(self, cfg: SceneConfig, base_dir: str):
        self.cfg = cfg
        self.base_dir = base_dir
        self.lattice = GridDomain(
            cfg.origin, cfg.spacing, cfg.shape, np.ones(cfg.shape, dtype=bool)
        )
        pts = np.stack(np.broadcast_arrays(*self.lattice.coordinate_grids()), axis=-1)
        self.masks = {}
        for name, ops in cfg.sets.items():
            mask = np.zeros(cfg.shape, dtype=bool)
            for op in ops:
                if op[1] == "ball":
                    inside = Ball(op[2], op[3]).contains(pts)
                elif op[1] == "box":
                    inside = Box(op[2], op[3]).contains(pts)
                else:
                    inside = self.masks[op[2]]
                mask = mask | inside if op[0] == "add" else mask & ~inside
            self.masks[name] = mask

    def set_mask(self, name: str) -> np.ndarray:
        return self.masks[name]

    def domain(self, name: str) -> GridDomain:
        mask = self.masks[name]
        if not mask.any():
            raise PreconditionError(f"empty domain: set {name!r} has no active nodes")
        return self.lattice.with_mask(mask)

    def node_set(self, name: str) -> NodeSet:
        return NodeSet(self.lattice, self.masks[name])

    def field(self, name: str, domain: GridDomain) -> ScalarField:
        recipe = self.cfg.fields[name]
        return self._eval(recipe, domain)

    def _eval(self, recipe, domain: GridDomain) -> ScalarField:
        kind = recipe[0]
        if kind == "constant":
            return ScalarField.constant(domain, recipe[1])
        if kind == "kernel":
            if recipe[1] != domain.dim:
                raise ConfigValueError("kernel dimension does not match the grid")
            return kernel_field(domain, recipe[1], recipe[2])
        if kind == "affine":
            if len(recipe[1]) != domain.dim:
                raise ConfigValueError("affine slope dimension does not match the grid")
            return ScalarField.affine(domain, recipe[1], recipe[2])
        if kind == "max":
            a = self.field(recipe[1], domain)
            b = self.field(recipe[2], domain)
            with np.errstate(invalid="ignore"):
                vals = np.maximum(a.values, b.values)
            return ScalarField(domain, np.where(domain.mask, vals, 0.0))
        if kind == "scale":
            return self.field(recipe[1], domain).affine_image(recipe[2], 0.0)
        if kind == "offset":
            return self.field(recipe[1], domain).affine_image(1.0, recipe[2])
        # file
        path = recipe[1]
        if not os.path.isabs(path):
            path = os.path.join(self.base_dir, path)
        loaded = read_field(path)
        if not loaded.domain.same_lattice(domain):
            raise PreconditionError("field file lattice does not match the grid block")
        if np.any(domain.mask & ~loaded.domain.mask):
            raise PreconditionError("field file does not cover the requested domain")
        return loaded.restricted(domain.mask)


# ---------------------------------------------------------------------------
# parameter coercion
# ---------------------------------------------------------------------------


def _p_float(params, key, default=None) -> float:
    if key not in params:
        if default is None:
            raise ConfigValueError(f"missing numeric key {key!r}")
        return default
    raw = params[key]
    if isinstance(raw, tuple):
        raise ConfigValueError(f"key {key!r} takes a single number")
    try:
        return float(raw)
    except ValueError:
        raise ConfigValueError(f"key {key!r} is not a number: {raw!r}") from None


def _p_int(params, key, default=None) -> int:
    val = _p_float(params, key, default=float(default) if default is not None else None)
    return int(val)


def _p_point(params, key) -> tuple:
    raw = params[key]
    vals = raw if isinstance(raw, tuple) else (raw,)
    try:
        return tuple(float(v) for v in vals)
    except ValueError:
        raise ConfigValueError(f"key {key!r} is not a coordinate list") from None


def _solver_params(params) -> SolverParams:
    return SolverParams(
        max_iter=_p_int(params, "max-iter", 1_000_000),
        rtol=_p_float(params, "rtol", 1e-10),
    )


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------


def _green_reports(green, d_domain) -> list:
    lattice = green.field.domain
    pole_ring = np.zeros(lattice.shape, dtype=bool)
    pole_ring[green.pole_node] = True
    ring_set = NodeSet(lattice, pole_ring).dilate("axis")
    region = NodeSet(lattice, d_domain.interior_mask() & ~ring_set.mask)
    reports = [
        is_harmonic(
            green.field, region, 10.0 * lattice.spacing,
            name="Green field harmonic off the pole ring", tag="4.4h",
        )
    ]
    inside_vals = green.values[d_domain.mask]
    neg = max(0.0, -float(inside_vals.min()))
    reports.append(
        VerificationReport(
            name="Green field nonnegative", tag="4.4s",
            passed=neg <= 0.0, worst=neg, tol=0.0,
        )
    )
    outside = np.abs(green.values[~d_domain.mask])
    out_worst = float(outside.max()) if outside.size else 0.0
    reports.append(
        VerificationReport(
            name="Green field vanishes outside its domain", tag="4.4_0",
            passed=out_worst == 0.0, worst=out_worst, tol=0.0,
        )
    )
    return reports


def _execute(scene: _Scene, tol_override, out_dir, do_render):
    cfg = scene.cfg
    params = cfg.params
    command = cfg.command
    tol = tol_override
    if tol is None and "tol" in params:
        tol = _p_float(params, "tol")

    outputs = []
    checks = []
    constants = {}
    result_field = None
    extra_records = {}

    if command == "verify":
        if tol is None:
            raise ConfigValueError("verify needs a tolerance")
        domain = scene.domain(params["on"])
        field = scene.field(params["field"], domain)
        exclude = scene.node_set(params["exclude"]) if "exclude" in params else None
        checks.append(is_subharmonic(field, tol, exclude=exclude))
        result_field = field
    elif command == "green":
        d_domain = scene.domain(params["domain"])
        green = green_function(d_domain, _p_point(params, "pole"), _solver_params(params))
        if "S0" in params:
            m = green_min_constant(green, scene.node_set(params["S0"]))
            constants["M_g"] = m
        checks.extend(_green_reports(green, d_domain))
        result_field = green.field
        meta = green.metadata()
        meta_path = os.path.join(out_dir, "green_meta.json")
        write_text_atomic(meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
        outputs.append(meta_path)
    elif command in ("glue-basic", "glue-two"):
        if tol is None:
            raise ConfigValueError(f"{command} needs a tolerance")
        cert_tol = _p_float(params, "cert-tol", -1.0)
        cert_tol = None if cert_tol <= 0 else cert_tol
        outer = scene.domain(params["on"])
        inner = scene.domain(params["on0"])
        if command == "glue-basic":
            u = scene.field(params["u"], outer)
            u0 = scene.field(params["u0"], inner)
            res = glue_basic(u, u0, tol, cert_tol=cert_tol)
        else:
            v = scene.field(params["v"], outer)
            v0 = scene.field(params["v0"], inner)
            res = glue_two(v, v0, tol, cert_tol=cert_tol)
        checks.extend(res.reports)
        result_field = res.field
    elif command == "glue-quant":
        if tol is None:
            raise ConfigValueError("glue-quant needs a tolerance")
        cert_tol = _p_float(params, "cert-tol", -1.0)
        cert_tol = None if cert_tol <= 0 else cert_tol
        outer = scene.domain(params["on"])
        inner = scene.domain(params["on0"])
        v = scene.field(params["v"], outer)
        g = scene.field(params["g"], inner)
        consts = GlueConstants(
            M_v=_p_float(params, "M_v"),
            m_v=_p_float(params, "m_v"),
            M_g=_p_float(params, "M_g"),
            m_g=_p_float(params, "m_g"),
        )
        res = glue_quantitative(v, g, consts, tol, cert_tol=cert_tol)
        checks.extend(res.reports)
        constants.update(res.constants.as_dict())
        result_field = res.field
    elif command == "glue-green":
        if tol is None:
            raise ConfigValueError("glue-green needs a tolerance")
        cert_tol = _p_float(params, "cert-tol", -1.0)
        cert_tol = None if cert_tol <= 0 else cert_tol
        harmonic_tol = _p_float(params, "harmonic-tol", -1.0)
        harmonic_tol = None if harmonic_tol <= 0 else harmonic_tol
        ambient_mask = scene.set_mask(params["domain"])
        s0 = scene.node_set(params["S0"])
        v_domain = scene.lattice.with_mask(ambient_mask & ~s0.mask)
        if not v_domain.mask.any():
            raise PreconditionError("empty domain: ambient set minus the core is empty")
        v = scene.field(params["v"], v_domain)
        res = glue_green(
            v,
            s0=s0,
            s=scene.node_set(params["S"]),
            d_domain=scene.domain(params["D"]),
            o=_p_point(params, "pole"),
            m_v=_p_float(params, "m_v"),
            M_v=_p_float(params, "M_v"),
            params=_solver_params(params),
            tol=tol,
            cert_tol=cert_tol,
            harmonic_tol=harmonic_tol,
        )
        checks.extend(res.reports)
        constants.update(res.constants.as_dict())
        result_field = res.field
    elif command == "glue-full":
        if tol is None:
            raise ConfigValueError("glue-full needs a tolerance")
        cert_tol = _p_float(params, "cert-tol", -1.0)
        cert_tol = None if cert_tol <= 0 else cert_tol
        harmonic_tol = _p_float(params, "harmonic-tol", -1.0)
        harmonic_tol = None if harmonic_tol <= 0 else harmonic_tol
        ambient_mask = scene.set_mask(params["domain"])
        s0 = scene.node_set(params["S0"])
        v_domain = scene.lattice.with_mask(ambient_mask & ~s0.mask)
        if not v_domain.mask.any():
            raise PreconditionError("empty domain: ambient set minus the core is empty")
        v = scene.field(params["v"], v_domain)
        res = glue_full(
            v,
            s0=s0,
            o=_p_point(params, "pole"),
            r=_p_float(params, "r"),
            M_v=_p_float(params, "M_v"),
            params=_solver_params(params),
            tol=tol,
            cert_tol=cert_tol,
            harmonic_tol=harmonic_tol,
            mean_samples=_p_int(params, "samples", 256),
        )
        checks.extend(res.reports)
        constants.update(res.constants.as_dict())
        constants["m_v"] = res.extras["m_v"]
        result_field = res.field
    elif command == "capacity":
        mode = params["mode"]
        if mode not in ("fekete", "equilibrium"):
            raise ConfigValueError(f"unknown capacity mode {mode!r}")
        if "support" in params:
            points = scene.node_set(params["support"]).points()
        elif "circle" in params:
            spec = params["circle"]
            if not isinstance(spec, tuple) or len(spec) != 4:
                raise ConfigValueError("circle takes cx cy radius count")
            cx, cy, radius, count = (float(spec[0]), float(spec[1]),
                                     float(spec[2]), int(spec[3]))
            ang = 2.0 * np.pi * np.arange(count) / count
            points = np.stack(
                [cx + radius * np.cos(ang), cy + radius * np.sin(ang)], axis=1
            )
        else:
            raise ConfigValueError("capacity needs a support set or a circle sampler")
        if mode == "fekete":
            rep = fekete_capacity(points, _p_int(params, "n"))
            extra_records["capacity"] = {
                "energy": rep.energy,
                "capacity": rep.capacity,
                "iterations": rep.iterations,
                "converged": rep.converged,
            }
            pts_path = os.path.join(out_dir, "points.txt")
            write_points(rep.points, pts_path)
            outputs.append(pts_path)
        else:
            eq = equilibrium_weights(points, _p_int(params, "dim", 2))
            extra_records["capacity"] = {
                "energy": eq.energy,
                "iterations": eq.iterations,
                "converged": eq.converged,
            }
            pts_path = os.path.join(out_dir, "points.txt")
            write_points(points, pts_path)
            outputs.append(pts_path)
            w_path = os.path.join(out_dir, "weights.txt")
            write_points(eq.measure.weights[:, None], w_path)
            outputs.append(w_path)
    else:  # pragma: no cover - parse_config rejects unknown commands
        raise ConfigValueError(f"unknown command {command!r}")

    if result_field is not None:
        field_path = os.path.join(out_dir, "field.txt")
        write_field(result_field, field_path)
        outputs.append(field_path)
        if do_render:
            png_path = os.path.join(out_dir, "field.pgm")
            data, degenerate = render_pgm(result_field)
            with open(png_path + ".tmp", "wb") as handle:
                handle.write(data)
            os.replace(png_path + ".tmp", png_path)
            outputs.append(png_path)
            if degenerate:
                extra_records["render_warning"] = "empty finite range, uniform image"

    hypothesis_failed = any(
        not c.passed for c in checks if c.kind == "hypothesis"
    )
    conclusion_failed = any(
        not c.passed for c in checks if c.kind == "conclusion"
    )
    if hypothesis_failed:
        exit_status = EXIT_PRECONDITION
    elif conclusion_failed:
        exit_status = EXIT_CERTIFICATION
    else:
        exit_status = EXIT_OK
    return checks, constants, outputs, extra_records, exit_status


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
    os.makedirs(out_dir, exist_ok=True)
    scene = _Scene(cfg, base_dir)
    start = time.monotonic()
    checks, constants, outputs, extra, exit_status = _execute(
        scene, tol, out_dir, do_render
    )
    elapsed = time.monotonic() - start
    report = {
        "command": cfg.command,
        "echo": {k: list(v) if isinstance(v, tuple) else v for k, v in cfg.params.items()},
        "constants": constants,
        "checks": [c.as_record() for c in checks],
        "outputs": [os.path.basename(p) for p in outputs],
        "exit_status": exit_status,
    }
    if seed is not None:
        report["echo"]["seed"] = seed
    report.update(extra)
    report_path = os.path.join(out_dir, "report.json")
    write_text_atomic(report_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    report["wall_time_s"] = elapsed
    report["report_path"] = report_path
    return report


def render(field_path, out_path, value_range=None) -> str:
    """Render a field file to a plain PGM image; returns the output path."""
    field = read_field(field_path)
    data, _ = render_pgm(field, value_range=value_range)
    with open(str(out_path) + ".tmp", "wb") as handle:
        handle.write(data)
    os.replace(str(out_path) + ".tmp", str(out_path))
    return str(out_path)


def _error_report(out_dir, command, exit_status, message, tag=None):
    try:
        os.makedirs(out_dir, exist_ok=True)
        record = {
            "command": command,
            "error": {"message": message, "tag": tag},
            "checks": [],
            "exit_status": exit_status,
        }
        write_text_atomic(
            os.path.join(out_dir, "report.json"),
            json.dumps(record, indent=2, sort_keys=True) + "\n",
        )
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

    command = "?"
    try:
        with open(args.config) as handle:
            text = handle.read()
    except OSError as exc:
        print(f"subglue: cannot read config: {exc}", file=sys.stderr)
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
