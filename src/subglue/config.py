"""Scene configuration: a small key-value grammar with nested blocks.

A config describes one lattice, named node sets (shape recipes of balls and
boxes combined with add/sub tags), named field recipes, and exactly one
command.  Example::

    # full-pipeline scene
    grid {
      origin -1 -1
      spacing 0.0078125
      shape 257 257
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
      tol 1e-6
    }

Blocks open with ``{`` at the end of their header line and close with ``}``
on a line of their own; each block line is one entry (a key followed by its
values); ``#`` starts a comment.  Set recipes are applied in order starting
from the empty set; ``add set NAME`` / ``sub set NAME`` reference previously
defined sets.  Field primitives: ``constant c``, ``kernel d o1 .. od``,
``affine a1 .. ad b``, ``max f g``, ``scale f k``, ``offset f b``,
``file path``.

Commands: ``verify``, ``green``, ``glue-basic``, ``glue-two``,
``glue-quant``, ``glue-green``, ``glue-full``, ``capacity``; their
parameters are documented in the README.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .errors import ConfigNameError, ConfigSyntaxError, ConfigValueError

__all__ = ["SceneConfig", "parse_config", "serialize_config"]

COMMANDS = (
    "verify",
    "green",
    "glue-basic",
    "glue-two",
    "glue-quant",
    "glue-green",
    "glue-full",
    "capacity",
)

FIELD_PRIMITIVES = ("constant", "kernel", "affine", "max", "scale", "offset", "file")

_COMMAND_KEYS = {
    "verify": {"field", "on", "tol", "exclude"},
    "green": {"domain", "pole", "S0", "max-iter", "rtol"},
    "glue-basic": {"u", "on", "u0", "on0", "tol", "cert-tol"},
    "glue-two": {"v", "on", "v0", "on0", "tol", "cert-tol"},
    "glue-quant": {"v", "on", "g", "on0", "M_v", "m_v", "M_g", "m_g", "tol", "cert-tol"},
    "glue-green": {
        "v", "domain", "S0", "S", "D", "pole", "m_v", "M_v", "tol", "cert-tol",
        "harmonic-tol", "max-iter", "rtol",
    },
    "glue-full": {
        "v", "domain", "S0", "pole", "r", "M_v", "tol", "cert-tol",
        "harmonic-tol", "samples", "max-iter", "rtol",
    },
    "capacity": {"mode", "support", "circle", "n", "dim"},
}

_REQUIRED_KEYS = {
    "verify": {"field", "on", "tol"},
    "green": {"domain", "pole"},
    "glue-basic": {"u", "on", "u0", "on0", "tol"},
    "glue-two": {"v", "on", "v0", "on0", "tol"},
    "glue-quant": {"v", "on", "g", "on0", "M_v", "m_v", "M_g", "m_g", "tol"},
    "glue-green": {"v", "domain", "S0", "S", "D", "pole", "m_v", "M_v", "tol"},
    "glue-full": {"v", "domain", "S0", "pole", "r", "M_v", "tol"},
    "capacity": {"mode"},
}


@dataclass
class SceneConfig:
    """Parsed scene: lattice geometry, named sets and fields, one command."""

    origin: tuple
    spacing: float
    shape: tuple
    sets: dict = dataclass_field(default_factory=dict)
    fields: dict = dataclass_field(default_factory=dict)
    command: str = ""
    params: dict = dataclass_field(default_factory=dict)


def _tokenize(text: str):
    """Yield (line_no, column, token) triples; '#' comments stripped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col = 0
        tokens = []
        for tok in line.split():
            col = line.index(tok, col)
            tokens.append((line_no, col + 1, tok))
            col += len(tok)
        if tokens:
            yield tokens


def _number(tok, line, col) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ConfigSyntaxError(f"expected a number, got {tok!r}", line, col) from None


def _integer(tok, line, col) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ConfigSyntaxError(f"expected an integer, got {tok!r}", line, col) from None


def _parse_set_entry(tokens, sets):
    (line, col, op) = tokens[0]
    if op not in ("add", "sub"):
        raise ConfigSyntaxError(f"set entries start with add/sub, got {op!r}", line, col)
    if len(tokens) < 2:
        raise ConfigSyntaxError("set entry is missing its shape", line, col)
    (line2, col2, kind) = tokens[1]
    args = tokens[2:]
    if kind == "ball":
        if len(args) < 2:
            raise ConfigSyntaxError("ball needs centre coordinates and a radius", line2, col2)
        *centre, radius = [_number(t, ln, c) for ln, c, t in args]
        if radius <= 0:
            raise ConfigValueError(f"line {line2}: ball radius must be positive")
        return (op, "ball", tuple(centre), radius)
    if kind == "box":
        vals = [_number(t, ln, c) for ln, c, t in args]
        if len(vals) % 2 != 0 or not vals:
            raise ConfigSyntaxError("box needs lo and hi corner coordinates", line2, col2)
        d = len(vals) // 2
        lo, hi = tuple(vals[:d]), tuple(vals[d:])
        if not all(a < b for a, b in zip(lo, hi)):
            raise ConfigValueError(f"line {line2}: box must have positive extent")
        return (op, "box", lo, hi)
    if kind == "set":
        if len(args) != 1:
            raise ConfigSyntaxError("set reference needs exactly one name", line2, col2)
        (_, _, name) = args[0]
        if name not in sets:
            raise ConfigNameError(f"line {line2}: unknown set {name!r}")
        return (op, "set", name)
    raise ConfigSyntaxError(f"unknown shape kind {kind!r}", line2, col2)


def _parse_field_entry(tokens, fields):
    (line, col, prim) = tokens[0]
    args = tokens[1:]
    if prim not in FIELD_PRIMITIVES:
        raise ConfigNameError(f"line {line}: unknown field primitive {prim!r}")
    if prim == "constant":
        if len(args) != 1:
            raise ConfigSyntaxError("constant takes one value", line, col)
        return ("constant", _number(args[0][2], args[0][0], args[0][1]))
    if prim == "kernel":
        if len(args) < 2:
            raise ConfigSyntaxError("kernel takes a dimension and pole coordinates", line, col)
        d = _integer(args[0][2], args[0][0], args[0][1])
        pole = tuple(_number(t, ln, c) for ln, c, t in args[1:])
        if len(pole) != d:
            raise ConfigValueError(f"line {line}: kernel pole must have {d} coordinates")
        return ("kernel", d, pole)
    if prim == "affine":
        if len(args) < 2:
            raise ConfigSyntaxError("affine takes slope coordinates then an offset", line, col)
        vals = [_number(t, ln, c) for ln, c, t in args]
        return ("affine", tuple(vals[:-1]), vals[-1])
    if prim == "max":
        if len(args) != 2:
            raise ConfigSyntaxError("max takes two field names", line, col)
        for _, _, name in args:
            if name not in fields:
                raise ConfigNameError(f"line {line}: unknown field {name!r}")
        return ("max", args[0][2], args[1][2])
    if prim in ("scale", "offset"):
        if len(args) != 2:
            raise ConfigSyntaxError(f"{prim} takes a field name and a value", line, col)
        name = args[0][2]
        if name not in fields:
            raise ConfigNameError(f"line {line}: unknown field {name!r}")
        return (prim, name, _number(args[1][2], args[1][0], args[1][1]))
    # file
    if len(args) != 1:
        raise ConfigSyntaxError("file takes one path", line, col)
    return ("file", args[0][2])


def parse_config(text: str) -> SceneConfig:
    """Parse config text into a validated :class:`SceneConfig`.

    Raises :class:`~subglue.errors.ConfigSyntaxError` with the line and
    column on malformed text, :class:`~subglue.errors.ConfigNameError` for
    unresolved names, and :class:`~subglue.errors.ConfigValueError` for
    out-of-range values.
    """
    grid = None
    sets: dict = {}
    fields: dict = {}
    command = None
    params: dict = {}

    lines = list(_tokenize(text))
    i = 0
    while i < len(lines):
        tokens = lines[i]
        (line, col, head) = tokens[0]
        if head == "}":
            raise ConfigSyntaxError("unexpected '}'", line, col)
        if head not in ("grid", "set", "field", "command"):
            raise ConfigSyntaxError(f"unknown block kind {head!r}", line, col)
        named = head != "grid"
        brace_at = 2 if named else 1
        if len(tokens) <= brace_at or tokens[brace_at][2] != "{":
            raise ConfigSyntaxError(
                f"expected '{head}{' NAME' if named else ''} {{'", line, col
            )
        name = tokens[1][2] if named else None

        # collect the block body; a one-line block closes on the same line
        body = []
        rest = tokens[brace_at + 1 :]
        if rest:
            if rest[-1][2] != "}":
                raise ConfigSyntaxError(
                    "a one-line block must end with '}'", rest[-1][0], rest[-1][1]
                )
            if len(rest) > 1:
                body.append(rest[:-1])
            i += 1
        else:
            i += 1
            while i < len(lines) and lines[i][0][2] != "}":
                body.append(lines[i])
                i += 1
            if i >= len(lines):
                raise ConfigSyntaxError(f"unclosed block of '{head}'", line, col)
            if len(lines[i]) != 1:
                bad = lines[i][1]
                raise ConfigSyntaxError("'}' must sit on its own line", bad[0], bad[1])
            i += 1

        if head == "grid":
            if grid is not None:
                raise ConfigValueError(f"line {line}: duplicate grid block")
            entries = {}
            for row in body:
                key = row[0][2]
                if key in entries:
                    raise ConfigValueError(f"line {row[0][0]}: duplicate grid key {key!r}")
                entries[key] = row
            for key in ("origin", "spacing", "shape"):
                if key not in entries:
                    raise ConfigValueError(f"line {line}: grid block needs {key!r}")
            origin = tuple(
                _number(t, ln, c) for ln, c, t in entries["origin"][1:]
            )
            srow = entries["spacing"]
            if len(srow) != 2:
                raise ConfigSyntaxError("spacing takes one value", srow[0][0], srow[0][1])
            spacing = _number(srow[1][2], srow[1][0], srow[1][1])
            shape = tuple(
                _integer(t, ln, c) for ln, c, t in entries["shape"][1:]
            )
            if spacing <= 0:
                raise ConfigValueError(f"line {srow[0][0]}: spacing must be positive")
            if len(origin) != len(shape) or not shape:
                raise ConfigValueError(f"line {line}: origin and shape dimensions differ")
            if any(n < 2 for n in shape):
                raise ConfigValueError(f"line {line}: each shape entry must be >= 2")
            grid = (origin, spacing, shape)
        elif head == "set":
            if name in sets:
                raise ConfigValueError(f"line {line}: duplicate set {name!r}")
            ops = [_parse_set_entry(row, sets) for row in body]
            if not ops:
                raise ConfigValueError(f"line {line}: set {name!r} has no entries")
            if ops[0][0] != "add":
                raise ConfigValueError(f"line {line}: set {name!r} must start with add")
            sets[name] = tuple(ops)
        elif head == "field":
            if name in fields:
                raise ConfigValueError(f"line {line}: duplicate field {name!r}")
            if len(body) != 1:
                raise ConfigValueError(
                    f"line {line}: field {name!r} needs exactly one primitive"
                )
            fields[name] = _parse_field_entry(body[0], fields)
        else:  # command
            if command is not None:
                raise ConfigValueError(f"line {line}: a config holds exactly one command")
            if name not in COMMANDS:
                raise ConfigNameError(f"line {line}: unknown command {name!r}")
            command = name
            allowed = _COMMAND_KEYS[name]
            for row in body:
                key = row[0][2]
                if key not in allowed:
                    raise ConfigValueError(
                        f"line {row[0][0]}: command {name!r} does not take {key!r}"
                    )
                if key in params:
                    raise ConfigValueError(f"line {row[0][0]}: duplicate key {key!r}")
                vals = [t for _, _, t in row[1:]]
                if not vals:
                    raise ConfigSyntaxError(
                        f"key {key!r} needs a value", row[0][0], row[0][1]
                    )
                params[key] = vals[0] if len(vals) == 1 else tuple(vals)

    if grid is None:
        raise ConfigValueError("config needs a grid block")
    if command is None:
        raise ConfigValueError("config needs exactly one command block")
    missing = _REQUIRED_KEYS[command] - set(params)
    if missing:
        raise ConfigValueError(
            f"command {command!r} is missing keys: {', '.join(sorted(missing))}"
        )

    cfg = SceneConfig(
        origin=grid[0],
        spacing=grid[1],
        shape=grid[2],
        sets=sets,
        fields=fields,
        command=command,
        params=params,
    )
    _validate_references(cfg)
    return cfg


def _validate_references(cfg: SceneConfig):
    d = len(cfg.shape)
    for name, ops in cfg.sets.items():
        for op in ops:
            if op[1] != "set" and len(op[2]) != d:
                raise ConfigValueError(
                    f"set {name!r}: {op[1]} of dimension {len(op[2])} on a {d}-d grid"
                )
    set_keys = {"on", "on0", "domain", "S0", "S", "D", "exclude", "support"}
    field_keys = {"field", "u", "u0", "v", "v0", "g"}
    for key, value in cfg.params.items():
        if key in set_keys and isinstance(value, str):
            if value not in cfg.sets:
                raise ConfigNameError(f"command references unknown set {value!r}")
        if key in field_keys and isinstance(value, str):
            if value not in cfg.fields:
                raise ConfigNameError(f"command references unknown field {value!r}")


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def serialize_config(cfg: SceneConfig) -> str:
    """Canonical text for a config; ``parse_config`` of the output yields an
    equal :class:`SceneConfig`."""
    out = ["grid {"]
    out.append("  origin " + " ".join(_fmt(c) for c in cfg.origin))
    out.append("  spacing " + _fmt(cfg.spacing))
    out.append("  shape " + " ".join(str(n) for n in cfg.shape))
    out.append("}")
    for name, ops in cfg.sets.items():
        out.append(f"set {name} {{")
        for op in ops:
            if op[1] == "ball":
                centre = " ".join(_fmt(c) for c in op[2])
                out.append(f"  {op[0]} ball {centre} {_fmt(op[3])}")
            elif op[1] == "box":
                lo = " ".join(_fmt(c) for c in op[2])
                hi = " ".join(_fmt(c) for c in op[3])
                out.append(f"  {op[0]} box {lo} {hi}")
            else:
                out.append(f"  {op[0]} set {op[2]}")
        out.append("}")
    for name, recipe in cfg.fields.items():
        out.append(f"field {name} {{")
        kind = recipe[0]
        if kind == "constant":
            out.append(f"  constant {_fmt(recipe[1])}")
        elif kind == "kernel":
            out.append(
                f"  kernel {recipe[1]} " + " ".join(_fmt(c) for c in recipe[2])
            )
        elif kind == "affine":
            out.append(
                "  affine "
                + " ".join(_fmt(c) for c in recipe[1])
                + " "
                + _fmt(recipe[2])
            )
        elif kind == "max":
            out.append(f"  max {recipe[1]} {recipe[2]}")
        elif kind in ("scale", "offset"):
            out.append(f"  {kind} {recipe[1]} {_fmt(recipe[2])}")
        else:
            out.append(f"  file {recipe[1]}")
        out.append("}")
    out.append(f"command {cfg.command} {{")
    for key, value in cfg.params.items():
        if isinstance(value, tuple):
            out.append(f"  {key} " + " ".join(_fmt(v) for v in value))
        else:
            out.append(f"  {key} {_fmt(value)}")
    out.append("}")
    return "\n".join(out) + "\n"
