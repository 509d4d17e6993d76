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

The command block names a command of :data:`COMMAND_KEYS`, the one table
of the keys each command takes and the kind of each value.  ``parse_config``
converts every value by its kind, so a malformed value is a config error
even for a key the command does not read.  ``SceneConfig.params`` keeps the
raw tokens; ``SceneConfig.value`` returns the converted value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

from .errors import ConfigNameError, ConfigSyntaxError, ConfigValueError

__all__ = ["SceneConfig", "parse_config", "serialize_config"]

FIELD_PRIMITIVES = ("constant", "kernel", "affine", "max", "scale", "offset", "file")

# command -> key -> the kind of its value; a trailing "?" marks an optional
# key.  Kinds: set / field, the name of a set or field block; num, a number;
# int, an integer (4.0 counts); point, coordinates; circle, cx cy radius
# count; word, one token.
COMMAND_KEYS = {
    "verify": {"field": "field", "on": "set", "tol": "num", "exclude": "set?"},
    "green": {
        "domain": "set", "pole": "point", "S0": "set?", "max-iter": "int?", "rtol": "num?",
    },
    "glue-basic": {
        "u": "field", "on": "set", "u0": "field", "on0": "set", "tol": "num",
        "cert-tol": "num?",
    },
    "glue-two": {
        "v": "field", "on": "set", "v0": "field", "on0": "set", "tol": "num",
        "cert-tol": "num?",
    },
    "glue-quant": {
        "v": "field", "on": "set", "g": "field", "on0": "set", "M_v": "num", "m_v": "num",
        "M_g": "num", "m_g": "num", "tol": "num", "cert-tol": "num?",
    },
    "glue-green": {
        "v": "field", "domain": "set", "S0": "set", "S": "set", "D": "set", "pole": "point",
        "m_v": "num", "M_v": "num", "tol": "num", "cert-tol": "num?", "harmonic-tol": "num?",
        "max-iter": "int?", "rtol": "num?",
    },
    "glue-full": {
        "v": "field", "domain": "set", "S0": "set", "pole": "point", "r": "num", "M_v": "num",
        "tol": "num", "cert-tol": "num?", "harmonic-tol": "num?", "samples": "int?",
        "max-iter": "int?", "rtol": "num?",
    },
    "capacity": {
        "mode": "word", "support": "set?", "circle": "circle?", "n": "int?", "dim": "int?",
    },
}

COMMANDS = tuple(COMMAND_KEYS)


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

    def value(self, key: str, default=None):
        """The command key's value converted by its kind in
        :data:`COMMAND_KEYS`, or ``default`` when the command omits it;
        ``params`` keeps the raw tokens."""
        if key not in self.params:
            return default
        return _convert(self, key, self.params[key])


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


def _token_number(token, kind=float):
    """A ``(line, column, text)`` token read as a ``kind``; a syntax error
    at the token if it is not one."""
    line, col, tok = token
    try:
        return kind(tok)
    except ValueError:
        what = "a number" if kind is float else "an integer"
        raise ConfigSyntaxError(f"expected {what}, got {tok!r}", line, col) from None


def _key_number(key, tok, integer=False):
    try:
        val = float(tok)
    except ValueError:
        raise ConfigValueError(f"key {key!r} is not a number: {tok!r}") from None
    if not integer:
        return val
    if not val.is_integer():
        raise ConfigValueError(f"key {key!r} is not an integer: {tok!r}")
    return int(val)


def _convert(cfg: SceneConfig, key: str, raw):
    """The value of a command key from its raw token or tokens, by its kind."""
    kind = COMMAND_KEYS[cfg.command][key].rstrip("?")
    tokens = raw if isinstance(raw, tuple) else (raw,)
    if kind == "point":
        return tuple(_key_number(key, t) for t in tokens)
    if kind == "circle":
        if len(tokens) != 4:
            raise ConfigValueError(f"key {key!r} takes cx cy radius count")
        cx, cy, radius = (_key_number(key, t) for t in tokens[:3])
        count = _key_number(key, tokens[3], True)
        # radius 0 is a degenerate circle, one point sampled count times
        if not (math.isfinite(radius) and radius >= 0):
            raise ConfigValueError(f"key {key!r} radius must be finite and not negative")
        if count < 1:
            raise ConfigValueError(f"key {key!r} count must be at least 1")
        return (cx, cy, radius, count)
    if len(tokens) != 1:
        raise ConfigValueError(f"key {key!r} takes one value, got {' '.join(tokens)!r}")
    (tok,) = tokens
    if kind in ("num", "int"):
        return _key_number(key, tok, integer=kind == "int")
    if kind != "word" and tok not in (cfg.sets if kind == "set" else cfg.fields):
        raise ConfigNameError(f"command references unknown {kind} {tok!r}")
    return tok


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
        *centre, radius = [_token_number(t) for t in args]
        if radius <= 0:
            raise ConfigValueError(f"line {line2}: ball radius must be positive")
        return (op, "ball", tuple(centre), radius)
    if kind == "box":
        vals = [_token_number(t) for t in args]
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
        return ("constant", _token_number(args[0]))
    if prim == "kernel":
        if len(args) < 2:
            raise ConfigSyntaxError("kernel takes a dimension and pole coordinates", line, col)
        d = _token_number(args[0], int)
        pole = tuple(_token_number(t) for t in args[1:])
        if len(pole) != d:
            raise ConfigValueError(f"line {line}: kernel pole must have {d} coordinates")
        return ("kernel", d, pole)
    if prim == "affine":
        if len(args) < 2:
            raise ConfigSyntaxError("affine takes slope coordinates then an offset", line, col)
        vals = [_token_number(t) for t in args]
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
        return (prim, name, _token_number(args[1]))
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
            origin = tuple(_token_number(t) for t in entries["origin"][1:])
            srow = entries["spacing"]
            if len(srow) != 2:
                raise ConfigSyntaxError("spacing takes one value", srow[0][0], srow[0][1])
            spacing = _token_number(srow[1])
            shape = tuple(_token_number(t, int) for t in entries["shape"][1:])
            if not (math.isfinite(spacing) and spacing > 0):
                raise ConfigValueError(f"line {srow[0][0]}: spacing must be positive and finite")
            if not all(math.isfinite(x) for x in origin):
                orow = entries["origin"][0]
                raise ConfigValueError(f"line {orow[0]}: origin must be finite")
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
            if name not in COMMAND_KEYS:
                raise ConfigNameError(f"line {line}: unknown command {name!r}")
            command = name
            for row in body:
                key = row[0][2]
                if key not in COMMAND_KEYS[name]:
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
    missing = {k for k, kind in COMMAND_KEYS[command].items() if not kind.endswith("?")}
    missing -= set(params)
    if missing:
        raise ConfigValueError(
            f"command {command!r} is missing keys: {', '.join(sorted(missing))}"
        )
    d = len(grid[2])
    for name, ops in sets.items():
        for op in ops:
            if op[1] != "set" and len(op[2]) != d:
                raise ConfigValueError(
                    f"set {name!r}: {op[1]} of dimension {len(op[2])} on a {d}-d grid"
                )

    cfg = SceneConfig(*grid, sets, fields, command, params)
    for key in params:
        cfg.value(key)  # converts each value and resolves the names it references
    return cfg


def _words(entry) -> str:
    """An entry's tokens: tuples flattened, floats by ``repr``."""
    if isinstance(entry, tuple):
        return " ".join(_words(e) for e in entry)
    return repr(entry) if isinstance(entry, float) else str(entry)


def _block(header: str, entries) -> list:
    return [header + " {", *("  " + _words(e) for e in entries), "}"]


def serialize_config(cfg: SceneConfig) -> str:
    """Canonical text for a config; ``parse_config`` of the output yields an
    equal :class:`SceneConfig`."""
    grid = (("origin", cfg.origin), ("spacing", cfg.spacing), ("shape", cfg.shape))
    out = _block("grid", grid)
    for name, ops in cfg.sets.items():
        out += _block(f"set {name}", ops)
    for name, recipe in cfg.fields.items():
        out += _block(f"field {name}", [recipe])
    out += _block(f"command {cfg.command}", cfg.params.items())
    return "\n".join(out) + "\n"
