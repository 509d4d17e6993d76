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
from the empty set.  Four tables are the grammar: :data:`GRID_KEYS`,
:data:`SHAPES`, :data:`FIELD_PRIMITIVES` and :data:`COMMAND_KEYS` name each
entry's key and the kinds of its values, and ``parse_config`` converts every
entry by them through one converter, so a malformed value is a config error
even in a field or key the command does not use.  The grid block is read
first: its origin gives the dimension.  ``SceneConfig.params`` keeps the
command's raw tokens; ``SceneConfig.value`` returns the converted value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dataclass_field

from .errors import ConfigNameError, ConfigSyntaxError, ConfigValueError

__all__ = ["SceneConfig", "parse_config", "serialize_config"]

# The grammar's tables map an entry's key to the kinds of its values.  Kinds:
# set / field, the name of an earlier set or field block; num, a number;
# finite, a finite number (every tolerance: an infinite one passes every
# check); int, an integer (4.0 counts); dim, the grid's dimension d; point, d
# finite coordinates; radius / spacing, a positive finite number; sizes, d
# integers of at least 2; circle, cx cy radius count; word, one token.  A point or
# sizes takes one token per grid axis and every other kind but circle takes
# one, so an entry's arity and its dimension are one rule.  NaN is never a
# value.

# grid key -> the kind of its value, in SceneConfig's order; the origin's
# length is the grid's dimension
GRID_KEYS = {"origin": "point", "spacing": "spacing", "shape": "sizes"}

# set entry shape -> the kinds of its values
SHAPES = {"ball": ("point", "radius"), "box": ("point", "point"), "set": ("set",)}

# field primitive -> the kinds of its values
FIELD_PRIMITIVES = {
    "constant": ("num",),
    "kernel": ("dim", "point"),
    "affine": ("point", "num"),
    "max": ("field", "field"),
    "scale": ("field", "num"),
    "offset": ("field", "num"),
    "file": ("word",),
}

# command -> key -> the kind of its value; a trailing "?" marks an optional
# key.  A command's point takes any number of coordinates: the library checks
# a pole against the grid.
COMMAND_KEYS = {
    "verify": {"field": "field", "on": "set", "tol": "finite", "exclude": "set?"},
    "green": {
        "domain": "set", "pole": "point", "S0": "set?", "max-iter": "int?", "rtol": "num?",
    },
    "glue-basic": {
        "u": "field", "on": "set", "u0": "field", "on0": "set", "tol": "finite",
        "cert-tol": "finite?",
    },
    "glue-two": {
        "v": "field", "on": "set", "v0": "field", "on0": "set", "tol": "finite",
        "cert-tol": "finite?",
    },
    "glue-quant": {
        "v": "field", "on": "set", "g": "field", "on0": "set", "M_v": "num", "m_v": "num",
        "M_g": "num", "m_g": "num", "tol": "finite", "cert-tol": "finite?",
    },
    "glue-green": {
        "v": "field", "domain": "set", "S0": "set", "S": "set", "D": "set", "pole": "point",
        "m_v": "num", "M_v": "num", "tol": "finite", "cert-tol": "finite?",
        "harmonic-tol": "finite?",
        "max-iter": "int?", "rtol": "num?",
    },
    "glue-full": {
        "v": "field", "domain": "set", "S0": "set", "pole": "point", "r": "num", "M_v": "num",
        "tol": "finite", "cert-tol": "finite?", "harmonic-tol": "finite?", "samples": "int?",
        "max-iter": "int?", "rtol": "num?",
    },
    "capacity": {
        "mode": "word", "support": "set?", "circle": "circle?", "n": "int?", "dim": "int?",
    },
}

COMMANDS = tuple(COMMAND_KEYS)

_PER_AXIS = ("point", "sizes")


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
        raw = self.params[key]
        row = [(None, None, t) for t in (key, *(raw if isinstance(raw, tuple) else (raw,)))]
        names = {"set": self.sets, "field": self.fields}
        return _entry(row, COMMAND_KEYS[self.command], "key", None, names)[1]


def _tokenize(text: str):
    """Yield each line's (line_no, column, token) triples; '#' comments stripped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(line_no, m.start() + 1, m.group()) for m in re.finditer(r"\S+", line)]
        if tokens:
            yield tokens


def _number(token, label):
    """A ``(line, column, text)`` token read as a float: a syntax error at
    the token if it is not one, or, for a token with no position, a value
    error naming ``label``."""
    line, col, text = token
    try:
        return float(text)
    except ValueError:
        if line:
            raise ConfigSyntaxError(f"{label} expects a number, got {text!r}", line, col) from None
        raise ConfigValueError(f"{label} is not a number: {text!r}") from None


# kind -> what is wrong with a value that is not of it
_PROBLEMS = {
    "num": "is not a number: {text!r}",
    "finite": "must be finite",
    "int": "is not an integer: {text!r}",
    "dim": "must be {d}, the grid's dimension",
    "point": "must be finite",
    "sizes": "must be integers >= 2",
    "radius": "must be positive and finite",
    "spacing": "must be positive and finite",
    "circle": "takes a finite centre, a finite radius >= 0 and an integer count >= 1",
}


def _value(kind, tokens, label, where, d, names):
    """The value of ``kind`` read from its tokens, or an error naming
    ``label`` after ``where``, the line's prefix."""
    if kind in ("set", "field", "word"):
        name = tokens[0][2]
        if kind != "word" and name not in names[kind]:
            raise ConfigNameError(f"{where}{label} references unknown {kind} {name!r}")
        return name
    x = [_number(t, label) for t in tokens]
    finite = all(map(math.isfinite, x))
    whole = all(v.is_integer() for v in x)  # False for inf and NaN
    if kind == "num" and x[0] == x[0] or kind == "finite" and finite:
        return x[0]
    if kind == "int" and whole:
        return int(x[0])
    if kind == "dim" and x[0] == d:
        return d
    if kind == "point" and finite:
        return tuple(x)
    if kind == "sizes" and whole and min(x) >= 2:
        return tuple(map(int, x))
    if kind in ("radius", "spacing") and finite and x[0] > 0:
        return x[0]
    # a circle of radius 0 is one point sampled count times
    if kind == "circle" and finite and x[2] >= 0 and x[3].is_integer() and x[3] >= 1:
        return (*x[:3], int(x[3]))
    problem = _PROBLEMS[kind].format(text=tokens[0][2], d=d)
    raise ConfigValueError(f"{where}{label} {problem}")


def _entry(row, table, what, d, names):
    """One block line converted by a grammar table.

    ``row`` holds the line's ``(line, column, text)`` tokens, the first the
    entry's key in ``table``; ``what`` names the block in messages; ``d`` is
    the grid's dimension, or ``None`` for a point of any length; ``names``
    maps ``"set"`` and ``"field"`` to the names defined so far.  Returns the
    key followed by one value per kind.
    """
    line, _, key = row[0]
    where = f"line {line}: " if line else ""
    if key not in table:
        raise ConfigNameError(f"{where}{what}: {key!r} is not one of {', '.join(table)}")
    kinds = table[key]
    if isinstance(kinds, str):  # a keyed block's entry has one kind
        head = f"{what} {key!r}"
        kinds, labels = (kinds.rstrip("?"),), (head,)
    else:
        head = f"{what}: {key}"
        labels = tuple(f"{head} {kind}" for kind in kinds)
    args = row[1:]
    widths = [
        (d or len(args)) if kind in _PER_AXIS else 4 if kind == "circle" else 1
        for kind in kinds
    ]
    n = sum(widths)
    if len(args) != n:
        count = "one value" if n == 1 else f"{n} values"
        grid = f" on a {d}-d grid" if any(kind in _PER_AXIS for kind in kinds) else ""
        raise ConfigValueError(f"{where}{head} takes {count}{grid}, got {len(args)}")
    out, at = [key], 0
    for kind, label, width in zip(kinds, labels, widths):
        tokens = args[at : at + width]
        at += width
        out.append(_value(kind, tokens, label, where, d, names))
    return tuple(out)


def _only(blocks, head):
    """The config's one block of kind ``head``."""
    found = [block for block in blocks if block[1] == head]
    if len(found) != 1:
        at = f"line {found[1][0]}: " if found else ""
        raise ConfigValueError(f"{at}a config holds exactly one {head} block")
    return found[0]


def _blocks(text: str):
    """Yield each block as its header line, kind, name (``None`` for the
    grid) and body lines."""
    lines = _tokenize(text)
    for tokens in lines:
        line, col, head = tokens[0]
        if head == "}":
            raise ConfigSyntaxError("unexpected '}'", line, col)
        if head not in ("grid", "set", "field", "command"):
            raise ConfigSyntaxError(f"unknown block kind {head!r}", line, col)
        named = head != "grid"
        if len(tokens) <= 1 + named or tokens[1 + named][2] != "{":
            raise ConfigSyntaxError(f"expected '{head}{' NAME' if named else ''} {{'", line, col)
        name = tokens[1][2] if named else None
        rest = tokens[2 + named :]
        if rest:  # a one-line block closes on the same line
            if rest[-1][2] != "}":
                raise ConfigSyntaxError("a one-line block must end with '}'", *rest[-1][:2])
            yield line, head, name, [rest[:-1]] if len(rest) > 1 else []
            continue
        body = []
        for row in lines:
            if row[0][2] == "}":
                if len(row) != 1:
                    raise ConfigSyntaxError("'}' must sit on its own line", *row[1][:2])
                break
            body.append(row)
        else:
            raise ConfigSyntaxError(f"unclosed block of '{head}'", line, col)
        yield line, head, name, body


def _keyed(body, table, what, line):
    """A grid or command block's lines by key: each a key of ``table``
    given once with a value, and every required key present."""
    rows = {}
    for row in body:
        at, col, key = row[0]
        if key not in table:
            raise ConfigValueError(f"line {at}: {what} does not take {key!r}")
        if key in rows:
            raise ConfigValueError(f"line {at}: duplicate key {key!r}")
        if len(row) < 2:
            raise ConfigSyntaxError(f"key {key!r} needs a value", at, col)
        rows[key] = row
    missing = [key for key, kind in table.items() if not kind.endswith("?") and key not in rows]
    if missing:
        raise ConfigValueError(f"line {line}: {what} is missing keys: {', '.join(missing)}")
    return rows


def parse_config(text: str) -> SceneConfig:
    """Parse config text into a validated :class:`SceneConfig`.

    Raises :class:`~subglue.errors.ConfigSyntaxError` with the line and
    column on malformed text, :class:`~subglue.errors.ConfigNameError` for
    unresolved names, and :class:`~subglue.errors.ConfigValueError` for
    out-of-range values.
    """
    blocks = list(_blocks(text))
    line, _, _, body = _only(blocks, "grid")
    rows = _keyed(body, GRID_KEYS, "grid", line)
    d = len(rows["origin"]) - 1
    grid = [_entry(rows[key], GRID_KEYS, "grid", d, None)[1] for key in GRID_KEYS]
    line, _, command, body = _only(blocks, "command")
    if command not in COMMAND_KEYS:
        raise ConfigNameError(f"line {line}: unknown command {command!r}")
    params = {
        key: row[1][2] if len(row) == 2 else tuple(t for _, _, t in row[1:])
        for key, row in _keyed(body, COMMAND_KEYS[command], f"command {command!r}", line).items()
    }

    names = {"set": {}, "field": {}}
    for line, head, name, body in blocks:
        what = f"{head} {name!r}"
        if head in names and name in names[head]:
            raise ConfigValueError(f"line {line}: duplicate {what}")
        if head == "set":
            ops = []
            for row in body:
                at, col, op = row[0]
                if op not in ("add", "sub") or len(row) < 2:
                    raise ConfigSyntaxError("set entries are add or sub and a shape", at, col)
                entry = _entry(row[1:], SHAPES, what, d, names)
                if entry[0] == "box" and not all(a < b for a, b in zip(*entry[1:])):
                    raise ConfigValueError(f"line {at}: {what}: box must have positive extent")
                ops.append((op, *entry))
            if not ops or ops[0][0] != "add":
                raise ConfigValueError(f"line {line}: {what} must start with add")
            names["set"][name] = tuple(ops)
        elif head == "field":
            if len(body) != 1:
                raise ConfigValueError(f"line {line}: {what} needs exactly one primitive")
            names["field"][name] = _entry(body[0], FIELD_PRIMITIVES, what, d, names)

    cfg = SceneConfig(*grid, names["set"], names["field"], command, params)
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
