"""Property tests of the config grammar, with configs generated from its
tables (Hypothesis: MacIver, Hatfield-Dodds et al., JOSS 4(43), 2019).

Every generated config holds a ball, a box and a set reference, one field of
each primitive and a command with its required keys and a drawn subset of its
optional ones, so the examples reach every shape, primitive and kind.
"""

import dataclasses
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from subglue import ConfigError, parse_config, serialize_config
from subglue.cli import main
from subglue.config import COMMAND_KEYS, FIELD_PRIMITIVES, GRID_KEYS, SHAPES, SceneConfig

NAMES = st.sampled_from(["A", "B", "S0", "f", "g_1", "v", "x.y", "-"])
WORDS = st.sampled_from(["fekete", "equilibrium", "f.txt", "../a/b-1.txt", "0"])
FINITE = st.floats(allow_nan=False, allow_infinity=False)
CORNERS = st.tuples(FINITE, FINITE).filter(lambda p: p[0] != p[1]).map(sorted)

# tokens a mutation may put in a config: numbers the grammar accepts or
# rejects, and braces, comments, block kinds and the keys of every table
NUMBERS = ["nan", "-nan", "NaN", "inf", "-inf", "1e400", "0", "-1", "2", "2.5", "x"]
KEYS = sorted(
    {"{", "}", "#", "grid", "set", "field", "command", "add", "sub"}
    | set(GRID_KEYS) | set(SHAPES) | set(FIELD_PRIMITIVES) | set(COMMAND_KEYS)
    | {key for keys in COMMAND_KEYS.values() for key in keys}
)

# fixed examples, so the tests are deterministic and take about a second
SETTINGS = {"derandomize": True, "deadline": None, "database": None}


def _kind(draw, kind, d, names):
    """A value of ``kind`` on a ``d``-d grid, as ``parse_config`` stores it."""
    if kind == "num":
        return draw(st.floats(allow_nan=False))
    if kind == "finite":
        return draw(FINITE)
    if kind == "int":
        return draw(st.integers(-(10**6), 10**6))
    if kind == "dim":
        return d
    if kind == "point":
        return tuple(draw(FINITE) for _ in range(d))
    if kind in ("radius", "spacing"):
        return draw(st.floats(min_value=0, exclude_min=True, allow_infinity=False))
    if kind == "sizes":
        return tuple(draw(st.integers(2, 33)) for _ in range(d))
    if kind == "circle":
        radius = draw(st.floats(min_value=0, allow_infinity=False))
        return (draw(FINITE), draw(FINITE), radius, draw(st.integers(1, 10**6)))
    if kind == "word":
        return draw(WORDS)
    return draw(st.sampled_from(sorted(names[kind])))  # set, field


def _entry(draw, table, key, d, names):
    if key == "box":  # lo < hi on every axis
        lo, hi = zip(*(draw(CORNERS) for _ in range(d)))
        return ("box", lo, hi)
    return (key, *(_kind(draw, kind, d, names) for kind in table[key]))


def _tokens(value):
    """A command value as its raw tokens, as ``SceneConfig.params`` holds them."""
    words = [repr(v) if isinstance(v, float) else str(v) for v in
             (value if isinstance(value, tuple) else (value,))]
    return words[0] if len(words) == 1 else tuple(words)


@st.composite
def configs(draw, command=None):
    d = draw(st.integers(1, 3))
    grid = [_kind(draw, kind, d, None) for kind in GRID_KEYS.values()]
    names = {"set": {}, "field": {}}
    for i, name in enumerate(draw(st.lists(NAMES, min_size=2, max_size=2, unique=True))):
        # the first set holds a ball and a box, the second a reference
        shapes = ["set"] if i else draw(st.permutations(["ball", "box"]))
        shapes += draw(st.lists(st.sampled_from(["ball", "box", "set"][: 2 + i]), max_size=1))
        ops = []
        for shape in shapes:
            op = draw(st.sampled_from(["add", "sub"])) if ops else "add"
            ops.append((op, *_entry(draw, SHAPES, shape, d, names)))
        names["set"][name] = tuple(ops)
    # fields that name others come after the ones they may name
    primitives = sorted(FIELD_PRIMITIVES, key=lambda p: "field" in FIELD_PRIMITIVES[p])
    field_names = draw(st.lists(NAMES, min_size=len(primitives), max_size=len(primitives),
                                unique=True))
    for name, primitive in zip(field_names, primitives):
        names["field"][name] = _entry(draw, FIELD_PRIMITIVES, primitive, d, names)
    command = command or draw(st.sampled_from(sorted(COMMAND_KEYS)))
    keys = [key for key, kind in COMMAND_KEYS[command].items()
            if not kind.endswith("?") or draw(st.booleans())]
    params = {
        key: _tokens(_kind(draw, COMMAND_KEYS[command][key].rstrip("?"), d, names))
        for key in draw(st.permutations(keys))
    }
    return SceneConfig(*grid, names["set"], names["field"], command, params)


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
@settings(max_examples=6, **SETTINGS)
@given(data=st.data())
def test_parse_of_serialize_is_the_identity(command, data):
    cfg = data.draw(configs(command))
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


@st.composite
def mutated(draw):
    """A generated config's text with a number swapped for another, and
    maybe one more number swapped or a token replaced, inserted or deleted."""
    cfg = draw(configs())
    lines = [line.split() for line in serialize_config(cfg).splitlines()]
    words = st.sampled_from(KEYS + sorted(cfg.sets) + sorted(cfg.fields))
    edits = ["number", draw(st.sampled_from(["number", "replace", "insert", "delete", None]))]
    for edit in filter(None, edits):
        places = [(i, j) for i, line in enumerate(lines) for j in range(len(line) + 1)]
        if edit == "number":
            places = [(i, j) for i, j in places if j < len(lines[i]) and _is_number(lines[i][j])]
        i, j = draw(st.sampled_from(places))
        if edit == "insert":
            lines[i].insert(j, draw(st.one_of(st.sampled_from(NUMBERS), words)))
        elif j == len(lines[i]):
            continue
        elif edit == "delete":
            del lines[i][j]
        else:
            lines[i][j] = draw(st.sampled_from(NUMBERS) if edit == "number" else words)
    return "\n".join(" ".join(line) for line in lines) + "\n"


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


@settings(max_examples=120, **SETTINGS)
@given(text=mutated())
def test_mutated_configs_raise_only_config_errors(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    # whatever the grammar accepts holds no NaN and round-trips
    values = [cfg.origin, cfg.spacing, cfg.shape, *cfg.sets.values(), *cfg.fields.values()]
    values += [cfg.value(key) for key in cfg.params]
    assert not any(x != x for x in _leaves(values))
    assert parse_config(serialize_config(cfg)) == cfg


def _leaves(value):
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


@st.composite
def small_configs(draw):
    """A generated config on at most 33 nodes in 1-d, 33^2 in 2-d and 9^3 in
    3-d, with at most 2,000 circle points.  The circle cap stands for a
    known defect, not a fix: the farthest pair of a circle is quadratic in
    its points (4.75 s at 20,000), ROADMAP item 3's bounded farthest pair."""
    cfg = draw(configs())
    params = dict(cfg.params)
    if "circle" in params:
        *circle, count = params["circle"]
        params["circle"] = (*circle, str(min(int(count), 2000)))
    shape = tuple(min(n, 9) for n in cfg.shape) if len(cfg.shape) == 3 else cfg.shape
    return dataclasses.replace(cfg, shape=shape, params=params)


@settings(max_examples=200, **SETTINGS)
@given(cfg=small_configs())
def test_generated_configs_run_to_a_documented_status(cfg):
    # the run never raises, exits with a documented status, and a report it
    # writes carries that status
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.cfg")
        with open(path, "w") as handle:
            handle.write(serialize_config(cfg))
        out = os.path.join(tmp, "out")
        status = main(["--config", path, "--out", out, "--quiet"])
        assert status in (0, 2, 3, 4, 5)
        report = os.path.join(out, "report.json")
        if os.path.exists(report):
            with open(report) as handle:
                assert json.load(handle)["exit_status"] == status
