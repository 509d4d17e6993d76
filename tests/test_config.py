import pathlib
import re

import pytest

from subglue import (
    ConfigNameError,
    ConfigSyntaxError,
    ConfigValueError,
    parse_config,
    serialize_config,
)
from subglue.config import COMMAND_KEYS, FIELD_PRIMITIVES

MINIMAL = """
grid {
  origin -1 -1
  spacing 0.25
  shape 9 9
}
set O { add ball 0 0 1 }
field f { constant 1.5 }
command verify {
  field f
  on O
  tol 1e-6
}
"""


def test_minimal_config_parses():
    cfg = parse_config(MINIMAL)
    assert cfg.command == "verify"
    assert cfg.spacing == 0.25
    assert cfg.sets["O"][0][1] == "ball"
    assert cfg.fields["f"] == ("constant", 1.5)
    assert cfg.params["tol"] == "1e-6"


def test_round_trip_is_identity():
    cfg = parse_config(MINIMAL)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


RICH_SCENE = """
grid {
  origin -1.5 -1.5
  spacing 0.0625
  shape 49 49
}
set A { add box -1 -1 1 1 }
set B {
  add ball 0 0 0.8
  sub ball 0.2 0.2 0.3
  sub set A
  add box -0.25 -0.5 0.125 0.75
}
set C { add set B }
field base { kernel 2 0.1 -0.2 }
field lin { affine 1 -2 0.5 }
field m { max base lin }
field s { scale m 2.0 }
field c { constant -0.75 }
field o { offset c 1e-3 }
field f { file saved/field.txt }
"""

# between them the two commands use a key of every kind
RICH_COMMANDS = {
    "glue-full": """
command glue-full {
  v s
  domain B
  S0 A
  pole 0.1 -0.2
  r 0.3
  M_v -0.7985
  tol 1e-3
  cert-tol 0.05
  harmonic-tol 0
  samples 64.0
  max-iter 1000
  rtol 1e-9
}
""",
    "capacity": """
command capacity {
  mode fekete
  support C
  circle 0 0 1.5 64
  n 8
  dim 2
}
""",
}


def test_round_trip_rich_config():
    for command, command_text in RICH_COMMANDS.items():
        cfg = parse_config(RICH_SCENE + command_text)
        keys = COMMAND_KEYS[command]
        assert {keys[key] for key in cfg.params} == set(keys.values())
        assert {op[1] for ops in cfg.sets.values() for op in ops} == {"ball", "box", "set"}
        assert {recipe[0] for recipe in cfg.fields.values()} == set(FIELD_PRIMITIVES)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text
        assert {key: again.value(key) for key in again.params} == {
            key: cfg.value(key) for key in cfg.params
        }


def test_values_are_converted_by_kind():
    full = parse_config(RICH_SCENE + RICH_COMMANDS["glue-full"])
    assert full.params["samples"] == "64.0"
    assert full.value("samples") == 64 and isinstance(full.value("samples"), int)
    assert full.value("pole") == (0.1, -0.2)
    assert full.value("r") == 0.3
    assert full.value("v") == "s" and full.value("domain") == "B"
    assert full.value("S") is None and full.value("S", 7) == 7
    cap = parse_config(RICH_SCENE + RICH_COMMANDS["capacity"])
    assert cap.value("circle") == (0.0, 0.0, 1.5, 64)
    assert cap.value("mode") == "fekete" and cap.value("n") == 8


@pytest.mark.parametrize(
    "path", sorted(pathlib.Path(__file__).parent.parent.glob("demos/scene_configs/*.cfg")),
    ids=lambda p: p.name,
)
def test_demo_configs_round_trip(path):
    cfg = parse_config(path.read_text())
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


@pytest.mark.parametrize(
    "command, old, new, key",
    [
        ("glue-full", "r 0.3", "r abc", "r"),
        ("glue-full", "samples 64.0", "samples 4.5", "samples"),
        ("glue-full", "pole 0.1 -0.2", "pole 0 x", "pole"),
        ("glue-full", "max-iter 1000", "max-iter 10 20", "max-iter"),
        ("glue-full", "domain B", "domain A B", "domain"),
        ("glue-full", "v s", "v s s", "v"),
        ("capacity", "circle 0 0 1.5 64", "circle 0 0 1", "circle"),
        ("capacity", "circle 0 0 1.5 64", "circle 0 0 1.5 0", "circle"),
        ("capacity", "circle 0 0 1.5 64", "circle 0 0 1.5 -5", "circle"),
        ("capacity", "circle 0 0 1.5 64", "circle 0 0 -1.5 64", "circle"),
        ("capacity", "circle 0 0 1.5 64", "circle 0 0 inf 64", "circle"),
        ("capacity", "circle 0 0 1.5 64", "circle 0 0 nan 64", "circle"),
        ("capacity", "mode fekete", "mode a b", "mode"),
        ("capacity", "n 8", "n 4.5", "n"),
        ("glue-full", "tol 1e-3", "tol nan", "tol"),
        ("glue-full", "tol 1e-3", "tol inf", "tol"),
        ("glue-full", "cert-tol 0.05", "cert-tol inf", "cert-tol"),
        ("glue-full", "harmonic-tol 0", "harmonic-tol -inf", "harmonic-tol"),
        ("glue-full", "M_v -0.7985", "M_v nan", "M_v"),
        ("glue-full", "rtol 1e-9", "rtol -nan", "rtol"),
        ("glue-full", "pole 0.1 -0.2", "pole nan 0", "pole"),
        ("glue-full", "pole 0.1 -0.2", "pole 0 inf", "pole"),
        ("capacity", "circle 0 0 1.5 64", "circle inf 0 1.5 64", "circle"),
        ("capacity", "circle 0 0 1.5 64", "circle 0 nan 1.5 64", "circle"),
    ],
)
def test_malformed_value_names_its_key(command, old, new, key):
    text = RICH_COMMANDS[command]
    assert old in text
    with pytest.raises(ConfigValueError, match=f"^key {key!r} "):
        parse_config(RICH_SCENE + text.replace(old, new))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("add ball 0 0 0.8", "add ball 0 0 nan", "line 9: set 'B': ball radius must be positive and finite"),
        ("add ball 0 0 0.8", "add ball 0 0 -inf", "line 9: set 'B': ball radius must be positive and finite"),
        ("add ball 0 0 0.8", "add ball inf 0 0.8", "line 9: set 'B': ball point must be finite"),
        ("add box -1 -1 1 1", "add box -1 -1 inf 1", "line 7: set 'A': box point must be finite"),
        ("add ball 0 0 0.8", "add ball 0 0 0 0.8", "line 9: set 'B': ball takes 3 values on a 2-d grid, got 4"),
        ("add box -1 -1 1 1", "add box -1 -1 1", "line 7: set 'A': box takes 4 values on a 2-d grid, got 3"),
        ("kernel 2 0.1 -0.2", "kernel 2 nan -0.2", "line 15: field 'base': kernel point must be finite"),
        ("kernel 2 0.1 -0.2", "kernel 2 0.1 -0.2 0",
         "line 15: field 'base': kernel takes 3 values on a 2-d grid, got 4"),
        ("kernel 2 0.1 -0.2", "kernel 3 0.1 -0.2",
         "line 15: field 'base': kernel dim must be 2, the grid's dimension"),
        ("affine 1 -2 0.5", "affine 1 0.5", "line 16: field 'lin': affine takes 3 values on a 2-d grid, got 2"),
        ("affine 1 -2 0.5", "affine 1 inf 0.5", "line 16: field 'lin': affine point must be finite"),
        ("affine 1 -2 0.5", "affine 1 -2 nan", "line 16: field 'lin': affine num is not a number: 'nan'"),
        ("scale m 2.0", "scale m nan", "line 18: field 's': scale num is not a number: 'nan'"),
        ("constant -0.75", "constant nan", "line 19: field 'c': constant num is not a number: 'nan'"),
        ("offset c 1e-3", "offset c NaN", "line 20: field 'o': offset num is not a number: 'NaN'"),
    ],
)
def test_malformed_set_or_field_value_names_its_line(old, new, message):
    # a field the command does not use is checked all the same
    assert old in RICH_SCENE
    with pytest.raises(ConfigValueError, match=f"^{re.escape(message)}$"):
        parse_config(RICH_SCENE.replace(old, new, 1) + RICH_COMMANDS["capacity"])


def test_rich_commands_cover_every_kind():
    kinds = {"set", "field", "num", "finite", "int", "point", "circle", "word"}
    for keys in COMMAND_KEYS.values():
        assert {kind.removesuffix("?") for kind in keys.values()} <= kinds
    used = {
        COMMAND_KEYS[command][key].removesuffix("?")
        for command, text in RICH_COMMANDS.items()
        for key in parse_config(RICH_SCENE + text).params
    }
    assert used == kinds


def test_unknown_field_primitive_is_named_error():
    bad = MINIMAL.replace("constant 1.5", "wavelet 1.5")
    with pytest.raises(ConfigNameError, match="wavelet"):
        parse_config(bad)


def test_syntax_error_carries_line_and_column():
    bad = "grid {\n  origin 0 0\n  spacing x\n  shape 5 5\n}\n" + MINIMAL.split("}", 1)[1]
    with pytest.raises(ConfigSyntaxError) as err:
        parse_config(bad)
    assert err.value.line == 3
    assert err.value.column > 0


def test_unresolved_set_reference():
    bad = MINIMAL.replace("on O", "on Nowhere")
    with pytest.raises(ConfigNameError, match="Nowhere"):
        parse_config(bad)


def test_duplicate_command_rejected():
    bad = MINIMAL + "\ncommand verify {\n  field f\n  on O\n  tol 1\n}\n"
    with pytest.raises(ConfigValueError, match="exactly one command"):
        parse_config(bad)


def test_missing_required_keys_rejected():
    bad = MINIMAL.replace("  tol 1e-6\n", "")
    with pytest.raises(ConfigValueError, match="missing keys"):
        parse_config(bad)


def test_unknown_command_key_rejected():
    bad = MINIMAL.replace("  tol 1e-6\n", "  tol 1e-6\n  wibble 3\n")
    with pytest.raises(ConfigValueError, match="wibble"):
        parse_config(bad)


def test_removed_omega_key_rejected():
    # the relaxation factor went away with the SOR solver; a config that
    # still sets it must fail loudly rather than be silently ignored
    cfg = """
grid {
  origin -1 -1
  spacing 0.25
  shape 9 9
}
set D { add ball 0 0 1 }
command green {
  domain D
  pole 0 0
  omega 1.9
}
"""
    with pytest.raises(ConfigValueError, match="omega"):
        parse_config(cfg)


def test_verify_rejects_samples():
    # verify never read a sample count; it is no longer accepted
    bad = MINIMAL.replace("  tol 1e-6\n", "  tol 1e-6\n  samples 64\n")
    with pytest.raises(ConfigValueError, match="command 'verify' does not take 'samples'"):
        parse_config(bad)


def test_grid_invariants():
    bad = MINIMAL.replace("spacing 0.25", "spacing -0.25")
    with pytest.raises(ConfigValueError, match="positive"):
        parse_config(bad)
    bad2 = MINIMAL.replace("shape 9 9", "shape 9 1")
    with pytest.raises(ConfigValueError, match=">= 2"):
        parse_config(bad2)


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("spacing 0.25", "spacing nan", 4),
        ("spacing 0.25", "spacing inf", 4),
        ("origin -1 -1", "origin nan -1", 3),
        ("origin -1 -1", "origin -1 -inf", 3),
    ],
)
def test_non_finite_grid_value_names_its_line(old, new, line):
    with pytest.raises(ConfigValueError, match=f"^line {line}: .* finite$"):
        parse_config(MINIMAL.replace(old, new))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("shape 9 9", "shape 9 9\n  spacng 0.5", "line 6: grid does not take 'spacng'"),
        ("shape 9 9", "shape 9 9 9", "line 5: grid 'shape' takes 2 values on a 2-d grid, got 3"),
        ("origin -1 -1", "origin -1", "line 5: grid 'shape' takes one value on a 1-d grid, got 2"),
    ],
)
def test_bad_grid_key_names_its_line(old, new, message):
    with pytest.raises(ConfigValueError, match=f"^{re.escape(message)}$"):
        parse_config(MINIMAL.replace(old, new))


def test_set_must_start_with_add():
    bad = MINIMAL.replace("add ball 0 0 1", "sub ball 0 0 1")
    with pytest.raises(ConfigValueError, match="must start with add"):
        parse_config(bad)


def test_unclosed_block():
    with pytest.raises(ConfigSyntaxError, match="unclosed"):
        parse_config("grid {\n  origin 0 0\n  spacing 1\n  shape 4 4\n")
