import pathlib

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
        ("capacity", "mode fekete", "mode a b", "mode"),
        ("capacity", "n 8", "n 4.5", "n"),
    ],
)
def test_malformed_value_names_its_key(command, old, new, key):
    text = RICH_COMMANDS[command]
    assert old in text
    with pytest.raises(ConfigValueError, match=f"^key {key!r} "):
        parse_config(RICH_SCENE + text.replace(old, new))


def test_rich_commands_cover_every_kind():
    kinds = {"set", "field", "num", "int", "point", "circle", "word"}
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


def test_set_must_start_with_add():
    bad = MINIMAL.replace("add ball 0 0 1", "sub ball 0 0 1")
    with pytest.raises(ConfigValueError, match="must start with add"):
        parse_config(bad)


def test_unclosed_block():
    with pytest.raises(ConfigSyntaxError, match="unclosed"):
        parse_config("grid {\n  origin 0 0\n  spacing 1\n  shape 4 4\n")
