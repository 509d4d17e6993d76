import pytest

from subglue import (
    ConfigNameError,
    ConfigSyntaxError,
    ConfigValueError,
    parse_config,
    serialize_config,
)

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


def test_round_trip_rich_config():
    text = """
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
}
field base { kernel 2 0.1 -0.2 }
field lin { affine 1 -2 0.5 }
field m { max base lin }
field s { scale m 2.0 }
command glue-two {
  v s
  on A
  v0 base
  on0 B
  tol 1e-3
  cert-tol 0.05
}
"""
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


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
