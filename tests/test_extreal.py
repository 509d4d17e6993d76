import math

import numpy as np
import pytest

from subglue import ExtReal, MINUS_INF, PLUS_INF, UndefinedOperation


def test_total_order():
    assert MINUS_INF < ExtReal(-1e300) < ExtReal(0.0) < ExtReal(1e300) < PLUS_INF
    assert MINUS_INF <= MINUS_INF
    assert PLUS_INF <= PLUS_INF
    assert MINUS_INF < 0 < PLUS_INF


def test_comparisons_against_plain_numbers():
    assert ExtReal(2.0) == 2
    assert ExtReal(2.0) == 2.0
    assert 1 < ExtReal(2.0) <= 2.0


def test_positive_times_infinity():
    assert ExtReal(3.0) * PLUS_INF == PLUS_INF
    assert ExtReal(3.0) * MINUS_INF == MINUS_INF
    assert ExtReal(-3.0) * PLUS_INF == MINUS_INF
    assert PLUS_INF * PLUS_INF == PLUS_INF
    assert MINUS_INF * MINUS_INF == PLUS_INF


def test_zero_times_infinity_is_zero():
    assert ExtReal(0.0) * PLUS_INF == 0.0
    assert ExtReal(0.0) * MINUS_INF == 0.0
    assert PLUS_INF * ExtReal(0.0) == 0.0
    assert 0 * MINUS_INF == ExtReal(0.0)


def test_finite_over_infinity_is_zero():
    assert ExtReal(5.0) / PLUS_INF == 0.0
    assert ExtReal(-5.0) / MINUS_INF == 0.0


def test_undefined_forms_raise():
    with pytest.raises(UndefinedOperation):
        PLUS_INF + MINUS_INF
    with pytest.raises(UndefinedOperation):
        PLUS_INF - PLUS_INF
    with pytest.raises(UndefinedOperation):
        PLUS_INF / MINUS_INF


def test_absorbing_addition():
    assert ExtReal(7.0) + MINUS_INF == MINUS_INF
    assert PLUS_INF + 7 == PLUS_INF


def test_nan_rejected():
    with pytest.raises(ValueError):
        ExtReal(math.nan)


def test_float_conversion_and_finiteness():
    assert float(ExtReal(1.5)) == 1.5
    assert not math.isfinite(MINUS_INF)
    assert math.isfinite(ExtReal(0.0))


def test_immutability():
    x = ExtReal(1.0)
    with pytest.raises(AttributeError):
        x.value = 2.0


def test_numpy_scalars_defer_to_the_conventions():
    assert np.float64(0.0) * PLUS_INF == 0.0
    with pytest.raises(UndefinedOperation):
        np.float64(np.inf) + MINUS_INF


def test_arrays_of_extreals_are_float_arrays():
    assert np.asarray([MINUS_INF, ExtReal(1.0)]).dtype == np.float64


def test_zero_is_falsy():
    assert not ExtReal(0.0)
    assert MINUS_INF


def test_arrays_refuse_extreal_operands():
    # No object array of ExtReals: the caller takes float(x) for an array op.
    with pytest.raises(TypeError):
        np.ones(2) * PLUS_INF
