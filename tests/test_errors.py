"""The one number check: what check_number takes, refuses and says; and the
type check of the entries that take a volume, a transform, a frame or a
configuration."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from volkey.descriptors import extract_features
from volkey.errors import BELOW_ONE, FINITE, POSITIVE, RejectedInputError, check_number
from volkey.evaluation import evaluate
from volkey.frames import enumerate_states
from volkey.io import write_features
from volkey.matching import MATCH_DTYPE, hough_init
from volkey.registration import register
from volkey.transforms import SimilarityTransform
from volkey.volume import ScalarVolume, resample, to_isotropic


@pytest.mark.parametrize(
    "value", [True, False, np.True_, None, "1.5", 1j, [1.0], (1.0,), np.array(1.0), object()]
)
def test_a_real_number_is_no_bool_string_container_or_complex(value):
    with pytest.raises(RejectedInputError, match="^w must be of type float, got "):
        check_number("w", value)


@pytest.mark.parametrize("value", [1.0, 2.5, np.float64(3.0), np.float32(1.0), Fraction(1, 1), True])
def test_an_integer_is_no_real_number_or_bool(value):
    with pytest.raises(RejectedInputError, match="^n must be of type int, got "):
        check_number("n", value, int)


@pytest.mark.parametrize(
    "value, kind",
    [
        (3, int), (np.int64(3), int), (np.uint8(3), int), (3, float), (2.5, float),
        (np.float32(0.5), float), (np.float64(0.5), float), (Fraction(1, 3), float),
    ],
)
def test_a_number_comes_back_as_given(value, kind):
    assert check_number("v", value, kind) is value


def test_none_passes_only_when_optional():
    assert check_number("n", None, int, lo=1, optional=True) is None
    with pytest.raises(RejectedInputError, match="^n must be of type int"):
        check_number("n", None, int, lo=1)


@given(
    value=st.one_of(st.floats(), st.integers(-(2**70), 2**70)),
    bounds=st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
)
def test_the_range_is_closed_and_holds_no_nan(value, bounds):
    lo, hi = sorted(bounds)
    if lo <= value <= hi:
        assert check_number("v", value, lo=lo, hi=hi) is value
    else:
        with pytest.raises(RejectedInputError, match="^v must be "):
            check_number("v", value, lo=lo, hi=hi)


def test_bounds_compare_exactly_whatever_the_value_type():
    # numpy would cast FINITE to float32, where it overflows to inf
    with pytest.raises(RejectedInputError):
        check_number("v", np.float32(np.inf), hi=FINITE)
    assert check_number("v", np.float32(3e38), hi=FINITE) == np.float32(3e38)
    # an int past the largest float is compared, not converted
    with pytest.raises(RejectedInputError):
        check_number("v", 10**400, hi=FINITE)
    with pytest.raises(RejectedInputError):
        check_number("v", np.int64(2**62), int, hi=2**62 - 1)


def test_open_ranges_are_closed_at_the_nearest_float():
    assert check_number("v", POSITIVE, lo=POSITIVE) == 5e-324
    assert check_number("v", BELOW_ONE, hi=BELOW_ONE) < 1.0
    for value, lo, hi in ((0.0, POSITIVE, math.inf), (1.0, 0.0, BELOW_ONE), (math.inf, 0.0, FINITE)):
        with pytest.raises(RejectedInputError):
            check_number("v", value, lo=lo, hi=hi)


@pytest.mark.parametrize(
    "args, message",
    [
        (("seed", -1, int, 0), "seed must be a nonnegative integer, got -1"),
        (("count", 0, int, 1), "count must be a positive integer, got 0"),
        (("k", 0.0, float, POSITIVE, FINITE), "k must be a positive finite number, got 0.0"),
        (("r", math.nan, float, 0.0, FINITE), "r must be a nonnegative finite number, got nan"),
        (("w", 1.0, float, 0.0, BELOW_ONE), "w must be a number in [0.0, 0.9999999999999999], got 1.0"),
        (("n", 9, int, 1, 3), "n must be an integer in [1, 3], got 9"),
    ],
)
def test_the_message_names_the_argument_and_its_range(args, message):
    with pytest.raises(RejectedInputError) as info:
        check_number(*args)
    assert str(info.value) == message


_VOLUME = ScalarVolume((8, 8, 8), (1.0, 1.0, 2.0), (0.0, 0.0, 0.0), np.zeros((8, 8, 8)))
_PROBES = np.zeros((1, 3))


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: resample(None, SimilarityTransform()), "volume", id="resample-volume"),
        pytest.param(lambda: resample(_VOLUME, None), "t", id="resample-transform"),
        pytest.param(lambda: to_isotropic(None), "volume", id="to_isotropic"),
        pytest.param(lambda: extract_features(None), "volume", id="extract_features"),
        pytest.param(lambda: evaluate(None, SimilarityTransform(), _PROBES), "t_est", id="evaluate-est"),
        pytest.param(lambda: evaluate(SimilarityTransform(), None, _PROBES), "t_gt", id="evaluate-gt"),
        pytest.param(lambda: enumerate_states(None), "base", id="enumerate_states"),
    ],
)
def test_none_for_an_object_argument_is_rejected(call, name):
    # each raised a bare AttributeError
    with pytest.raises(RejectedInputError, match=f"^{name} must be a [A-Za-z]+, got NoneType$"):
        call()


@pytest.mark.parametrize(
    "call, name, kind",
    [
        pytest.param(
            lambda cfg, tmp: extract_features(_VOLUME, cfg), "config", "ExtractionConfig",
            id="extract_features",
        ),
        pytest.param(
            lambda cfg, tmp: register([], [], cfg), "config", "RegistrationConfig", id="register"
        ),
        pytest.param(
            lambda cfg, tmp: hough_init(np.zeros(0, MATCH_DTYPE), cfg), "params", "HoughParams",
            id="hough_init",
        ),
        pytest.param(
            lambda cfg, tmp: write_features(tmp / "f.vkf", [], config=cfg), "config",
            "ExtractionConfig", id="write_features",
        ),
    ],
)
@pytest.mark.parametrize("config", [{"w": 0.2}, "sift_cpd"], ids=["dict", "str"])
def test_a_configuration_must_be_its_dataclass(call, name, kind, config, tmp_path):
    # a config file's section is a dict: each raised a bare AttributeError or TypeError
    got = type(config).__name__
    with pytest.raises(RejectedInputError, match=f"^{name} must be a {kind}, got {got}$"):
        call(config, tmp_path)
    assert not (tmp_path / "f.vkf").exists()
