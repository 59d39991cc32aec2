import math

import pytest
from hypothesis import given, strategies as st

from qlimits import CODATA2018, constants_table, parse_duration, format_duration, scenario
from qlimits.constants import PhysicalConstants
from qlimits.errors import DomainError, ParseError, ScenarioLookupError
from qlimits.scenarios import SCENARIOS

YEAR = 3.15576e7


def test_h_is_two_pi_hbar():
    assert abs(CODATA2018.h - 2.0 * math.pi * CODATA2018.hbar) <= 1e-12 * CODATA2018.h


def test_all_constants_positive():
    for name, value in CODATA2018.as_dict().items():
        assert value > 0.0, name


def test_hbar_matches_codata_print():
    # the tabulated ten-figure value
    assert abs(CODATA2018.hbar - 1.054571817e-34) < 1e-43


def test_constants_table_versioned():
    table = constants_table()
    assert table["constants_version"]
    assert table["k_B_J_per_K"] == 1.380649e-23


def test_constants_json_document():
    import json

    from qlimits import constants_json

    doc = json.loads(constants_json())
    assert doc["constants_version"] == constants_table()["constants_version"]
    assert doc["hbar_J_s"] == CODATA2018.hbar


@pytest.mark.parametrize(
    "text,expected",
    [
        ("5a", 5 * YEAR),          # 1.57788e8
        ("100Ta", 1e14 * YEAR),    # 3.15576e21
        ("1.5s", 1.5),
        ("5Ga", 5e9 * YEAR),
        ("2e3s", 2000.0),
    ],
)
def test_parse_duration(text, expected):
    assert parse_duration(text) == expected


@pytest.mark.parametrize("bad", ["5", "5 parsec", "x2a", "-3a", "", "3h", "5aa",
                                 "1e300Ta", "1e999s"])  # the last two overflow to inf
def test_parse_duration_rejects(bad):
    with pytest.raises(ParseError):
        parse_duration(bad)


def test_parse_error_names_token():
    with pytest.raises(ParseError) as err:
        parse_duration("12q")
    assert "12q" in str(err.value)


@given(st.floats(min_value=1e-6, max_value=1e30, allow_nan=False, allow_infinity=False))
def test_duration_round_trip(seconds):
    assert parse_duration(format_duration(seconds)) == seconds


def test_format_prefers_natural_units():
    assert format_duration(5 * YEAR).endswith("a")
    assert format_duration(1.5) == "1.5s"


def test_registry_matches_tabulated_cells():
    dc = scenario("datacenter")
    assert (dc.work, dc.duration, dc.temperature, dc.success_probability) == (
        1e16, 5 * YEAR, 300.0, 1e-2)
    assert dc.classical_key_bits == 128
    dy = scenario("dyson")
    assert (dy.work, dy.duration, dy.temperature, dy.success_probability) == (
        8e43, 5e9 * YEAR, 2.7, 3e-11)
    assert dy.classical_key_bits == 256
    co = scenario("cosmic")
    assert (co.work, co.duration, co.temperature, co.success_probability) == (
        4.6e69, 1e14 * YEAR, 2.7, 1e-12)
    assert co.classical_key_bits is None


def test_unknown_scenario_lists_names():
    with pytest.raises(ScenarioLookupError) as err:
        scenario("moonbase")
    message = str(err.value)
    for name in SCENARIOS:
        assert name in message
    # the message itself: KeyError's str once added quotes around it
    assert isinstance(err.value, KeyError)
    assert message == "unknown scenario 'moonbase'; valid names: ['cosmic', 'datacenter', 'dyson']"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, -math.inf, "5", None, 10**400],
                         ids=["nan", "inf", "negative", "-inf", "text", "None", "int-past-double"])
def test_format_refuses_all_but_a_finite_number_at_least_zero(bad):
    # nan once formatted as 'nans', which cannot be parsed back; inf and "5"
    # raised a ParseError about 'infTa' and a raw TypeError
    with pytest.raises(ParseError, match="duration must be a finite number >= 0"):
        format_duration(bad)


@pytest.mark.parametrize("seconds", [0.0, 5, True, 5e-324, 1.7976931348623157e308])
def test_format_round_trips_at_the_ends(seconds):
    assert parse_duration(format_duration(seconds)) == seconds


def test_parse_refuses_a_number():
    with pytest.raises(ParseError, match="duration must be a string, got 5"):
        parse_duration(5)


def test_inconsistent_h_and_hbar_is_a_domain_error():
    with pytest.raises(DomainError, match="h and hbar are inconsistent") as raised:
        PhysicalConstants(hbar=1e-34).validate()
    assert isinstance(raised.value, ValueError)
    assert raised.value.offending_input == (CODATA2018.h, 1e-34)

