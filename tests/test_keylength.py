import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from qlimits import keylength
from qlimits.constants import HBAR
from qlimits.errors import DomainError
from qlimits.keylength import (
    PLANCK_PARAMS,
    CosmologyParams,
    build_report,
    classical_keylength,
    cosmic_energy,
    equivalent_quantum_keylength,
    max_deterministic_keylength,
    max_recoverable_keylength,
    quantum_requirement_sandwich,
    solar_budget,
)
from qlimits.bounds import landauer_energy, margolus_levitin_energy
from qlimits.scenarios import SCENARIOS, Scenario

YEAR = 3.15576e7


class TestQuantumKeylength:
    def test_table_values(self):
        assert equivalent_quantum_keylength(1e16, 5 * YEAR, 1e-2) == 394
        assert equivalent_quantum_keylength(8e43, 5e9 * YEAR, 3e-11) == 667
        assert equivalent_quantum_keylength(4.6e69, 1e14 * YEAR, 1e-12) == 872

    def test_hand_evaluated_budget(self):
        # W t / hbar = 1e6 exactly -> ceil(2 log2 1e6) = 40
        assert equivalent_quantum_keylength(HBAR * 1e6, 1.0, 1.0) == 40

    def test_monotone(self):
        base = equivalent_quantum_keylength(1e10, 1e6, 1e-3)
        assert equivalent_quantum_keylength(1e12, 1e6, 1e-3) >= base
        assert equivalent_quantum_keylength(1e10, 1e8, 1e-3) >= base
        assert equivalent_quantum_keylength(1e10, 1e6, 1e-1) <= base

    @given(
        st.floats(min_value=1e-5, max_value=1e50),
        st.floats(min_value=1e-3, max_value=1e20),
        st.floats(min_value=1e-30, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_secure_exceeds_recoverable_by_at_most_one(self, work, time, p):
        secure = equivalent_quantum_keylength(work, time, p)
        recoverable = max_recoverable_keylength(work, time, p)
        assert secure - recoverable in (0, 1)

    @given(
        st.floats(min_value=1e-5, max_value=1e40),
        st.floats(min_value=1e-3, max_value=1e15),
        st.floats(min_value=1e-20, max_value=0.5),
        st.floats(min_value=1.1, max_value=100.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_monotone_property(self, work, time, p, factor):
        base = equivalent_quantum_keylength(work, time, p)
        assert equivalent_quantum_keylength(work * factor, time, p) >= base
        assert equivalent_quantum_keylength(work, time * factor, p) >= base
        assert equivalent_quantum_keylength(work, time, min(p * factor, 1.0)) <= base

    def test_sandwich_property(self):
        for sc in SCENARIOS.values():
            at_n, below_n = quantum_requirement_sandwich(sc)
            assert at_n > sc.work >= below_n * (1.0 - 1e-12)


class TestRecoverableAndDeterministic:
    def test_cosmic_recoverable(self):
        assert max_recoverable_keylength(4.62e69, 1e14 * YEAR, 1e-12) == 871

    def test_cosmic_deterministic(self):
        assert max_deterministic_keylength(4.62e69, 1e14 * YEAR) == 830

    def test_exact_power_of_two_budget(self):
        # W t / hbar = sqrt(3) -> n = log2(4) = 2 exactly
        assert max_recoverable_keylength(math.sqrt(3.0) * HBAR, 1.0, 1.0) == 2

    def test_deterministic_three_halves_pi(self):
        # W t = (3 pi / 2) hbar -> sqrt(2^n) = 2 -> n = 2
        assert max_deterministic_keylength(1.5 * math.pi * HBAR, 1.0) == 2

    def test_deterministic_too_small_returns_zero(self):
        assert max_deterministic_keylength(HBAR, 1.0) == 0

    def test_deterministic_scaling(self):
        base = max_deterministic_keylength(1e-10, 1e3)
        doubled = max_deterministic_keylength(2e-10, 2e3)
        assert doubled - base in (3, 4, 5)  # ~ 2*log2(4) = 4 bits

    def test_deterministic_finite_where_work_times_time_overflows(self):
        # W t = 1e600 is past double range; log2(2 W t / (pi hbar)) is not,
        # and at that size sqrt(2^n) = y - 1 is y to double precision
        log2_y = math.log2(2.0 / (math.pi * HBAR)) + 2.0 * math.log2(1e300)
        bits = max_deterministic_keylength(1e300, 1e300)
        assert bits == math.floor(2.0 * log2_y)
        assert bits <= max_recoverable_keylength(1e300, 1e300, 1.0)

    def test_deterministic_never_exceeds_recoverable(self):
        for w, t in [(1e-6, 1.0), (1e3, 1e7), (4.62e69, 1e14 * YEAR)]:
            assert max_deterministic_keylength(w, t) <= max_recoverable_keylength(w, t, 1.0)

    # log2 y = log2(2 W t / (pi hbar)) from just above 1, where y - 1 is near 1, to 2000
    @pytest.mark.parametrize("log2_y", [1.0 + 2.0 ** -40, 1.0 + 1e-6, 1.001, 1.1, 1.5, 2.0,
                                        10.0, 60.0, 400.0, 2000.0])
    def test_deterministic_bits_equal_mpmath(self, monkeypatch, log2_y):
        # the real bits before rounding down, against 2 log2(y - 1) at 50 digits
        monkeypatch.setattr(keylength, "floor_tol", lambda bits: bits)
        work, time = math.pi * HBAR / 2.0 * 2.0 ** (log2_y / 2.0), 2.0 ** (log2_y / 2.0)
        bits = max_deterministic_keylength(work, time)
        with mpmath.workdps(50):
            y = 2 * mpmath.mpf(work) * mpmath.mpf(time) / (mpmath.pi * mpmath.mpf(HBAR))
            exact = float(2 * mpmath.log(y - 1, 2))
        assert abs(bits - exact) <= 1e-13 * max(1.0, abs(exact))


class TestClassicalKeylength:
    def test_datacenter_pairing(self):
        bits = classical_keylength(1e16, 5 * YEAR, 300.0, 1e-2)
        assert abs(bits - 128) <= 1

    def test_dyson_pairing(self):
        bits = classical_keylength(8e43, 5e9 * YEAR, 2.7, 3e-11)
        assert abs(bits - 256) <= 1

    def test_constructed_budget(self):
        # budget exactly equal to the n=10 requirement -> smallest n beyond it
        t, temp = 1.0, 300.0
        budget = 2.0**10 * (landauer_energy(temp) + margolus_levitin_energy(t)) + (
            20 * landauer_energy(temp)
        )
        assert classical_keylength(budget, t, temp, 1.0) == 10

    def test_below_floor_returns_zero(self):
        assert classical_keylength(1e-25, 1.0, 300.0, 0.5) == 0


class TestCosmicEnergy:
    def test_planck_from_omega(self):
        value = cosmic_energy(PLANCK_PARAMS, "fromOmega")
        assert value == pytest.approx(4.62e69, rel=5e-3)

    def test_density_and_omega_forms_agree(self):
        from_density = cosmic_energy(PLANCK_PARAMS, "fromDensity")
        from_omega = cosmic_energy(PLANCK_PARAMS, "fromOmega")
        assert from_density == pytest.approx(from_omega, rel=2e-2)

    def test_vanishes_as_dark_energy_dominates(self):
        params = CosmologyParams.from_km_s_mpc(67.36, 1.0 - 1e-12)
        assert cosmic_energy(params, "fromOmega") < 1e60

    def test_density_requires_rho(self):
        params = CosmologyParams.from_km_s_mpc(67.36, 0.6847)
        with pytest.raises(DomainError):
            cosmic_energy(params, "fromDensity")

    def test_h0_unit_conversion(self):
        params = CosmologyParams.from_km_s_mpc(67.36, 0.6847)
        assert params.h0 == pytest.approx(2.183e-18, rel=1e-3)


class TestReport:
    def test_three_scenario_quantum_column(self):
        rows = build_report(list(SCENARIOS.values()))
        by_name = {r.scenario.name: r for r in rows}
        assert by_name["datacenter"].quantum_secure_bits == 394
        assert by_name["dyson"].quantum_secure_bits == 667
        assert by_name["cosmic"].quantum_secure_bits == 872

    def test_classical_column_verified_within_one_bit(self):
        rows = build_report([SCENARIOS["datacenter"], SCENARIOS["dyson"]])
        for row in rows:
            assert row.classical_match is True
            assert row.error is None

    def test_quantum_at_least_classical(self):
        for row in build_report(list(SCENARIOS.values())):
            if row.classical_bits is not None:
                assert row.quantum_secure_bits >= row.classical_bits

    def test_empty_list(self):
        assert build_report([]) == []

    def test_custom_scenario_row(self):
        custom = Scenario("custom", HBAR * 1e6, 1.0, 300.0, 1.0)
        row = build_report([custom])[0]
        assert row.quantum_secure_bits == 40

    def test_row_errors_do_not_abort(self):
        # a corrupt row (validation bypassed) must fail in isolation
        bad = Scenario.__new__(Scenario)
        object.__setattr__(bad, "name", "corrupt")
        object.__setattr__(bad, "work", 1e16)
        object.__setattr__(bad, "duration", 1.0)
        object.__setattr__(bad, "temperature", 300.0)
        object.__setattr__(bad, "success_probability", 2.0)  # out of range
        object.__setattr__(bad, "classical_key_bits", None)
        rows = build_report([bad, SCENARIOS["datacenter"]])
        assert rows[0].error is not None
        assert rows[0].quantum_secure_bits is None
        assert rows[1].error is None
        assert rows[1].quantum_secure_bits == 394

    def test_solar_budget_alternative(self):
        dyson = SCENARIOS["dyson"]
        alt = solar_budget(dyson.duration)
        assert alt == pytest.approx(3.828e26 * 5e9 * YEAR, rel=1e-12)
        assert alt < dyson.work  # tabulated budget is the more generous one


def test_cosmic_energy_refuses_an_unknown_form():
    with pytest.raises(DomainError, match="form must be 'fromOmega' or 'fromDensity'"):
        cosmic_energy(PLANCK_PARAMS, "fromMass")


class TestReportRows:
    def test_a_qlimits_error_becomes_row_text(self, monkeypatch):
        def refuse(*_):
            raise DomainError("refused", None)
        monkeypatch.setattr(keylength, "classical_keylength", refuse)
        row = build_report([SCENARIOS["datacenter"]])[0]
        assert (row.error, row.quantum_secure_bits) == ("DomainError: refused", None)

    def test_a_programming_error_is_not_caught(self, monkeypatch):
        def broken(*_):
            raise ZeroDivisionError("a defect, not a refusal")
        monkeypatch.setattr(keylength, "classical_keylength", broken)
        with pytest.raises(ZeroDivisionError):
            build_report([SCENARIOS["datacenter"]])
