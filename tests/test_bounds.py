import dataclasses
import math
import pickle
import random
import sys
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlimits.bht import bht_work_closed_form, optimal_quantum_time
from qlimits.bounds import (
    BoundQuery,
    BoundResult,
    _classical_requirement_log2,
    ballistic_deterministic_time,
    ballistic_success,
    battery_relative_uncertainty,
    classical_bound,
    classical_work_requirement,
    gate_bound,
    init_readout_work,
    landauer_energy,
    margolus_levitin_energy,
    optimal_k,
    prefactor_b,
    quantum_bound,
    quantum_work_requirement,
    work_floor,
)
from qlimits.constants import H, HBAR, K_B
from qlimits.errors import DomainError, InfeasibleError, QlimitsError
from qlimits.keylength import equivalent_quantum_keylength, max_recoverable_keylength

YEAR = 3.15576e7
LN2 = math.log(2.0)


class TestEnergyScales:
    def test_landauer_zero_temperature(self):
        assert landauer_energy(0.0) == 0.0

    def test_landauer_room_temperature(self):
        assert landauer_energy(300.0) == pytest.approx(K_B * 300.0 * LN2, rel=1e-15)
        assert landauer_energy(300.0) == pytest.approx(2.870979e-21, rel=1e-6)

    def test_landauer_cmb(self):
        assert landauer_energy(2.7) == pytest.approx(2.583880e-23, rel=1e-6)

    def test_margolus_levitin(self):
        assert margolus_levitin_energy(1.0) == pytest.approx(H / 4.0, rel=1e-15)
        assert margolus_levitin_energy(1.0) == pytest.approx(1.656518e-34, rel=1e-6)
        assert margolus_levitin_energy(1e-9) == pytest.approx(1.656518e-25, rel=1e-6)
        assert margolus_levitin_energy(1e12) < 1e-45


class TestClassicalBound:
    def test_datacenter_success_probability(self):
        result = classical_bound(
            BoundQuery(unknown="psuccess", n=128, work=1e16, time=5 * YEAR,
                       temperature=300.0)
        )
        assert 0.8e-2 <= result.value <= 1.2e-2
        # direct-evaluation oracle
        oracle = (1e16 - 256 * landauer_energy(300.0)) / (
            2.0**128 * (landauer_energy(300.0) + H / (4 * 5 * YEAR))
        )
        assert result.value == pytest.approx(oracle, rel=1e-12)

    def test_dyson_success_probability(self):
        result = classical_bound(
            BoundQuery(unknown="psuccess", n=256, work=8e43, time=5e9 * YEAR,
                       temperature=2.7)
        )
        assert 2e-11 <= result.value <= 3e-11

    def test_work_at_zero_probability_limit(self):
        # P_s -> 0 leaves only the 2n E_L initialization term
        tiny = classical_work_requirement(64, 1.0, 300.0, 1e-300)
        assert tiny == pytest.approx(128 * landauer_energy(300.0), rel=1e-9)

    def test_infeasible_below_floor(self):
        with pytest.raises(InfeasibleError) as err:
            classical_bound(
                BoundQuery(unknown="psuccess", n=128, work=1e-22, time=1.0,
                           temperature=300.0)
            )
        assert err.value.floor == pytest.approx(256 * landauer_energy(300.0), rel=1e-12)

    def test_solve_time_round_trip_pure_speed_limit(self):
        # T = 0: the requirement is purely the speed-limit term, exactly invertible
        work = classical_work_requirement(40, 123.0, 0.0, 0.3)
        back = classical_bound(
            BoundQuery(unknown="time", n=40, work=work, temperature=0.0,
                       success_probability=0.3)
        )
        assert back.value == pytest.approx(123.0, rel=1e-10)

    def test_solve_time_round_trip_mixed_terms(self):
        # choose t near h/(4 E_L) so both terms matter and t stays identifiable
        temp = 1.0
        t0 = H / (4.0 * landauer_energy(temp))
        work = classical_work_requirement(40, t0, temp, 0.3)
        back = classical_bound(
            BoundQuery(unknown="time", n=40, work=work, temperature=temp,
                       success_probability=0.3)
        )
        assert back.value == pytest.approx(t0, rel=1e-9)

    def test_solve_n_round_trip(self):
        query = BoundQuery(unknown="work", n=97, time=5.0, temperature=300.0,
                           success_probability=1e-3)
        work = classical_bound(query).value
        back = classical_bound(
            BoundQuery(unknown="n", work=work, time=5.0, temperature=300.0,
                       success_probability=1e-3)
        )
        assert back.value == pytest.approx(97.0, rel=1e-10)

    def test_power_form_equivalence(self):
        t = classical_bound(
            BoundQuery(unknown="time", n=30, power=2.5, temperature=300.0,
                       success_probability=0.5)
        ).value
        work = classical_bound(
            BoundQuery(unknown="work", n=30, time=t, temperature=300.0,
                       success_probability=0.5)
        ).value
        assert work == pytest.approx(2.5 * t, rel=1e-9)

    def test_requires_temperature(self):
        with pytest.raises(DomainError):
            classical_bound(BoundQuery(unknown="work", n=8, time=1.0,
                                       success_probability=0.5))

    def test_monotonicity_bulk(self):
        rng = np.random.default_rng(23)
        for _ in range(10_000):
            n = float(rng.uniform(2, 500))
            t = float(10.0 ** rng.uniform(-9, 9))
            temp = float(rng.uniform(0.1, 400.0))
            p = float(10.0 ** rng.uniform(-20, 0))
            w = classical_work_requirement(n, t, temp, p)
            e_l = landauer_energy(temp)
            per_guess = 2.0 ** (n + math.log2(p)) * (e_l + H / (4.0 * t))
            assert classical_work_requirement(n + 1.0, t, temp, p) > w
            # monotone in t and p always; strict only where the change is
            # resolvable against the dominant terms in double precision
            slower = classical_work_requirement(n, 2.0 * t, temp, p)
            assert slower <= w
            if 2.0 ** (n + math.log2(p)) * H / (8.0 * t) > 1e-12 * w:
                assert slower < w
            if p * 1.2 <= 1.0:
                likelier = classical_work_requirement(n, t, temp, p * 1.2)
                assert likelier >= w
                if 0.2 * per_guess > 1e-12 * w:
                    assert likelier > w

    def test_all_unknowns_round_trip(self):
        rng = np.random.default_rng(31)
        temp = 0.0  # keep time identifiable: pure speed-limit regime
        for _ in range(100):
            n = float(rng.uniform(4, 200))
            t = float(10.0 ** rng.uniform(-3, 6))
            p = float(10.0 ** rng.uniform(-10, 0))
            w = classical_work_requirement(n, t, temp, p)
            got_p = classical_bound(
                BoundQuery(unknown="psuccess", n=n, work=w, time=t, temperature=temp)
            ).value
            assert got_p == pytest.approx(p, rel=1e-10)
            got_t = classical_bound(
                BoundQuery(unknown="time", n=n, work=w, temperature=temp,
                           success_probability=p)
            ).value
            assert got_t == pytest.approx(t, rel=1e-10)


class TestQuantumBound:
    def test_offset_regime_flagged(self):
        result = quantum_bound(
            BoundQuery(unknown="work", n=10, time=1.0, success_probability=2.0**-10)
        )
        assert result.value == 0.0
        assert result.offset_regime
        assert "offset" in result.formula_tag

    def test_two_bit_deterministic(self):
        result = quantum_bound(
            BoundQuery(unknown="work", n=2, time=1.0, success_probability=1.0)
        )
        assert result.value == pytest.approx(math.sqrt(3.0) * HBAR, rel=1e-12)

    def test_256_bit_at_65_megawatts(self):
        # power form: t = sqrt(sqrt(2^256 - 1) hbar / P) ~ 0.023 s
        result = quantum_bound(
            BoundQuery(unknown="time", n=256, power=6.5e7, success_probability=1.0)
        )
        oracle = math.sqrt(2.0**128 * HBAR / 6.5e7)
        assert result.value == pytest.approx(oracle, rel=1e-9)
        assert result.value <= 0.1

    def test_solve_n_round_trip(self):
        work, _ = quantum_work_requirement(77.0, 3.0, 1e-4)
        back = quantum_bound(
            BoundQuery(unknown="n", work=work, time=3.0, success_probability=1e-4)
        )
        assert back.value == pytest.approx(77.0, rel=1e-10)

    def test_solve_psuccess_round_trip(self):
        work, _ = quantum_work_requirement(50.0, 2.0, 1e-3)
        back = quantum_bound(
            BoundQuery(unknown="psuccess", n=50, work=work, time=2.0)
        )
        assert back.value == pytest.approx(1e-3, rel=1e-10)

    def test_monotonicity_bulk(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            n = float(rng.uniform(4, 400))
            t = float(10.0 ** rng.uniform(-6, 9))
            p = float(10.0 ** rng.uniform(-30, 0))
            if n + math.log2(p) <= 1.0:
                continue
            w, _ = quantum_work_requirement(n, t, p)
            w_n, _ = quantum_work_requirement(n + 1.0, t, p)
            w_t, _ = quantum_work_requirement(n, t * 2.0, p)
            w_p, _ = quantum_work_requirement(n, t, min(p * 1.5, 1.0))
            assert w_n > w
            assert w_t < w
            if p * 1.5 <= 1.0:
                assert w_p > w


class TestGateBound:
    def test_vanishes_with_offset_and_zero_temperature(self):
        assert gate_bound(16, 2.0**-16, 1.0, 0, 0.0) == 0.0

    def test_128_bit_deterministic_value(self):
        value = gate_bound(128, 1.0, 1.0, 0, 0.0)
        oracle = HBAR * (2.0**64 - 1.0) * (math.pi - 2.0**-63)
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(6.111e-15, rel=1e-3)

    def test_ratio_to_fundamental_approaches_pi(self):
        t = 1.0
        gate = gate_bound(200, 1.0, t, 0, 0.0)
        fundamental, _ = quantum_work_requirement(200, t, 1.0)
        assert gate / fundamental == pytest.approx(math.pi, abs=1e-6)

    def test_error_correction_charges_landauer(self):
        base = gate_bound(32, 0.5, 1.0, 0, 300.0)
        with_ec = gate_bound(32, 0.5, 1.0, 1000, 300.0)
        assert with_ec - base == pytest.approx(1000 * landauer_energy(300.0), rel=1e-9)


class TestBallistic:
    def test_probability_endpoints(self):
        assert ballistic_success(12, 1e-20, 0.0) == pytest.approx(2.0**-12, rel=1e-12)
        t_final = ballistic_deterministic_time(12, 1e-20)
        assert ballistic_success(12, 1e-20, t_final) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_beyond_deterministic_time(self):
        t_final = ballistic_deterministic_time(8, 1e-20)
        with pytest.raises(DomainError):
            ballistic_success(8, 1e-20, 1.01 * t_final)

    def test_matches_simulated_trace(self):
        from qlimits.dynamics import EffectiveState, SearchSpace, ballistic_schedule, evolve

        n = 12
        work = HBAR * 1000.0 * (1.0 + 2.0**-6)
        space = SearchSpace(n)
        schedule = ballistic_schedule(space, work)
        trace = evolve(EffectiveState.initial(space), schedule, schedule.total_duration / 333)
        for p in trace.points:
            assert ballistic_success(n, work, p.t) == pytest.approx(p.obs.p_s, abs=1e-9)

    def test_probability_where_work_time_and_sqrt_2n_overflow(self):
        # inf / inf once gave NaN: the angle is ~2^-(n/2), so P_s ~ 0
        assert ballistic_success(1.7976931348623157e308, 1e300, 1e308) == 0.0

    def test_zero_bits_time(self):
        assert ballistic_deterministic_time(0, 1.0) == pytest.approx(math.pi * HBAR, rel=1e-12)

    def test_time_halves_with_double_work(self):
        assert ballistic_deterministic_time(64, 2.0) == pytest.approx(
            ballistic_deterministic_time(64, 1.0) / 2.0, rel=1e-12
        )

    def test_128_bit_within_a_nanosecond(self):
        t_final = ballistic_deterministic_time(128, 6.5e-6)
        assert t_final == pytest.approx(4.70e-10, rel=1e-2)
        assert t_final <= 1e-9

    def test_saturates_quantum_bound_up_to_small_slack(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = float(rng.integers(4, 80))
            work = float(10.0 ** rng.uniform(-25, -15))
            t_final = ballistic_deterministic_time(n, work)
            t = float(rng.uniform(0.0, 1.0)) * t_final
            p = ballistic_success(n, work, t)
            if t == 0.0 or n + math.log2(p) <= 0.0:
                continue
            required, _ = quantum_work_requirement(n, t, p)
            assert work >= required * (1.0 - 2.0 ** (1.0 - n / 2.0)) - 1e-300


class TestPrefactor:
    def test_zero_detuning_value(self):
        for n in (4, 12, 33):
            g = 2.0 ** (-n / 2.0)
            assert prefactor_b(0.0, n) == pytest.approx(1.0 / (1.0 + g) ** 2, rel=1e-12)

    def test_optimum_near_inverse_sqrt_three_dimension(self):
        k_star = optimal_k(20)
        target = 1.0 / math.sqrt(3.0 * 2.0**20)
        assert abs(k_star - target) <= 0.2 * target
        assert prefactor_b(k_star, 20) <= 1.0 - target + 1e-6

    @pytest.mark.parametrize("n", range(1, 65))
    def test_maximum_below_one(self, n):
        assert prefactor_b(optimal_k(n), n) < 1.0

    def test_golden_section_beats_random_probes(self):
        rng = np.random.default_rng(2)
        k_star = optimal_k(24)
        best = prefactor_b(k_star, 24)
        for k in rng.uniform(0.0, 1e-2, 500):
            assert prefactor_b(float(k), 24) <= best + 1e-15


class TestWorkFloor:
    def test_single_level(self):
        for m in (2, 8, 64):
            assert work_floor([3.0], [1.0], m) == pytest.approx(3.0 * HBAR, rel=1e-12)

    def test_two_level_convergence_value(self):
        # (0.99*1 + 0.01*2^64)^(1/64) = 2 * 0.01^(1/64) * (1 + tiny)
        value = work_floor([1.0, 2.0], [math.sqrt(0.99), math.sqrt(0.01)], 64)
        oracle = 2.0 * 0.01 ** (1.0 / 64.0) * HBAR
        assert value == pytest.approx(oracle, rel=1e-6)

    def test_m2_is_rms(self):
        value = work_floor([1.0, 3.0], [math.sqrt(0.5), math.sqrt(0.5)], 2)
        assert value == pytest.approx(math.sqrt(5.0) * HBAR, rel=1e-12)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_nondecreasing_in_m(self, seed):
        rng = np.random.default_rng(seed)
        freqs = np.sort(rng.uniform(0.1, 5.0, 8))
        weights = rng.dirichlet(np.ones(8))
        amps = np.sqrt(weights)
        values = [work_floor(list(freqs), list(amps), m) for m in (2, 4, 8, 16, 32, 64, 128)]
        assert all(b >= a * (1.0 - 1e-12) for a, b in zip(values, values[1:]))

    def test_rejects_unnormalized_and_empty(self):
        with pytest.raises(DomainError):
            work_floor([1.0], [0.5], 2)
        with pytest.raises(DomainError):
            work_floor([], [], 2)
        with pytest.raises(DomainError):
            work_floor([1.0], [1.0], 3)


class TestInitReadout:
    def test_zero_temperature(self):
        assert init_readout_work(128, 0.0) == 0.0

    def test_generic_value(self):
        assert init_readout_work(128, 300.0) == pytest.approx(7.349706e-19, rel=1e-6)

    def test_known_plaintext_doubles(self):
        generic = init_readout_work(64, 300.0, "generic")
        kp = init_readout_work(64, 300.0, "knownPlaintext")
        assert kp == pytest.approx(2.0 * generic, rel=1e-12)


class TestBattery:
    def test_pure_thermal(self):
        for n_dof in (1, 100, 10_000):
            assert battery_relative_uncertainty(n_dof, 300.0, 0.0) == pytest.approx(
                math.sqrt(2.0 / n_dof), rel=1e-12
            )

    def test_scaling_slope(self):
        # potential energy proportional to N: ratio ~ N^(-1/2)
        u_per_dof = 1e-21
        ns = [10**k for k in range(2, 8)]
        ratios = [
            battery_relative_uncertainty(n, 300.0, u_per_dof * n) for n in ns
        ]
        slope = np.polyfit(np.log10(ns), np.log10(ratios), 1)[0]
        assert slope == pytest.approx(-0.5, abs=1e-6)

    def test_large_n_limit(self):
        assert battery_relative_uncertainty(10**12, 1.0, 0.0) < 2e-6


class TestQueryValidation:
    def test_unknown_field_must_be_omitted(self):
        with pytest.raises(DomainError):
            BoundQuery(unknown="work", work=1.0, n=8, time=1.0)

    def test_work_and_power_exclusive(self):
        with pytest.raises(DomainError):
            BoundQuery(unknown="time", n=8, work=1.0, power=1.0)

    def test_probability_range(self):
        with pytest.raises(DomainError):
            BoundQuery(unknown="work", n=8, time=1.0, success_probability=1.5)

    @pytest.mark.parametrize("temperature", [math.nan, math.inf, -1.0])
    def test_temperature_must_be_finite_and_non_negative(self, temperature):
        with pytest.raises(DomainError, match="temperature must be"):
            BoundQuery(unknown="work", n=8, time=1.0, temperature=temperature)
        with pytest.raises(DomainError, match="temperature must be"):
            landauer_energy(temperature)

    @pytest.mark.parametrize("call", [
        lambda n: ballistic_success(n, 1.0, 1.0),
        lambda n: ballistic_deterministic_time(n, 1.0),
        lambda n: classical_work_requirement(n, 1.0, 300.0, 1.0),
        lambda n: gate_bound(n, 1.0, 1.0),
        lambda n: init_readout_work(n, 300.0),
        lambda n: quantum_work_requirement(n, 1.0, 1.0),
        lambda n: bht_work_closed_form(n, 1.0, 300.0),
        lambda n: optimal_quantum_time(n, 2.0, 1.0, 1.0),
    ], ids=["ballistic_success", "ballistic_deterministic_time", "classical_work_requirement",
            "gate_bound", "init_readout_work", "quantum_work_requirement",
            "bht_work_closed_form", "optimal_quantum_time"])
    def test_nan_n_is_refused_with_its_value(self, call):
        # each of these returned NaN for a NaN n
        with pytest.raises(DomainError, match="n must be finite") as raised:
            call(math.nan)
        assert math.isnan(raised.value.offending_input)

    def test_result_echoes_inputs(self):
        query = BoundQuery(unknown="work", n=2, time=1.0, success_probability=1.0)
        result = quantum_bound(query)
        assert result.inputs is query
        payload = result.as_dict()
        assert payload["inputs"]["n"] == 2
        assert payload["unit"] == "J"


def _decimal_quantum_psuccess(n: int, work: float, time: float) -> float:
    """((W t / hbar)^2 + 1) / 2^n to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(work) * Decimal(time) / Decimal(HBAR)
        return float((x * x + 1) / Decimal(2) ** n)


def _decimal_classical_requirement(n: float, time: float, temperature: float, p: float):
    """2^n P_s (E_L + h/(4t)) + 2n E_L in joules, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        e_l = Decimal(K_B) * Decimal(temperature) * Decimal(2).ln()
        per_guess = e_l + Decimal(H) / (4 * Decimal(time))
        return Decimal(2) ** Decimal(n) * Decimal(p) * per_guess + 2 * Decimal(n) * e_l


class TestRecordContract:
    """BoundQuery and BoundResult are frozen dataclasses with a hand-written
    constructor; everything a dataclass gives stays as it was."""

    QUERY = BoundQuery("time", 8, None, None, 300.0, 0.5, 2.0)

    def test_field_order_and_defaults(self):
        assert [(f.name, f.default) for f in dataclasses.fields(BoundQuery)] == [
            ("unknown", dataclasses.MISSING), ("n", None), ("work", None), ("time", None),
            ("temperature", None), ("success_probability", None), ("power", None)]
        assert [(f.name, f.default) for f in dataclasses.fields(BoundResult)] == [
            ("value", dataclasses.MISSING), ("bound_kind", dataclasses.MISSING),
            ("formula_tag", dataclasses.MISSING), ("inputs", dataclasses.MISSING),
            ("unit", dataclasses.MISSING), ("offset_regime", False)]
        assert BoundQuery("work") == BoundQuery("work", None, None, None, None, None, None)
        assert BoundResult(1.0, "k", "t", self.QUERY, "s").offset_regime is False

    def test_positional_and_keyword_construction_agree(self):
        keywords = BoundQuery(unknown="time", n=8, temperature=300.0, success_probability=0.5,
                              power=2.0)
        assert keywords == self.QUERY
        assert (keywords.unknown, keywords.n, keywords.work, keywords.time, keywords.temperature,
                keywords.success_probability, keywords.power) == (
            "time", 8, None, None, 300.0, 0.5, 2.0)
        assert BoundResult(1.5, "quantum", "tag", self.QUERY, "s", True) == BoundResult(
            value=1.5, bound_kind="quantum", formula_tag="tag", inputs=self.QUERY, unit="s",
            offset_regime=True)
        with pytest.raises(TypeError):
            BoundQuery("time", 8, None, None, 300.0, 0.5, 2.0, 1.0)
        with pytest.raises(TypeError):
            BoundQuery("time", mass=1.0)
        with pytest.raises(TypeError):
            BoundQuery()
        with pytest.raises(TypeError):
            BoundResult(1.0, "quantum", "tag", self.QUERY)

    def test_repr(self):
        assert repr(self.QUERY) == (
            "BoundQuery(unknown='time', n=8, work=None, time=None, temperature=300.0, "
            "success_probability=0.5, power=2.0)")
        result = BoundResult(0.25, "quantum", "tag", BoundQuery("work", n=2), "J")
        assert repr(result) == (
            "BoundResult(value=0.25, bound_kind='quantum', formula_tag='tag', "
            "inputs=BoundQuery(unknown='work', n=2, work=None, time=None, temperature=None, "
            "success_probability=None, power=None), unit='J', offset_regime=False)")

    def test_equality_and_hash(self):
        twin = BoundQuery("time", n=8, temperature=300.0, success_probability=0.5, power=2.0)
        assert twin == self.QUERY and hash(twin) == hash(self.QUERY)
        assert twin != BoundQuery("time", n=8, temperature=300.0, success_probability=0.5,
                                  work=2.0)
        assert twin != ("time", 8, None, None, 300.0, 0.5, 2.0)
        result = BoundResult(1.0, "quantum", "tag", twin, "s")
        same = BoundResult(1.0, "quantum", "tag", self.QUERY, "s")
        assert result == same and hash(result) == hash(same)
        assert result != BoundResult(1.0, "quantum", "tag", twin, "s", True)
        assert len({twin, self.QUERY, result, same}) == 2

    def test_fields_are_frozen(self):
        result = BoundResult(1.0, "quantum", "tag", self.QUERY, "s")
        for record, name in ((self.QUERY, "n"), (self.QUERY, "extra"), (result, "value")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        assert self.QUERY.n == 8 and result.value == 1.0

    def test_pickle_round_trip(self):
        result = BoundResult(1.0, "quantum", "tag", self.QUERY, "s", True)
        for record in (self.QUERY, result):
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record and type(copy) is type(record)
            assert repr(copy) == repr(record)

    def test_replace_runs_the_checks_again(self):
        assert dataclasses.replace(self.QUERY, n=16) == BoundQuery(
            "time", n=16, temperature=300.0, success_probability=0.5, power=2.0)
        with pytest.raises(DomainError, match="n must be finite and > 0"):
            dataclasses.replace(self.QUERY, n=-1.0)
        with pytest.raises(DomainError, match="give either work or power"):
            dataclasses.replace(self.QUERY, work=1.0)
        with pytest.raises(DomainError, match="field 'time' is the unknown"):
            dataclasses.replace(self.QUERY, time=1.0)
        result = BoundResult(1.0, "quantum", "tag", self.QUERY, "s")
        assert dataclasses.replace(result, offset_regime=True).offset_regime is True


_UNKNOWN_RULE = "unknown must be one of ['n', 'psuccess', 'time', 'work']"
_NAN = math.nan


# (fields, message, offending input): every refusal of the BoundQuery
# constructor, each a DomainError; a query offending twice names the first
# rule it breaks, in the order unknown, omitted unknown, work with power, n,
# work, time, power, power * time, temperature, success probability
QUERY_REFUSALS = [
    (dict(unknown="mass", work=1.0), _UNKNOWN_RULE, "mass"),
    (dict(unknown=3), _UNKNOWN_RULE, 3),
    (dict(unknown="bogus", work=-1.0, power=1.0), _UNKNOWN_RULE, "bogus"),
    (dict(unknown=["work"]), _UNKNOWN_RULE, ["work"]),  # unhashable
    (dict(unknown="work", work=1.0), "field 'work' is the unknown and must be omitted", 1.0),
    (dict(unknown="time", time=1.0), "field 'time' is the unknown and must be omitted", 1.0),
    (dict(unknown="psuccess", success_probability=1.0),
     "field 'psuccess' is the unknown and must be omitted", 1.0),
    (dict(unknown="n", n=1.0), "field 'n' is the unknown and must be omitted", 1.0),
    (dict(unknown="work", work=1.0, power=1.0),
     "field 'work' is the unknown and must be omitted", 1.0),
    (dict(unknown="psuccess", success_probability=2.0, temperature=-1.0),
     "field 'psuccess' is the unknown and must be omitted", 2.0),
    (dict(unknown="time", n=8, work=1.0, power=1.0), "give either work or power, not both",
     "BoundQuery(unknown='time', n=8, work=1.0, time=None, temperature=None, "
     "success_probability=None, power=1.0)"),
    (dict(unknown="time", work=_NAN, power=1.0), "give either work or power, not both",
     "BoundQuery(unknown='time', n=None, work=nan, time=None, temperature=None, "
     "success_probability=None, power=1.0)"),
    *[(dict(unknown="work" if field == "n" else "n", **{field: value}),
       f"{field} must be finite and > 0", value)
      for field in ("n", "work", "time", "power") for value in (0.0, -1.0, _NAN, math.inf)],
    *[(dict(unknown="work" if field == "n" else "n", **{field: "8"}),
       f"{field} must be a real number", "8") for field in ("n", "work", "time", "power")],
    *[(dict(unknown="work", temperature=value), "temperature must be finite and >= 0", value)
      for value in (-1.0, _NAN, math.inf)],
    (dict(unknown="work", temperature="8"), "temperature must be a real number", "8"),
    *[(dict(unknown="work", success_probability=value),
       "success probability must lie in (0, 1]", value)
      for value in (0.0, -1.0, _NAN, math.inf, 2.0)],
    (dict(unknown="work", success_probability="8"),
     "success probability must be a real number", "8"),
    (dict(unknown="n", power=1e200, time=1e200), "power * time must be finite and > 0",
     math.inf),
    (dict(unknown="n", power=1e-200, time=1e-200), "power * time must be finite and > 0", 0.0),
    (dict(unknown="time", n=-1.0, work=_NAN), "n must be finite and > 0", -1.0),
    (dict(unknown="n", time=-1.0, power=_NAN), "time must be finite and > 0", -1.0),
    (dict(unknown="n", power=_NAN, time=1.0, temperature=-1.0),
     "power must be finite and > 0", _NAN),
    (dict(unknown="n", power=1e200, time=1e200, temperature=-1.0),
     "power * time must be finite and > 0", math.inf),
    (dict(unknown="work", temperature=-1.0, success_probability=2.0),
     "temperature must be finite and >= 0", -1.0),
]


class TestQueryRefusals:
    @pytest.mark.parametrize("fields, message, offending", QUERY_REFUSALS,
                             ids=[repr(row[0]) for row in QUERY_REFUSALS])
    def test_refusal(self, fields, message, offending):
        with pytest.raises(QlimitsError) as raised:
            BoundQuery(**fields)
        assert type(raised.value) is DomainError
        assert str(raised.value) == message
        got = raised.value.offending_input
        if isinstance(got, BoundQuery):
            assert repr(got) == offending
        elif isinstance(offending, float) and math.isnan(offending):
            assert math.isnan(got)
        else:
            assert type(got) is type(offending) and got == offending

    def test_temperature_zero_is_accepted(self):
        assert BoundQuery("work", temperature=0.0).temperature == 0.0


class TestSolvedProbabilityRange:
    @pytest.mark.parametrize("kind", ["quantum", "classical"])
    def test_budget_past_certainty_raises_domain(self, kind):
        query = BoundQuery(unknown="psuccess", n=10, work=1e10, time=1.0, temperature=300.0)
        solve = quantum_bound if kind == "quantum" else classical_bound
        with pytest.raises(DomainError, match="requirement for P_s = 1"):
            solve(query)

    def test_power_form_past_certainty_raises_domain(self):
        with pytest.raises(DomainError):
            quantum_bound(BoundQuery(unknown="psuccess", n=10, power=1e10, time=1.0))

    def test_budget_at_certainty_snaps_to_one(self):
        work, _ = quantum_work_requirement(60.0, 2.0, 1.0)
        for factor in (1.0, 1.0 + 1e-12, 1.0 + 1e-10):
            result = quantum_bound(
                BoundQuery(unknown="psuccess", n=60, work=work * factor, time=2.0)
            )
            assert result.value == pytest.approx(1.0, abs=1e-9)
            assert result.value <= 1.0
        work = classical_work_requirement(40.0, 3.0, 300.0, 1.0)
        result = classical_bound(
            BoundQuery(unknown="psuccess", n=40, work=work * (1.0 + 1e-11), time=3.0,
                       temperature=300.0)
        )
        assert result.value == 1.0

    def test_classical_speed_limit_term_below_double_range(self):
        # T = 0 and t = 1e290 s: h/(4t) is below the smallest double
        n, work, t = 1100, 1e-9, 1e290
        result = classical_bound(
            BoundQuery(unknown="psuccess", n=n, work=work, time=t, temperature=0.0)
        )
        with localcontext() as ctx:
            ctx.prec = 50
            expected = 4 * Decimal(work) * Decimal(t) / (Decimal(H) * Decimal(2) ** n)
        assert result.value == pytest.approx(float(expected), rel=1e-12)

    def test_classical_probability_below_double_range_of_two_to_minus_n(self):
        # 2^-1200 underflows, the probability 1e300 J buys does not
        n, work, t, temp = 1200, 1e300, 1.0, 300.0
        result = classical_bound(
            BoundQuery(unknown="psuccess", n=n, work=work, time=t, temperature=temp)
        )
        with localcontext() as ctx:
            ctx.prec = 50
            floor = 2 * n * Decimal(K_B) * Decimal(temp) * Decimal(2).ln()
            expected = (Decimal(work) - floor) / _decimal_classical_requirement(n, t, temp, 1.0)
        assert result.value == pytest.approx(float(expected), rel=1e-12)
        assert 0.0 < result.value < 1e-30

    def test_budget_must_be_finite(self):
        with pytest.raises(DomainError):
            BoundQuery(unknown="psuccess", n=10, power=1e300, time=1e300)
        with pytest.raises(DomainError):
            BoundQuery(unknown="n", work=math.inf, time=1.0, success_probability=1.0)

    @given(
        kind=st.sampled_from(("quantum", "classical")),
        n=st.floats(min_value=0.5, max_value=4096.0),
        log10_work=st.floats(min_value=-60.0, max_value=300.0),
        log10_time=st.floats(min_value=-30.0, max_value=300.0),
        temperature=st.sampled_from((0.0, 2.7, 300.0)),
        power=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_solved_probability_lies_in_unit_interval(
        self, kind, n, log10_work, log10_time, temperature, power
    ):
        budget = {"power": 10.0 ** log10_work} if power else {"work": 10.0 ** log10_work}
        solve = quantum_bound if kind == "quantum" else classical_bound
        try:
            query = BoundQuery(unknown="psuccess", n=n, time=10.0 ** log10_time,
                               temperature=temperature, **budget)
            p = solve(query).value
        except QlimitsError:
            return
        assert 0.0 <= p <= 1.0


class TestLargeBudgetInversions:
    def test_solve_n_past_double_range_matches_keylength(self):
        result = quantum_bound(
            BoundQuery(unknown="n", work=1e300, time=1e300, success_probability=1.0)
        )
        expected = 2.0 * (2.0 * math.log2(1e300) - math.log2(HBAR))
        assert result.value == pytest.approx(expected, rel=1e-14)
        assert result.value == pytest.approx(4212.05, abs=0.01)
        assert math.ceil(result.value) == equivalent_quantum_keylength(1e300, 1e300, 1.0)
        assert math.floor(result.value) == max_recoverable_keylength(1e300, 1e300, 1.0)

    def test_solve_psuccess_where_work_times_time_overflows(self):
        result = quantum_bound(BoundQuery(unknown="psuccess", n=3000, work=1e200, time=1e200))
        assert result.value == pytest.approx(_decimal_quantum_psuccess(3000, 1e200, 1e200),
                                             rel=1e-12)
        assert result.value == pytest.approx(7.3e-36, rel=1e-2)

    def test_classical_requirement_where_speed_limit_term_underflows(self):
        # T = 0, t = 1e300 s: h/(4t) alone is below the smallest double
        work = classical_work_requirement(2000.0, 1e300, 0.0, 1.0)
        expected = _decimal_classical_requirement(2000.0, 1e300, 0.0, 1.0)
        assert work == pytest.approx(float(expected), rel=1e-12)

    def test_no_budget_reaches_the_classical_requirement_at_n_4096(self):
        # the most generous valid corner: the least P_s, the longest t and T = 0 K;
        # every double budget lies below 2^1024
        big = sys.float_info.max
        assert _classical_requirement_log2(4096.0, big, 0.0, 5e-324) > 1024.0
        query = BoundQuery("n", work=big, time=big, temperature=0.0, success_probability=5e-324)
        assert classical_bound(query).value == pytest.approx(3234.2, abs=0.05)

    @pytest.mark.parametrize("n", [20, 50, 300, 1000])
    def test_solve_psuccess_matches_decimal_reference(self, n):
        t = 10.0
        work, _ = quantum_work_requirement(float(n), t, 1e-3)
        result = quantum_bound(BoundQuery(unknown="psuccess", n=n, work=work, time=t))
        assert result.value == pytest.approx(_decimal_quantum_psuccess(n, work, t), rel=1e-13)


class TestClassicalPowerFormTime:
    @pytest.mark.parametrize("temperature", [0.0, 2.7, 300.0])
    @pytest.mark.parametrize("n", [1, 2, 16, 64, 256, 1024])
    def test_round_trips_over_power_range(self, n, temperature):
        for log10_power in range(-30, 301, 10):
            power = 10.0 ** log10_power
            for p in (1.0, 1e-6):
                query = BoundQuery(unknown="time", n=n, power=power,
                                   temperature=temperature, success_probability=p)
                try:
                    t = classical_bound(query).value
                except InfeasibleError:
                    # only when the root lies past double range
                    top = 1.7e308
                    assert classical_work_requirement(n, top, temperature, p) > power * top
                    continue
                required = _decimal_classical_requirement(n, t, temperature, p)
                with localcontext() as ctx:
                    ctx.prec = 50
                    residual = abs(Decimal(power) * Decimal(t) - required) / required
                assert residual <= Decimal("1e-12"), (power, p)


def _decimal_root_hbar(n: float, p: float) -> Decimal:
    """sqrt(2^n P_s - 1) hbar, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        return (Decimal(2) ** Decimal(n) * Decimal(p) - 1).sqrt() * Decimal(HBAR)


class TestSolvedPastDoubleRange:
    @pytest.mark.parametrize("n, t", [(2048.0, 1.0), (2100.0, 1.0), (2200.0, 1e20),
                                      (1100.0, 1e-300)])
    def test_quantum_work_past_the_root_overflow(self, n, t):
        # the root alone overflows, sqrt(2^n - 1) hbar / t does not
        work, offset = quantum_work_requirement(n, t, 1.0)
        assert not offset
        assert work == pytest.approx(float(_decimal_root_hbar(n, 1.0) / Decimal(t)), rel=1e-12)

    def test_quantum_work_in_range_matches_50_digits(self):
        for n in (11.5, 64.0, 300.0, 2040.0, 2046.0):
            for t in (1e-30, 1.0, 1e30):
                for p in (1.0, 1e-3):
                    work, offset = quantum_work_requirement(n, t, p)
                    with localcontext() as ctx:
                        ctx.prec = 50
                        want = _decimal_root_hbar(n, p) / Decimal(t)
                    assert not offset
                    assert work == pytest.approx(float(want), rel=1e-12, abs=0.0), (n, t, p)

    @pytest.mark.parametrize("fields", [
        dict(unknown="time", n=5000, work=1.0, success_probability=1.0),
        dict(unknown="time", n=5000, power=1.0, success_probability=1.0),
        dict(unknown="work", n=5000, time=1.0, success_probability=1.0),
        dict(unknown="time", n=2000, work=1e-300, success_probability=1.0),
    ])
    def test_quantum_past_double_range_is_infeasible(self, fields):
        with pytest.raises(InfeasibleError, match="past double range") as exc:
            quantum_bound(BoundQuery(**fields))
        assert exc.value.floor == math.inf

    @pytest.mark.parametrize("fields", [
        dict(unknown="work", n=5000, time=1.0, temperature=300.0, success_probability=1.0),
        dict(unknown="time", n=1100, work=1e-300, temperature=0.0, success_probability=1.0),
    ])
    def test_classical_past_double_range_is_infeasible(self, fields):
        with pytest.raises(InfeasibleError, match="past double range") as exc:
            classical_bound(BoundQuery(**fields))
        assert exc.value.floor == math.inf

    @pytest.mark.parametrize("fields", [
        dict(n=2000, power=1.0, temperature=300.0, success_probability=1.0),
        # log2 A = inf, where log2_add would meet inf - inf
        dict(n=1e308, power=5e-324, temperature=2.7, success_probability=5e-324),
    ])
    def test_classical_power_form_past_double_range_is_infeasible(self, fields):
        # t = (A + sqrt(A^2 + 4PB)) / (2P) with A past double range
        query = BoundQuery(unknown="time", **fields)
        with pytest.raises(InfeasibleError) as exc:
            classical_bound(query)
        assert str(exc.value) == "the solved time lies past double range"
        assert exc.value.floor == math.inf and exc.value.offending_input is query

    def test_quantum_time_where_the_work_at_one_second_overflows(self):
        # sqrt(2^2300 - 1) hbar / (1 s) lies past double range, t = that / W does not
        result = quantum_bound(BoundQuery(unknown="time", n=2300, work=1e10,
                                          success_probability=1.0))
        assert result.value == pytest.approx(float(_decimal_root_hbar(2300, 1.0) / Decimal(1e10)),
                                             rel=1e-12)

    def test_power_form_time_where_its_square_overflows(self):
        result = quantum_bound(BoundQuery(unknown="time", n=3000, power=1e10,
                                          success_probability=1.0))
        with localcontext() as ctx:
            ctx.prec = 50
            want = (_decimal_root_hbar(3000, 1.0) / Decimal(1e10)).sqrt()
        assert result.value == pytest.approx(float(want), rel=1e-12)

    def test_classical_time_where_the_speed_limit_term_overflows(self):
        # T = 0: t = 2^n P_s h / (4 W), with 2^n P_s h / 4 past double range
        result = classical_bound(BoundQuery(unknown="time", n=1200, work=1e300,
                                            temperature=0.0, success_probability=1.0))
        required = _decimal_classical_requirement(1200.0, result.value, 0.0, 1.0)
        assert float(required) == pytest.approx(1e300, rel=1e-12)

    def test_in_range_times_match_50_digits(self):
        # W t = root * hbar, and P t^2 = root * hbar in the power form
        for n in (8, 64, 1000, 2000):
            for work in (1e-30, 1.0, 1e30):
                with localcontext() as ctx:
                    ctx.prec = 50
                    want = _decimal_root_hbar(n, 1.0) / Decimal(work)
                    want_power = want.sqrt()
                query = BoundQuery(unknown="time", n=n, work=work, success_probability=1.0)
                assert quantum_bound(query).value == pytest.approx(float(want), rel=1e-12, abs=0.0)
                query = BoundQuery(unknown="time", n=n, power=work, success_probability=1.0)
                assert quantum_bound(query).value == pytest.approx(float(want_power), rel=1e-12,
                                                                   abs=0.0)

    @given(
        kind=st.sampled_from(["classical", "quantum"]),
        unknown=st.sampled_from(["work", "time"]),
        n=st.floats(min_value=1.0, max_value=8000.0),
        log10_x=st.floats(min_value=-300.0, max_value=300.0),
        temp=st.sampled_from([0.0, 2.7, 300.0]),
        p=st.floats(min_value=1e-300, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_solved_work_and_time_are_finite_or_infeasible(self, kind, unknown, n, log10_x,
                                                           temp, p):
        given_field = {"work": "time", "time": "work"}[unknown]
        query = BoundQuery(unknown=unknown, n=n, temperature=temp, success_probability=p,
                           **{given_field: 10.0 ** log10_x})
        solve = classical_bound if kind == "classical" else quantum_bound
        try:
            value = solve(query).value
        except InfeasibleError:
            return
        assert math.isfinite(value) and value >= 0.0


# (n, t, W, P_s, T, u) over the ranges the bounds are evaluated and inverted
# at, drawn with a fixed seed; u in [0, 1) places a ballistic time below t_F
CONTRACT_CASES = [
    (2.0 ** rng.uniform(0.0, 12.0), 10.0 ** rng.uniform(-300.0, 308.0),
     10.0 ** rng.uniform(-300.0, 308.0), 10.0 ** rng.uniform(-300.0, 0.0),
     rng.choice((0.0, 2.7, 300.0)), rng.random())
    for rng in [random.Random(18)] for _ in range(2000)
]


def _mp_terms(n, p, temp):
    """(2^n P_s, E_L) at mpmath's working precision."""
    return mpmath.mpf(2) ** n * p, mpmath.mpf(K_B) * temp * mpmath.log(2)


def _mp_action(n, p):
    """sqrt(2^n P_s - 1) hbar, None where the quantum bound is vacuous."""
    guesses, _ = _mp_terms(n, p, 0.0)
    return mpmath.sqrt(guesses - 1) * HBAR if guesses > 1 else None


def _mp_final_time(n, work):
    """t_F = (pi/2)(sqrt(2^n) + 1) hbar / W."""
    return mpmath.pi / 2 * (mpmath.mpf(2) ** (mpmath.mpf(n) / 2) + 1) * HBAR / work


def _mp_classical_psuccess(n, t, work, temp):
    _, e_l = _mp_terms(n, 1.0, temp)
    return (work - 2 * n * e_l) / (mpmath.mpf(2) ** n * (e_l + mpmath.mpf(H) / (4 * t)))


def _mp_classical_time(n, work, p, temp):
    guesses, e_l = _mp_terms(n, p, temp)
    excess = work - (guesses + 2 * n) * e_l
    return guesses * mpmath.mpf(H) / 4 / excess if excess > 0 else None


def _mp_gate(n, t, p, temp):
    guesses, e_l = _mp_terms(n, p, temp)
    dynamic = HBAR * (mpmath.sqrt(guesses) - 1) * (mpmath.pi - mpmath.mpf(2) ** (1 - n / 2)) / t
    return 2 * n * e_l + max(dynamic, 0)


def _assert_value(call, want, context, refuses_underflow=True):
    """call() against a 50-digit value: within 1e-12 relative where ``want``
    is a normal double, InfeasibleError past double range (or where ``want``
    is None), within the least normal double below it.  A solved time or
    work that is positive and rounds to 0.0 is InfeasibleError too; a
    probability reads 0.0 there (``refuses_underflow=False``).  An exact 0
    reads 0.0."""
    if (want is None or want > sys.float_info.max
            or refuses_underflow and want != 0 and float(want) == 0.0):
        with pytest.raises(InfeasibleError):
            call()
        return
    tolerance = 1e-12 * want if want >= sys.float_info.min else sys.float_info.min
    got = call()
    assert abs(got - want) <= tolerance, (context, got, float(want))


class TestSolvedBelowDoubleRange:
    """A solved work or time that is positive but below the least double is
    refused as InfeasibleError, as one past double range is; each of these
    once returned 0.0."""

    @pytest.mark.parametrize("solve, fields, name", [
        (quantum_bound, dict(unknown="work", n=10, time=1e308, success_probability=1.0),
         "solved work"),
        (quantum_bound, dict(unknown="time", n=10, work=1e308, success_probability=1.0),
         "solved time"),
        (classical_bound, dict(unknown="time", n=1, work=1e308, temperature=0.0,
                               success_probability=1.0), "solved time"),
        (classical_bound, dict(unknown="work", n=1, time=1e308, temperature=0.0,
                               success_probability=1.0), "solved work"),
        # the power form refused this too, but as "past double range"
        (classical_bound, dict(unknown="time", n=1, power=1e308, temperature=0.0,
                               success_probability=5e-324), "solved time"),
    ], ids=["quantum-work", "quantum-time", "classical-time", "classical-work",
            "classical-power-time"])
    def test_bound_is_infeasible(self, solve, fields, name):
        query = BoundQuery(**fields)
        with pytest.raises(InfeasibleError) as exc:
            solve(query)
        assert str(exc.value) == f"the {name} lies below double range"
        assert exc.value.floor == 0.0 and exc.value.offending_input is query

    def test_ballistic_final_time_is_infeasible(self):
        with pytest.raises(InfeasibleError, match="^the solved time lies below double range$"):
            ballistic_deterministic_time(10, 1e308)

    @pytest.mark.parametrize("time", [5e-324, 1e-300, 1.0])
    def test_ballistic_success_refuses_every_time_past_an_underflowed_final_time(self, time):
        with pytest.raises(InfeasibleError, match="^the solved time lies below double range$"):
            ballistic_success(10, 1e308, time)

    def test_ballistic_success_at_zero_time_with_an_underflowed_final_time(self):
        assert ballistic_success(10, 1e308, 0.0) == 2.0 ** -10

    def test_gate_work_is_infeasible(self):
        with pytest.raises(InfeasibleError, match="^the solved work lies below double range$"):
            gate_bound(10, 1.0, 1e308)

    @pytest.mark.parametrize("temperature", [5e-324, 300.0])
    def test_gate_work_with_a_landauer_term_is_never_zero(self, temperature):
        # P_s 2^n <= 1 leaves only (2n + K) E_L, positive for T > 0
        if landauer_energy(temperature) == 0.0:
            with pytest.raises(InfeasibleError, match="^the solved work lies below"):
                gate_bound(10, 2.0 ** -11, 1.0, temperature=temperature)
        else:
            assert gate_bound(10, 2.0 ** -11, 1.0, temperature=temperature) > 0.0

    @pytest.mark.parametrize("p_success", [2.0 ** -10, 2.0 ** -11])
    def test_vacuous_gate_work_is_exactly_zero(self, p_success):
        # zero E_L and P_s 2^n <= 1: W = 0 is exact, not an underflow
        assert gate_bound(10, p_success, 1e308) == 0.0

    def test_offset_regime_keeps_zero_work(self):
        # P_s <= 2^-n: the bound is vacuous, W = 0 is exact and flagged
        for unknown, given in (("work", "time"), ("time", "work")):
            result = quantum_bound(BoundQuery(unknown, n=10, success_probability=2.0 ** -11,
                                              **{given: 1e308}))
            assert result.value == 0.0 and result.offset_regime

    # the raw requirements keep their documented flagged values: 0.0 below
    # the least double, which the solvers above refuse
    def test_raw_quantum_requirement_reads_zero_unflagged(self):
        assert quantum_work_requirement(10, 1e308, 1.0) == (0.0, False)

    def test_raw_classical_requirement_reads_zero(self):
        assert classical_work_requirement(10, 1e308, 0.0, 1.0) == 0.0

    def test_raw_bht_closed_form_reads_zero(self):
        assert bht_work_closed_form(10, 1e308, 0.0, 1.0) == 0.0

    def test_probabilities_still_read_zero(self):
        # a success probability below the least double is 0, not an error
        classical = classical_bound(BoundQuery("psuccess", n=1100, work=1e-300, time=1e-300,
                                               temperature=0.0))
        quantum = quantum_bound(BoundQuery("psuccess", n=4000, work=1e-300, time=1e-300))
        assert classical.value == 0.0 and quantum.value == 0.0


class TestAccuracyContract:
    """Every closed form in ``bounds`` is one log2 expression, finite wherever
    its true value is a finite double; each is held to 50-digit mpmath."""

    @pytest.fixture(autouse=True)
    def fifty_digits(self):
        with mpmath.workdps(50):
            yield

    def test_classical_psuccess(self):
        for n, t, work, _, temp, _ in CONTRACT_CASES:
            query = BoundQuery("psuccess", n=n, work=work, time=t, temperature=temp)
            want = _mp_classical_psuccess(n, t, work, temp)
            if want > 1 + 2e-9:  # the budget buys more than certainty
                with pytest.raises(DomainError):
                    classical_bound(query)
            elif not 1 < want:  # above 1 by less than 2e-9 snaps to 1
                _assert_value(lambda: classical_bound(query).value,
                              want if want > 0 else None, query, refuses_underflow=False)

    def test_classical_time(self):
        for n, _, work, p, temp, _ in CONTRACT_CASES:
            query = BoundQuery("time", n=n, work=work, temperature=temp, success_probability=p)
            _assert_value(lambda: classical_bound(query).value,
                          _mp_classical_time(n, work, p, temp), query)

    def test_quantum_work(self):
        for n, t, _, p, _, _ in CONTRACT_CASES:
            query = BoundQuery("work", n=n, time=t, success_probability=p)
            action = _mp_action(n, p)
            if action is None:
                assert quantum_work_requirement(n, t, p) == (0.0, True)
            else:
                _assert_value(lambda: quantum_bound(query).value, action / t, query)

    @pytest.mark.parametrize("budget", ["work", "power"])
    def test_quantum_time(self, budget):
        for n, _, work, p, _, _ in CONTRACT_CASES:
            query = BoundQuery("time", n=n, success_probability=p, **{budget: work})
            action = _mp_action(n, p)
            if action is None:
                result = quantum_bound(query)
                assert result.value == 0.0 and result.offset_regime
            else:
                want = action / work if budget == "work" else mpmath.sqrt(action / work)
                _assert_value(lambda: quantum_bound(query).value, want, query)

    def test_gate_work(self):
        for n, t, _, p, temp, _ in CONTRACT_CASES:
            _assert_value(lambda: gate_bound(n, p, t, temperature=temp),
                          _mp_gate(n, t, p, temp), (n, p, t, temp))

    def test_ballistic_final_time(self):
        for n, _, work, _, _, _ in CONTRACT_CASES:
            _assert_value(lambda: ballistic_deterministic_time(n, work),
                          _mp_final_time(n, work), (n, work))

    def test_ballistic_success_within_1e_12_absolute(self):
        for n, t, work, _, _, u in CONTRACT_CASES:
            t_final = _mp_final_time(n, work)
            if t_final <= sys.float_info.max:  # else any finite t lies below t_F
                t = float(u * t_final)
            p0 = mpmath.mpf(2) ** -n
            angle = work * mpmath.mpf(t) / ((mpmath.mpf(2) ** (n / 2) + 1) * HBAR)
            want = p0 + (1 - p0) * mpmath.sin(angle) ** 2
            assert abs(ballistic_success(n, work, t) - want) <= 1e-12, (n, work, t)

    # Each of these once gave 0.0 or a false InfeasibleError.
    @pytest.mark.parametrize("call, reference, value", [
        (lambda: classical_bound(BoundQuery("time", n=10, work=1e-300, temperature=0.0,
                                            success_probability=1e-300)).value,
         lambda: _mp_classical_time(10, 1e-300, 1e-300, 0.0), 1.696e-31),
        (lambda: quantum_bound(BoundQuery("time", n=20, power=1e300,
                                          success_probability=1.0)).value,
         lambda: mpmath.sqrt(_mp_action(20, 1.0) / 1e300), 3.286e-166),
        (lambda: gate_bound(2100, 1.0, 1e300),
         lambda: _mp_gate(2100, 1e300, 1.0, 0.0), 3.997e-18),
        (lambda: ballistic_deterministic_time(2100, 1e300),
         lambda: _mp_final_time(2100, 1e300), 1.998e-18),
        (lambda: ballistic_success(2100, 1e300, 1e-18),
         lambda: mpmath.sin(mpmath.mpf(1e300) * mpmath.mpf(1e-18)
                            / ((mpmath.mpf(2) ** 1050 + 1) * HBAR)) ** 2, 0.50061),
    ], ids=["classical-time", "quantum-power-time", "gate-work", "ballistic-final-time",
            "ballistic-success"])
    def test_values_once_lost(self, call, reference, value):
        got = call()
        assert got == pytest.approx(float(reference()), rel=1e-12, abs=0.0)
        assert got == pytest.approx(value, rel=1e-3, abs=0.0)

    def test_ballistic_success_at_zero_time_is_two_to_minus_n(self):
        for n in (0.0, 1.0, 10.0, 1074.0, 2100.0):
            assert ballistic_success(n, 1.0, 0.0) == 2.0 ** -n


# the BoundQuery field each solver name reads
_QUERY_FIELD = {"n": "n", "work": "work", "time": "time", "psuccess": "success_probability",
                "temperature": "temperature"}
_WORK_REFUSAL = "work (or power) is required"

# (solver, unknown, field left out, refusal): each field a solver reads at each
# unknown, left out of a query that holds every other; _require names each
# missing field, a missing budget with one wording for every solver
MISSING_FIELDS = [
    *[(solver, unknown, field, f"field {field!r} is required")
      for solver in (quantum_bound, classical_bound)
      for unknown, fields in (("work", ("n", "time", "psuccess")), ("time", ("n", "psuccess")),
                              ("psuccess", ("n", "time")), ("n", ("time", "psuccess")))
      for field in fields],
    *[(solver, unknown, "work", _WORK_REFUSAL) for solver in (quantum_bound, classical_bound)
      for unknown in ("time", "psuccess", "n")],
    *[(classical_bound, unknown, "temperature", "classical bound requires a temperature")
      for unknown in ("work", "time", "psuccess", "n")],
]


class TestMissingFields:
    FULL = dict(n=64.0, work=1e-10, time=1.0, temperature=300.0, success_probability=0.5)

    @pytest.mark.parametrize("solver, unknown, missing, message", MISSING_FIELDS,
                             ids=[f"{row[0].__name__}-{row[1]}-{row[2]}"
                                  for row in MISSING_FIELDS])
    def test_refusal(self, solver, unknown, missing, message):
        left_out = (_QUERY_FIELD[unknown], _QUERY_FIELD[missing])
        query = BoundQuery(unknown, **{k: v for k, v in self.FULL.items() if k not in left_out})
        with pytest.raises(QlimitsError) as raised:
            solver(query)
        assert type(raised.value) is DomainError
        assert str(raised.value) == message
        assert raised.value.offending_input is query

    def test_quantum_time_needs_no_budget_where_the_bound_is_vacuous(self):
        result = quantum_bound(BoundQuery("time", n=4.0, success_probability=1.0 / 32.0))
        assert (result.value, result.offset_regime) == (0.0, True)

    def test_budget_without_work_or_power(self):
        with pytest.raises(DomainError, match=r"work \(or power with time\) is required"):
            BoundQuery("n", power=1.0).budget()


class TestOtherFloors:
    def test_work_floor_with_every_term_dropped_is_zero(self):
        # a zero frequency or a zero weight adds nothing to the moment
        assert work_floor([0.0, 5.0], [1.0, 0.0], 2) == 0.0

    def test_init_readout_work_refuses_an_unknown_mode(self):
        with pytest.raises(DomainError, match="mode must be 'generic' or 'knownPlaintext'"):
            init_readout_work(8, 300.0, mode="chosenPlaintext")
