"""Acceptance gate: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines;
every criterion carries its tolerance inline.
"""

import math

import numpy as np

from qlimits.bht import (
    REFERENCE_IMAGE_BITS,
    bht_min_image_bits,
    bht_optimal,
    bht_sweep_minimum,
)
from qlimits.bounds import (
    BoundQuery,
    ballistic_deterministic_time,
    classical_bound,
    gate_bound,
    optimal_k,
    prefactor_b,
    quantum_bound,
    quantum_work_requirement,
    work_floor,
)
from qlimits.constants import HBAR
from qlimits.dynamics import (
    ControlSchedule,
    EffectiveState,
    SearchSpace,
    Segment,
    analytic_rates,
    ballistic_schedule,
    eigenenergies,
    evolve,
    final_state,
    full_space_reference,
    grover_pulsed_schedule,
    measure_modulated_suppression,
    runtime_to_infidelity,
    standard_grover_iterations,
)
from qlimits.keylength import (
    PLANCK_PARAMS,
    cosmic_energy,
    equivalent_quantum_keylength,
    max_deterministic_keylength,
    max_recoverable_keylength,
)
from qlimits.scenarios import SCENARIOS
from reduced_state import observables_of

YEAR = 3.15576e7


def verdict(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status}{' -- ' + detail if detail else ''}")
    assert passed, f"{criterion}: {detail}"


def test_c01_security_table_reproduction():
    got = {
        name: equivalent_quantum_keylength(
            sc.work, sc.duration, sc.success_probability
        )
        for name, sc in SCENARIOS.items()
    }
    want = {"datacenter": 394, "dyson": 667, "cosmic": 872}
    verdict("C1 security-table quantum key lengths", got == want, f"{got}")


def test_c02_cosmic_budget():
    value = cosmic_energy(PLANCK_PARAMS, "fromOmega")
    rel = abs(value - 4.62e69) / 4.62e69
    verdict("C2 cosmic event-horizon budget +-0.5%", rel <= 5e-3,
            f"{value:.4g} J (rel {rel:.2e})")


def test_c03_cosmic_key_limits():
    deterministic = max_deterministic_keylength(4.62e69, 1e14 * YEAR)
    recoverable = max_recoverable_keylength(4.62e69, 1e14 * YEAR, 1e-12)
    verdict(
        "C3 deterministic/recoverable cosmic limits",
        (deterministic, recoverable) == (830, 871),
        f"deterministic={deterministic} recoverable={recoverable}",
    )


def test_c04_classical_anchors():
    p_dc = classical_bound(
        BoundQuery(unknown="psuccess", n=128, work=1e16, time=5 * YEAR,
                   temperature=300.0)
    ).value
    p_dy = classical_bound(
        BoundQuery(unknown="psuccess", n=256, work=8e43, time=5e9 * YEAR,
                   temperature=2.7)
    ).value
    ok = 0.8e-2 <= p_dc <= 1.2e-2 and 2e-11 <= p_dy <= 3e-11
    verdict("C4 classical success-probability anchors", ok,
            f"datacenter {p_dc:.3e}, dyson {p_dy:.3e}")


def test_c05_quantum_speed_anchors():
    t_128 = ballistic_deterministic_time(128, 6.5e-6)
    t_256 = quantum_bound(
        BoundQuery(unknown="time", n=256, power=6.5e7, success_probability=1.0)
    ).value
    ok = t_128 <= 1e-9 and t_256 <= 0.1
    verdict("C5 quantum speed anchors", ok,
            f"128-bit ballistic {t_128:.3e} s, 256-bit at 65 MW {t_256:.3e} s")


def test_c06_ballistic_exactness():
    worst = 0.0
    finals = []
    for n in (8, 12):
        space = SearchSpace(n)
        omega = 250.0
        schedule = ballistic_schedule(space, HBAR * omega * (1.0 + 2.0 ** (-n / 2.0)))
        trace = evolve(
            EffectiveState.initial(space), schedule, schedule.total_duration / 1500
        )
        t = trace.t
        p0 = 2.0**-n
        closed = p0 + (1.0 - p0) * np.sin(omega * t * 2.0 ** (-n / 2.0)) ** 2
        worst = max(worst, float(np.max(np.abs(trace.prob_s - closed))))
        finals.append(trace.points[-1].obs.p_s)
    ok = worst <= 1e-9 and all(p >= 1.0 - 1e-9 for p in finals)
    verdict("C6 ballistic closed-form exactness 1e-9", ok,
            f"max |dP|={worst:.2e}, finals={[f'{p:.12f}' for p in finals]}")


def test_c07_full_space_reduction_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    trials = 0
    for n in (4, 8, 10):
        space = SearchSpace(n)
        for _ in range(34 if n == 4 else 33):
            segs = tuple(
                Segment(float(d), float(wi), float(ws))
                for d, wi, ws in zip(
                    rng.uniform(0.1, 1.0, 5),
                    rng.uniform(0.0, 4.0, 5),
                    rng.uniform(0.0, 4.0, 5),
                )
            )
            schedule = ControlSchedule(segs)
            dt = schedule.total_duration / 10
            reduced = evolve(EffectiveState.initial(space), schedule, dt)
            full = full_space_reference(
                space, schedule, dt, int(rng.integers(0, space.dimension))
            )
            for p, q in zip(reduced.points, full.points):
                worst = max(
                    worst,
                    abs(p.obs.p_s - q.obs.p_s),
                    abs(p.obs.p_i - q.obs.p_i),
                    abs(p.obs.a.real - q.obs.a.real),
                    abs(p.obs.a.imag - q.obs.a.imag),
                )
            trials += 1
    verdict("C7 two-level reduction vs full space 1e-9", worst <= 1e-9,
            f"{trials} schedules, worst gap {worst:.2e}")


def test_c08_pulsed_amplification():
    results = {}
    ok = True
    for n in (8, 10, 12):
        space = SearchSpace(n)
        iters = standard_grover_iterations(space)
        schedule = grover_pulsed_schedule(space, HBAR, math.pi, iters)
        state = final_state(EffectiveState.initial(space), schedule)
        p_s = abs(state.solution_amplitude()) ** 2
        results[n] = p_s
        ok = ok and p_s >= 1.0 - 2.0 ** (2 - n)
    verdict("C8 pulsed amplification targets", ok,
            ", ".join(f"n={n}: {p:.6f}" for n, p in results.items()))


def test_c09_adiabatic_runtime_scaling():
    eps = 0.1
    times = {}
    for n in range(6, 15):
        times[n] = runtime_to_infidelity(SearchSpace(n), 1.0, eps, eps * eps)
    ns = np.array(sorted(times))
    slope = float(np.polyfit(ns, np.log2([times[n] for n in ns]), 1)[0])
    verdict("C9 local-adiabatic runtime exponent 0.50+-0.05",
            0.45 <= slope <= 0.55, f"slope {slope:.4f} per bit")


def test_c10_rates_and_eigenvalues():
    # second-order finite-difference convergence of both analytic rates
    space = SearchSpace(6)
    omega_i, omega_s = 1.3, 0.4
    t0 = 0.7

    def obs_at(t):
        state = final_state(
            EffectiveState.initial(space),
            ControlSchedule((Segment(t, omega_i, omega_s),)),
        )
        return observables_of(state, omega_i, omega_s)

    dps, da = analytic_rates(obs_at(t0), omega_i, omega_s, space)
    steps = [1e-2, 5e-3]
    errs_ps, errs_a = [], []
    for h in steps:
        plus, minus = obs_at(t0 + h), obs_at(t0 - h)
        errs_ps.append(abs((plus.p_s - minus.p_s) / (2 * h) - dps))
        errs_a.append(abs((plus.a - minus.a) / (2 * h) - da))
    order_ps = math.log(errs_ps[0] / errs_ps[1]) / math.log(steps[0] / steps[1])
    order_a = math.log(errs_a[0] / errs_a[1]) / math.log(steps[0] / steps[1])

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        omega = float(rng.uniform(0.01, 10.0))
        delta = float(rng.uniform(-omega, omega))
        sp = SearchSpace(n)
        from qlimits.dynamics import effective_hamiltonian

        evals = np.sort(np.linalg.eigvalsh(effective_hamiltonian(sp, omega + delta, omega - delta)))[::-1]
        e_plus, e_minus = eigenenergies(sp, omega, delta)
        worst = max(
            worst,
            abs(e_plus / HBAR - evals[0]) / max(abs(evals[0]), 1e-30),
            abs(e_minus / HBAR - evals[1]) / max(abs(evals[1]), 1e-12),
        )
    ok = order_ps >= 1.9 and order_a >= 1.9 and worst <= 1e-12
    verdict(
        "C10 derivative order >=1.9 and eigenenergies 1e-12",
        ok,
        f"orders ({order_ps:.2f}, {order_a:.2f}), eigen rel err {worst:.2e}",
    )


def test_c11_envelope_prefactor():
    target = 1.0 / math.sqrt(3.0 * 2.0**20)
    k_star = optimal_k(20)
    ok = abs(k_star - target) <= 0.2 * target
    ok = ok and prefactor_b(k_star, 20) <= 1.0 - target + 1e-6
    below_one = all(prefactor_b(optimal_k(n), n) < 1.0 for n in range(1, 65))
    verdict(
        "C11 envelope prefactor optimum",
        ok and below_one,
        f"k*={k_star:.4e} (target {target:.4e}), b(k*)={prefactor_b(k_star, 20):.6f}",
    )


def test_c12_gate_to_fundamental_ratio():
    gate = gate_bound(200, 1.0, 1.0, 0, 0.0)
    fundamental, _ = quantum_work_requirement(200, 1.0, 1.0)
    ratio = gate / fundamental
    verdict("C12 gate/fundamental ratio ~ pi", abs(ratio - math.pi) <= 0.01,
            f"ratio {ratio:.6f}")


def test_c13_collision_search():
    lines = []
    ok = True
    # sweep confirmation at the tabulated conditions (n <= 48)
    for n in (20, 30, 40, 48):
        plan = bht_optimal(n, 1.0, 300.0, 1.0)
        k_min, w_min = bht_sweep_minimum(n, 1.0, 300.0, 1.0, points=3000)
        ok = ok and abs(plan.samples - k_min) <= 0.05 * k_min
        ok = ok and abs(plan.work - w_min) <= 0.05 * w_min
        lines.append(f"n={n}: k*={plan.samples:.3g} vs sweep {k_min:.3g}")
    # interior-optimum regime: closed form within 5% of the sweep minimum
    plan = bht_optimal(36, 1e-6, 1e-3, 1.0)
    _, w_min = bht_sweep_minimum(36, 1e-6, 1e-3, 1.0, points=3000)
    ok = ok and w_min >= plan.closed_form_work * 0.95 and plan.work <= w_min * 1.05
    lines.append(f"interior W*/min={plan.closed_form_work / w_min:.4f}")
    # image-size outputs alongside the reference targets (not asserted equal)
    for name, sc in SCENARIOS.items():
        bits = bht_min_image_bits(
            sc.work, sc.duration, sc.temperature, sc.success_probability
        )
        ref = REFERENCE_IMAGE_BITS[name]
        tag = "agrees" if bits == ref else f"differs {bits - ref:+d}"
        lines.append(f"{name}: solver {bits} vs reference {ref} ({tag})")
    verdict("C13 collision-search optimizer", ok, "; ".join(lines))


def test_c14_modulated_detuning_suppression():
    measured = abs(measure_modulated_suppression(SearchSpace(16), 0.1))
    predicted = 1.0 - 0.1**2 / 4.0
    rel = abs(measured - predicted) / predicted
    verdict("C14 modulated-detuning suppression within 10%", rel <= 0.10,
            f"measured {measured:.5f} vs {predicted:.5f} (rel {rel:.2e})")


def test_c15_work_floor_convergence():
    rng = np.random.default_rng(7)
    ok = True
    worst_rel = 0.0
    for _ in range(20):
        freqs = np.sort(rng.uniform(0.1, 5.0, 8))
        top_weight = float(rng.uniform(0.3, 0.9))
        rest = rng.dirichlet(np.ones(7)) * (1.0 - top_weight)
        weights = np.concatenate([rest, [top_weight]])
        amps = list(np.sqrt(weights))
        values = [work_floor(list(freqs), amps, m) for m in (2, 4, 8, 16, 32, 64, 128)]
        ok = ok and all(b >= a * (1 - 1e-12) for a, b in zip(values, values[1:]))
        rel = abs(values[-1] - HBAR * freqs[-1]) / (HBAR * freqs[-1])
        worst_rel = max(worst_rel, rel)
        ok = ok and rel <= 0.01
    verdict("C15 work floor: monotone in m, 1% of top level at m=128", ok,
            f"worst relative gap {worst_rel:.3e}")
