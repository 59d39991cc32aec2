"""Observables of one reduced state, for tests that start from a state
rather than from a trace: P_s, P_i and A = <psi|s><i|psi> from
``state.solution_amplitude()`` and ``state.c1``."""

import cmath

from qlimits.dynamics import Observables


def observables_of(state):
    s_amp = state.solution_amplitude()
    a = s_amp.conjugate() * state.c1
    return Observables(abs(s_amp) ** 2, abs(state.c1) ** 2, a, cmath.phase(a))
