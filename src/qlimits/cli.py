"""qlimits command-line interface.

Subcommands: simulate, bound, keylength, bht, cosmic, scenario.  Each
command returns one result document (a dict or a list, or a trace already
written as CSV); ``main`` alone writes it, as JSON or as dotted-key CSV,
to ``--out`` or stdout.  Exit codes: 0 success, 1 domain/infeasibility
error (structured JSON on stderr), 2 usage error.  Output is
deterministic: identical argv yields byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .bht import bht_fixed_samples, bht_min_image_bits, bht_optimal
from .bounds import (
    BALLISTIC_TAG,
    QUANTUM_TAG as QUANTUM_KEY_TAG,
    BoundQuery,
    BoundResult,
    GATE_TAG,
    ballistic_deterministic_time,
    ballistic_success,
    classical_bound,
    gate_bound,
    quantum_bound,
    quantum_work_requirement,
)
from .constants import CONSTANTS_VERSION, HBAR
from .dynamics import (
    EffectiveState,
    SearchSpace,
    adiabatic_schedule,
    ballistic_schedule,
    evolve,
    grover_pulsed_schedule,
    standard_grover_iterations,
)
from .errors import ParseError, QlimitsError, UsageError
from .keylength import (
    BALLISTIC_TIME_TAG,
    COSMIC_TAG,
    REPORT_CSV_COLUMNS,
    CosmologyParams,
    build_report,
    classical_keylength,
    cosmic_energy,
    equivalent_quantum_keylength,
    max_deterministic_keylength,
    max_recoverable_keylength,
    solar_budget,
)
from .scenarios import SCENARIOS, Scenario, scenario
from .serialize import (
    dumps17,
    format_float17,
    result_to_csv,
    schedule_from_obj,
    schedule_to_obj,
    trace_to_csv,
    trace_to_obj,
)
from .units import parse_duration


def _duration(text: str) -> float:
    # raises ParseError (a ValueError) -> argparse reports a usage error
    return parse_duration(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qlimits",
        description="Thermodynamic work/runtime limits of exhaustive search",
    )
    parser.add_argument("--version", action="version", version=f"qlimits {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(default_format: str = "json") -> argparse.ArgumentParser:
        # fresh parent per subcommand: argparse shares Action objects between
        # parents= users, so per-command defaults must not touch a shared one
        c = argparse.ArgumentParser(add_help=False)
        c.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
        c.add_argument("--format", choices=("json", "csv"), default=default_format)
        c.add_argument("--config", metavar="PATH", help="JSON file mirroring flags; flags win")
        return c

    # traces are plot-ready CSV unless asked otherwise
    p = sub.add_parser("simulate", parents=[common("csv")], help="run a search protocol and emit a trace")
    p.add_argument("--protocol", choices=("ballistic", "grover", "adiabatic", "custom"), required=True)
    p.add_argument("--n", type=int, required=True)
    budget = p.add_mutually_exclusive_group()
    budget.add_argument("--work", type=float, help="energy scale in joules")
    budget.add_argument("--work-radps", type=float, help="energy scale as W/hbar in rad/s")
    p.add_argument("--time", type=_duration, help="truncate the run at this duration")
    p.add_argument("--pulse-phase", type=float, help="pulse phase in rad (grover; default pi)")
    p.add_argument("--error-budget", type=float, help="adiabatic error budget (default 0.1)")
    p.add_argument("--schedule-file", metavar="PATH", help="JSON segments for --protocol custom")
    p.add_argument("--dt", type=_duration, help="sample step (default total/1000)")

    p = sub.add_parser("bound", parents=[common()], help="evaluate or invert a bound")
    p.add_argument("kind", choices=("classical", "quantum", "gate", "ballistic"))
    p.add_argument("--n", type=float)
    p.add_argument("--time", type=_duration)
    budget = p.add_mutually_exclusive_group()
    budget.add_argument("--work", type=float)
    budget.add_argument("--power", type=float)
    p.add_argument("--temp", type=float)
    p.add_argument("--psuccess", type=float)
    p.add_argument("--solve", choices=("work", "time", "psuccess", "n"), default="work")
    p.add_argument("--corrected-errors", type=int, default=0)

    p = sub.add_parser("keylength", parents=[common()], help="key-length solvers")
    p.add_argument("--scenario", metavar="NAME")
    budget = p.add_mutually_exclusive_group()
    budget.add_argument("--work", type=float)
    budget.add_argument("--power", type=float)
    p.add_argument("--time", type=_duration)
    p.add_argument("--psuccess", type=float)
    p.add_argument("--temp", type=float)
    p.add_argument(
        "--mode",
        choices=("quantum", "classical", "deterministic", "recoverable", "table"),
        default="table",
    )

    p = sub.add_parser("bht", parents=[common()], help="collision-search optimum / image-size inversion")
    p.add_argument("--n", type=float)
    p.add_argument("--time", type=_duration, required=True)
    p.add_argument("--temp", type=float, required=True)
    p.add_argument("--psuccess", type=float, default=1.0)
    p.add_argument("--samples", type=float, help="evaluate the work at this fixed k")
    p.add_argument("--invert", action="store_true", help="solve the minimum image size")
    budget = p.add_mutually_exclusive_group()
    budget.add_argument("--work", type=float)
    budget.add_argument("--power", type=float)

    p = sub.add_parser("cosmic", parents=[common()], help="cosmic event-horizon energy budget")
    p.add_argument("--h0", type=float, required=True, help="Hubble constant in km/s/Mpc")
    p.add_argument("--omega-lambda", type=float, required=True)
    p.add_argument("--rho-m", type=float, help="matter density in kg/m^3")
    p.add_argument("--form", choices=("fromOmega", "fromDensity"), default="fromOmega")

    p = sub.add_parser("scenario", parents=[common()], help="list or show named scenarios")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")

    return parser


@functools.cache
def _config_parser() -> argparse.ArgumentParser:
    """Finds --config before the full parse, which reports what this cannot read."""
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    parser.add_argument("--config")
    return parser


def _config_flags(argv: list[str]) -> dict[str, str]:
    """The --config file's entries as flags, {"--key=value": key}: ``true``
    gives "--key", ``false`` and ``null`` nothing, a list or an object a
    :class:`ParseError`."""
    try:
        path = _config_parser().parse_known_args(argv)[0].config
    except argparse.ArgumentError:  # --config without a path
        return {}
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8 JSON, too deep
        raise ParseError(f"cannot read config file: {exc}", path) from None
    if not isinstance(cfg, dict):
        raise ParseError("config file must contain a JSON object", path)
    flags = {}
    for key, value in cfg.items():
        if isinstance(value, (list, dict)):
            raise ParseError(f"config key {key!r} must be a string, number or boolean", value)
        if value is not False and value is not None:
            flags[f"--{key}" if value is True else f"--{key}={value}"] = key
    return flags


def parse_argv(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed once, with the --config entries put in as flags right
    after the command word: each is read by its flag's own rules, and the
    command line's flags, coming later, win.  An entry left over is a
    :class:`ParseError`."""
    flags = _config_flags(argv)
    parser = build_parser()
    args, extra = parser.parse_known_args([*argv[:1], *flags, *argv[1:]])
    unknown = [flags[token] for token in extra if token in flags]
    if unknown:
        raise ParseError(f"unknown config key {unknown[0]!r}", args.config)
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def _resolve_budget(args, time: float) -> float:
    """--work, or --power * --time (the documented equivalence), read by
    :meth:`BoundQuery.budget`: its constructor refuses the work, the time,
    the power and power * time unless each is finite and > 0."""
    if args.work is None and args.power is None:
        raise UsageError("a work budget is required (--work or --power with --time)")
    return BoundQuery("n", work=args.work, time=time, power=args.power).budget()


def _cmd_simulate(args):
    if args.protocol == "custom":
        if not args.schedule_file:
            raise UsageError("--protocol custom requires --schedule-file")
        with open(args.schedule_file, encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
                raise ParseError(f"schedule file is not valid JSON: {exc}",
                                 args.schedule_file) from None
        schedule = schedule_from_obj(obj)
    space = SearchSpace(args.n)
    if args.protocol != "custom":
        if args.work is not None:
            energy = args.work
        elif args.work_radps is not None:
            energy = args.work_radps * HBAR
        else:
            raise UsageError("--work or --work-radps is required")
        if args.protocol == "ballistic":
            schedule = ballistic_schedule(space, energy)
        elif args.protocol == "grover":
            phase = args.pulse_phase if args.pulse_phase is not None else math.pi
            schedule = grover_pulsed_schedule(
                space, energy, phase, standard_grover_iterations(space)
            )
        else:
            eps = args.error_budget if args.error_budget is not None else 0.1
            schedule = adiabatic_schedule(space, energy, eps, kind="local")

    if args.time is not None:
        schedule = schedule.truncated(args.time)
    dt = args.dt if args.dt is not None else schedule.total_duration / 1000.0
    trace = evolve(EffectiveState.initial(space), schedule, dt)
    if args.format == "csv":
        return trace_to_csv(trace)
    return {
        "constants_version": CONSTANTS_VERSION,
        "n": space.n,
        "protocol": args.protocol,
        "sample_step_s": dt,
        "p0_subnormal": trace.p0_subnormal,
        **schedule_to_obj(schedule),
        "trace": trace_to_obj(trace),
    }


def _cmd_bound(args) -> dict:
    if args.kind in ("classical", "quantum"):
        classical = args.kind == "classical"
        for name in ("n", "time", "psuccess", "temp") if classical else ("n", "time", "psuccess"):
            if name != args.solve and getattr(args, name) is None:
                raise UsageError(f"--{name} is required")
        query = BoundQuery(
            args.solve,
            n=args.n,
            work=args.work,
            time=args.time,
            temperature=args.temp,
            success_probability=args.psuccess,
            power=args.power,
        )
        # every solve but work needs a budget, bar a quantum time where the bound is vacuous
        vacuous = not classical and args.solve == "time" and quantum_work_requirement(
            query.n, 1.0, query.success_probability)[1]  # the offset flag, whatever the time
        if args.solve != "work" and not vacuous and query.work is None and query.power is None:
            raise UsageError("a work budget is required (--work or --power)")
        return (classical_bound if classical else quantum_bound)(query).as_dict()

    if args.kind == "gate":
        if args.solve != "work":
            raise UsageError("the gate bound only solves for work")
        for name, value in (("--n", args.n), ("--time", args.time), ("--psuccess", args.psuccess)):
            if value is None:
                raise UsageError(f"{name} is required")
        value = gate_bound(
            args.n,
            args.psuccess,
            args.time,
            corrected_errors=args.corrected_errors,
            temperature=args.temp if args.temp is not None else 0.0,
        )
        query = BoundQuery(
            unknown="work",
            n=args.n,
            time=args.time,
            temperature=args.temp,
            success_probability=args.psuccess,
        )
        return BoundResult(value, "gate", GATE_TAG, query, "J").as_dict()

    # ballistic: success probability at --time, or the deterministic time
    if args.n is None:
        raise UsageError("--n is required")
    if args.solve == "n":
        raise UsageError("the ballistic relation solves time or psuccess, not n")
    if args.solve == "time" or (args.time is None and args.solve == "work"):
        if args.work is None:
            raise UsageError("--work is required")
        value = ballistic_deterministic_time(args.n, args.work)
        query = BoundQuery(unknown="time", n=args.n, work=args.work)
        return BoundResult(value, "ballistic", BALLISTIC_TAG, query, "s").as_dict()
    if args.time is None:
        raise UsageError("--time is required to evaluate the success probability")
    work = _resolve_budget(args, args.time)
    value = ballistic_success(args.n, work, args.time)
    query = BoundQuery(unknown="psuccess", n=args.n, work=work, time=args.time)
    return BoundResult(value, "ballistic", BALLISTIC_TAG, query, "probability").as_dict()


def _cmd_keylength(args) -> dict:
    if args.scenario is not None:
        sc = scenario(args.scenario)
        work, time = sc.work, sc.duration
        p_success, temp = sc.success_probability, sc.temperature
    else:
        if args.time is None or args.psuccess is None and args.mode != "deterministic":
            flags = "--time is" if args.mode == "deterministic" else "--time and --psuccess are"
            raise UsageError(f"{flags} required without --scenario")
        time, p_success, temp = args.time, args.psuccess, args.temp
        work = _resolve_budget(args, time)
        sc = None

    if args.mode == "table":
        if sc is None:
            if temp is None:
                raise UsageError("--temp is required for the classical column")
            sc = Scenario("custom", work, time, temp, p_success)
        row = build_report([sc])[0].as_dict()
        return {c: row[c] for c in REPORT_CSV_COLUMNS} if args.format == "csv" else row

    payload = {
        "mode": args.mode,
        "work_J": work,
        "time_s": time,
        "constants_version": CONSTANTS_VERSION,
    }
    if args.mode == "quantum":
        payload["p_success"] = p_success
        payload["quantum_bits"] = equivalent_quantum_keylength(work, time, p_success)
        payload["formula_tag"] = QUANTUM_KEY_TAG
    elif args.mode == "recoverable":
        payload["p_success"] = p_success
        payload["recoverable_bits"] = max_recoverable_keylength(work, time, p_success)
        payload["formula_tag"] = QUANTUM_KEY_TAG
    elif args.mode == "deterministic":
        payload["deterministic_bits"] = max_deterministic_keylength(work, time)
        payload["formula_tag"] = BALLISTIC_TIME_TAG
    else:  # classical
        if temp is None:
            raise UsageError("--temp is required for the classical solver")
        payload["p_success"] = p_success
        payload["temperature_K"] = temp
        bits = classical_keylength(work, time, temp, p_success)
        payload["classical_bits"] = bits
        payload["below_floor"] = bits == 0
    return payload


def _cmd_bht(args) -> dict:
    if args.invert:
        work = _resolve_budget(args, args.time)
        bits = bht_min_image_bits(work, args.time, args.temp, args.psuccess)
        return {
            "mode": "invert",
            "work_J": work,
            "t_total_s": args.time,
            "temperature_K": args.temp,
            "p_success": args.psuccess,
            "min_image_bits": bits,
            "constants_version": CONSTANTS_VERSION,
        }
    if args.n is None:
        raise UsageError("--n is required")
    if args.samples is not None:
        return bht_fixed_samples(args.n, args.samples, args.time, args.temp, args.psuccess)
    return bht_optimal(args.n, args.time, args.temp, args.psuccess).as_dict()


def _cmd_cosmic(args) -> dict:
    if args.form == "fromDensity" and args.rho_m is None:
        raise UsageError("--form fromDensity requires --rho-m")
    params = CosmologyParams.from_km_s_mpc(args.h0, args.omega_lambda, args.rho_m)
    return {
        "work_J": cosmic_energy(params, args.form),
        "form": args.form,
        "h0_km_s_mpc": args.h0,
        "h0_per_s": params.h0,
        "omega_lambda": args.omega_lambda,
        "rho_m_kg_m3": args.rho_m,
        "formula_tag": COSMIC_TAG,
        "constants_version": CONSTANTS_VERSION,
    }


def _scenario_dict(sc) -> dict:
    out = {
        "name": sc.name,
        "work_J": sc.work,
        "time_s": sc.duration,
        "temperature_K": sc.temperature,
        "p_success": sc.success_probability,
        "classical_bits": sc.classical_key_bits,
        "constants_version": CONSTANTS_VERSION,
    }
    if sc.name == "dyson":
        # informational: luminosity-derived alternative to the fixed budget
        out["solar_luminosity_budget_J"] = solar_budget(sc.duration)
    return out


def _cmd_scenario(args):
    if args.action == "list":
        return [_scenario_dict(SCENARIOS[name]) for name in sorted(SCENARIOS)]
    if not args.name:
        raise UsageError("scenario show requires a name")
    return _scenario_dict(scenario(args.name))


_COMMANDS = {
    "simulate": _cmd_simulate,
    "bound": _cmd_bound,
    "keylength": _cmd_keylength,
    "bht": _cmd_bht,
    "cosmic": _cmd_cosmic,
    "scenario": _cmd_scenario,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        result = _COMMANDS[args.command](args)
        if isinstance(result, str):  # a trace already written as CSV
            text = result
        elif args.format == "csv":
            text = result_to_csv(result)
        else:
            text = dumps17(result) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except SystemExit as exc:  # argparse wrote the usage error, help or version
        return int(exc.code) if exc.code is not None else 0
    except UsageError as exc:
        sys.stderr.write(f"qlimits {args.command}: error: {exc}\n")
        return 2
    except QlimitsError as exc:
        error = {
            "kind": exc.kind,
            "message": str(exc),
            "offending_input": _printable(exc.offending_input),
        }
        sys.stderr.write(dumps17(error) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(
            dumps17({"kind": "io", "message": str(exc), "offending_input": None}) + "\n"
        )
        return 1


def _printable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return format_float17(value)  # strict JSON has no NaN or Infinity token
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_printable(v) for v in value]
    return repr(value)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
