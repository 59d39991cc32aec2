"""Every argv ends in one of three ways (README "Command line"):

* exit 0, with strict JSON on stdout (no NaN or Infinity token), or CSV
  whose cells hold no non-finite number;
* exit 1, with exactly one strict-JSON error object carrying a ``kind``
  on stderr;
* exit 2, with a usage message on stderr.

No exception escapes ``main`` and nothing else reaches stderr.  Flag values
come from the pool of edge values in ``edge_values.py``, durations from the
same pool with every unit suffix.  An argv may also name a ``--config`` file
whose keys are the command's flags and whose values come from the same
pools, as JSON numbers where the pool holds numbers, or are true, false,
null or a list.  A ``--schedule-file`` is one of ``SCHEDULE_BODIES``
written out, a missing path or a directory.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from edge_values import DURATIONS, EDGE_FLOATS, NUMBERS
from qlimits.cli import main, parse_argv

COUNTS = ("-1", "0", "1", "5")

_SEGMENT = {"duration_s": "1.0", "omega_i_radps": "2.0", "omega_s_radps": "0.5"}


def _schedule(**fields) -> bytes:
    """A one-segment schedule file; each field is JSON text, None leaves it out."""
    pairs = {**_SEGMENT, **fields}.items()
    segment = ", ".join(f'"{key}": {text}' for key, text in pairs if text is not None)
    return f'{{"segments": [{{{segment}}}]}}'.encode()


# schedule-file bodies by name: a valid schedule, text that is not UTF-8 or
# not JSON, a segments value that is no array, fields that are no JSON number
# or are missing, and each finite edge value, 1e400 and -1e400 as a JSON
# number in one of the fields in turn
_EDGE_JSON = (*(x for x in NUMBERS if x not in ("inf", "-inf", "nan")), "1e400", "-1e400")
SCHEDULE_BODIES = {
    "valid": _schedule(),
    "not-utf8": b"\xff\xfe{}",
    "not-json": b"segments: [1, 2]",
    "segments-text": b'{"segments": "abc"}',
    "segments-number": b'{"segments": 5}',
    "field-true": _schedule(omega_s_radps="true"),
    "field-text": _schedule(omega_s_radps='"2"'),
    "field-null": _schedule(omega_s_radps="null"),
    "missing-key": _schedule(omega_s_radps=None),
    **{f"edge-{text}": _schedule(**{list(_SEGMENT)[i % 3]: text})
       for i, text in enumerate(_EDGE_JSON)},
}
# written under the test's own directory, for which "@schedules" stands
SCHEDULE_FILES = (*(f"@schedules/{name}.json" for name in SCHEDULE_BODIES),
                  "@schedules/missing.json", "@schedules")

# per subcommand: (leading words, flags always given, flags given or not);
# a flag maps to its value pool, or to None when it takes no value
COMMANDS = {
    "bound": (("classical", "quantum", "gate", "ballistic"), {}, {
        "n": NUMBERS, "time": DURATIONS, "work": NUMBERS, "power": NUMBERS,
        "temp": NUMBERS, "psuccess": NUMBERS, "solve": ("work", "time", "psuccess", "n"),
        "corrected-errors": COUNTS}),
    "keylength": ((), {}, {
        "scenario": ("datacenter", "dyson", "cosmic", "moonbase"), "work": NUMBERS,
        "power": NUMBERS, "time": DURATIONS, "psuccess": NUMBERS, "temp": NUMBERS,
        "mode": ("quantum", "classical", "deterministic", "recoverable", "table")}),
    "bht": ((), {"time": DURATIONS, "temp": NUMBERS}, {
        "n": NUMBERS, "psuccess": NUMBERS, "samples": NUMBERS, "invert": None,
        "work": NUMBERS, "power": NUMBERS}),
    "cosmic": ((), {"h0": NUMBERS, "omega-lambda": NUMBERS + ("0.7",)}, {
        "rho-m": NUMBERS, "form": ("fromOmega", "fromDensity")}),
    "simulate": ((), {"protocol": ("ballistic", "grover", "adiabatic", "custom"),
                      "n": tuple(map(str, range(-1, 7)))}, {
        "work": NUMBERS, "work-radps": NUMBERS, "time": DURATIONS, "pulse-phase": NUMBERS,
        "error-budget": NUMBERS, "dt": DURATIONS, "schedule-file": SCHEDULE_FILES}),
}


def _config_value(pool):
    """A JSON value for the config key of a flag with this value pool: true,
    false, null or a pool value (also as a JSON number where the pool holds
    numbers), and one time in ten a list of them."""
    scalars = st.sampled_from((True, False, None, *(pool or ()),
                               *(EDGE_FLOATS if pool is NUMBERS else ())))
    return st.integers(0, 9).flatmap(
        lambda i: st.lists(scalars, max_size=2) if i == 0 else scalars)


@st.composite
def argvs(draw):
    """A subcommand and its flags, each written --flag=value so that negative
    values stay values; one bit mask says which optional flags are given.
    Half the draws also hold a config, a second mask saying which flags are
    its keys; the other half hold None."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    words, required, optional = COMMANDS[command]
    argv = [command, *([draw(st.sampled_from(words))] if words else [])]
    given = draw(st.integers(0, 2 ** len(optional) - 1))
    flags = [*required.items(), *(f for i, f in enumerate(optional.items()) if given >> i & 1)]
    for flag, pool in flags:
        argv.append(f"--{flag}" if pool is None
                    else f"--{flag}={pool[draw(st.integers(0, len(pool) - 1))]}")
    argv += draw(st.sampled_from(([], ["--format=csv"], ["--format=json"])))
    if not draw(st.booleans()):
        return argv, None
    keys = {**required, **optional, "format": ("json", "csv")}
    chosen = draw(st.integers(0, 2 ** len(keys) - 1))
    return argv, {flag: draw(_config_value(pool))
                  for i, (flag, pool) in enumerate(keys.items()) if chosen >> i & 1}


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def _check_csv(text: str) -> None:
    assert text.endswith("\n")
    for cell in text.replace("\n", ",").split(","):
        try:
            value = float(cell)
        except ValueError:
            continue
        assert math.isfinite(value), f"non-finite CSV cell {cell!r}"


def _plain(argv: str):
    """An argv without a config file."""
    return argv.split(), None


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


@pytest.fixture(scope="module")
def schedule_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("schedules")
    for name, body in SCHEDULE_BODIES.items():
        (path / f"{name}.json").write_bytes(body)
    return str(path)


@settings(max_examples=500, deadline=None)
@given(argvs())
# NaN temperatures passed BoundQuery, Scenario and landauer_energy
@example(_plain("bound classical --n 8 --time 1s --temp nan --psuccess 0.5"))
@example(_plain("keylength --work 1e16 --time 1a --psuccess 0.01 --temp nan --mode classical"))
@example(_plain("bht --invert --work 1 --time 1e-300s --temp nan --psuccess 1e-320"))
# durations that overflow to inf
@example(_plain("simulate --protocol ballistic --n 3 --work-radps 1 --dt 1e300Ta --format json"))
@example(_plain("bht --n 1e308 --time 1e300Ta --temp 48.5"))
@example(_plain("bht --n nan --time 1s --temp 300 --samples 1000"))
# h/(4t) and hbar/t underflowed inside the log-space work
@example(_plain("bht --n 1e69 --time 1e300s --temp 1000"))
@example(_plain("bht --n 300 --time 1e300s --temp 5e-324"))
@example(_plain("bht --n 5000 --time 1e300s --temp 1e16 --psuccess 1e-300 --samples 1000"))
@example(_plain("bht --n 5e-324 --time 1e300s --temp 5e-324 --psuccess 1"))
# epsilon * E underflows; E / hbar overflows
@example(_plain("simulate --protocol adiabatic --n 6 --work-radps 48.5 --error-budget 5e-324"))
@example(_plain("simulate --protocol adiabatic --n 4 --work 1e300 --error-budget 1e-300"))
# the pacing rate overflows while the segment duration underflows: inf * 0
@example(_plain("simulate --protocol=adiabatic --n=1 --work=1e+300"))
@example(_plain("bound ballistic --n 1.7976931348623157e308 --time 1e308s --work 1e300"))
# an infinite temperature or matter density echoed into the result
@example(_plain("keylength --work 1e16 --time 5a --psuccess 0.01 --temp inf --mode classical"))
@example(_plain("cosmic --h0 300 --omega-lambda 0.7 --rho-m inf"))
# k (n + 1) overflows against a zero Landauer energy: inf * 0
@example(_plain("bht --n 1e308 --time 0.5s --temp 1e-320 --samples 1e308"))
# config values the parser once never saw: text, a list
@example(("bound quantum --time 1s --psuccess 1".split(), {"n": "40"}))
@example(("bound quantum --time 1s --psuccess 1".split(), {"n": [40]}))
# no budget at all for the classical time
@example(_plain("bound classical --n 8 --temp 300 --psuccess 0.5 --solve time"))
# a schedule file that is not UTF-8 once escaped main as a raw UnicodeDecodeError
@example(_plain("simulate --protocol custom --n 3 --schedule-file @schedules/not-utf8.json"))
@example(_plain("simulate --protocol custom --n 3 --schedule-file @schedules/edge-1e400.json"))
@example(_plain("simulate --protocol custom --n 3 --schedule-file @schedules"))
@example(("simulate --protocol custom --n 3".split(), {"schedule-file": "@schedules/valid.json"}))
def test_every_argv_ends_in_a_result_or_one_structured_error(config_dir, schedule_dir, call):
    argv, config = call
    argv = [token.replace("@schedules", schedule_dir) for token in argv]
    if config is not None:
        path = config_dir / "cfg.json"
        path.write_text(json.dumps(config).replace("@schedules", schedule_dir))
        argv = [*argv, "--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err == ""
        if parse_argv(argv).format == "csv":
            _check_csv(out)
        else:
            json.loads(out, parse_constant=_reject_constant)
    elif code == 1:
        assert out == ""
        error = json.loads(err, parse_constant=_reject_constant)
        assert isinstance(error, dict) and error["kind"]
    else:
        assert code == 2 and out == ""
        assert "error:" in err and "Traceback" not in err
