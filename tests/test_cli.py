import json
import math
import os
import subprocess
import sys

import pytest

import qlimits
from qlimits.bht import bht_min_image_bits
from qlimits.bounds import QUANTUM_TAG as QUANTUM_KEY_TAG
from qlimits.cli import build_parser, main
from qlimits.constants import HBAR
from qlimits.keylength import max_deterministic_keylength


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestKeylengthCommand:
    def test_scenario_table_row(self, capsys):
        payload = run_json(capsys, "keylength", "--scenario", "datacenter")
        assert payload["quantum_bits"] == 394
        assert payload["classical_bits"] == 128
        assert payload["constants_version"]

    def test_all_scenarios(self, capsys):
        for name, bits in (("datacenter", 394), ("dyson", 667), ("cosmic", 872)):
            payload = run_json(capsys, "keylength", "--scenario", name)
            assert payload["quantum_bits"] == bits

    def test_custom_quantum_mode(self, capsys):
        payload = run_json(
            capsys, "keylength", "--work", repr(HBAR * 1e6), "--time", "1s",
            "--psuccess", "1", "--mode", "quantum",
        )
        assert payload["quantum_bits"] == 40

    def test_deterministic_mode(self, capsys):
        payload = run_json(
            capsys, "keylength", "--work", "4.62e69", "--time", "1e14a",
            "--psuccess", "1e-12", "--mode", "deterministic",
        )
        assert payload["deterministic_bits"] == 830

    def test_deterministic_mode_past_float_range(self, capsys):
        code, out, err = run(
            capsys, "keylength", "--work", "1e300", "--time", "1e300s",
            "--psuccess", "1", "--mode", "deterministic",
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["deterministic_bits"] == max_deterministic_keylength(1e300, 1e300)

    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "keylength", "--scenario", "dyson", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "classical_bits,work_J,time_s,p_success,scenario,quantum_bits"
        cells = row.split(",")
        assert cells[0] == "256" and cells[4] == "dyson" and cells[5] == "667"


class TestBoundCommand:
    def test_quantum_two_bit(self, capsys):
        payload = run_json(
            capsys, "bound", "quantum", "--n", "2", "--time", "1s", "--psuccess", "1"
        )
        assert payload["value"] == pytest.approx(math.sqrt(3.0) * HBAR, rel=1e-12)
        assert payload["unit"] == "J"

    def test_power_equals_work_times_time(self, capsys):
        power, time_s = 1e-4, 100.0
        work = power * time_s
        b_work = run_json(
            capsys, "bound", "classical", "--n", "64", "--work", repr(work),
            "--time", "100s", "--temp", "300", "--solve", "psuccess",
        )
        b_power = run_json(
            capsys, "bound", "classical", "--n", "64", "--power", repr(power),
            "--time", "100s", "--temp", "300", "--solve", "psuccess",
        )
        assert b_power["value"] == b_work["value"]

    def test_power_equals_work_in_keylength(self, capsys):
        a = run_json(
            capsys, "keylength", "--power", "1e8", "--time", "5a",
            "--psuccess", "1e-2", "--mode", "quantum",
        )
        b = run_json(
            capsys, "keylength", "--work", repr(1e8 * 5 * 3.15576e7),
            "--time", "5a", "--psuccess", "1e-2", "--mode", "quantum",
        )
        assert a["quantum_bits"] == b["quantum_bits"]

    def test_quantum_solve_n(self, capsys):
        payload = run_json(
            capsys, "bound", "quantum", "--work", repr(HBAR * 1e6), "--time", "1s",
            "--psuccess", "1", "--solve", "n",
        )
        assert payload["value"] == pytest.approx(39.86, abs=0.01)
        assert payload["unit"] == "bits"

    @pytest.mark.parametrize("kind", ["quantum", "classical"])
    def test_psuccess_past_certainty_is_a_domain_error(self, capsys, kind):
        code, out, err = run(
            capsys, "bound", kind, "--solve", "psuccess", "--n", "10", "--time", "1s",
            "--work", "1e10", "--temp", "300",
        )
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["kind"] == "domain"
        assert error["message"] == "budget exceeds the requirement for P_s = 1"

    def test_quantum_solve_n_past_double_range(self, capsys):
        argv = ("--work", "1e300", "--time", "1e300s", "--psuccess", "1")
        payload = run_json(capsys, "bound", "quantum", "--solve", "n", *argv)
        assert payload["value"] == pytest.approx(4212.05, abs=0.01)
        keylength = run_json(capsys, "keylength", "--mode", "quantum", *argv)
        assert keylength["quantum_bits"] == math.ceil(payload["value"])

    @pytest.mark.parametrize("argv", [
        ("quantum", "--solve", "time", "--n", "5000", "--work", "1", "--psuccess", "1"),
        ("classical", "--solve", "work", "--n", "5000", "--time", "1s", "--temp", "300",
         "--psuccess", "1"),
    ])
    def test_solved_value_past_double_range_is_infeasible(self, capsys, argv):
        code, out, err = run(capsys, "bound", *argv)
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["kind"] == "infeasible"
        assert "past double range" in error["message"]
        assert "Infinity" not in err

    @pytest.mark.parametrize("argv", [
        ("quantum", "--solve", "work", "--n", "10", "--time", "1e308s", "--psuccess", "1"),
        ("ballistic", "--solve", "time", "--n", "10", "--work", "1e308"),
        # once "time must lie in [0, 0]": t_F underflowed to 0.0
        ("ballistic", "--solve", "psuccess", "--n", "10", "--time", "1s", "--power", "1e308"),
    ])
    def test_solved_value_below_double_range_is_infeasible(self, capsys, argv):
        code, out, err = run(capsys, "bound", *argv)
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["kind"] == "infeasible"
        assert error["message"].endswith("lies below double range")

    def test_quantum_solve_psuccess_where_work_times_time_overflows(self, capsys):
        payload = run_json(
            capsys, "bound", "quantum", "--solve", "psuccess", "--n", "3000",
            "--work", "1e200", "--time", "1e200s",
        )
        assert payload["value"] == pytest.approx(7.309e-36, rel=1e-3)

    def test_scenario_classical_mode(self, capsys):
        payload = run_json(
            capsys, "keylength", "--scenario", "datacenter", "--mode", "classical"
        )
        assert abs(payload["classical_bits"] - 128) <= 1
        assert payload["below_floor"] is False

    def test_gate_bound(self, capsys):
        payload = run_json(
            capsys, "bound", "gate", "--n", "128", "--time", "1s", "--psuccess", "1"
        )
        assert payload["value"] == pytest.approx(6.111e-15, rel=1e-3)

    def test_ballistic_time(self, capsys):
        payload = run_json(
            capsys, "bound", "ballistic", "--n", "128", "--work", "6.5e-6",
            "--solve", "time",
        )
        assert payload["value"] <= 1e-9

    def test_ballistic_probability(self, capsys):
        t_final = 0.5 * math.pi * (2.0**6 + 1.0) * HBAR / 1e-25
        payload = run_json(
            capsys, "bound", "ballistic", "--n", "12", "--work", "1e-25",
            "--time", f"{t_final!r}s",
        )
        assert payload["value"] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_exit_code(self, capsys):
        code, out, err = run(
            capsys, "bound", "classical", "--n", "128", "--work", "1e-25",
            "--time", "1s", "--temp", "300", "--solve", "psuccess",
        )
        assert code == 1
        error = json.loads(err)
        assert error["kind"] == "infeasible"

    def test_usage_error_exit_code(self, capsys):
        code, _, _ = run(capsys, "bound", "quantum", "--nonsense", "1")
        assert code == 2

    def test_work_power_conflict_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "bound", "quantum", "--n", "8", "--time", "1s",
            "--psuccess", "1", "--work", "1", "--power", "1",
        )
        assert code == 2


class TestSimulateCommand:
    def test_grover_past_trace_capacity(self, capsys):
        # about 1.7e9 segments: refused from the count, before any is built
        import tracemalloc

        tracemalloc.start()
        try:
            code, out, err = run(capsys, "simulate", "--protocol", "grover", "--n", "60",
                                 "--work", "1e-30")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert json.loads(err)["kind"] == "capacity"
        assert peak < 1 << 20

    def test_adiabatic_past_trace_capacity(self, capsys):
        # 2^24 default segments at n = 40: past the (2^24 - 1)//2 segments
        # that evolve's sample bound admits, so refused from the count
        import tracemalloc

        tracemalloc.start()
        try:
            code, out, err = run(capsys, "simulate", "--protocol", "adiabatic", "--n", "40",
                                 "--work", "1e-30")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["kind"] == "capacity" and error["offending_input"] == 2 ** 24
        assert peak < 1 << 20

    def test_ballistic_csv_trace(self, capsys, tmp_path):
        # csv is the default trace format
        out_file = tmp_path / "trace.csv"
        code, _, err = run(
            capsys, "simulate", "--protocol", "ballistic", "--n", "12",
            "--work-radps", "1000", "--out", str(out_file),
        )
        assert code == 0, err
        lines = out_file.read_text().strip().split("\n")
        assert lines[0].startswith("t_s,omega_i,omega_s,P_s")
        final_ps = float(lines[-1].split(",")[3])
        assert final_ps >= 1.0 - 1e-9

    def test_schedule_json_round_trip(self, capsys, tmp_path):
        first = tmp_path / "run1.json"
        second = tmp_path / "run2.json"
        code, _, _ = run(
            capsys, "simulate", "--protocol", "ballistic", "--n", "10",
            "--work-radps", "500", "--format", "json", "--out", str(first),
        )
        assert code == 0
        code, _, _ = run(
            capsys, "simulate", "--protocol", "custom", "--n", "10",
            "--schedule-file", str(first), "--format", "json", "--out", str(second),
        )
        assert code == 0
        a, b = json.loads(first.read_text()), json.loads(second.read_text())
        assert a["segments"] == b["segments"]
        assert a["trace"] == b["trace"]

    @pytest.mark.parametrize("body", ['{"segments": 5}', '{"segments": null}'])
    def test_schedule_file_without_a_segment_array_is_a_parse_error(self, capsys, tmp_path,
                                                                     body):
        schedule = tmp_path / "schedule.json"
        schedule.write_text(body)
        code, out, err = run(capsys, "simulate", "--protocol", "custom", "--n", "3",
                             "--schedule-file", str(schedule))
        assert code == 1 and out == ""
        assert json.loads(err)["kind"] == "parse"

    @pytest.mark.parametrize("body, kind, message", [
        # bytes that are not UTF-8 once escaped main as a raw UnicodeDecodeError
        (b"\xff\xfe{}", "parse", "schedule file is not valid JSON"),
        (b"segments: []", "parse", "schedule file is not valid JSON"),
        # the parser's and the schedule's own refusals keep their messages
        (b'{"segments": [{"duration_s": 1.0}]}', "parse", "bad schedule segment #0"),
        (b'{"segments": [{"duration_s": -1.0, "omega_i_radps": 1.0, "omega_s_radps": 1.0}]}',
         "domain", "segment duration must be finite and > 0"),
    ])
    def test_schedule_file_errors_are_structured(self, capsys, tmp_path, body, kind, message):
        schedule = tmp_path / "schedule.json"
        schedule.write_bytes(body)
        code, out, err = run(capsys, "simulate", "--protocol", "custom", "--n", "3",
                             "--schedule-file", str(schedule))
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["kind"] == kind and error["message"].startswith(message)

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_schedule_path_that_cannot_be_read_is_an_io_error(self, capsys, tmp_path, name):
        code, out, err = run(capsys, "simulate", "--protocol", "custom", "--n", "3",
                             "--schedule-file", str(tmp_path / name))
        assert code == 1 and out == ""
        assert json.loads(err)["kind"] == "io"

    @pytest.mark.parametrize("field, value", [("duration_s", True), ("omega_i_radps", "2")])
    def test_schedule_segment_fields_must_be_json_numbers(self, capsys, tmp_path, field,
                                                          value):
        # true and "2" were once read as float(true) = 1 s and float("2") = 2 rad/s
        segment = {"duration_s": 1.0, "omega_i_radps": 2.0, "omega_s_radps": 2.0, field: value}
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps({"segments": [segment]}))
        code, out, err = run(capsys, "simulate", "--protocol", "custom", "--n", "3",
                             "--schedule-file", str(schedule))
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["kind"] == "parse"
        assert error["message"].startswith("bad schedule segment #0")

    def test_reruns_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "simulate", "--protocol", "grover", "--n", "8",
                         "--work", "1e-30")
        _, out2, _ = run(capsys, "simulate", "--protocol", "grover", "--n", "8",
                         "--work", "1e-30")
        assert out1 == out2

    def test_adiabatic_runs(self, capsys):
        payload = run_json(
            capsys, "simulate", "--protocol", "adiabatic", "--n", "6",
            "--work", "1e-30", "--error-budget", "0.1", "--format", "json",
        )
        assert payload["trace"][-1]["P_s"] > 0.99

    def test_truncation(self, capsys):
        payload = run_json(
            capsys, "simulate", "--protocol", "ballistic", "--n", "8",
            "--work-radps", "100", "--time", "0.1s", "--format", "json",
        )
        assert payload["trace"][-1]["t_s"] == pytest.approx(0.1, rel=1e-12)


class TestOtherCommands:
    def test_cosmic_budget(self, capsys):
        payload = run_json(
            capsys, "cosmic", "--h0", "67.36", "--omega-lambda", "0.6847"
        )
        assert payload["work_J"] == pytest.approx(4.62e69, rel=5e-3)

    def test_cosmic_from_density(self, capsys):
        payload = run_json(
            capsys, "cosmic", "--h0", "67.36", "--omega-lambda", "0.6847",
            "--rho-m", "2.69e-27", "--form", "fromDensity",
        )
        assert payload["work_J"] == pytest.approx(4.63e69, rel=1e-2)

    def test_bht_plan(self, capsys):
        payload = run_json(
            capsys, "bht", "--n", "40", "--time", "1s", "--temp", "300",
            "--psuccess", "1",
        )
        assert payload["k"] == 1.0
        assert payload["work_J"] > 0.0

    def test_bht_fixed_samples(self, capsys):
        payload = run_json(
            capsys, "bht", "--n", "40", "--time", "1s", "--temp", "300",
            "--psuccess", "1", "--samples", "8",
        )
        assert payload["k"] == 8.0
        assert payload["log2_k"] == 3.0
        assert 0.0 < payload["t_s_s"] < 1.0

    def test_bht_fixed_samples_whose_root_overflows(self, capsys):
        # sqrt(2^n P_s / k - 1) lies past double range; hbar/t scales it back
        payload = run_json(
            capsys, "bht", "--n", "5000", "--samples", "1000", "--time", "1e300s",
            "--temp", "1e16", "--psuccess", "1e-300",
        )
        assert payload["work_J"] == pytest.approx(1.25332967060200696e267, rel=1e-12)

    def test_bht_invert(self, capsys):
        payload = run_json(
            capsys, "bht", "--invert", "--work", "1e16", "--time", "5a",
            "--temp", "300", "--psuccess", "1e-2",
        )
        assert payload["min_image_bits"] > 400

    def test_bht_invert_past_double_range(self, capsys):
        # hbar/t underflows and the sampling bracket overflows at t = 1e300 s
        code, out, err = run(
            capsys, "bht", "--invert", "--work", "1e300", "--time", "1e300s",
            "--temp", "300", "--psuccess", "1",
        )
        assert code == 1 and out == ""
        assert json.loads(err)["kind"] == "domain"
        payload = run_json(
            capsys, "bht", "--invert", "--work", "1e30", "--time", "1e300s",
            "--temp", "300", "--psuccess", "1",
        )
        assert payload["min_image_bits"] == bht_min_image_bits(1e30, 1e300, 300.0, 1.0)

    def test_scenario_list_and_show(self, capsys):
        payload = run_json(capsys, "scenario", "list")
        assert [row["name"] for row in payload] == ["cosmic", "datacenter", "dyson"]
        payload = run_json(capsys, "scenario", "show", "dyson")
        assert payload["work_J"] == 8e43
        assert payload["solar_luminosity_budget_J"] == pytest.approx(6.04e43, rel=1e-2)

    def test_unknown_scenario_is_domain_error(self, capsys):
        code, _, err = run(capsys, "scenario", "show", "moonbase")
        assert code == 1
        assert json.loads(err)["kind"] == "lookup"

    def test_config_file_fills_defaults(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scenario": "datacenter"}))
        payload = run_json(capsys, "keylength", "--config", str(config))
        assert payload["quantum_bits"] == 394

    def test_config_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scenario": "datacenter", "warp": 9}))
        code, _, err = run(capsys, "keylength", "--config", str(config))
        assert code == 1
        assert json.loads(err)["kind"] == "parse"

    def test_grover_pulse_phase_flag(self, capsys):
        _, out_pi, _ = run(capsys, "simulate", "--protocol", "grover", "--n", "6",
                           "--work", "1e-30")
        _, out_half, _ = run(capsys, "simulate", "--protocol", "grover", "--n", "6",
                             "--work", "1e-30", "--pulse-phase", repr(math.pi / 2))
        assert out_pi != out_half
        final_pi = float(out_pi.strip().split("\n")[-1].split(",")[3])
        assert final_pi > 0.9

    def test_flags_beat_config(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scenario": "datacenter"}))
        payload = run_json(
            capsys, "keylength", "--config", str(config), "--scenario", "dyson"
        )
        assert payload["quantum_bits"] == 667


def write_config(tmp_path, entries: dict) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(entries))
    return str(path)


class TestConfigEntriesAreFlags:
    """A config entry "key": value is the flag --key=value, read by the same
    parser ahead of the command line's own flags.  Each test here failed while
    the file was read apart from the parser."""

    def test_a_value_is_read_by_its_flags_type(self, capsys, tmp_path):
        # "40" once reached the bound as text and ended in a raw TypeError
        payload = run_json(capsys, "bound", "quantum", "--time", "1s", "--psuccess", "1",
                           "--config", write_config(tmp_path, {"n": "40"}))
        assert payload["inputs"]["n"] == 40

    def test_a_list_is_one_structured_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "bound", "quantum", "--time", "1s", "--psuccess", "1",
                             "--config", write_config(tmp_path, {"n": [40]}))
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        error = json.loads(err, parse_constant=_reject_constant)
        assert error["kind"] == "parse" and "'n'" in error["message"]

    @pytest.mark.parametrize("argv, flags, entries", [
        # a flag with a default (table, False) was once never set from the file
        (["keylength", "--scenario", "datacenter"], ["--mode", "quantum"], {"mode": "quantum"}),
        (["bht", "--work", "1e16", "--time", "5a", "--temp", "300", "--psuccess", "1e-2"],
         ["--invert"], {"invert": True}),
        # a required flag could once come only from the command line
        (["simulate"], ["--protocol", "ballistic", "--n", "8", "--work-radps", "100"],
         {"protocol": "ballistic", "n": 8, "work-radps": 100}),
        (["bht", "--n", "40"], ["--time", "1s", "--temp", "300"], {"time": "1s", "temp": 300}),
    ], ids=["mode", "invert", "simulate required", "bht required"])
    def test_an_entry_does_what_its_flag_does(self, capsys, tmp_path, argv, flags, entries):
        from_flags = run(capsys, *argv, *flags)
        from_file = run(capsys, *argv, "--config", write_config(tmp_path, entries))
        assert from_flags[0] == 0 and from_file == from_flags

    def test_a_key_that_is_no_flag_of_the_command_is_a_parse_error(self, capsys, tmp_path):
        # "command" names the namespace attribute of the subcommand, not a flag
        code, out, err = run(capsys, "bht", "--n", "40", "--time", "1s", "--temp", "300",
                             "--config", write_config(tmp_path, {"command": "bht"}))
        assert (code, out) == (1, "")
        assert json.loads(err)["kind"] == "parse"

    def test_a_bare_number_is_no_duration(self, capsys, tmp_path):
        # {"time": 5} once meant 5 s; it is --time=5, which needs a unit
        code, out, err = run(capsys, "bht", "--n", "40", "--temp", "300",
                             "--config", write_config(tmp_path, {"time": 5}))
        assert (code, out) == (2, "")
        assert "argument --time" in err

    def test_false_and_null_leave_the_flag_unset(self, capsys, tmp_path):
        argv = ["bht", "--n", "40", "--time", "1s", "--temp", "300"]
        config = write_config(tmp_path, {"invert": False, "samples": None})
        assert run(capsys, *argv, "--config", config) == run(capsys, *argv)

    @pytest.mark.parametrize("argv, entries", [
        (["keylength", "--mode", "quantum", "--work", "1", "--power", "1"], {}),
        (["keylength", "--mode", "quantum", "--work", "1"], {"power": 1}),
        (["bht", "--invert", "--temp", "300", "--work", "1", "--power", "1"], {}),
        (["bht", "--invert", "--temp", "300", "--power", "1"], {"work": 1}),
    ], ids=["keylength flags", "keylength file", "bht flags", "bht file"])
    def test_work_with_power_is_a_usage_error(self, capsys, tmp_path, argv, entries):
        # the power was once dropped in favour of the work
        code, out, err = run(capsys, *argv, "--time", "1s", "--psuccess", "1",
                             "--config", write_config(tmp_path, entries))
        assert (code, out) == (2, "")
        assert "not allowed with argument" in err


def test_one_parser_serves_every_call(capsys):
    argvs = [
        ["simulate", "--protocol", "ballistic", "--n", "8", "--work-radps", "100",
         "--format", "json"],
        ["bound", "quantum", "--n", "2", "--time", "1s", "--psuccess", "1"],
        ["simulate", "--protocol", "ballistic", "--n", "8", "--work-radps", "100"],
        ["bound", "quantum", "--n", "2", "--solve", "nonsense"],
        ["--version"],
        ["bound", "quantum", "--n", "2", "--time", "1s", "--psuccess", "1",
         "--format", "csv"],
    ]

    def run_all(fresh):
        results = []
        for argv in argvs:
            if fresh:
                build_parser.cache_clear()
            results.append(run(capsys, *argv))
        return results

    reused = run_all(fresh=False)
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0, 0]
    assert reused == run_all(fresh=True)
    assert build_parser() is build_parser()


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


@pytest.mark.parametrize("flag", ["--schedule-file", "--config"])
def test_a_deeply_nested_file_is_a_parse_error(capsys, tmp_path, flag):
    # json.load raises RecursionError, not a ValueError: the file once escaped
    # main as a raw traceback through both readers
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "simulate", "--protocol", "custom", "--n", "3",
                         flag, str(nested))
    assert (code, out) == (1, "")
    error = json.loads(err, parse_constant=_reject_constant)
    assert error["kind"] == "parse" and error["offending_input"] == str(nested)


@pytest.mark.parametrize("argv, message", [
    # Omega_Lambda^1.5 underflows to 0 in the denominator
    (["cosmic", "--h0", "67", "--omega-lambda", "1e-320"], "outside double range"),
    # H0 overflows in the unit conversion; the energy would print as 0
    (["cosmic", "--h0", "1e308", "--omega-lambda", "0.7"], "H0 must be finite"),
    # the horizon radius cubed overflows
    (["cosmic", "--h0", "1e-300", "--omega-lambda", "0.7", "--rho-m", "1e-27",
      "--form", "fromDensity"], "outside double range"),
    (["keylength", "--mode", "deterministic", "--work", "inf", "--time", "1s",
      "--psuccess", "1"], "work must be finite and > 0"),
    (["keylength", "--mode", "quantum", "--power", "inf", "--time", "1s",
      "--psuccess", "1"], "power must be finite and > 0"),
    (["keylength", "--mode", "quantum", "--power", "1e308", "--time", "1e10s",
      "--psuccess", "1"], "power * time must be finite and > 0"),
    (["bht", "--invert", "--work", "1e16", "--time", "1s", "--temp", "300",
      "--psuccess", "0"], "success probability must lie in (0, 1]"),
    (["bound", "quantum", "--solve", "psuccess", "--n", "8", "--time", "1s",
      "--work", "inf"], "work must be finite and > 0"),
    # int(n) once raised OverflowError here; a plan at n = inf is no plan
    (["bht", "--n", "inf", "--time", "5a", "--temp", "300", "--psuccess", "0.5"],
     "image size n must be finite"),
    (["bht", "--n", "inf", "--time", "1e300s", "--temp", "1", "--psuccess", "1e-320"],
     "image size n must be finite"),
])
def test_out_of_range_input_is_one_structured_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    error = json.loads(err, parse_constant=_reject_constant)  # exactly one strict JSON object
    assert error["kind"] == "domain"
    assert message in error["message"]


@pytest.mark.parametrize("argv, n", [
    # the plan is computed at n = 48.5 and must say so
    (["bht", "--n", "48.5", "--time", "1s", "--temp", "300", "--psuccess", "1"], 48.5),
    (["bht", "--n", "48", "--time", "1s", "--temp", "300", "--psuccess", "1"], 48),
    # t_F overflows, but any finite time lies within it
    (["bound", "ballistic", "--solve", "psuccess", "--n", "3000", "--work", "1",
      "--time", "1s"], 3000),
])
def test_results_report_the_n_they_were_computed_at(capsys, argv, n):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload.get("n", payload.get("inputs", {}).get("n")) == n


@pytest.mark.parametrize("argv", [
    ["bound", "ballistic", "--solve", "time", "--n", "3000", "--work", "1"],
    ["bound", "gate", "--solve", "work", "--n", "1e300", "--psuccess", "1", "--time", "1s"],
    # 2n overflows too, which at zero temperature once gave 0 * inf = NaN
    ["bound", "gate", "--solve", "work", "--n", "1e308", "--psuccess", "1", "--time", "1s"],
    ["bht", "--n", "5000", "--time", "1s", "--temp", "300", "--psuccess", "1"],
])
def test_results_past_double_range_are_infeasible(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    error = json.loads(err, parse_constant=_reject_constant)  # exactly one strict JSON object
    assert error["kind"] == "infeasible"
    assert "past double range" in error["message"]


def test_a_lookup_error_prints_its_message_unquoted(capsys):
    # KeyError.__str__ once printed the message's repr, quotes and all
    code, out, err = run(capsys, "keylength", "--scenario", "nope")
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == (
        "unknown scenario 'nope'; valid names: ['cosmic', 'datacenter', 'dyson']")


def test_deterministic_mode_needs_no_success_probability(capsys):
    # --psuccess was once required here, though the ballistic time never reads it
    payload = run_json(capsys, "keylength", "--mode", "deterministic",
                       "--work", "1e16", "--time", "5a")
    assert payload["deterministic_bits"] == 385
    assert "p_success" not in payload


def test_recoverable_mode_is_one_below_the_secure_length(capsys):
    payload = run_json(capsys, "keylength", "--mode", "recoverable", "--work", "1e16",
                       "--time", "5a", "--psuccess", "1e-2")
    assert payload["recoverable_bits"] == 393
    assert payload["formula_tag"] == QUANTUM_KEY_TAG


def test_table_row_without_a_scenario(capsys):
    payload = run_json(capsys, "keylength", "--work", "1e16", "--time", "5a",
                       "--psuccess", "1e-2", "--temp", "300")
    assert (payload["scenario"], payload["classical_bits"]) == ("custom", None)
    assert (payload["quantum_bits"], payload["solved_classical_bits"]) == (394, 129)


@pytest.mark.parametrize("argv, message", [
    (["keylength", "--work", "1e16", "--time", "5a", "--psuccess", "1e-2"],
     "--temp is required for the classical column"),
    (["keylength", "--mode", "classical", "--work", "1e16", "--time", "5a",
      "--psuccess", "1e-2"], "--temp is required for the classical solver"),
    (["keylength", "--mode", "quantum", "--work", "1e16", "--time", "5a"],
     "--time and --psuccess are required without --scenario"),
    (["keylength", "--mode", "deterministic", "--work", "1e16"],
     "--time is required without --scenario"),
    (["keylength", "--mode", "quantum", "--time", "5a", "--psuccess", "1"],
     "a work budget is required (--work or --power with --time)"),
    (["bound", "gate", "--solve", "time", "--n", "8", "--time", "1s", "--psuccess", "1"],
     "the gate bound only solves for work"),
    (["bound", "ballistic", "--solve", "n", "--n", "8", "--work", "1"],
     "the ballistic relation solves time or psuccess, not n"),
    (["bound", "ballistic", "--work", "1"], "--n is required"),
    (["bound", "ballistic", "--solve", "time", "--n", "8"], "--work is required"),
    (["bound", "ballistic", "--solve", "psuccess", "--n", "8", "--work", "1"],
     "--time is required to evaluate the success probability"),
    (["scenario", "show"], "scenario show requires a name"),
    (["keylength", "--config"], "argument --config: expected one argument"),
])
def test_missing_flag_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"qlimits {argv[0]}: error: {message}\n")  # after argparse's usage


def test_config_file_holding_a_list_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1]")
    code, out, err = run(capsys, "keylength", "--config", str(path))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"kind": "parse", "offending_input": str(path),
                               "message": "config file must contain a JSON object"}


def test_module_runs_as_a_program():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.dirname(qlimits.__path__[0]), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "qlimits.cli", "scenario", "show", "dyson"],
                          capture_output=True, text=True, env=env, check=False)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["work_J"] == 8e43
    done = subprocess.run([sys.executable, "-m", "qlimits.cli", "scenario", "show"],
                          capture_output=True, text=True, env=env, check=False)
    assert (done.returncode, done.stdout) == (2, "")
