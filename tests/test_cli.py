"""CLI tests: subcommand contracts, exit codes, stage composability, and
byte-identical determinism of artifact files."""

import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from offload_planner import cli, verify
from offload_planner.cli import main
from offload_planner.evaluation import Measurement
from offload_planner.ga import GaConfig
from offload_planner.planner import Allocation
from offload_planner.verify import PerformanceRow, RegressionRow, VerificationReport
from offload_planner.minic.parser import ParseError, parse_program
from offload_planner.offload import HOST_TO_DEVICE, TransferPlan

from conftest import CORPUS

REPO = CORPUS.parent
SUBCOMMANDS = ["analyze", "search", "plan", "verify", "run-all"]
ARTIFACTS = ["loops.json", "pattern.json", "g3.acc.mc", "search.json",
             "plan.json", "report.json"]


@pytest.fixture
def workdir(tmp_path):
    for path in CORPUS.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / path.name)
    return tmp_path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def read_artifacts(outdir: Path) -> dict:
    return {name: (outdir / name).read_bytes() for name in ARTIFACTS}


def test_plan_subcommand_paper_example(tmp_path):
    code = run_cli("plan", "--measure", "10,5", "--price-cpu", "1000",
                   "--price-dev", "4000", "--budget", "10000", "-o", tmp_path)
    assert code == 0
    data = json.loads((tmp_path / "plan.json").read_text())
    assert data["allocation"]["cpu_units"] == 2
    assert data["allocation"]["dev_units"] == 1
    assert data["allocation"]["monthly_cost"] == 6000.0
    assert data["allocation"]["ratio_kept"] is True
    assert data["ratio"] == {"cpu": 2, "dev": 1}
    assert data["inputs"] == {"t_cpu": 10.0, "t_dev": 5.0, "budget": 10000.0,
                              "prices": {"cpu_unit_price": 1000.0,
                                         "dev_unit_price": 4000.0}}


def test_plan_infeasible_budget_exits_2(tmp_path, capsys):
    code = run_cli("plan", "--measure", "10,5", "--price-cpu", "1000",
                   "--price-dev", "4000", "--budget", "4500", "-o", tmp_path)
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_plan_sizes_a_lopsided_ratio_in_closed_form(tmp_path):
    # ratio 1:999999: no multiple fits 2000/month, so one CPU unit and the
    # most device units the rest affords, from about 4e6 feasible pairs
    assert run_cli("plan", "--measure", "1,999999", "--price-cpu", "1",
                   "--price-dev", "1", "--budget", "2000", "-o", tmp_path) == 0
    data = json.loads((tmp_path / "plan.json").read_text())
    assert data["ratio"] == {"cpu": 1, "dev": 999999}
    assert data["allocation"] == {"cpu_units": 1, "dev_units": 1999,
                                  "monthly_cost": 2000.0, "ratio_kept": False}


def test_analyze_writes_loop_table(workdir):
    out = workdir / "out"
    code = run_cli("analyze", workdir / "g3.mc",
                   "--costs", workdir / "g3_costs.json", "-o", out)
    assert code == 0
    rows = json.loads((out / "loops.json").read_text())
    assert [r["eligible"] for r in rows] == [True, True, True]


def test_analyze_rejects_stray_cost_ids(workdir, capsys):
    bad = workdir / "bad_costs.json"
    bad.write_text('{"999": {"work": 1}}')
    code = run_cli("analyze", workdir / "g3.mc", "--costs", bad, "-o",
                   workdir / "out")
    assert code == 2
    assert "unknown loop ids" in capsys.readouterr().err


def test_run_all_produces_all_artifacts_and_exit_0(workdir, capsys):
    code = run_cli("run-all", "--config", workdir / "g3_config.json")
    assert code == 0
    out = workdir / "out"
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    assert (out / "report.txt").exists()
    search = json.loads((out / "search.json").read_text())
    assert search["best"]["bits"] == [1, 1, 0]
    report = json.loads((out / "report.json").read_text())
    assert report["recommendation"] == "ready"
    assert "recommendation: ready" in capsys.readouterr().out


def test_run_all_infeasible_budget_exits_2(workdir, capsys):
    config = json.loads((workdir / "g3_config.json").read_text())
    config["budget"] = 1000
    path = workdir / "tight.json"
    path.write_text(json.dumps(config))
    assert run_cli("run-all", "--config", path) == 2
    assert "Infeasible" in capsys.readouterr().err


def test_run_all_attention_exits_1(workdir):
    tests = json.loads((workdir / "g3_tests.json").read_text())
    tests.append({"name": "failing", "kind": "regression", "command": "false"})
    (workdir / "g3_tests.json").write_text(json.dumps(tests))
    assert run_cli("run-all", "--config", workdir / "g3_config.json") == 1


def test_stage_composability_matches_run_all(workdir):
    all_out = workdir / "out_all"
    config = json.loads((workdir / "g3_config.json").read_text())
    config["output_dir"] = "out_all"
    (workdir / "config_all.json").write_text(json.dumps(config))
    assert run_cli("run-all", "--config", workdir / "config_all.json") == 0
    combined = read_artifacts(all_out)

    staged = workdir / "out_staged"
    assert run_cli("analyze", workdir / "g3.mc",
                   "--costs", workdir / "g3_costs.json", "-o", staged) == 0
    ga = config["ga"]
    ga_spec = ",".join(f"{k}={v}" for k, v in ga.items())
    assert run_cli("search", workdir / "g3.mc",
                   "--costs", workdir / "g3_costs.json",
                   "--ga", ga_spec, "-o", staged) == 0
    best = json.loads((staged / "search.json").read_text())["best"]
    t_cpu = best["measurement"]["t_cpu_part"]
    t_dev = best["measurement"]["t_dev_part"]
    assert run_cli("plan", "--measure", f"{t_cpu!r},{t_dev!r}",
                   "--price-cpu", 1000, "--price-dev", 4000,
                   "--budget", 13000, "-o", staged) == 0
    assert run_cli("verify", "--plan", staged / "plan.json",
                   "--tests", workdir / "g3_tests.json",
                   "--registry", workdir / "g3_registry.json",
                   "--components", "libmath,runtime,monitoring",
                   "-o", staged) == 0
    staged_artifacts = {name: (staged / name).read_bytes()
                        for name in ARTIFACTS if name != "g3.acc.mc"}
    staged_artifacts["g3.acc.mc"] = (staged / "g3.acc.mc").read_bytes()
    assert staged_artifacts == combined


def test_run_all_is_deterministic_byte_for_byte(workdir):
    config = json.loads((workdir / "g3_config.json").read_text())
    for out_name, workers in (("out_a", 1), ("out_b", 1), ("out_c", 4)):
        config["output_dir"] = out_name
        config["workers"] = workers
        path = workdir / f"cfg_{out_name}.json"
        path.write_text(json.dumps(config))
        assert run_cli("run-all", "--config", path) == 0
    a = read_artifacts(workdir / "out_a")
    b = read_artifacts(workdir / "out_b")
    c = read_artifacts(workdir / "out_c")
    assert a == b == c
    txt = [(workdir / name / "report.txt").read_bytes()
           for name in ("out_a", "out_b", "out_c")]
    assert txt[0] == txt[1] == txt[2]


def test_seed_env_override(workdir, monkeypatch):
    out1 = workdir / "s1"
    monkeypatch.setenv("OFFLOAD_SEED", "123")
    assert run_cli("search", workdir / "g3.mc", "--costs",
                   workdir / "g3_costs.json", "-o", out1) == 0
    seed = json.loads((out1 / "search.json").read_text())["config"]["seed"]
    assert seed == 123
    assert run_cli("run-all", "--config", workdir / "g3_config.json") == 0
    seed = json.loads((workdir / "out" / "search.json").read_text())["config"]["seed"]
    assert seed == 123


def add_performance_cases(workdir, baseline, patterns):
    tests = json.loads((workdir / "g3_tests.json").read_text())
    tests += [{"name": f"case-{k}", "kind": "performance", "source": "g3.mc",
               "baseline": baseline, "pattern": bits}
              for k, bits in enumerate(patterns)]
    (workdir / "g3_tests.json").write_text(json.dumps(tests))


def test_run_all_loads_and_runs_each_program_once(workdir, monkeypatch):
    # the corpus case and this one share g3.mc as source and baseline
    add_performance_cases(workdir, "g3.mc", [[0, 0, 1]])
    calls = Counter()

    def count(module, attr):
        original = getattr(module, attr)

        def counted(*args, **kwargs):
            calls[f"{module.__name__}.{attr}"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    for module in (cli, verify):
        count(module, "parse_program")
        count(module, "extract_loops")
    count(verify, "interpret")
    assert run_cli("run-all", "--config", workdir / "g3_config.json") == 0
    report = json.loads((workdir / "out" / "report.json").read_text())
    assert len(report["performance"]) == 2
    # verify reuses the program the analyze stage loaded
    assert calls == Counter({"offload_planner.cli.parse_program": 1,
                             "offload_planner.cli.extract_loops": 1,
                             "offload_planner.verify.parse_program": 0,
                             "offload_planner.verify.extract_loops": 0,
                             "offload_planner.verify.interpret": 1})


def test_run_all_reparses_only_case_files_other_than_the_source(workdir, monkeypatch):
    (workdir / "copy.mc").write_text((workdir / "g3.mc").read_text())
    tests = json.loads((workdir / "g3_tests.json").read_text())
    spellings = ["./g3.mc", f"../{workdir.name}/g3.mc", "copy.mc"]
    tests += [{"name": f"case-{k}", "kind": "performance", "source": path,
               "baseline": path, "pattern": [0, 1, 0]}
              for k, path in enumerate(spellings)]
    (workdir / "g3_tests.json").write_text(json.dumps(tests))
    parsed, interpreted = [], []
    parse, interpret = verify.parse_program, verify.interpret
    monkeypatch.setattr(verify, "parse_program",
                        lambda text: parsed.append(text) or parse(text))
    monkeypatch.setattr(verify, "interpret",
                        lambda ast, **kw: interpreted.append(ast) or interpret(ast, **kw))
    assert run_cli("run-all", "--config", workdir / "g3_config.json") == 0
    report = json.loads((workdir / "out" / "report.json").read_text())
    assert [row["diff_passed"] for row in report["performance"]] == [True] * 4
    assert parsed == [(workdir / "copy.mc").read_text()]
    assert len(interpreted) == 2


def test_run_all_and_verify_read_the_registry_once(workdir, monkeypatch):
    loaded = []
    original = cli.load_registry
    monkeypatch.setattr(cli, "load_registry",
                        lambda path: loaded.append(path) or original(path))
    assert run_cli("run-all", "--config", workdir / "g3_config.json") == 0
    assert len(loaded) == 1
    loaded.clear()
    assert run_cli("verify", "--plan", workdir / "out" / "plan.json",
                   "--tests", workdir / "g3_tests.json",
                   "--registry", workdir / "g3_registry.json",
                   "-o", workdir / "v") == 0
    assert len(loaded) == 1


def test_cases_sharing_a_broken_baseline_report_the_same_note(workdir):
    broken = "float a[4];\na[0] = ;\n"
    (workdir / "broken.mc").write_text(broken)
    with pytest.raises(ParseError) as parse_error:
        parse_program(broken)
    tests = json.loads((workdir / "g3_tests.json").read_text())
    (workdir / "g3_tests.json").write_text(json.dumps(
        [case for case in tests if case["kind"] != "performance"]))
    add_performance_cases(workdir, "broken.mc", [[1, 1, 0], [0, 0, 1]])
    assert run_cli("run-all", "--config", workdir / "g3_config.json") == 1
    report = json.loads((workdir / "out" / "report.json").read_text())
    assert [row["note"] for row in report["performance"]] == [str(parse_error.value)] * 2


def test_run_all_reports_an_infinite_index_as_a_failed_diff(workdir, capsys):
    # the parser reads a literal past binary64 as inf
    (workdir / "inf_index.mc").write_text(
        "float a[4];\nfloat x;\nint i = 0;\n"
        f"for (i = 0; i < 4; i++) {{ x = a[1{'0' * 400}]; }}\n")
    (workdir / "g3_tests.json").write_text(json.dumps([{
        "name": "inf-index", "kind": "performance", "source": "inf_index.mc",
        "baseline": "inf_index.mc", "pattern": [1]}]))
    assert run_cli("run-all", "--config", workdir / "g3_config.json") == 1
    note = "4:31: index inf out of bounds for 'a[4]'"
    (row,) = json.loads((workdir / "out" / "report.json").read_text())["performance"]
    assert not row["diff_passed"] and row["note"] == note
    assert note in (workdir / "out" / "report.txt").read_text()
    assert capsys.readouterr().err == ""


def test_search_requires_costs_for_sim(workdir, capsys):
    assert run_cli("search", workdir / "g3.mc") == 2
    assert "--costs" in capsys.readouterr().err


def test_search_external_backend(workdir):
    out = workdir / "ext"
    cmd = f'{sys.executable} -c "print(0.5, 0.25, 0.25, 1)"'
    code = run_cli("search", workdir / "g3.mc", "--backend", "external",
                   "--cmd", cmd + " {src} {pattern}",
                   "--ga", "generations=2,population_size=4,seed=1",
                   "-o", out)
    assert code == 0
    search = json.loads((out / "search.json").read_text())
    assert search["best"]["measurement"]["t_total"] == 0.5


def test_search_external_backend_under_a_spaced_output_dir(workdir):
    # the command sees each file as one argument, in a directory whose
    # path holds a space
    out = workdir / "sp ace" / "out"
    probe = ("import os, sys; ok = len(sys.argv) == 3 and all(map(os.path.isfile, "
             "sys.argv[1:])); print(0.5, 0.25, 0.25, int(ok))")
    code = run_cli("search", workdir / "g3.mc", "--backend", "external",
                   "--cmd", f'{sys.executable} -c "{probe}" {{src}} {{pattern}}',
                   "--ga", "generations=1,population_size=2", "-o", out)
    assert code == 0
    search = json.loads((out / "search.json").read_text())
    assert search["best"]["measurement"]["valid"] is True
    assert list((out / "measure").iterdir()) == []


# Each record's JSON keys, pinned: a field added to one of these dataclasses
# must not become an artifact key unnoticed.
RECORD_KEYS = {
    "performance-row": (PerformanceRow("p", 1.0, 1.0, True), {
        "name", "scaled_time", "throughput", "diff_passed", "worst_variable",
        "worst_deviation", "note"}),
    "regression-row": (RegressionRow("r", True, 0), {
        "name", "passed", "exit_code", "note"}),
    "report": (VerificationReport(), {
        "assumptions", "performance", "regression", "uncovered_components",
        "allocation", "monthly_cost", "recommendation"}),
    "allocation": (Allocation(2, 1, 6000.0, True), {
        "cpu_units", "dev_units", "monthly_cost", "ratio_kept"}),
    "ga-config": (GaConfig(), {
        "population_size", "generations", "crossover_rate",
        "mutation_rate_per_bit", "elite_count", "seed"}),
    "measurement": (Measurement(1.5, 1.0, 0.5, True), {
        "t_total", "t_cpu_part", "t_dev_part", "valid"}),
    "invalid-measurement": (Measurement.invalid("why"), {
        "t_total", "t_cpu_part", "t_dev_part", "valid", "note"}),
}


@pytest.mark.parametrize("record", RECORD_KEYS)
def test_record_json_has_exactly_its_keys(record):
    value, keys = RECORD_KEYS[record]
    assert set(value.to_json()) == keys


def test_report_json_nests_its_records(workdir):
    assert run_cli("run-all", "--config", workdir / "g3_config.json") in (0, 1)
    report = json.loads((workdir / "out" / "report.json").read_text())
    assert set(report) == RECORD_KEYS["report"][1]
    assert set(report["allocation"]) == RECORD_KEYS["allocation"][1]
    assert report["performance"] and report["regression"]
    for row in report["performance"]:
        assert set(row) == RECORD_KEYS["performance-row"][1]
    for row in report["regression"]:
        assert set(row) == RECORD_KEYS["regression-row"][1]


def assert_help_lists_subcommands(proc):
    """Check `offload-planner --help` output by its usage line, so that
    "plan" inside the prog name or "verify" in the description cannot
    stand in for a missing subcommand. The pattern allows for argparse
    wrapping the usage line on a narrow terminal."""
    assert proc.returncode == 0, proc.stderr
    usage = re.search(r"usage:\s+(\S+)\s+\[-h\]\s+\{([^}]*)\}", proc.stdout)
    assert usage, proc.stdout
    assert usage.group(1) == "offload-planner"
    assert usage.group(2).split(",") == SUBCOMMANDS


def test_console_script_installed():
    """The declared console script resolves to cli.main and, run the way
    the installed wrapper runs it, offers the five subcommands."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["offload-planner"]
    module, _, attr = entry.partition(":")
    assert (module, attr) == ("offload_planner.cli", "main")
    pythonpath = os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=pythonpath))
    assert_help_lists_subcommands(proc)


@pytest.mark.skipif(shutil.which("offload-planner") is None,
                    reason="offload-planner console script not on PATH "
                           "(package not installed)")
def test_console_script_on_path():
    proc = subprocess.run(["offload-planner", "--help"],
                          capture_output=True, text=True, timeout=60)
    assert_help_lists_subcommands(proc)


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert run_cli("run-all", "--config", tmp_path / "nope.json") == 2
    capsys.readouterr()


@pytest.mark.parametrize("change, message", [
    ({"tests": None}, "config key 'tests' is required"),
    ({"source": "nope.mc"}, "config key 'source': no such file {dir}/nope.mc"),
    ({"backend": "gpu"}, "backend must be 'sim' or 'external', got 'gpu'"),
    ({"backend": "external"}, "external backend needs a 'command' template"),
    ({"command": "true"}, "exactly one backend: drop 'command' or use backend=external"),
], ids=["missing-key", "missing-file", "unknown-backend", "external-without-command",
        "sim-with-command"])
def test_invalid_config_exits_2(workdir, capsys, change, message):
    config = json.loads((workdir / "g3_config.json").read_text())
    config.update(change)
    path = workdir / "bad_config.json"
    path.write_text(json.dumps({k: v for k, v in config.items() if v is not None}))
    message = message.format(dir=workdir)
    with pytest.raises(verify.ConfigError) as info:
        cli.load_config(path)
    assert str(info.value) == message
    assert run_cli("run-all", "--config", path) == 2
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"


NESTED = """float a[8];
int i = 0;
int j = 0;
for (j = 0; j < 4; j++) {
    for (i = 0; i < 8; i++) {
        a[i] = a[i] + 1;
    }
}
"""


def test_no_valid_measurement_exits_2_before_planning(workdir, capsys):
    # every non-nested pattern is faulted, so the GA's best is invalid and
    # may be the nested pattern 11, which cannot be planned
    (workdir / "nested.mc").write_text(NESTED)
    (workdir / "nested_costs.json").write_text(json.dumps(
        {"default_work": 1000, "fault_patterns": ["00", "01", "10"]}))
    ga = {"seed": 0, "population_size": 4, "generations": 2}
    config = json.loads((workdir / "g3_config.json").read_text())
    config.update(source="nested.mc", costs="nested_costs.json", ga=ga)
    (workdir / "nested_config.json").write_text(json.dumps(config))
    message = "search produced no valid measurement"

    assert run_cli("run-all", "--config", workdir / "nested_config.json") == 2
    assert message in capsys.readouterr().err
    assert not (workdir / "out" / "pattern.json").exists()

    ga_spec = ",".join(f"{k}={v}" for k, v in ga.items())
    assert run_cli("search", workdir / "nested.mc",
                   "--costs", workdir / "nested_costs.json",
                   "--ga", ga_spec, "-o", workdir / "searched") == 2
    assert message in capsys.readouterr().err
    assert not (workdir / "searched" / "pattern.json").exists()


ZERO_TRIP = """int n = 0;
float x;
float y;
int i = 0;
int j = 0;
for (i = 0; i < 4; i++) { for (j = 0; j < n; j++) { x = 1.0; } }
y = x;
"""


def test_verify_reports_copyout_the_device_never_received_as_failed_diff(
        workdir, capsys, monkeypatch):
    # x's only write sits in a loop that runs zero times, so without the
    # copyin of x the planner gives it, the region's copyout of x finds no
    # device value
    plan_transfers = verify.plan_transfers
    monkeypatch.setattr(verify, "plan_transfers", lambda *args: TransferPlan(tuple(
        op for op in plan_transfers(*args).ops
        if (op.var, op.direction) != ("x", HOST_TO_DEVICE))))
    (workdir / "zero_trip.mc").write_text(ZERO_TRIP)
    (workdir / "zero_trip_tests.json").write_text(json.dumps([{
        "name": "zero-trip", "kind": "performance", "source": "zero_trip.mc",
        "baseline": "zero_trip.mc", "pattern": [1]}]))
    assert run_cli("plan", "--measure", "10,5", "--price-cpu", "1000",
                   "--price-dev", "4000", "--budget", "10000", "-o", workdir / "p") == 0
    assert run_cli("verify", "--plan", workdir / "p" / "plan.json",
                   "--tests", workdir / "zero_trip_tests.json",
                   "--registry", workdir / "g3_registry.json",
                   "-o", workdir / "v") == 1
    (row,) = json.loads((workdir / "v" / "report.json").read_text())["performance"]
    assert not row["diff_passed"]
    assert row["note"] == "copyout of 'x', which the device never received"
    assert "error:" not in capsys.readouterr().err


FLAT = "".join(["float a[64];\nfloat b[64];\nfloat c[64];\nfloat d[64];\nint i = 0;\n",
                "for (i = 0; i < 64; i++) { a[i] = i * 0.5; }\n",
                "for (i = 0; i < 64; i++) { b[i] = a[i] + 1.0; }\n",
                "for (i = 0; i < 64; i++) { c[i] = b[i] * 2.0; }\n",
                "for (i = 0; i < 64; i++) { d[i] = c[i] - a[i]; }\n"])


def test_run_all_with_zero_cpu_part_buys_one_cpu_unit(workdir):
    # every loop carries work, so the best pattern offloads all four and
    # the measured CPU part is 0
    (workdir / "flat.mc").write_text(FLAT)
    (workdir / "flat_costs.json").write_text(json.dumps({"default_work": 100000}))
    config = json.loads((workdir / "g3_config.json").read_text())
    config.update(source="flat.mc", costs="flat_costs.json", ga={"seed": 1})
    (workdir / "g3_tests.json").write_text(json.dumps([
        {"name": "diff", "kind": "performance", "source": "flat.mc",
         "baseline": "flat.mc", "pattern": [1, 1, 1, 1]}]))
    (workdir / "flat_config.json").write_text(json.dumps(config))
    assert run_cli("run-all", "--config", workdir / "flat_config.json") == 0
    plan = json.loads((workdir / "out" / "plan.json").read_text())
    assert plan["inputs"]["t_cpu"] == 0.0 and plan["inputs"]["t_dev"] > 0
    assert plan["ratio"] == {"cpu": 0, "dev": 1}
    assert plan["allocation"] == {"cpu_units": 1, "dev_units": 3,
                                  "monthly_cost": 13000.0, "ratio_kept": False}


def test_plan_with_zero_cpu_part_needs_one_unit_of_each(tmp_path, capsys):
    assert run_cli("plan", "--measure", "0,5", "--price-cpu", "1000",
                   "--price-dev", "4000", "--budget", "4999", "-o", tmp_path) == 2
    assert "Infeasible" in capsys.readouterr().err
    assert run_cli("plan", "--measure", "0,5", "--price-cpu", "1000",
                   "--price-dev", "4000", "--budget", "5000", "-o", tmp_path) == 0
    allocation = json.loads((tmp_path / "plan.json").read_text())["allocation"]
    assert (allocation["cpu_units"], allocation["dev_units"]) == (1, 1)
