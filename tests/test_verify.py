"""Deployment verification tests: scaled-time arithmetic, diff verdicts,
regression outcomes, report completeness, and the price echo."""

import json
import sys

import pytest

from offload_planner.evaluation import Measurement, ToleranceSpec
from offload_planner.planner import Allocation
from offload_planner.verify import (
    ConfigError,
    TestCase,
    load_registry,
    load_tests,
    run_verification,
)

from conftest import CORPUS

PY = sys.executable
ALLOC_2_1 = Allocation(2, 1, 6000.0, True)
MEASURE_10_5 = Measurement(15.0, 10.0, 5.0, True)


def sim_case(name="diff", source="g3.mc", pattern=(1, 1, 0), baseline="g3.mc"):
    return TestCase(name=name, kind="performance",
                    source=str(CORPUS / source), pattern=pattern,
                    baseline=str(CORPUS / baseline),
                    tolerance=ToleranceSpec())


def test_scaled_time_example_and_ready():
    report = run_verification(ALLOC_2_1, MEASURE_10_5, [sim_case()], {}, [])
    row = report.performance[0]
    assert row.scaled_time == 10.0          # 10/2 + 5/1
    assert row.throughput == 0.1
    assert row.diff_passed
    assert report.recommendation == "ready"


def test_regression_failure_flips_recommendation():
    tests = [sim_case(),
             TestCase(name="broken", kind="regression",
                      command=f'{PY} -c "raise SystemExit(1)"')]
    report = run_verification(ALLOC_2_1, MEASURE_10_5, tests, {}, [])
    bad = report.regression[0]
    assert not bad.passed and bad.exit_code == 1
    assert report.recommendation == "attention"


def test_a_regression_command_that_cannot_run_fails_with_a_note(tmp_path):
    missing = tmp_path / "no-such-program"
    registry = {"libmath": ["", str(missing)]}
    report = run_verification(ALLOC_2_1, MEASURE_10_5, [sim_case()], registry, ["libmath"])
    assert [(row.passed, row.exit_code, row.note) for row in report.regression] == [
        (False, None, "empty command"),
        (False, None, f"[Errno 2] No such file or directory: '{missing}'")]
    assert report.recommendation == "attention"


def test_uncovered_component_listed_but_not_fatal():
    registry = {"libmath": [f'{PY} -c "pass"']}
    report = run_verification(ALLOC_2_1, MEASURE_10_5, [sim_case()],
                              registry, ["libmath", "monitoring"])
    assert report.uncovered_components == ["monitoring"]
    assert report.recommendation == "ready"
    assert report.regression[0].name == "libmath[0]"
    assert report.regression[0].passed


def test_registry_failure_counts():
    registry = {"runtime": [f'{PY} -c "raise SystemExit(2)"']}
    report = run_verification(ALLOC_2_1, MEASURE_10_5, [], registry, ["runtime"])
    assert report.regression[0].exit_code == 2
    assert report.recommendation == "attention"


def test_report_contains_every_case_once_and_price_echo():
    tests = [sim_case("one"), sim_case("two"),
             TestCase(name="reg", kind="regression", command=f'{PY} -c "pass"')]
    report = run_verification(ALLOC_2_1, MEASURE_10_5, tests, {}, [])
    assert [row.name for row in report.performance] == ["one", "two"]
    assert [row.name for row in report.regression] == ["reg"]
    assert report.monthly_cost == ALLOC_2_1.monthly_cost
    data = report.to_json()
    assert data["monthly_cost"] == 6000.0
    assert data["allocation"]["cpu_units"] == 2
    assert data["recommendation"] == "ready"


def test_performance_case_without_baseline_is_config_error():
    case = TestCase(name="nobase", kind="performance",
                    source=str(CORPUS / "g3.mc"), pattern=(0, 0, 0))
    with pytest.raises(ConfigError):
        run_verification(ALLOC_2_1, MEASURE_10_5, [case], {}, [])


def test_diff_failure_detected_for_mismatched_baseline():
    # different program as baseline: outputs differ, diff fails
    case = TestCase(name="wrong", kind="performance",
                    source=str(CORPUS / "g3.mc"), pattern=(1, 1, 0),
                    baseline=str(CORPUS / "g10.mc"))
    report = run_verification(ALLOC_2_1, MEASURE_10_5, [case], {}, [])
    assert not report.performance[0].diff_passed
    assert report.recommendation == "attention"


def test_identical_infinite_outputs_pass_the_diff(tmp_path):
    source = tmp_path / "overflow.mc"
    source.write_text("float x = 10; int i; for(i=0;i<400;i++){ x = x * 10.0; }\n")
    case = TestCase(name="overflow", kind="performance", source=str(source),
                    pattern=(1,), baseline=str(source), tolerance=ToleranceSpec())
    report = run_verification(ALLOC_2_1, MEASURE_10_5, [case], {}, [])
    row = report.performance[0]
    assert row.diff_passed and row.worst_deviation == 0.0
    assert report.recommendation == "ready"


def test_scaled_time_monotone_in_units():
    scaled = []
    for cpu_units, dev_units in [(1, 1), (2, 1), (2, 2), (4, 2)]:
        alloc = Allocation(cpu_units, dev_units, 0.0, True)
        report = run_verification(alloc, MEASURE_10_5, [sim_case()], {}, [])
        scaled.append(report.performance[0].scaled_time)
    assert scaled == sorted(scaled, reverse=True)


def test_scaled_time_without_device_units():
    # a CPU-only allocation: no device time scales to 0, any other is an error
    cpu_only = Allocation(2, 0, 2000.0, True)
    report = run_verification(cpu_only, Measurement(10.0, 10.0, 0.0, True),
                              [sim_case()], {}, [])
    assert report.performance[0].scaled_time == 5.0
    with pytest.raises(ConfigError) as info:
        run_verification(cpu_only, MEASURE_10_5, [sim_case()], {}, [])
    assert str(info.value) == "device time measured but the allocation has no device units"


def test_invalid_measurement_reports_infinite_time():
    report = run_verification(ALLOC_2_1, Measurement.invalid("boom"),
                              [sim_case()], {}, [])
    row = report.performance[0]
    assert row.scaled_time is None and row.throughput is None
    assert "INFINITE_TIME" in report.to_text()


def test_external_performance_case():
    cmd = f'{PY} -c "print(12.0, 8.0, 4.0, 1)"'
    case = TestCase(name="ext", kind="performance", command=cmd)
    report = run_verification(ALLOC_2_1, MEASURE_10_5, [case], {}, [])
    row = report.performance[0]
    assert row.scaled_time == 8.0 / 2 + 4.0 / 1
    assert row.diff_passed
    failing = TestCase(name="ext2", kind="performance",
                       command=f'{PY} -c "print(1.0, 1.0, 0.0, 0)"')
    report = run_verification(ALLOC_2_1, MEASURE_10_5, [failing], {}, [])
    assert not report.performance[0].diff_passed
    assert report.recommendation == "attention"


def test_regression_timeout_is_failure():
    case = TestCase(name="slow", kind="regression",
                    command=f'{PY} -c "import time; time.sleep(30)"')
    report = run_verification(ALLOC_2_1, MEASURE_10_5, [case], {}, [],
                              timeout=0.5)
    row = report.regression[0]
    assert not row.passed and row.exit_code is None
    assert "timeout" in row.note


def test_case_validation():
    with pytest.raises(ConfigError):
        TestCase(name="x", kind="nonsense")
    with pytest.raises(ConfigError):
        TestCase(name="x", kind="regression")
    with pytest.raises(ConfigError):
        TestCase(name="x", kind="performance")


def test_loaders_resolve_paths(tmp_path):
    tests_file = tmp_path / "tests.json"
    tests_file.write_text(json.dumps([
        {"name": "p", "kind": "performance", "source": "prog.mc",
         "baseline": "prog.mc", "pattern": [1],
         "tolerance": {"mode": "ulp", "max_ulps": 2}},
        {"name": "r", "kind": "regression", "command": "true"},
    ]))
    (tmp_path / "prog.mc").write_text("int x; x = 1;\n")
    cases = load_tests(tests_file)
    assert cases[0].source == str(tmp_path / "prog.mc")
    assert cases[0].tolerance.mode == "ulp"
    assert cases[1].command == "true"

    reg_file = tmp_path / "registry.json"
    reg_file.write_text('{"comp": ["true", "false"]}')
    registry = load_registry(reg_file)
    assert registry == {"comp": ["true", "false"]}


def test_text_rendering_of_a_report_without_cases():
    text = run_verification(ALLOC_2_1, MEASURE_10_5, [], {}, []).to_text()
    assert "performance cases:\n  (none)\n" in text
    assert "regression cases:\n  (none)\n" in text


def test_text_rendering_mentions_key_facts():
    report = run_verification(ALLOC_2_1, MEASURE_10_5, [sim_case()],
                              {"libmath": []}, ["libmath", "ghost"])
    text = report.to_text()
    assert "recommendation: ready" in text
    assert "monthly price: 6000.0" in text
    assert "ghost" in text
    assert "linearly" in text
