"""Cost-model, external-backend, and result-comparison tests.

The sim worked example is frozen from an independent evaluation of the cost
formula; the ulp comparison is checked against a bit-pattern oracle written
in a different formulation than the production code.
"""

import gc
import itertools
import math
import random
import struct
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from offload_planner.evaluation import (
    DEFAULT_SPEEDUP,
    INFINITE_TIME,
    CostAnnotations,
    CostModelError,
    Measurement,
    MissingAnnotation,
    ShapeMismatch,
    SpawnError,
    ToleranceSpec,
    compare_results,
    evaluate_external,
    evaluate_sim,
    ulp_distance,
)
from offload_planner.minic import extract_loops, parse_program
from offload_planner.offload import OffloadPattern, offloaded_ids, plan_transfers

from conftest import CORPUS, corpus_programs, read_corpus, sim_benchmark_programs

PY = sys.executable


def build(src):
    ast = parse_program(src)
    return ast, extract_loops(ast)


FLAT_LOOP = ("float big[1000000]; int i = 0; float s = 1.5; float out = 0; "
             "for(i=0;i<1000000;i++){ big[i] = s; } "
             "out = big[7];")


def test_worked_example_against_independent_formula():
    ast, loops = build(FLAT_LOOP)
    lid = loops.infos[0].loop_id
    costs = CostAnnotations(work={lid: 1.0}, speedup={lid: 10.0})
    pattern = OffloadPattern((1,))
    plan = plan_transfers(ast, loops, pattern)
    # exactly the stated shape: one scalar copyin, one array copyout
    assert sorted((op.direction, op.bytes) for op in plan.ops) == [
        ("device_to_host", 8 * 10**6), ("host_to_device", 8)]
    m = evaluate_sim(ast, loops, pattern, plan, costs)
    # independent evaluation of the cost formula, kept separate from the
    # implementation: launch + work/speedup + per-transfer latency + bytes/BW
    expected = (1e-4
                + (10**6 * 1.0 * 1e-9) / 10.0
                + 2 * 1e-5
                + (8 + 8 * 10**6) / 1e10)
    assert math.isclose(m.t_dev_part, expected, rel_tol=1e-12)
    assert m.t_cpu_part == 0.0
    assert math.isclose(m.t_total, expected, rel_tol=1e-12)
    assert m.valid
    assert m.t_total == m.t_cpu_part + m.t_dev_part


def test_all_zero_pattern_runs_on_host_only():
    ast, loops = build(read_corpus("g3.mc"))
    costs = CostAnnotations.load("corpus/g3_costs.json")
    pattern = OffloadPattern((0, 0, 0))
    plan = plan_transfers(ast, loops, pattern)
    m = evaluate_sim(ast, loops, pattern, plan, costs)
    assert m.t_dev_part == 0.0
    expected = sum(64 * costs.work[info.loop_id] * 1e-9 for info in loops)
    assert math.isclose(m.t_total, expected, rel_tol=1e-12)


def test_nested_region_cost_counts_inner_iterations():
    ast, loops = build(read_corpus("nested_hoist.mc"))
    outer = loops.infos[1]
    inner = loops.infos[2]
    costs = CostAnnotations(work={loops.infos[0].loop_id: 0.0,
                                  outer.loop_id: 100.0,
                                  inner.loop_id: 1000.0})
    bits = tuple(1 if lid == outer.loop_id else 0 for lid in loops.eligible_ids())
    pattern = OffloadPattern(bits)
    plan = plan_transfers(ast, loops, pattern)
    m = evaluate_sim(ast, loops, pattern, plan, costs)
    kernel = (1e-4 + outer.trip_count * 100.0 * 1e-9 / 10.0
              + outer.trip_count * inner.trip_count * 1000.0 * 1e-9 / 10.0)
    transfers = sum(1e-5 + op.bytes / 1e10 for op in plan.ops)
    assert math.isclose(m.t_dev_part, kernel + transfers, rel_tol=1e-12)


def test_transfer_cost_scales_with_anchor_executions():
    ast, loops = build(read_corpus("nested_hoist.mc"))
    inner = loops.infos[2].loop_id
    costs = CostAnnotations.load("corpus/nested_hoist_costs.json")
    bits = tuple(1 if lid == inner else 0 for lid in loops.eligible_ids())
    pattern = OffloadPattern(bits)
    hoisted = plan_transfers(ast, loops, pattern)
    unhoisted = plan_transfers(ast, loops, pattern, hoist=False)
    m_hoisted = evaluate_sim(ast, loops, pattern, hoisted, costs)
    m_unhoisted = evaluate_sim(ast, loops, pattern, unhoisted, costs)
    assert m_hoisted.t_dev_part < m_unhoisted.t_dev_part
    assert m_hoisted.t_cpu_part == m_unhoisted.t_cpu_part


def test_work_monotonicity_property():
    ast, loops = build(read_corpus("g10.mc"))
    rng = random.Random(3)
    ids = loops.eligible_ids()
    for _ in range(25):
        work = {lid: rng.uniform(0, 5000) for lid in ids}
        bits = tuple(rng.randint(0, 1) for _ in ids)
        pattern = OffloadPattern(bits)
        plan = plan_transfers(ast, loops, pattern)
        base = evaluate_sim(ast, loops, pattern, plan,
                            CostAnnotations(work=work)).t_total
        bumped_id = rng.choice(ids)
        work2 = dict(work)
        work2[bumped_id] = work[bumped_id] + rng.uniform(0, 1000)
        bumped = evaluate_sim(ast, loops, pattern, plan,
                              CostAnnotations(work=work2)).t_total
        assert bumped >= base


def test_fault_injection_yields_infinite_time():
    ast, loops = build(read_corpus("g3.mc"))
    costs = CostAnnotations(work={info.loop_id: 100.0 for info in loops},
                            fault_patterns=frozenset({"101"}))
    pattern = OffloadPattern((1, 0, 1))
    plan = plan_transfers(ast, loops, pattern)
    m = evaluate_sim(ast, loops, pattern, plan, costs)
    assert not m.valid
    assert m.t_total is INFINITE_TIME
    assert repr(m.t_total) == "INFINITE_TIME"
    ok = evaluate_sim(ast, loops, OffloadPattern((1, 0, 0)),
                      plan_transfers(ast, loops, OffloadPattern((1, 0, 0))), costs)
    assert ok.valid


def test_missing_annotation_for_eligible_loop():
    ast, loops = build(read_corpus("g3.mc"))
    costs = CostAnnotations(work={})
    pattern = OffloadPattern((0, 0, 0))
    plan = plan_transfers(ast, loops, pattern)
    with pytest.raises(MissingAnnotation):
        evaluate_sim(ast, loops, pattern, plan, costs)
    lenient = CostAnnotations(work={}, default_work=50.0)
    m = evaluate_sim(ast, loops, pattern, plan, lenient)
    assert m.valid


def test_cost_file_globals_override(tmp_path):
    path = tmp_path / "costs.json"
    path.write_text('{"5": {"work": 2, "speedup": 4},'
                    ' "globals": {"tau_host": 1e-8, "launch_overhead": 2e-4,'
                    ' "bandwidth": 5e9, "latency": 3e-5},'
                    ' "default_work": 7, "fault_patterns": ["01"]}')
    costs = CostAnnotations.load(path)
    assert costs.work == {5: 2.0} and costs.speedup == {5: 4.0}
    assert (costs.tau_host, costs.launch_overhead) == (1e-8, 2e-4)
    assert (costs.bandwidth, costs.latency) == (5e9, 3e-5)
    assert costs.default_work == 7.0
    assert costs.fault_patterns == frozenset({"01"})


def test_cost_annotation_validation():
    with pytest.raises(ValueError):
        CostAnnotations(work={1: -1.0})
    with pytest.raises(ValueError):
        CostAnnotations(speedup={1: 0.0})
    with pytest.raises(ValueError):
        CostAnnotations(bandwidth=0.0)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        ToleranceSpec("nonsense")
    with pytest.raises(ValueError):
        ToleranceSpec("absolute", atol=-1.0)
    with pytest.raises(ValueError):
        ToleranceSpec("relative", atol=math.inf, rtol=math.inf)
    assert ToleranceSpec("ulp", atol=math.inf, rtol=math.inf, max_ulps=2).max_ulps == 2


def test_measurement_serialization_is_exact():
    bad = Measurement.invalid("because")
    assert bad.to_json()["t_total"] == "INFINITE_TIME"
    good = Measurement(1.5, 1.0, 0.5, True)
    assert good.to_json() == {"t_total": 1.5, "t_cpu_part": 1.0,
                              "t_dev_part": 0.5, "valid": True}
    assert bad.to_json() == {"t_total": "INFINITE_TIME", "t_cpu_part": "INFINITE_TIME",
                             "t_dev_part": "INFINITE_TIME", "valid": False,
                             "note": "because"}


# -- external backend ---------------------------------------------------------

def test_external_parses_final_line():
    m = evaluate_external(f'{PY} -c "print(12.5, 10.0, 2.5, 1)"', "s", "p")
    assert m.valid and (m.t_total, m.t_cpu_part, m.t_dev_part) == (12.5, 10.0, 2.5)


def test_external_takes_last_nonempty_line():
    cmd = f"{PY} -c \"print('log line'); print('1.0 0.75 0.25 1'); print('')\""
    m = evaluate_external(cmd, "s", "p")
    assert m.valid and m.t_total == 1.0


def test_external_nonzero_exit_is_invalid():
    m = evaluate_external(f'{PY} -c "raise SystemExit(3)"', "s", "p")
    assert not m.valid
    assert m.t_total is INFINITE_TIME
    assert "exit status 3" in m.note


def test_external_reported_invalid_flag():
    m = evaluate_external(f'{PY} -c "print(1.0, 0.5, 0.5, 0)"', "s", "p")
    assert not m.valid and m.t_total is INFINITE_TIME


def test_external_unparseable_output_is_invalid():
    m = evaluate_external(f'{PY} -c "print(\'done\')"', "s", "p")
    assert not m.valid and "unparseable" in m.note


@pytest.mark.parametrize("script, note", [
    ("pass", "no output"),
    ("print('1.0 one 0.5 1')", "unparseable output line '1.0 one 0.5 1'"),
])
def test_external_output_without_a_measurement_is_invalid(script, note):
    m = evaluate_external(f'{PY} -c "{script}"', "s", "p")
    assert not m.valid and m.note == note


@pytest.mark.parametrize("line", ["nan nan nan 1", "-1 -1 0 1", "inf 1 inf 1", "1 1.5 -0.5 1"])
def test_external_times_negative_or_not_finite_are_invalid(line):
    m = evaluate_external(f"{PY} -c \"print('{line}')\"", "s", "p")
    assert not m.valid and m.t_total is INFINITE_TIME
    assert m.note == f"times must be finite and non-negative, got {line!r}"


def test_external_zero_times_are_valid():
    m = evaluate_external(f'{PY} -c "print(0.0, 0.0, 0.0, 1)"', "s", "p")
    assert m.valid and (m.t_total, m.t_cpu_part, m.t_dev_part) == (0.0, 0.0, 0.0)


def test_external_empty_command_is_a_spawn_error():
    with pytest.raises(SpawnError) as info:
        evaluate_external("  ", "s", "p")
    assert str(info.value) == "empty measurement command"


def test_external_timeout_recorded():
    cmd = f'{PY} -c "import time; time.sleep(30)"'
    m = evaluate_external(cmd, "s", "p", timeout=0.5)
    assert not m.valid
    assert "timeout" in m.note


def test_external_spawn_error_is_distinct():
    with pytest.raises(SpawnError):
        evaluate_external("/no/such/binary-xyz {src} {pattern}", "s", "p")


def test_external_substitutes_paths():
    probe = "import sys; print(0.5, 0.25, 0.25, 1 if sys.argv[1:] == ['P.acc.mc', 'P.json'] else 0)"
    cmd = f'{PY} -c "{probe}" {{src}} {{pattern}}'
    assert evaluate_external(cmd, "P.acc.mc", "P.json").valid
    assert not evaluate_external(cmd, "other.mc", "P.json").valid


def test_external_fills_each_slot_as_one_argument():
    # a path with spaces stays one argument, and so does an empty one
    probe = ("import sys; print(0.5, 0.25, 0.25, "
             "1 if sys.argv[1:] == ['sp ace/P.acc.mc', '', 'x'] else 0)")
    cmd = f'{PY} -c "{probe}" {{src}} {{pattern}} x'
    assert evaluate_external(cmd, "sp ace/P.acc.mc", "").valid


# -- comparison ---------------------------------------------------------------

def oracle_ulp(x: float, y: float) -> int:
    """Independent formulation: signed-magnitude bits mapped to an offset
    scale where negative values mirror below the non-negative ones."""

    def key(v: float) -> int:
        (u,) = struct.unpack("<Q", struct.pack("<d", v))
        magnitude = u & ((1 << 63) - 1)
        return (1 << 63) + (-magnitude if u >> 63 else magnitude)

    return abs(key(x) - key(y))


def test_identical_outputs_pass_with_zero_deviation():
    out = {"x": 1.25, "a": (0.5, 2.0)}
    verdict = compare_results(out, dict(out), ToleranceSpec("absolute", atol=0.0))
    assert verdict.passed and verdict.worst_deviation == 0.0


@pytest.mark.parametrize("tol", [ToleranceSpec("relative"),
                                 ToleranceSpec("absolute", atol=1e-9),
                                 ToleranceSpec("ulp", max_ulps=1)])
def test_non_finite_values_pass_only_when_identical(tol):
    inf, nan = math.inf, math.nan
    out = {"x": inf, "a": (nan, -inf, 1.0)}
    same = compare_results(out, {"x": inf, "a": (nan, -inf, 1.0)}, tol)
    assert same.passed and same.worst_deviation == 0.0
    for actual, baseline in ((inf, -inf), (inf, 1.7976931348623157e308),
                             (nan, 1.0), (1.0, nan), (nan, inf)):
        verdict = compare_results({"x": actual}, {"x": baseline}, tol)
        assert not verdict.passed and verdict.worst_deviation == inf, (actual, baseline)


def test_one_ulp_example():
    baseline = {"x": 1.0}
    actual = {"x": 1.0 + 2.0**-52}
    assert compare_results(actual, baseline,
                           ToleranceSpec("ulp", max_ulps=1)).passed
    assert not compare_results(actual, baseline,
                               ToleranceSpec("ulp", max_ulps=0)).passed


def test_relative_failure_reports_worst_offender():
    verdict = compare_results({"x": 1.001}, {"x": 1.0},
                              ToleranceSpec("relative", atol=0.0, rtol=1e-6))
    assert not verdict.passed
    assert verdict.worst_variable == "x"
    assert math.isclose(verdict.worst_deviation, 1e-3, rel_tol=1e-9)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        compare_results({"x": 1.0}, {"y": 1.0}, ToleranceSpec())
    with pytest.raises(ShapeMismatch):
        compare_results({"a": (1.0, 2.0)}, {"a": (1.0,)}, ToleranceSpec())


def test_symmetry_for_absolute_and_ulp():
    rng = random.Random(13)
    for _ in range(200):
        x = rng.uniform(-10, 10)
        y = x + rng.uniform(-1e-9, 1e-9)
        for tol in (ToleranceSpec("absolute", atol=1e-10),
                    ToleranceSpec("ulp", max_ulps=4)):
            fwd = compare_results({"v": x}, {"v": y}, tol).passed
            back = compare_results({"v": y}, {"v": x}, tol).passed
            assert fwd == back


def random_double(rng):
    while True:
        value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if not math.isnan(value):
            return value


def test_ulp_distance_agrees_with_bit_oracle_basics():
    assert ulp_distance(1.0, 1.0) == 0
    assert ulp_distance(1.0, math.nextafter(1.0, 2.0)) == 1
    assert ulp_distance(0.0, -0.0) == 0
    assert ulp_distance(0.0, 5e-324) == 1      # smallest subnormal
    assert ulp_distance(-0.0, 5e-324) == 1     # sign-aware ordering
    assert ulp_distance(1.0, -1.0) == oracle_ulp(1.0, -1.0)


def test_ulp_distance_agrees_with_bit_oracle_randomized():
    rng = random.Random(20260810)
    for _ in range(10_000):
        if rng.random() < 0.5:
            x = random_double(rng)
            y = random_double(rng)
        else:
            x = random_double(rng)
            y = x
            for _ in range(rng.randint(0, 8)):
                y = math.nextafter(y, math.inf if rng.random() < 0.5 else -math.inf)
        assert ulp_distance(x, y) == oracle_ulp(x, y), (x, y)


# -- bit identity with the per-pattern cost model ---------------------------

def reference_evaluate_sim(ast, loops, pattern, plan, costs):
    """The cost model summed anew for every pattern: every loop's host cost
    and every region's kernel cost recomputed, in the order evaluate_sim
    must keep (host loops in table order, then regions, then ops)."""
    def entries(loop_id):
        count = loops.exec_count(loop_id)
        if count is None:
            anc = next(a for a in loops.ancestors(loop_id)
                       if loops.by_id[a].trip_count is None)
            raise CostModelError(f"loop {anc} enclosing {loop_id} has no static trip count")
        return float(count)

    if pattern.as_string() in costs.fault_patterns:
        return Measurement.invalid("fault injected by configuration")
    roots = offloaded_ids(pattern, loops)
    region_members = set()
    for root in roots:
        region_members.update(loops.subtree_ids(root))
    t_cpu = 0.0
    for info in loops:
        if info.loop_id in region_members:
            continue
        work = costs.work_for(info)
        if work == 0.0:
            continue
        if info.trip_count is None:
            raise CostModelError(
                f"host loop {info.loop_id} has work but no static trip count")
        t_cpu += entries(info.loop_id) * info.trip_count * work * costs.tau_host
    t_dev = 0.0
    for root in roots:
        speedup = costs.speedup.get(root, DEFAULT_SPEEDUP)
        kernel = costs.launch_overhead
        iters_within = {}
        for lid in loops.subtree_ids(root):
            info = loops.by_id[lid]
            outer = 1 if lid == root else iters_within[info.parent_loop]
            iters_within[lid] = (None if outer is None or info.trip_count is None
                                 else outer * info.trip_count)
            work = costs.work_for(info)
            if work == 0.0:
                continue
            if iters_within[lid] is None:
                unknown = next(a for a in [lid] + loops.ancestors(lid)
                               if loops.by_id[a].trip_count is None)
                raise CostModelError(
                    f"loop {unknown} in region {root} has no static trip count")
            kernel += float(iters_within[lid]) * work * costs.tau_host / speedup
        t_dev += entries(root) * kernel
    for op in plan.ops:
        t_dev += entries(op.anchor_loop) * (costs.latency + op.bytes / costs.bandwidth)
    return Measurement(t_cpu + t_dev, t_cpu, t_dev, valid=True)


def outcome(evaluate, ast, loops, pattern, plan, costs):
    """repr of the measurement, or the type and message of the error."""
    try:
        return repr(evaluate(ast, loops, pattern, plan, costs))
    except (CostModelError, MissingAnnotation) as exc:
        return type(exc).__name__, str(exc)


def sample_patterns(loops, count, rng):
    """The all-zero pattern, every single-bit pattern and ``count`` seeded
    random valid ones."""
    ids = loops.eligible_ids()
    patterns = [tuple(int(x == lid) for x in ids) for lid in (None,) + ids]
    for _ in range(count):
        chosen = []
        for lid in ids:
            if rng.random() < 0.5 and not any(loops.is_ancestor(c, lid) for c in chosen):
                chosen.append(lid)
        patterns.append(tuple(int(lid in chosen) for lid in ids))
    return [OffloadPattern(bits) for bits in patterns]


def assert_same_outcomes(ast, loops, costs, patterns, name):
    for hoist in (True, False):
        for pattern in patterns:
            plan = plan_transfers(ast, loops, pattern, hoist=hoist)
            expected = outcome(reference_evaluate_sim, ast, loops, pattern, plan, costs)
            assert outcome(evaluate_sim, ast, loops, pattern, plan, costs) == expected, (
                name, pattern.as_string(), hoist)


def programs_with_costs(tmp_path):
    """(name, source, costs): the corpus programs with a cost file and the
    seed-1 sim-search and verify-heavy benchmark programs with theirs."""
    for path in corpus_programs():
        costs = CORPUS / f"{path.stem}_costs.json"
        if costs.exists():
            yield path.name, path.read_text(encoding="utf-8"), CostAnnotations.load(costs)
    for workload in ("sim-search", "verify-heavy"):
        for program, costs in sim_benchmark_programs(workload, tmp_path / workload):
            yield f"{workload}/{program.name}", program.source, costs


def test_sim_measurements_match_the_per_pattern_model_bit_for_bit(tmp_path):
    checked = 0
    for name, source, costs in programs_with_costs(tmp_path):
        ast = parse_program(source)
        loops = extract_loops(ast)
        patterns = sample_patterns(loops, 50, random.Random(name))
        assert_same_outcomes(ast, loops, costs, patterns, name)
        checked += 1
    assert checked == 3 + 8 + 3


def test_concurrent_evaluation_matches_serial():
    # GA workers share one loop table and cost annotations, so they fill
    # their sim terms at once
    ast, loops = build(read_corpus("g10.mc"))
    costs = CostAnnotations.load(CORPUS / "g10_costs.json")
    patterns = sample_patterns(loops, 300, random.Random(4))
    plans = [plan_transfers(ast, loops, p) for p in patterns]
    serial = [repr(evaluate_sim(ast, loops, p, plan, costs))
              for p, plan in zip(patterns, plans)]
    ast, shared = build(read_corpus("g10.mc"))
    plans = [plan_transfers(ast, shared, p) for p in patterns]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(evaluate_sim, ast, shared, p, plan, costs)
                       for p, plan in zip(patterns, plans)]
            concurrent = [repr(f.result(timeout=60)) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial


def test_sim_terms_do_not_keep_a_loop_table_alive():
    # the memo is keyed weakly by the table, and a pattern's error is not kept
    ast, loops = build(UNKNOWN_TRIP)
    pattern = OffloadPattern((0, 0))
    with pytest.raises(CostModelError):
        evaluate_sim(ast, loops, pattern, plan_transfers(ast, loops, pattern),
                     CostAnnotations(default_work=10.0))
    table = weakref.ref(loops)
    del loops
    gc.collect()
    assert table() is None


UNKNOWN_TRIP = ("int m; float x; float y; int i; int j; m = 3; "
                "for(i=0;i<4;i++){ y = y + 1.0; } "
                "for(i=0;i<4;i++){ for(j=0;j<m;j++){ x = x + 1.0; } }")


@pytest.mark.parametrize("costs", [
    # the inner loop carries work without a static trip count: an error
    # for the patterns that leave it on the host or offload its region
    CostAnnotations(default_work=10.0),
    CostAnnotations(work={20: 5.0}, default_work=0.0),
    # an eligible loop without a work annotation
    CostAnnotations(work={8: 5.0, 20: 0.0}),
    CostAnnotations(work={8: 5.0, 16: 1.0, 20: 5.0},
                    fault_patterns=frozenset({"10", "11"})),
    # the ineligible loop without a work annotation carries no work
    CostAnnotations(work={8: 5.0, 16: 1.0}),
], ids=["trip-default-work", "trip-one-loop", "missing-annotation", "fault-patterns",
        "unannotated-ineligible"])
def test_sim_errors_match_the_per_pattern_model(costs):
    ast = parse_program(UNKNOWN_TRIP)
    loops = extract_loops(ast)
    assert loops.eligible_ids() == (8, 16)  # 20, inside 16, has no trip count
    patterns = [OffloadPattern(bits) for bits in itertools.product((0, 1), repeat=2)]
    assert_same_outcomes(ast, loops, costs, patterns, "unknown-trip")


def test_unknown_trip_fails_only_the_patterns_that_use_its_term():
    ast = parse_program(UNKNOWN_TRIP)
    loops = extract_loops(ast)
    costs = CostAnnotations(work={8: 5.0, 16: 0.0, 20: 5.0})

    def outcomes(order):
        return {bits: outcome(evaluate_sim, ast, loops, OffloadPattern(bits),
                              plan_transfers(ast, loops, OffloadPattern(bits)), costs)
                for bits in order}

    order = list(itertools.product((0, 1), repeat=2))
    results = outcomes(order)
    host = ("CostModelError", "host loop 20 has work but no static trip count")
    region = ("CostModelError", "loop 20 in region 16 has no static trip count")
    assert results[0, 0] == results[1, 0] == host
    assert results[0, 1] == results[1, 1] == region
    # the same table and annotations again, in reverse order: errors are
    # neither kept nor dependent on which pattern came first
    assert outcomes(order[::-1]) == results
    costs = CostAnnotations(work={8: 5.0, 16: 0.0, 20: 0.0})
    pattern = OffloadPattern((1, 0))
    plan = plan_transfers(ast, loops, pattern)
    assert evaluate_sim(ast, loops, pattern, plan, costs).valid


def test_a_loop_inside_one_without_a_trip_count_has_no_entry_count():
    ast, loops = build("int m; float x; int i; int j; m = 3; "
                       "for(i=0;i<m;i++){ for(j=0;j<4;j++){ x = x + 1.0; } }")
    assert loops.eligible_ids() == (11,)  # 7, around it, has no trip count
    for bits in ((0,), (1,)):
        pattern = OffloadPattern(bits)
        plan = plan_transfers(ast, loops, pattern)
        with pytest.raises(CostModelError) as info:
            evaluate_sim(ast, loops, pattern, plan, CostAnnotations(work={11: 1.0}))
        assert str(info.value) == "loop 7 enclosing 11 has no static trip count"
