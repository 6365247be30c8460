"""Output checks of one run-all, made apart from the program.

Each check compares an artifact with the corpus generator's own record
(nesting, loop lines, final values computed in plain Python) or with a
property the method must have (antichain patterns, pragma stripping,
two-space bit-equality, the allocation rule, determinism). None compares
with a stored copy of earlier output. Every check returns a list of
failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import struct

PRAGMA = "#pragma"
KERNELS = "#pragma acc kernels"


def check_ready(report: dict) -> list:
    if report.get("recommendation") != "ready":
        return [f"recommendation {report.get('recommendation')!r}, not 'ready'"]
    return []


def check_pattern(program, pattern: dict) -> list:
    """pattern.json names the generator's eligible loops and is a valid
    antichain under the generator's record of the nesting."""
    ids = [lp.loop_id for lp in program.eligible]
    bits = pattern.get("bits", [])
    if pattern.get("loop_ids") != ids:
        return [f"pattern loop_ids {pattern.get('loop_ids')} != generated {ids}"]
    if len(bits) != len(ids) or any(b not in (0, 1) for b in bits):
        return [f"pattern bits {bits} malformed for {len(ids)} loops"]
    if not program.is_antichain(bits):
        return [f"pattern {''.join(map(str, bits))} offloads a loop and its ancestor"]
    return []


def check_annotated(program, annotated: str, bits) -> list:
    """Without its #pragma lines the annotated source is the source byte for
    byte, and one kernels pragma sits directly above the header of each
    offloaded loop, and nowhere else."""
    failures = []
    lines = annotated.split("\n")
    if "\n".join(ln for ln in lines if not ln.startswith(PRAGMA)) != program.source:
        failures.append("annotated source without pragmas differs from the source")
    offloaded = {lp.line for lp, bit in zip(program.eligible, bits) if bit}
    kernels = sum(ln == KERNELS for ln in lines)
    if kernels != len(offloaded):
        failures.append(f"{kernels} kernels pragmas for {len(offloaded)} offloaded loops")
    src_line = 0
    pending = 0
    for ln in lines:
        if ln.startswith(PRAGMA):
            pending += ln == KERNELS
            continue
        src_line += 1
        if pending != (src_line in offloaded):
            failures.append(f"{pending} kernels pragmas above source line {src_line}")
            break
        pending = 0
    return failures


def check_outputs(expected: dict, actual: dict, label: str) -> list:
    """Bit-for-bit equality of final variable values."""
    if list(actual) != list(expected):
        return [f"{label}: variables {list(actual)} != {list(expected)}"]
    for name, want in expected.items():
        got = actual[name]
        want_seq = want if isinstance(want, tuple) else (want,)
        got_seq = got if isinstance(got, tuple) else (got,)
        if len(got_seq) != len(want_seq):
            return [f"{label}: '{name}' has {len(got_seq)} values, expected {len(want_seq)}"]
        for k, (g, w) in enumerate(zip(got_seq, want_seq)):
            if _bits(g) != _bits(w):
                return [f"{label}: '{name}'[{k}] = {g!r}, expected {w!r}"]
    return []


def _bits(x) -> bytes:
    return struct.pack("<d", x) if isinstance(x, float) else repr(x).encode()


def expected_plan(t_cpu: float, t_dev: float, prices: dict, budget: float) -> dict:
    """The paper's sizing rule: a round-half-up integer ratio with one side 1
    (so coprime), then the largest whole multiple of it within budget; if
    not even one fits, the pair closest to the ratio in log space, ties to
    more units, then more CPU units. t_dev = 0 buys CPU units only."""
    p_c, p_g = prices["cpu_unit_price"], prices["dev_unit_price"]
    if t_dev == 0:
        cpu = math.floor(budget / p_c)
        return {"ratio": None, "allocation": {"cpu_units": cpu, "dev_units": 0,
                                              "monthly_cost": cpu * p_c, "ratio_kept": True}}
    if t_cpu >= t_dev:
        rc, rd = max(math.floor(t_cpu / t_dev + 0.5), 1), 1
    else:
        rc, rd = 1, max(math.floor(t_dev / t_cpu + 0.5), 1)
    k = math.floor(budget / (rc * p_c + rd * p_g))
    if k >= 1:
        cpu, dev, kept = k * rc, k * rd, True
    else:
        pairs = [(c, d) for c in range(1, int(budget // p_c) + 1)
                 for d in range(1, int(budget // p_g) + 1) if c * p_c + d * p_g <= budget]
        cpu, dev = min(pairs, key=lambda cd: (abs(math.log(cd[0] * rd / (cd[1] * rc))),
                                              -(cd[0] + cd[1]), -cd[0]))
        kept = False
    return {"ratio": {"cpu": rc, "dev": rd},
            "allocation": {"cpu_units": cpu, "dev_units": dev,
                           "monthly_cost": cpu * p_c + dev * p_g, "ratio_kept": kept}}


def check_plan(search: dict, plan: dict, prices: dict, budget: float) -> list:
    """plan.json is the allocation recomputed from search.json's split."""
    m = search["best"]["measurement"]
    t_cpu, t_dev = m["t_cpu_part"], m["t_dev_part"]
    want = expected_plan(t_cpu, t_dev, prices, budget)
    failures = []
    if (plan["inputs"]["t_cpu"], plan["inputs"]["t_dev"]) != (t_cpu, t_dev):
        failures.append("plan inputs differ from the search measurement")
    if plan["ratio"] != want["ratio"]:
        failures.append(f"ratio {plan['ratio']} != recomputed {want['ratio']}")
    if plan["allocation"] != want["allocation"]:
        failures.append(f"allocation {plan['allocation']} != recomputed {want['allocation']}")
    if plan["allocation"]["monthly_cost"] > budget:
        failures.append(f"allocation costs {plan['allocation']['monthly_cost']} > budget {budget}")
    return failures


def check_external(program, search: dict) -> list:
    """The chosen measurement is measure.awk's formula for the chosen bits."""
    bits = search["best"]["bits"]
    m = search["best"]["measurement"]
    got = (m["t_total"], m["t_cpu_part"], m["t_dev_part"])
    want = program.ext_measure(bits)
    if not m["valid"] or got != want:
        return [f"external measurement {got} != formula {want}"]
    return []


def check_same(first: dict, again: dict) -> list:
    """A repeat of a program wrote byte-identical artifacts."""
    if first == again:
        return []
    differ = sorted(k for k in set(first) | set(again) if first.get(k) != again.get(k))
    return [f"artifacts differ from the first run: {differ}"]


def self_check(program, artifacts: dict, outputs: dict, prices: dict, budget: float) -> list:
    """Feed each check a deliberately corrupted artifact; every check must
    report a failure. Returns the corruptions that went unnoticed."""
    pattern = json.loads(artifacts["pattern.json"])
    bits = pattern["bits"]
    annotated = artifacts[f"{program.name}.acc.mc"].decode("utf-8")
    search = json.loads(artifacts["search.json"])
    plan = json.loads(artifacts["plan.json"])
    missed = []

    lines = annotated.split("\n")
    if KERNELS in lines:
        k = lines.index(KERNELS)
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    else:
        lines.insert(0, KERNELS)
    if not check_annotated(program, "\n".join(lines), bits):
        missed.append("a kernels pragma moved one line down")

    name = next(n for n, v in outputs.items() if isinstance(v, tuple))
    off = dict(outputs)
    off[name] = (math.nextafter(off[name][0], math.inf),) + off[name][1:]
    if not check_outputs(outputs, off, "self-check"):
        missed.append(f"'{name}'[0] one ulp off")

    over = json.loads(json.dumps(plan))
    over["allocation"]["cpu_units"] += 1
    over["allocation"]["monthly_cost"] += prices["cpu_unit_price"]
    if not check_plan(search, over, prices, budget):
        missed.append("allocation one CPU unit over")

    inner = next(lp for lp in program.eligible if lp.parent is not None)
    ids = [lp.loop_id for lp in program.eligible]
    nested = [int(lid in (inner.loop_id, inner.parent)) for lid in ids]
    if not check_pattern(program, {**pattern, "bits": nested}):
        missed.append("a nested pattern")
    return missed
