"""Seeded synthetic MiniC corpus for the benchmark.

Every program is generated together with everything the benchmark needs to
check the pipeline's outputs without trusting it:

* the MiniC text and an equivalent plain-Python function that computes the
  program's final variable values in binary64, in MiniC evaluation order;
* the loop table as the generator built it: each loop's node id (counted
  the way the parser numbers nodes), parent, trip count, source line and
  eligibility;
* the run-all inputs: ``costs.json``, ``tests.json``, ``registry.json``,
  a run-all ``config.json`` and, for the external backend, the parameter
  file of ``measure.awk``.

Program layout: array and scalar declarations, one host-only input loop
that calls an opaque ``read_input(...)`` (never eligible, always charged
host work, so the CPU part of every measurement is positive), then the
eligible loops: flat loops and a few two-level nests in seeded order.

Run ``python3 perfbench/corpus.py --workload sim-search --seed 1 --out DIR``
to write one workload's corpus to DIR.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Sim cost-model constants (the evaluator's defaults; written out anyway so
# the corpus states them).
TAU_HOST = 1e-9
LAUNCH_OVERHEAD = 1e-4
BANDWIDTH = 1e10
LATENCY = 1e-5

# measure.awk formula constants, in integer work units (see measure.awk).
EXT_UNITS_PER_S = 1000000000
EXT_LAUNCH_UNITS = 60000
EXT_CONTENTION = 20

PRICES = {"cpu_unit_price": 1000, "dev_unit_price": 4000}
BUDGET = 200000

_COEFFS = ("0.125", "0.25", "0.375", "0.5", "0.625", "0.75", "0.875")


@dataclass(frozen=True)
class Shape:
    """Corpus make-up of one workload. ``programs`` lists, per program, the
    number of flat eligible loops and the inner-loop count of each
    two-level nest."""

    backend: str
    workers: int
    programs: tuple          # ((flat, (inner, ...)), ...)
    array_size: int
    trip: tuple              # (lo, hi) trip of flat and inner loops
    outer_trip: tuple        # (lo, hi) trip of nest outer loops
    work: tuple              # (lo, hi) log-uniform work per iteration
    speedup: tuple           # (lo, hi) device speedup per region
    input_work: int          # work per iteration of the host-only input loop
    perf_cases: int
    arrays: int = 8
    generations: int = 20


WORKLOADS = {
    "sim-search": Shape(
        backend="sim", workers=1,
        programs=((33, (1, 2, 1)), (32, (2, 1, 2))) * 4,
        array_size=64, trip=(16, 64), outer_trip=(2, 6), work=(1000, 10000),
        speedup=(4, 16), input_work=4000, perf_cases=1, arrays=12, generations=12),
    "verify-heavy": Shape(
        backend="sim", workers=1,
        programs=((1, (1,)), (2, (1,)), (1, (1,))),
        array_size=256, trip=(256, 256), outer_trip=(128, 128), work=(120, 160),
        speedup=(9, 11), input_work=200, perf_cases=3, arrays=6),
    "external-search": Shape(
        backend="external", workers=2,
        programs=((10, (1,)),) * 12,
        array_size=64, trip=(16, 64), outer_trip=(2, 6), work=(1000, 10000),
        speedup=(4, 16), input_work=4000, perf_cases=1, arrays=10),
}

# A small program run before timing starts, to warm caches and lazy set-up.
WARMUP = Shape(backend="sim", workers=1, programs=((4, (1,)),),
               array_size=16, trip=(8, 16), outer_trip=(2, 3), work=(300, 30000),
               speedup=(4, 16), input_work=4000, perf_cases=1, arrays=4, generations=3)


@dataclass
class Loop:
    loop_id: int
    parent: int | None
    trip: int
    exec_count: int          # entries: product of enclosing trip counts
    line: int                # source line of the header
    eligible: bool
    work: int
    speedup: int = 1


@dataclass
class Program:
    name: str
    source: str
    python: str              # defines run() -> {name: float | tuple}
    loops: list              # Loop, in source order
    ga_seed: int
    tests: list = field(default_factory=list)

    @property
    def eligible(self) -> list:
        return [lp for lp in self.loops if lp.eligible]

    @property
    def iterations(self) -> int:
        """Loop-body executions of one full interpretation."""
        return sum(lp.exec_count * lp.trip for lp in self.loops)

    def expected_outputs(self) -> dict:
        namespace: dict = {}
        exec(compile(self.python, f"<{self.name}.py>", "exec"), namespace)
        return namespace["run"]()

    def ancestors(self, loop_id: int) -> list:
        by_id = {lp.loop_id: lp for lp in self.loops}
        out = []
        cur = by_id[loop_id].parent
        while cur is not None:
            out.append(cur)
            cur = by_id[cur].parent
        return out

    def is_antichain(self, bits) -> bool:
        """No offloaded loop has an offloaded ancestor."""
        ids = [lp.loop_id for lp in self.eligible]
        chosen = {lid for lid, bit in zip(ids, bits) if bit}
        return all(anc not in chosen
                   for lid in chosen for anc in self.ancestors(lid))

    def sim_cpu_only_time(self) -> float:
        """Sim cost model total for the all-zero pattern, summed in loop
        order as the evaluator does: exec * trip * work * tau_host."""
        total = 0.0
        for lp in self.loops:
            if lp.work:
                total += float(lp.exec_count) * lp.trip * float(lp.work) * TAU_HOST
        return total

    # -- external measurement formula (mirrors measure.awk) -----------------

    def ext_units(self, lp: Loop) -> int:
        return lp.exec_count * lp.trip * lp.work

    def ext_params(self) -> str:
        """measure.awk parameter file: host-only units, then one line per
        eligible loop: index of its eligible parent (-1 if none), work units
        and speedup."""
        host_only = sum(self.ext_units(lp) for lp in self.loops if not lp.eligible)
        index = {lp.loop_id: k for k, lp in enumerate(self.eligible)}
        lines = [f"H {host_only}"]
        for lp in self.eligible:
            parent = index.get(lp.parent, -1)
            lines.append(f"L {parent} {self.ext_units(lp)} {lp.speedup}")
        return "\n".join(lines) + "\n"

    def ext_measure(self, bits) -> tuple:
        """(t_total, t_cpu, t_dev) exactly as measure.awk computes them."""
        elig = self.eligible
        index = {lp.loop_id: k for k, lp in enumerate(elig)}
        host = sum(self.ext_units(lp) for lp in self.loops if not lp.eligible)
        kernels = sum(bits)
        dev_raw = 0.0
        for k, lp in enumerate(elig):
            parent = index.get(lp.parent, -1)
            on_dev = bits[k] == 1 or (parent >= 0 and bits[parent] == 1)
            if on_dev:
                dev_raw = dev_raw + self.ext_units(lp) / lp.speedup
            else:
                host = host + self.ext_units(lp)
        t_cpu = host / EXT_UNITS_PER_S
        dev = kernels * EXT_LAUNCH_UNITS + dev_raw * (EXT_CONTENTION + kernels) / EXT_CONTENTION
        t_dev = dev / EXT_UNITS_PER_S
        return t_cpu + t_dev, t_cpu, t_dev


# -- text emission with node counting ----------------------------------------

@dataclass(frozen=True)
class _Ex:
    """An expression as MiniC text, Python text and parser node count."""

    c: str
    py: str
    nodes: int


def _num(text: str) -> _Ex:
    return _Ex(text, text, 1)


def _elem(array: str, index: str) -> _Ex:
    if index.isdigit():
        return _Ex(f"{array}[{index}]", f"{array}[{index}]", 2)
    return _Ex(f"{array}[{index}]", f"{array}[int({index})]", 2)


def _bin(op: str, left: _Ex, right: _Ex) -> _Ex:
    return _Ex(f"({left.c} {op} {right.c})", f"({left.py} {op} {right.py})",
               1 + left.nodes + right.nodes)


class _Writer:
    """Appends MiniC and Python lines in step, numbering nodes as the
    parser does: one id per node, taken at the node's first token, with
    id 0 for the program."""

    def __init__(self):
        self.c: list[str] = []
        self.py: list[str] = ["def run():"]
        self.next_id = 1

    @property
    def line(self) -> int:
        return len(self.c) + 1

    def decl(self, text: str, py: str, nodes: int):
        self.c.append(text)
        self.py.append("    " + py)
        self.next_id += nodes

    def assign(self, depth: int, target: _Ex, value: _Ex, scalar: bool = False):
        pad = "  " * depth
        self.c.append(f"{pad}{target.c} = {value.c};")
        self.py.append("    " * (depth + 1) + f"{target.py} = {value.py}")
        # Assign node + index expression (arrays) + value
        self.next_id += 1 + (0 if scalar else target.nodes - 1) + value.nodes

    def call(self, depth: int, name: str, arg: str):
        self.c.append(f"{'  ' * depth}{name}({arg});")
        self.py.append("    " * (depth + 1) + "pass")
        self.next_id += 2              # CallStmt + Var argument

    def open_loop(self, depth: int, var: str, trip: int) -> tuple[int, int]:
        """Returns (loop id, header line)."""
        loop_id, line = self.next_id, self.line
        self.c.append(f"{'  ' * depth}for({var}=0;{var}<{trip};{var}++){{")
        pad = "    " * (depth + 1)
        self.py.append(f"{pad}{var} = 0.0")
        self.py.append(f"{pad}while {var} < {float(trip)!r}:")
        self.next_id += 4              # ForLoop, init Num, bound Num, body Block
        return loop_id, line

    def close_loop(self, depth: int, var: str):
        self.c.append(f"{'  ' * depth}}}")
        self.py.append("    " * (depth + 2) + f"{var} = {var} + 1.0")


def _flat_value(rng: random.Random, arrays: list, target: str) -> tuple[_Ex, bool]:
    """One of four right-hand sides, all of the same node count, and
    whether it reads the target array."""
    y, z = rng.sample([a for a in arrays if a != target], 2)
    c = _num(rng.choice(_COEFFS))
    form = rng.randrange(4)
    if form == 0:
        return _bin("+", _bin("*", _elem(y, "i"), c), _elem(z, "i")), False
    if form == 1:
        return _bin("*", _bin("+", _elem(y, "i"), _elem(z, "i")), c), False
    if form == 2:
        return _bin("*", _bin("-", _elem(y, "i"), _elem(z, "i")), c), False
    return _bin("+", _bin("*", _elem(target, "i"), c), _elem(y, "i")), True


def generate_program(shape: Shape, flat: int, nests: tuple, name: str,
                     rng: random.Random) -> Program:
    n = shape.array_size
    arrays = [f"a{k}" for k in range(shape.arrays)]
    w = _Writer()
    for a in arrays:
        w.decl(f"float {a}[{n}];", f"{a} = [0.0] * {n}", 1)
    for s in ("s", "i", "j"):
        kind = "float" if s == "s" else "int"
        w.decl(f"{kind} {s} = 0;", f"{s} = 0.0", 2)
    loops: list[Loop] = []

    # Work and speedup are stratified draws: each program gets one value
    # from every equal-width slice of the (log-)range, in seeded order, so
    # the corpus make-up, and with it the figures, vary little by seed.
    kernels = flat + sum(nests)
    lo, hi = shape.work
    works = [int(round(lo * (hi / lo) ** ((k + rng.random()) / kernels)))
             for k in range(kernels)]
    lo, hi = shape.speedup
    speedups = [int(round(lo + (hi - lo) * (k + rng.random()) / (kernels + len(nests))))
                for k in range(kernels + len(nests))]
    rng.shuffle(works)
    rng.shuffle(speedups)

    # host-only input loop: an opaque call keeps it off the device
    lid, line = w.open_loop(0, "i", n)
    w.call(1, "read_input", "i")
    for a in arrays:
        value = _bin("+", _bin("*", _Ex("i", "i", 1), _num(rng.choice(_COEFFS))),
                     _num(f"{rng.randint(1, 9)}.0"))
        w.assign(1, _elem(a, "i"), value)
    w.close_loop(0, "i")
    loops.append(Loop(lid, None, n, 1, line, False, shape.input_work))

    order = ["flat"] * flat + ["nest"] * len(nests)
    rng.shuffle(order)
    nest_iter = iter(nests)
    for nest_no, kind in enumerate(order):
        if kind == "flat":
            target = rng.choice(arrays)
            value, reads_target = _flat_value(rng, arrays, target)
            # A loop that writes an array without reading it writes all of
            # it: the planner copies such an array out without copying it
            # in, so a partial write would hand the host device garbage.
            t = rng.randint(*shape.trip) if reads_target else n
            lid, line = w.open_loop(0, "i", t)
            w.assign(1, _elem(target, "i"), value)
            w.close_loop(0, "i")
            loops.append(Loop(lid, None, t, 1, line, True, works.pop(), speedups.pop()))
            continue
        inner = next(nest_iter)
        outer_t = rng.randint(*shape.outer_trip)
        oid, line = w.open_loop(0, "j", outer_t)
        loops.append(Loop(oid, None, outer_t, 1, line, True, 0, speedups.pop()))
        for _ in range(inner):
            t = rng.randint(*shape.trip)
            lid, line = w.open_loop(1, "i", t)
            target = rng.choice(arrays)
            y = rng.choice([a for a in arrays if a != target])
            value = _bin("+", _bin("*", _elem(target, "i"), _num(rng.choice(_COEFFS))),
                         _elem(y, "i"))
            w.assign(2, _elem(target, "i"), value)
            w.close_loop(1, "i")
            loops.append(Loop(lid, oid, t, outer_t, line, True, works.pop(),
                              speedups.pop()))
        if nest_no % 2:
            # a host read of a kernel output each outer iteration blocks
            # hoisting that output's copyout past the outer loop
            w.assign(1, _Ex("s", "s", 1),
                     _bin("+", _Ex("s", "s", 1), _elem(target, "1")), scalar=True)
        w.close_loop(0, "j")

    names = arrays + ["s", "i", "j"]
    result = ", ".join(f"{nm!r}: tuple({nm})" if nm in arrays else f"{nm!r}: {nm}"
                       for nm in names)
    w.py.append(f"    return {{{result}}}")
    return Program(name=name, source="\n".join(w.c) + "\n",
                   python="\n".join(w.py) + "\n", loops=loops,
                   ga_seed=rng.randrange(1, 2**31))


def random_antichain(program: Program, rng: random.Random) -> list:
    """A valid pattern: each loop offloaded with probability 1/2 unless an
    ancestor already is."""
    chosen: set = set()
    bits = []
    for lp in program.eligible:
        on = rng.random() < 0.5 and lp.parent not in chosen
        if on:
            chosen.add(lp.loop_id)
        bits.append(int(on))
    return bits


def generate(workload: str, seed: int, shape: Shape | None = None) -> list:
    shape = shape or WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    programs = []
    for k, (flat, nests) in enumerate(shape.programs):
        prog = generate_program(shape, flat, nests, f"p{k}", rng)
        prog.tests = [random_antichain(prog, rng) for _ in range(shape.perf_cases)]
        programs.append(prog)
    return programs


def write_program(program: Program, shape: Shape, directory: Path,
                  measure_script: Path) -> Path:
    """Write one program's run-all inputs; returns the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    src = f"{program.name}.mc"
    (directory / src).write_text(program.source, encoding="utf-8")
    tests = [{"name": f"diff-{k}", "kind": "performance", "source": src,
              "baseline": src, "pattern": bits,
              "tolerance": {"mode": "ulp", "max_ulps": 0}}
             for k, bits in enumerate(program.tests)]
    tests.append({"name": "smoke", "kind": "regression", "command": "true"})
    config = {
        "source": src,
        "backend": shape.backend,
        "ga": {"population_size": 16, "generations": shape.generations,
               "crossover_rate": 0.9, "mutation_rate_per_bit": 0.05,
               "elite_count": 1, "seed": program.ga_seed},
        "prices": PRICES,
        "budget": BUDGET,
        "tests": "tests.json",
        "registry": "registry.json",
        "components": ["runtime"],
        "tolerance": {"mode": "ulp", "max_ulps": 0},
        "output_dir": "out",
        "workers": shape.workers,
        "timeout": 60,
    }
    if shape.backend == "sim":
        costs = {str(lp.loop_id): {"work": lp.work, "speedup": lp.speedup}
                 for lp in program.loops if lp.eligible}
        costs.update({str(lp.loop_id): {"work": lp.work}
                      for lp in program.loops if not lp.eligible})
        costs["globals"] = {"tau_host": TAU_HOST, "launch_overhead": LAUNCH_OVERHEAD,
                            "bandwidth": BANDWIDTH, "latency": LATENCY}
        _dump(directory / "costs.json", costs)
        config["costs"] = "costs.json"
    else:
        (directory / "params.txt").write_text(program.ext_params(), encoding="utf-8")
        config["command"] = (f"awk -f {measure_script} "
                             f"{directory / 'params.txt'} {{src}} {{pattern}}")
    _dump(directory / "tests.json", tests)
    _dump(directory / "registry.json", {"runtime": ["true"]})
    _dump(directory / "config.json", config)
    return directory / "config.json"


def _dump(path: Path, data):
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    shape = WORKLOADS[args.workload]
    script = Path(__file__).resolve().parent / "measure.awk"
    for program in generate(args.workload, args.seed):
        config = write_program(program, shape, Path(args.out) / program.name, script)
        print(config)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
