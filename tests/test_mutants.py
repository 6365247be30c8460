"""Seeded mutation smoke test of the command line.

Token mutants of the corpus programs (a token deleted, duplicated or
swapped with the next, or a number literal lengthened) go through
``analyze`` and ``search`` with the sim backend. Whatever the mutant, no
exception may escape ``main``: a well-formed program exits 0 and anything
else exits 2 with a message. The mutants that parse also run through
``interpret`` in both tiers, closures and generated source, which must
agree.
"""

import json
import random
from collections import Counter

import pytest

from offload_planner.cli import main
from offload_planner.minic import ParseError, extract_loops, interpret
from offload_planner.minic.parser import parse_program, tokenize

from conftest import corpus_programs, in_both_tiers

MUTANTS = 200
SEED = 1


def mutate(tokens: list, rng: random.Random) -> str:
    texts = [tok.text for tok in tokens[:-1]]  # the last token is eof
    k = rng.randrange(len(texts))
    op = rng.choice(("delete", "duplicate", "swap", "lengthen"))
    if op == "delete":
        del texts[k]
    elif op == "duplicate":
        texts.insert(k, texts[k])
    elif op == "swap" and k + 1 < len(texts):
        texts[k], texts[k + 1] = texts[k + 1], texts[k]
    elif op == "lengthen":
        numbers = [i for i, tok in enumerate(tokens[:-1]) if tok.kind == "num"]
        k = rng.choice(numbers)
        texts[k] += "".join(rng.choice("0123456789")
                            for _ in range(rng.choice((1, 3, 20, 200, 400))))
    return " ".join(texts)


def mutants():
    rng = random.Random(SEED)
    programs = [tokenize(path.read_text(encoding="utf-8")) for path in corpus_programs()]
    return [mutate(rng.choice(programs), rng) for _ in range(MUTANTS)]


def test_no_exception_escapes_main_on_token_mutants(tmp_path, capsys):
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps({"default_work": 1.0}), encoding="utf-8")
    codes = {}
    for n, source in enumerate(mutants()):
        src = tmp_path / f"m{n}.mc"
        src.write_text(source, encoding="utf-8")
        out = str(tmp_path / "out")
        for argv in (["analyze", str(src), "-o", out],
                     ["search", str(src), "--costs", str(costs), "--ga",
                      f"generations=2,population_size=4,seed={n}", "-o", out]):
            try:
                code = main(argv)
            except Exception as exc:  # an escaped exception is the finding
                pytest.fail(f"{type(exc).__name__}: {exc} escaped {argv[0]} "
                            f"on mutant {n}: {source!r}")
            assert code in (0, 2), (argv[0], n, source, capsys.readouterr().err)
            codes[code] = codes.get(code, 0) + 1
    capsys.readouterr()
    assert codes.get(0) and codes.get(2)  # both outcomes are exercised


def test_generated_source_runs_parsed_mutants_as_closures_do(nests):
    # a low iteration cap stops runaway mutants fast
    outcomes = Counter()
    for source in mutants():
        try:
            ast = parse_program(source)
        except ParseError:
            continue
        loops = extract_loops(ast)
        try:
            in_both_tiers(lambda: interpret(ast, 10 ** 4, loops=loops))
            outcomes["ran"] += 1
        except Exception as exc:  # the same in both tiers
            outcomes[type(exc).__name__] += 1
    assert outcomes["ran"] and outcomes["EvalError"] and nests
