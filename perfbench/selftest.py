#!/usr/bin/env python3
"""Self-test of the benchmark harness.

Usage, from the root of a spinsym checkout:

    python3 perfbench/selftest.py                # about 15 s
    python3 perfbench/selftest.py --seed-counts  # adds about 3 minutes

The fast part runs the tiny ``calogero sp(2) L=2`` workload and checks
that every metric in BENCHMARK.json is emitted with its unit, that a
deliberately wrong expected answer raises ``failed_share``, that two
traced runs give identical counts with verdicts equal to the untraced
ones, and that the tracer caught every module binding of the functions it
wraps.

``--seed-counts`` also traces the full-size workloads once and compares
their counts with those recorded at the commit that introduced the
benchmark: 3100 commutators on serre-sp4, 20 commutators and 2
``solve_lambda`` calls on solve-sp4, and 1653 ``apply_operator`` calls on
oracle-sp2-confined with oracle seed 1.  A change that alters the engine's
work on purpose changes these counts; the fast part stays valid.
"""

import contextlib
import dataclasses
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def quiet_measure(w, trace, wanted):
    with contextlib.redirect_stdout(io.StringIO()):
        return run.measure(w, seed=1, seconds=0, trace=trace, wanted=wanted)


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"}


def fast() -> None:
    spec = run.contract()
    tiny = run.WORKLOADS["tiny"]

    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        result = quiet_measure(tiny, trace, spec[group])
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(emitted == dict(spec[group]),
               f"every {group} metric emitted with its unit")
        expect(all(run.unit_of(k) == u for k, u in spec[group]),
               f"{group} units in BENCHMARK.json match the harness")
        expect(result["correct"] and result["failed"] == 0
               and result["attempted"] > 0,
               f"tiny workload correct with trace={int(trace)}")

    wrong = dataclasses.replace(tiny, checks=dict(
        tiny.checks, **{"serre-halfloop": ("28 triples verified",)}))
    result = quiet_measure(wrong, False, spec["end_to_end"])
    expect(not result["correct"] and result["failed"] > 0,
           "a wrong expected note raises failed_share")
    solve = run.WORKLOADS["solve-so3-L3"]
    sample = run.run_sample(dataclasses.replace(solve, roots=("2",)), None,
                            False, timeout=60)
    expect(sample.failed == 1, "a wrong expected lambda root fails the check")

    first = quiet_measure(tiny, True, spec["per_layer"])
    second = quiet_measure(tiny, True, spec["per_layer"])
    expect(counts(first) == counts(second),
           "two traced runs give identical counts")

    sample = run.run_sample(tiny, run.ORACLE_PANEL[0], True, timeout=60)
    where = sample.bindings or {}
    for span, modules in (
            ("exact.rf_sum", {"exact", "operators"}),
            ("operators.commutator", {"operators", "checks"}),
            ("operators.operator_sum",
             {"operators", "checks", "models", "spin_ops"}),
            ("operators.apply_operator", {"operators", "checks"}),
            ("models.generator_grid", {"models", "checks"}),
            ("models.hamiltonian", {"models", "checks"}),
            ("checks.solve_lambda", {"checks", "cli"})):
        got = {b.split(".")[1] for b in where.get(span, [])
               if b.count(".") == 2}
        expect(modules <= got, f"{span} patched in {sorted(modules)}")
    expect(where.get("exact.rf_mul") == ["spinsym.exact.RationalFunction.__mul__"]
           and where.get("operators.op_mul")
           == ["spinsym.operators.Operator.__mul__"],
           "dunders patched on the class")
    expect(sample.unwrapped == (), "no binding still reaches an original")


SEED_COUNTS = (
    ("serre-sp4", None, {"operators.commutator.calls": 3100}),
    ("solve-sp4", None, {"operators.commutator.calls": 20,
                         "checks.solve_lambda.calls": 2}),
    ("oracle-sp2-confined", 1, {"operators.apply_operator.calls": 1653}),
)


def seed_counts() -> None:
    for name, oracle_seed, want in SEED_COUNTS:
        w = run.WORKLOADS[name]
        untraced = run.run_sample(w, oracle_seed, False, timeout=600)
        traced = run.run_sample(w, oracle_seed, True, timeout=600)
        got = {k: (traced.layers or {}).get(k) for k in want}
        expect(got == want, f"{name}: {got} (seed reference {want})")
        expect(traced.failed == 0 and untraced.failed == 0
               and traced.record == untraced.record,
               f"{name}: traced verdicts equal the untraced ones and pass")


def main() -> int:
    if not (run.SRC / "spinsym" / "cli.py").is_file():
        print(f"no spinsym source under {run.SRC}", file=sys.stderr)
        return 2
    fast()
    if "--seed-counts" in sys.argv[1:]:
        seed_counts()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
