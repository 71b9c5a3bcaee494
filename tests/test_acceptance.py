"""Acceptance gate: one verdict line per criterion, all at exact tolerance.

Every check here is an operator identity over exact rational arithmetic,
so "pass" means the relevant expression reduces to the literal zero
operator (or the exact expected set/value); there is no numerical
tolerance anywhere.  Each test prints a single criterion line; run with
-rA (the repository default) to see all lines in the summary.
"""

import time
from fractions import Fraction

import pytest

import spinsym.checks as checks
from spinsym import cli
from spinsym.checks import (check_conservation, check_level_relations,
                            check_pq_identities, check_serre_halfloop,
                            check_serre_yangian, oracle_crosscheck,
                            run_lie_suite, solve_lambda)
from spinsym.lie import AlgebraSpec, basis
from spinsym.models import (ModelSpec, generator_grid, star_coupling,
                            symmetrized_triple)
from spinsym.operators import commutator, operator_sum

F = Fraction

SO3 = AlgebraSpec(3, 1)
SP2 = AlgebraSpec(2, -1)
SP4 = AlgebraSpec(4, -1)
SO5 = AlgebraSpec(5, 1)

# the four non-degenerate specs with their critical couplings
STAR_SPECS = [(SO3, F(-2)), (SP2, F(1, 3)), (SP4, F(1, 4)), (SO5, F(2))]

LIE_SPECS = [AlgebraSpec(2, -1), AlgebraSpec(3, 1), AlgebraSpec(4, 1),
             AlgebraSpec(4, -1), AlgebraSpec(5, 1), AlgebraSpec(6, 1),
             AlgebraSpec(6, -1)]


def verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" :: {detail}" if detail else ""
    print(f"criterion {num} [{status}] (tolerance: exact zero) {label}{tail}")
    return ok


def test_c01_lie_structure_suite():
    start = time.perf_counter()
    reports = [run_lie_suite(spec) for spec in LIE_SPECS]
    elapsed = time.perf_counter() - start
    ok = all(r.ok for r in reports) and elapsed < 10.0
    assert verdict(
        "01", "Lie structure suite for all seven algebras", ok,
        f"7 specs x 7 checks in {elapsed:.1f}s (budget 10s)"), \
        "\n\n".join(r.to_text() for r in reports if not r.ok)


@pytest.mark.parametrize("spec,star", STAR_SPECS,
                         ids=lambda v: v.describe() if hasattr(v, "describe")
                         else str(v))
def test_c02_rational_model_conservation(spec, star):
    assert star_coupling(spec) == star
    start = time.perf_counter()
    ms = ModelSpec(spec, 3, "calogero", lam="star")
    level0, level1 = check_conservation(ms)
    detuned = ModelSpec(spec, 3, "calogero", lam=star + 1)
    _, broken = check_conservation(detuned)
    elapsed = time.perf_counter() - start
    ok = (level0.status == "pass"
          and "coupling left symbolic" in level0.notes
          and level1.status == "pass"
          and broken.status == "fail" and len(broken.witness) > 0
          and elapsed < 60.0)
    assert verdict(
        "02", f"rational-model conservation, {spec.describe()}, L=3", ok,
        f"level 0 symbolic, level 1 at {star}, refuted at {star + 1} "
        f"with witness; {elapsed:.1f}s (budget 60s)")


def test_c03_coupling_solver():
    start = time.perf_counter()
    ok = True
    details = []
    for spec, star in STAR_SPECS:
        for kind in ("calogero", "sutherland"):
            roots = solve_lambda(ModelSpec(spec, 3, kind, lam="symbolic"))
            ok = ok and roots == {star}
            details.append(f"{spec.describe()}/{kind}={sorted(roots)}")
    code = cli.run(["model", "--model", "calogero", "--N", "4",
                    "--theta0", "+1", "--L", "3", "--lambda", "star"])
    ok = ok and code == 2
    elapsed = time.perf_counter() - start
    assert verdict(
        "03", "coupling solver returns exactly the critical value", ok,
        f"eight model instances + degenerate star mode exit {code}; "
        f"{elapsed:.1f}s"), details


@pytest.mark.parametrize("spec", [SO3, SP2], ids=lambda s: s.describe())
@pytest.mark.parametrize("sites", [3, 4])
def test_c04_halfloop_serre(spec, sites):
    start = time.perf_counter()
    ms = ModelSpec(spec, sites, "calogero", lam="star")
    r = check_serre_halfloop(ms)
    elapsed = time.perf_counter() - start
    ok = r.status == "pass" and elapsed < 300.0
    assert verdict(
        "04", f"half-loop Serre, {spec.describe()}, L={sites}", ok,
        f"{elapsed:.1f}s (budget 300s)"), r.to_dict()


def test_c05_yangian_serre_committed_convention():
    start = time.perf_counter()
    results = []
    for spec in (SP2, SO3):
        ms = ModelSpec(spec, 3, "sutherland", lam="star")
        results.append(check_serre_yangian(ms))
    elapsed = time.perf_counter() - start
    ok = all(r.status == "pass" for r in results) and all(
        any("committed convention" in n for n in r.notes) for r in results)
    assert verdict(
        "05", "Yangian Serre at the critical coupling, sp(2) and so(3), "
        "L=3, committed index raising and 1/24 symmetriser", ok,
        f"{elapsed:.1f}s")


def test_c05_yangian_serre_detuned_refutation_rank_one():
    # literal demand: the same check must FAIL at coupling 1 for sp(2)/so(3)
    statuses = {}
    for spec in (SP2, SO3):
        ms = ModelSpec(spec, 3, "sutherland", lam=F(1))
        statuses[spec.describe()] = check_serre_yangian(ms).status
    ok = all(s == "fail" for s in statuses.values())
    verdict("05", "Yangian Serre refuted at coupling 1 for sp(2) and so(3)",
            ok, f"statuses: {statuses}")
    assert ok, (
        "unattainable for a reason the engine itself proves: sp(2) and "
        "so(3) are three-dimensional, every level-1 generator transforms "
        "covariantly at ANY coupling, and for a rank-one algebra both the "
        "cyclic bracket sum and the symmetrized right-hand side vanish "
        "identically for every basis triple (all 27 triples reduce to "
        "0 = 0 at coupling 1, at the critical coupling, and with the "
        "coupling fully symbolic). A cubic relation cannot be broken by "
        "detuning a coupling it never sees; the rank-two companion "
        "criterion below demonstrates the intended refutation where the "
        "cubic obstruction actually exists.")


def _serre_defect(ms, triple):
    grid0 = generator_grid(ms, 0)
    grid1 = generator_grid(ms, 1)
    ab, cd, ef = triple
    pieces = (commutator(grid1[ab], commutator(grid0[cd], grid1[ef])),
              commutator(grid1[ef], commutator(grid0[ab], grid1[cd])),
              commutator(grid1[cd], commutator(grid0[ef], grid1[ab])))
    weights = checks._serre_weight(ms.algebra, ab, cd, ef)
    scale = checks._serre_rhs_scale(ms)
    rhs = operator_sum(ms.space, (
        symmetrized_triple(*(grid0[label] for label in key)).scaled(c)
        for key, c in weights.items()))
    lhs = operator_sum(ms.space, pieces)
    return lhs, lhs - rhs.scaled(scale)


def test_c05_yangian_serre_rank_two_companion():
    # sp(4) DOES expose the coupling: same triples refute 1, validate 1/4
    triples = [((1, 1), (1, 2), (1, 3)),
               ((1, 1), (1, 4), (3, 1)),
               ((1, 2), (2, 1), (3, 2)),
               ((1, 3), (2, 2), (4, 1))]
    start = time.perf_counter()
    detuned = ModelSpec(SP4, 2, "sutherland", lam=F(1))
    tuned = ModelSpec(SP4, 2, "sutherland", lam="star")
    ok = True
    for triple in triples:
        lhs_bad, defect_bad = _serre_defect(detuned, triple)
        lhs_good, defect_good = _serre_defect(tuned, triple)
        nonvacuous = not lhs_bad.is_zero and not lhs_good.is_zero
        ok = ok and nonvacuous and not defect_bad.is_zero \
            and defect_good.is_zero
    elapsed = time.perf_counter() - start
    assert verdict(
        "05", "Yangian Serre companion at rank two: sp(4) nonvacuous "
        "triples refute coupling 1 and validate 1/4", ok,
        f"{len(triples)} triples, both sides nonzero, {elapsed:.1f}s")


@pytest.mark.parametrize("spec", [SP2, SO3], ids=lambda s: s.describe())
def test_c06_confined_model(spec):
    start = time.perf_counter()
    ms = ModelSpec(spec, 3, "confined", lam="star", omega="symbolic")
    level0, level1 = check_conservation(ms)
    rel0, rel1 = check_level_relations(ms)
    serre = check_serre_yangian(ms)
    elapsed = time.perf_counter() - start
    reduction_note = any("byte for byte" in n for n in serre.notes)
    ok = (all(r.status == "pass"
              for r in (level0, level1, rel0, rel1, serre))
          and reduction_note and elapsed < 300.0)
    assert verdict(
        "06", f"confined model, {spec.describe()}, L=3, symbolic trap: "
        "conservation, covariance, Serre with trap-squared right-hand "
        "side, trap->0 reduction byte for byte", ok,
        f"{elapsed:.1f}s (budget 300s)"), serre.to_dict()


def test_c07_coupling_weight_unity():
    results = {}
    for spec in LIE_SPECS:
        r = checks.check_appendix_f(spec)
        results[spec.describe()] = r.status
    expected = {s.describe(): ("skipped" if s.N == 4 * s.theta0 else "pass")
                for s in LIE_SPECS}
    ok = results == expected
    assert verdict(
        "07", "two-site weight collapses to 1 at the critical coupling "
        "for every non-degenerate algebra", ok, str(results))


def test_c08_spin_identities():
    specs = [AlgebraSpec(2, 1), AlgebraSpec(2, -1), AlgebraSpec(3, 1),
             AlgebraSpec(4, 1), AlgebraSpec(4, -1)]
    start = time.perf_counter()
    ok = True
    for spec in specs:
        results = check_pq_identities(spec)
        ok = ok and len(results) == 8 \
            and all(r.status == "pass" for r in results)
    elapsed = time.perf_counter() - start
    assert verdict(
        "08", "exchange/twist identities, symbolic and dense routes, "
        "N in {2,3,4} for every legal family", ok,
        f"{len(specs)} specs x 8 identities, {elapsed:.1f}s")


def test_c09_oracle_crosscheck():
    models = [ModelSpec(SO3, 3, "calogero", lam="star"),
              ModelSpec(SP2, 3, "sutherland", lam="star"),
              ModelSpec(SP2, 3, "confined", lam="star")]
    start = time.perf_counter()
    ok = True
    details = []
    for ms in models:
        r = oracle_crosscheck(ms, trials=20, seed=1)
        ok = ok and r.status == "pass" \
            and dict(r.params)["trials"] == "20" \
            and any("all exactly zero" in n for n in r.notes)
        details.append(f"{ms.kind}:{r.status}")
    elapsed = time.perf_counter() - start
    assert verdict(
        "09", "evaluation oracle replays every proven identity on 20 "
        "seeded random spin functions and rational points", ok,
        f"{', '.join(details)}; {elapsed:.1f}s")


def test_c10_cli_golden_invocations(capsys):
    import json
    from pathlib import Path
    code1 = cli.run(["model", "--model", "calogero", "--N", "3",
                     "--theta0", "+1", "--L", "3", "--lambda", "star"])
    capsys.readouterr()
    code2 = cli.run(["model", "--model", "calogero", "--N", "4",
                     "--theta0", "+1", "--L", "3", "--lambda", "star"])
    err2 = capsys.readouterr().err
    code3 = cli.run(["solve-lambda", "--model", "sutherland", "--N", "2",
                     "--theta0", "-1", "--L", "3", "--format", "json"])
    out3 = capsys.readouterr().out
    payload = json.loads(out3)
    for check in payload["checks"]:
        check["millis"] = 0
    golden = (Path(__file__).parent / "golden"
              / "solve_lambda_sp2.json").read_text()
    ok = (code1 == 0 and code2 == 2 and "non-simple" in err2
          and code3 == 0 and payload["lambda_roots"] == ["1/3"]
          and json.dumps(payload, indent=2) + "\n" == golden)
    with capsys.disabled():
        pass
    assert verdict(
        "10", "CLI golden invocations: exit codes 0/2/0 and "
        "schema-stable JSON", ok,
        f"codes=({code1},{code2},{code3})")
