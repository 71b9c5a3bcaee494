"""Verification module: result plumbing, check verdicts, oracle wiring."""

import gc
import time
import weakref
from fractions import Fraction
from itertools import permutations, product
from random import Random

import pytest

import spinsym.checks as checks
from spinsym.checks import (CheckReport, CheckResult, LIE_SUITE_SPECS,
                            MODEL_CHECK_NAMES, check_appendix_f,
                            check_conservation, check_lambda_solver,
                            check_level_relations, check_pq_identities,
                            check_serre_halfloop, check_serre_yangian,
                            oracle_crosscheck, run_lie_suite, run_model_suite,
                            solve_lambda)
from spinsym.exact import RationalFunction
from spinsym.lie import AlgebraSpec, basis, generator_op, structure_row
from spinsym.models import (ModelSpec, generator_grid, hamiltonian,
                            star_coupling, symmetrized_triple)
from spinsym.operators import (Operator, OpSpace, apply_operator, commutator,
                               evaluate_vector, operator_sum)

F = Fraction

SP2 = AlgebraSpec(2, -1)
SO3 = AlgebraSpec(3, 1)
SO4 = AlgebraSpec(4, 1)
SP4 = AlgebraSpec(4, -1)
SO5 = AlgebraSpec(5, 1)


def make(name="demo", status="pass", witness=(), notes=(), millis=5):
    return CheckResult(name, (("algebra", "sp(2)"),), status, millis,
                       witness, notes)


class TestResultPlumbing:
    def test_status_validated(self):
        with pytest.raises(ValueError):
            make(status="maybe")

    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            make(status="fail")
        make(status="fail", witness=("residue",))  # fine

    def test_to_dict_shapes(self):
        r = make(witness=(), notes=("checked",))
        d = r.to_dict()
        assert list(d) == ["name", "params", "status", "millis", "witness",
                           "notes"]
        assert d["params"] == {"algebra": "sp(2)"}
        assert d["millis"] == 5
        assert r.to_dict(zero_millis=True)["millis"] == 0

    def test_report_counts_and_order(self):
        rep = CheckReport.build([make("b"), make("a", status="error"),
                                 make("c", status="fail",
                                      witness=("w",))])
        assert [r.name for r in rep.results] == ["a", "b", "c"]
        assert rep.counts == {"pass": 1, "fail": 1, "skipped": 0,
                              "error": 1, "total": 3}
        assert not rep.ok

    def test_payload_schema(self):
        rep = CheckReport.build([make()])
        payload = rep.to_payload({"subcommand": "model"})
        assert list(payload) == ["spec", "checks", "summary",
                                 "engine_version"]
        assert list(payload["summary"]) == ["pass", "fail", "skipped",
                                            "error", "total", "ok"]

    def test_text_summary_line(self):
        rep = CheckReport.build([make()])
        text = rep.to_text(zero_millis=True)
        assert "[PASS   ] demo (algebra=sp(2)) 0 ms" in text
        assert text.endswith("summary: 1 pass, 0 fail, 0 skipped, "
                             "0 error (ok)")

    def test_oracle_alarm_flag(self):
        quiet = CheckReport.build([make()])
        assert not quiet.oracle_alarm
        loud = CheckReport.build([make(
            status="fail", witness=("w",),
            notes=("ORACLE DISAGREEMENT: engine bug",))])
        assert loud.oracle_alarm


class TestLieSuite:
    @pytest.mark.parametrize("n,theta0", LIE_SUITE_SPECS,
                             ids=lambda v: str(v))
    def test_all_specs_pass(self, n, theta0):
        rep = run_lie_suite(AlgebraSpec(n, theta0))
        assert rep.ok, rep.to_text()
        assert {r.name for r in rep.results} == {
            "lie-closure", "lie-jacobi", "lie-generator-symmetry",
            "metric-symmetric", "metric-invertible", "metric-ad-invariant",
            "coupling-weight-unity"}

    def test_degenerate_weight_skipped(self):
        r = check_appendix_f(SO4)
        assert r.status == "skipped"
        assert "critical coupling undefined" in r.notes[0]


class TestConservation:
    def test_calogero_star_passes(self):
        ms = ModelSpec(SO3, 3, "calogero", lam="star")
        level0, level1 = check_conservation(ms)
        assert level0.status == "pass"
        assert "coupling left symbolic" in level0.notes
        assert level1.status == "pass"

    def test_detuned_coupling_fails_with_witness(self):
        # star + 1 breaks level-1 conservation
        ms = ModelSpec(SO3, 3, "calogero", lam=F(-1))
        _, level1 = check_conservation(ms)
        assert level1.status == "fail"
        assert level1.witness

    def test_level_relations_hold_at_any_coupling(self):
        for lam in ("star", F(1), "symbolic"):
            ms = ModelSpec(SP2, 3, "sutherland", lam=lam)
            r0, r1 = check_level_relations(ms)
            assert r0.status == "pass" and r1.status == "pass", lam


class TestSerre:
    def test_halfloop_passes(self):
        ms = ModelSpec(SP2, 3, "calogero", lam="star")
        r = check_serre_halfloop(ms)
        assert r.status == "pass"
        assert any("nonzero cyclic pieces" in n for n in r.notes)

    def test_halfloop_needs_rational_model(self):
        ms = ModelSpec(SP2, 3, "sutherland", lam="star")
        assert check_serre_halfloop(ms).status == "error"

    def test_yangian_passes_and_reports_rank_one_degeneracy(self):
        ms = ModelSpec(SP2, 3, "sutherland", lam="star")
        r = check_serre_yangian(ms)
        assert r.status == "pass"
        assert any("degenerate for a three-dimensional algebra" in n
                   for n in r.notes)

    def test_yangian_needs_cubic_model(self):
        ms = ModelSpec(SP2, 3, "calogero", lam="star")
        assert check_serre_yangian(ms).status == "error"

    def test_nonvacuous_verdicts_match_nested_route(self):
        # sp(4) is the smallest algebra whose cubic relation is not 0 = 0
        tuned = check_serre_yangian(ModelSpec(SP4, 2, "sutherland",
                                              lam="star"))
        assert tuned.status == "pass"
        assert "nonvacuous triples: 660" in tuned.notes

        detuned_ms = ModelSpec(SP4, 2, "sutherland", lam=F(1))
        detuned = check_serre_yangian(detuned_ms)
        assert detuned.status == "fail"
        assert detuned.witness[0] == "mismatching triples: 660/1000"
        assert detuned.notes == ()
        grid0 = generator_grid(detuned_ms, 0)
        grid1 = generator_grid(detuned_ms, 1)
        scale = checks._serre_rhs_scale(detuned_ms)
        for triple in product(basis(SP4), repeat=3):
            ab, cd, ef = triple
            lhs = operator_sum(detuned_ms.space, (
                commutator(grid1[x], commutator(grid0[y], grid1[z]))
                for x, y, z in ((ab, cd, ef), (ef, ab, cd), (cd, ef, ab))))
            rhs = operator_sum(detuned_ms.space, (
                symmetrized_triple(*(grid0[label] for label in key)).scaled(c)
                for key, c in checks._serre_weight(SP4, ab, cd, ef).items()))
            residue = lhs - rhs.scaled(scale)
            if not residue.is_zero:
                break
        assert detuned.witness[1:] == checks._witness_terms(
            residue, f"residue at {triple}:")

        halfloop = check_serre_halfloop(ModelSpec(SP2, 2, "calogero",
                                                  lam="star"))
        assert halfloop.status == "pass"
        assert "triples with nonzero cyclic pieces: 18" in halfloop.notes

    def test_zero_trap_rebuild_mismatch_fails(self, monkeypatch):
        # plant a wrong zero-trap rebuild: the variant binds trap 1, not 0
        variant = checks._ModelContext.variant

        def wrong_trap(ctx, **changes):
            if changes == {"omega": F(0)}:
                changes = {"omega": F(1)}
            return variant(ctx, **changes)

        monkeypatch.setattr(checks._ModelContext, "variant", wrong_trap)
        r = check_serre_yangian(ModelSpec(SP2, 2, "confined", lam="star"))
        assert r.status == "fail"
        assert r.witness == (
            "zero-trap reduction mismatch at level-1 generator (1, 1)",)

    def test_zero_trap_replay_forms_no_commutator(self, monkeypatch):
        # the grids agree at trap 0, so no table entry or residual is formed
        ms = ModelSpec(SP2, 2, "confined", lam="star")
        ctx = checks._ModelContext(ms)
        zero = ctx.variant(omega=F(0))
        formed = []

        def counting(a, b):
            formed.append((a, b))
            return commutator(a, b)

        def zero_entries():
            return [key for key in zero._cache if isinstance(key, tuple)
                    and key[0] in ("bracket", "residual")]

        monkeypatch.setattr(checks, "commutator", counting)
        assert checks._zero_trap_mismatch(ctx, zero) is None
        assert formed == [] and zero_entries() == []
        # a mismatch is named from the grids alone as well
        assert checks._zero_trap_mismatch(ctx, ctx.variant(omega=F(1))) == (
            "zero-trap reduction mismatch at level-1 generator (1, 1)")
        assert formed == []
        r = check_serre_yangian(ms, ctx)
        assert r.status == "pass"
        assert ("trap -> 0 reduction matched the zero-trap rebuild byte for "
                "byte on 27 triples") in r.notes
        assert zero_entries() == []

    def test_right_side_scale_must_vanish_at_zero_trap(self, monkeypatch):
        # plant a right-side scale that lacks the trap factor
        def scale(ms):
            lam = RationalFunction.coupling(ms.sites)
            return lam.substitute(ms.bindings())

        monkeypatch.setattr(checks, "_serre_rhs_scale", scale)
        r = check_serre_yangian(ModelSpec(SP2, 2, "confined", lam="star"))
        assert r.status == "fail"
        assert r.witness == ("right side survives trap -> 0",)

    def test_cyclic_piece_holds_without_covariance(self, monkeypatch):
        # a level-1 grid shifted by squares of level-0 generators is no
        # longer covariant, so the residual term of the table is exercised
        ms = ModelSpec(SP2, 2, "calogero", lam="star")
        grid0 = generator_grid(ms, 0)
        grid1 = {ab: op + grid0[ab] * grid0[ab]
                 for ab, op in generator_grid(ms, 1).items()}
        monkeypatch.setattr(checks, "generator_grid",
                            lambda _, level: grid1 if level else grid0)
        ctx = checks._ModelContext(ms)

        def piece(x, y, z):
            return ctx.piece_sum(((x, y, z),))

        residual_seen = False
        for x, y, z in product(basis(SP2), repeat=3):
            inner = commutator(grid0[y], grid1[z])
            covariant = operator_sum(ms.space, (
                grid1[w].scaled(c)
                for w, c in structure_row(SP2, y, z).items()))
            residual_seen = residual_seen or inner != covariant
            assert piece(x, y, z) == commutator(grid1[x], inner), (x, y, z)
        assert residual_seen

    def test_yangian_keeps_no_operator_per_triple(self):
        ms = ModelSpec(SP4, 2, "sutherland", lam="star")
        ctx = checks._ModelContext(ms)
        assert check_serre_yangian(ms, ctx).status == "pass"
        triple_keyed = [key for key in ctx._cache if isinstance(key, tuple)
                        and sum(isinstance(part, tuple) for part in key) >= 3]
        assert triple_keyed == []
        assert any(key[0] == "bracket" for key in ctx._cache
                   if isinstance(key, tuple))

    def test_single_entry_piece_sum_is_the_scaled_bracket(self):
        # [J1^x, [J0^11, J1^12]] = 2 B(x, 12) on sp(2), residual 0 at star
        ctx = checks._ModelContext(ModelSpec(SP2, 2, "sutherland",
                                             lam="star"))
        for x, key, c in (((1, 1), ((1, 1), (1, 2)), F(2)),
                          ((2, 1), ((1, 2), (2, 1)), F(-2))):
            got = ctx.piece_sum([(x, (1, 1), (1, 2))])
            want = ctx.bracket(*key).scaled(c)
            assert not want.is_zero
            assert list(got.terms) == list(want.terms)
            for term, coeff in got.terms.items():
                assert coeff.render() == want.terms[term].render()
                assert coeff == want.terms[term]

    def test_rank_one_cubic_loop_forms_no_table_entry(self, monkeypatch):
        # for sl2 every triple's row over the bracket table is zero
        formed = []
        bracket = checks._ModelContext.bracket

        def counting(ctx, x, w):
            formed.append((x, w))
            return bracket(ctx, x, w)

        monkeypatch.setattr(checks._ModelContext, "bracket", counting)
        r = check_serre_yangian(ModelSpec(SP2, 3, "sutherland", lam="star"))
        assert r.status == "pass"
        assert formed == []

    @pytest.mark.parametrize("spec", [SP2, SO3, SP4, SO5],
                             ids=lambda spec: spec.describe())
    def test_folded_weights_are_rotation_invariant(self, spec):
        # what walking one triple per cyclic orbit relies on
        for triple in product(basis(spec), repeat=3):
            weights = checks._serre_weight(spec, *triple)
            assert all(list(key) == sorted(key) and c
                       for key, c in weights.items())
            assert weights == checks._serre_weight(
                spec, *checks._rotations(*triple)[1]), triple
            if spec in (SP2, SO3):
                # rank one: the right side is empty for every triple
                assert weights == {}, triple

    @pytest.mark.parametrize("kind, check, note", [
        ("sutherland", check_serre_yangian,
         "27 triples verified under the committed convention"),
        ("calogero", check_serre_halfloop, "27 triples verified")],
        ids=["sutherland", "calogero"])
    def test_serre_forms_sides_once_per_orbit(self, monkeypatch, kind, check,
                                              note):
        # 27 triples of sp(2) fall into 3 one-triple and 8 three-triple
        # orbits; both checks decide through the one orbit walk
        called = []
        cubic_defect = checks._ModelContext.cubic_defect

        def counting(ctx, *triple):
            called.append(triple)
            return cubic_defect(ctx, *triple)

        monkeypatch.setattr(checks._ModelContext, "cubic_defect", counting)
        r = check(ModelSpec(SP2, 3, kind, lam="star"))
        assert r.status == "pass"
        assert note in r.notes
        assert len(called) == len(set(called)) == 11

    @pytest.mark.parametrize("ms, selected, orbits", [
        (ModelSpec(SP2, 2, "confined"), None, 11),
        (ModelSpec(SP4, 2, "sutherland", lam="star"), None, 340),
        (ModelSpec(SP2, 2, "confined"), ["oracle"], 3)],
        ids=["confined-sp(2)", "sutherland-sp(4)", "oracle-alone"])
    def test_oracle_reads_the_orbit_zero_tests(self, monkeypatch, ms,
                                               selected, orbits):
        # the oracle's cubic flags come from the zero tests the Serre check
        # kept per orbit; alone it forms at most one defect per sample
        called = []
        cubic_defect = checks._ModelContext.cubic_defect

        def counting(ctx, *triple):
            called.append(triple)
            return cubic_defect(ctx, *triple)

        monkeypatch.setattr(checks._ModelContext, "cubic_defect", counting)
        report = run_model_suite(ms, selected)
        oracle = {r.name: r for r in report.results}["oracle-crosscheck"]
        assert oracle.status == "pass"
        assert len(called) == len(set(called))
        if selected is None:
            assert len(called) == orbits
        else:
            assert len(called) <= orbits
            assert all(t == min(checks._rotations(*t)) for t in called)

    def test_halfloop_failure_witness(self):
        # the first orbit whose cyclic sum is nonzero, rendered from the
        # nested commutators
        ms = ModelSpec(SP4, 2, "calogero", lam=F(1))
        r = check_serre_halfloop(ms)
        assert r.status == "fail"
        assert r.notes == ()
        label = "cyclic sum at (1, 1), (1, 2), (1, 3):"
        assert r.witness[0] == label
        grid0 = generator_grid(ms, 0)
        grid1 = generator_grid(ms, 1)
        total = operator_sum(ms.space, (
            commutator(grid1[x], commutator(grid0[y], grid1[z]))
            for x, y, z in checks._rotations((1, 1), (1, 2), (1, 3))))
        assert r.witness == checks._witness_terms(total, label)

    def test_yangian_failure_witness(self):
        # the first mismatching orbit's residue is the nested-commutator
        # cyclic sum less the scale times the weighted symmetrized triples
        ms = ModelSpec(SP4, 2, "sutherland", lam=F(1))
        r = check_serre_yangian(ms)
        assert r.status == "fail"
        assert r.notes == ()
        triple = ((1, 1), (1, 2), (1, 3))
        label = f"residue at {triple}:"
        assert r.witness[0] == "mismatching triples: 660/1000"
        grid0 = generator_grid(ms, 0)
        grid1 = generator_grid(ms, 1)
        scale = checks._serre_rhs_scale(ms)
        assert scale == RationalFunction.const(2, F(1))
        weights = checks._serre_weight(SP4, *triple)
        assert weights
        total = operator_sum(ms.space, [
            commutator(grid1[x], commutator(grid0[y], grid1[z]))
            for x, y, z in checks._rotations(*triple)] + [
            symmetrized_triple(*(grid0[label] for label in key))
            .scaled(-c * scale) for key, c in weights.items()])
        assert r.witness[1:] == checks._witness_terms(total, label)

    def test_yangian_vacuity_note_names_the_zero_scale(self):
        # sp(4) is not three-dimensional: at coupling 0 its cubic relation
        # is 0 = 0 because the right-side scale lam^2 vanishes
        r = check_serre_yangian(ModelSpec(SP4, 2, "sutherland", lam=F(0)))
        assert r.status == "pass"
        assert "nonvacuous triples: 0" in r.notes
        assert r.notes[-1] == (
            "both sides vanish identically for every triple: the right-side "
            "scale is 0 at this coupling and trap")
        assert not any("three-dimensional" in n for n in r.notes)

    def test_halfloop_stops_at_first_mismatch(self, monkeypatch):
        # the half-loop reports no mismatch count, so no orbit after the
        # first failing one is formed: 12 of sp(4)'s 340 orbits
        called = []
        cubic_defect = checks._ModelContext.cubic_defect

        def counting(ctx, *triple):
            called.append(triple)
            return cubic_defect(ctx, *triple)

        monkeypatch.setattr(checks._ModelContext, "cubic_defect", counting)
        r = check_serre_halfloop(ModelSpec(SP4, 2, "calogero", lam=F(1)))
        assert r.status == "fail"
        assert len(called) == 12
        assert called[-1] == ((1, 1), (1, 2), (1, 3))

    def test_rational_cubic_relation_has_right_side_zero(self, monkeypatch):
        # the half-loop relation is the cubic one with right side 0, so the
        # oracle flags and replays what serre-halfloop proved, although the
        # algebra's Serre weights are nonzero; no symmetrizer is formed
        built, words = [], []
        word_map = checks._word_map

        def counting(*ops):
            built.append(ops)
            return symmetrized_triple(*ops)

        def recording(space, ops, signed):
            words.extend(word for _, word in signed)
            return word_map(space, ops, signed)

        monkeypatch.setattr(checks, "symmetrized_triple", counting)
        monkeypatch.setattr(checks, "_word_map", recording)
        ms = ModelSpec(SP4, 2, "calogero", lam="star")
        ctx = checks._ModelContext(ms)
        triples = [((2, 2), (1, 1), (3, 1)), ((2, 1), (2, 3), (1, 1))]
        assert all(checks._serre_weight(SP4, *t) for t in triples)
        targets = checks._serre_targets(ctx, Pick(triples))
        assert [t.symbolically_zero for t in targets] == [True, True]
        for triple in triples:
            defect, right_nonzero = ctx.cubic_defect(*triple)
            assert defect.is_zero and not right_nonzero
        r = oracle_crosscheck(ms, seed=1)
        assert r.status == "pass"
        assert not any("excluded" in n for n in r.notes)
        assert ctx.serre_scale().is_zero
        assert built == []
        assert words and not any("S" in word for word in words)

    def test_oracle_cubic_defect_follows_its_flag(self):
        # at coupling 1 the cubic relation fails at a nonvacuous triple and
        # holds as 0 = 0 at a vacuous one; at the critical coupling it holds
        bad = ((1, 1), (1, 2), (1, 3))
        vacuous = ((1, 1), (1, 1), (1, 1))

        class Pick:
            def sample(self, population, k):
                assert bad in population and vacuous in population
                return [bad, vacuous]

        for lam, flags in ((F(1), [False, True]), ("star", [True, True])):
            ms = ModelSpec(SP4, 2, "sutherland", lam=lam)
            targets = checks._serre_targets(checks._ModelContext(ms), Pick())
            assert [t.symbolically_zero for t in targets] == flags
            rng = Random(5)
            vec = checks._random_vector(rng, ms.space)
            point = checks._random_point(rng, ms)
            for target in targets:
                residue = evaluate_vector(target.defect(vec), point)
                assert bool(residue) != target.symbolically_zero, target.label


class TestSolver:
    def test_requires_symbolic(self):
        with pytest.raises(ValueError):
            solve_lambda(ModelSpec(SP2, 3, "calogero", lam="star"))

    @pytest.mark.parametrize("kind", ("calogero", "sutherland"))
    def test_sp2_root(self, kind):
        ms = ModelSpec(SP2, 3, kind, lam="symbolic")
        assert solve_lambda(ms) == {F(1, 3)}

    def test_degenerate_algebra_has_no_root(self):
        ms = ModelSpec(SO4, 3, "calogero", lam="symbolic")
        assert solve_lambda(ms) == set()
        r = check_lambda_solver(ms)
        assert r.status == "pass"
        assert any("degenerate" in n for n in r.notes)

    def test_check_notes_record_exclusion(self):
        ms = ModelSpec(SP2, 3, "calogero", lam="symbolic")
        r = check_lambda_solver(ms)
        assert r.status == "pass"
        assert "trivial non-interacting root 0 excluded" in r.notes
        assert "roots: 1/3" in r.notes

    def test_rational_roots_with_large_constants(self):
        # divisor pairs up to isqrt: a constant near 2^40 stays instant
        start = time.perf_counter()
        assert checks._rational_roots({0: F(-2 ** 40), 1: F(1)}) == {
            F(2 ** 40)}
        assert checks._rational_roots({0: F(-2 ** 31), 1: F(3)}) == {
            F(2 ** 31, 3)}
        assert time.perf_counter() - start < 1

    def test_rational_roots_of_a_product(self):
        # lam (3 lam - 2)(4 lam + 9)(lam - 6)
        poly = {1: F(108), 2: F(-132), 3: F(-53), 4: F(12)}
        assert checks._rational_roots(poly) == {F(0), F(2, 3), F(-9, 4),
                                                F(6)}

    def test_weak_site_count_flagged(self):
        ms = ModelSpec(SP2, 2, "calogero", lam="symbolic")
        r = check_lambda_solver(ms)
        assert any("weak run" in n for n in r.notes)


class TestDecidingLabels:
    """Level-1 conservation from one bracket per generator of the ideal."""

    @staticmethod
    def counting_level1(monkeypatch):
        formed = []
        ham_bracket = checks._ModelContext.ham_bracket

        def counting(ctx, level, ab):
            if level == 1:
                formed.append(ab)
            return ham_bracket(ctx, level, ab)

        monkeypatch.setattr(checks._ModelContext, "ham_bracket", counting)
        return formed

    @staticmethod
    def full_loop_roots(ctx):
        # a reference route independent of the solver: every label's
        # bracket bucketed into coupling polynomials, one per derivative
        # word, spin word, profile and exponents of the other variables,
        # and the rational roots of their running monic gcd
        slot = checks.lam_slot(ctx.ms.sites)

        def gcd(a, b):
            a, b = dict(a), dict(b)
            while b:
                deg_b, lead_b = max(b), b[max(b)]
                while a and max(a) >= deg_b:
                    shift, factor = max(a) - deg_b, a[max(a)] / lead_b
                    for e, c in b.items():
                        v = a.get(e + shift, F(0)) - factor * c
                        if v:
                            a[e + shift] = v
                        else:
                            a.pop(e + shift, None)
                a, b = b, a
            return {e: c / a[max(a)] for e, c in a.items()}

        common = None
        for ab in basis(ctx.ms.algebra):
            buckets = {}
            for key, rf in ctx.ham_bracket(1, ab).terms.items():
                profile = tuple(sorted(rf.den.items()))
                for expo, coeff in rf.terms():
                    poly = buckets.setdefault(
                        (key, expo[:slot] + expo[slot + 1:], profile), {})
                    poly[expo[slot]] = poly.get(expo[slot], F(0)) + coeff
            for poly in buckets.values():
                if any(poly.values()):
                    common = poly if common is None else gcd(common, poly)
        if common is None:
            return set()
        return {r for r in checks._rational_roots(common) if r != 0}

    @staticmethod
    def noncovariant(lam):
        # a spin-only term on one site of J1^(1,2) breaks R(y, (1,2)) = 0
        # and, being no conserved quantity, the critical coupling as well
        ms = ModelSpec(SP2, 3, "sutherland", lam=lam)
        ctx = checks._ModelContext(ms)
        grid = dict(ctx.grid(1))
        grid[(1, 2)] = grid[(1, 2)] + generator_op(SP2, ms.space, 1, 1, 1)
        ctx._cache[("grid", 1)] = grid
        return ms, ctx

    @pytest.mark.parametrize("spec", [SO3, SP2, SP4],
                             ids=lambda spec: spec.describe())
    def test_solver_forms_one_level1_bracket(self, spec, monkeypatch):
        formed = self.counting_level1(monkeypatch)
        ms = ModelSpec(spec, 3, "sutherland", lam="symbolic")
        assert solve_lambda(ms) == {star_coupling(spec)}
        assert formed == [(1, 1)]

    def test_planted_noncovariant_generator_decides_on_every_label(
            self, monkeypatch):
        ms, ctx = self.noncovariant("symbolic")
        assert any(not ctx.residual(1, y, z).is_zero
                   for y in basis(SP2) for z in basis(SP2))
        assert ctx.deciding_labels(1) == basis(SP2)
        formed = self.counting_level1(monkeypatch)
        roots = solve_lambda(ms, ctx)
        assert formed == list(basis(SP2))
        assert roots == self.full_loop_roots(ctx)
        # the one bracket the covariant model needs would decide wrongly
        star = star_coupling(SP2)
        assert star not in roots
        assert ctx.ham_bracket(1, (1, 1)).substitute(
            {checks.lam_slot(ms.sites): star}).is_zero
        # at the critical coupling [H, J1^(1,1)] vanishes, yet the level fails
        ms, ctx = self.noncovariant("star")
        assert ctx.ham_bracket(1, (1, 1)).is_zero
        _, level1 = check_conservation(ms, ctx)
        assert level1.status == "fail"
        assert level1.notes == ("failing generators: [(1, 2)]",)

    def test_planted_nonconserved_hamiltonian_decides_on_every_label(
            self, monkeypatch):
        # a one-site spin term in H breaks [J0^y, H] = 0 while every
        # level-1 residual still vanishes
        ms = ModelSpec(SP2, 3, "sutherland", lam="symbolic")
        ctx = checks._ModelContext(ms)
        ctx._cache["hamiltonian"] = ctx.hamiltonian() + generator_op(
            SP2, ms.space, 1, 1, 2)
        assert all(ctx.residual(1, y, z).is_zero
                   for y in basis(SP2) for z in basis(SP2))
        assert not all(ctx.ham_bracket(0, y).is_zero for y in basis(SP2))
        assert ctx.deciding_labels(1) == basis(SP2)
        formed = self.counting_level1(monkeypatch)
        roots = solve_lambda(ms, ctx)
        assert formed == list(basis(SP2))
        assert roots == self.full_loop_roots(ctx)

    def test_level_conserved_is_decided_once_per_context(self, monkeypatch):
        calls = []
        generators = checks.ideal_generators
        monkeypatch.setattr(checks, "ideal_generators",
                            lambda spec: calls.append(spec) or generators(spec))
        ctx = checks._ModelContext(ModelSpec(SP2, 3, "sutherland", lam="star"))
        checks._conservation_targets(ctx)
        # one call for failing_labels and one for deciding_labels
        assert len(calls) == 2
        assert ctx.failing_labels(1) == [] and ctx.failing_labels(1) == []
        assert len(calls) == 2

    @pytest.mark.parametrize("root,times_lam,want", [
        (2, True, set()), (1, False, {F(1)})], ids=["apart", "shared"])
    @pytest.mark.parametrize("layout", ["first", "second", "one key"])
    def test_solver_keeps_only_roots_shared_by_every_coefficient(
            self, root, times_lam, want, layout, monkeypatch):
        # a planted defect lam (lam - 1) + lam (lam - 2) x1, where each
        # monomial has a root the other lacks, or lam (lam - 1) + (lam - 1) x1,
        # where both share the root 1; whichever monomial the solver reads
        # first, binding decides
        ms = ModelSpec(SP2, 3, "sutherland", lam="symbolic")
        space = ms.space
        lam = RationalFunction.coupling(space.sites)
        x1 = RationalFunction.position(space.sites, 1)

        def minus(r):
            return lam - RationalFunction.const(space.sites, r)

        one = lam * minus(1)
        other = (lam * minus(root) if times_lam else minus(root)) * x1
        plain, spin = (space.zero_deriv, ()), (space.zero_deriv, ((1, 1, 2),))
        defect = Operator(space, {
            "first": {plain: one, spin: other},
            "second": {spin: other, plain: one},
            "one key": {plain: one + other}}[layout])
        ham_bracket = checks._ModelContext.ham_bracket
        monkeypatch.setattr(
            checks._ModelContext, "ham_bracket",
            lambda ctx, level, ab: (defect if level == 1
                                    else ham_bracket(ctx, level, ab)))
        ctx = checks._ModelContext(ms)
        assert solve_lambda(ms, ctx) == want
        assert self.full_loop_roots(ctx) == want

    def test_conservation_pass_forms_one_bracket(self, monkeypatch):
        formed = self.counting_level1(monkeypatch)
        ms = ModelSpec(SP4, 2, "sutherland", lam="star")
        _, level1 = check_conservation(ms)
        assert level1.status == "pass"
        assert level1.notes == ("10 generators conserved",)
        assert set(formed) == {(1, 1)}

    def test_conservation_failure_lists_every_generator(self, monkeypatch):
        # a refutation needs no premise: [H, J1^(1,1)] != 0 already fails
        formed = self.counting_level1(monkeypatch)
        ms = ModelSpec(SO3, 3, "calogero", lam=F(1))
        ctx = checks._ModelContext(ms)
        _, level1 = check_conservation(ms, ctx)
        assert level1.status == "fail"
        assert level1.notes == (
            f"failing generators: {list(basis(SO3))}",)
        assert level1.witness[0] == "defect for generator (1, 1):"
        assert formed[0] == (1, 1)
        assert sorted(set(formed)) == sorted(basis(SO3))
        assert not any(key[0] in ("residual", "deciding")
                       for key in ctx._cache if isinstance(key, tuple))

    def test_oracle_replays_the_brackets_never_formed(self):
        # (1, 2) lies outside the deciding set: at the critical coupling its
        # flag comes from [H, J1^(1,1)] alone and its defect evaluates to 0;
        # at coupling 1 it is formed, flagged nonzero and evaluates nonzero
        label = "conservation level 1 generator (1, 2)"
        for lam, zero in (("star", True), (F(1), False)):
            ms = ModelSpec(SP4, 2, "sutherland", lam=lam)
            ctx = checks._ModelContext(ms)
            (target,) = [t for t in checks._conservation_targets(ctx)
                         if t.label == label]
            assert (1, 2) not in ctx.deciding_labels(1)
            assert target.symbolically_zero == zero
            assert (("ham", 1, (1, 2)) in ctx._cache) != zero
            rng = Random(5)
            vec = checks._random_vector(rng, ms.space)
            point = checks._random_point(rng, ms)
            residue = evaluate_vector(target.defect(vec), point)
            assert bool(residue) != zero, lam


class TestLieGeneratorDecisions:
    """Covariance and level-0 conservation decided on Lie generators once
    level-relation-0 holds, with the full loop's verdicts and witnesses
    when a premise or a generator fails."""

    @staticmethod
    def formed_residuals(monkeypatch):
        formed = set()
        residual = checks._ModelContext.residual

        def recording(ctx, level, y, z):
            formed.add((ctx.ms.lam, level, y, z))
            return residual(ctx, level, y, z)

        monkeypatch.setattr(checks._ModelContext, "residual", recording)
        return formed

    @staticmethod
    def plant(monkeypatch, level, label, term):
        # every context reads the planted grid: the fault is in the build
        build = checks.generator_grid

        def planted(ms, lvl):
            grid = build(ms, lvl)
            if lvl == level:
                grid = dict(grid)
                grid[label] = checks.operator_combination(
                    ms.space, [(1, grid[label]), (1, term(ms.space))])
            return grid

        monkeypatch.setattr(checks, "generator_grid", planted)
        return planted

    @staticmethod
    def reference(ms, planted):
        # the bound grids and Hamiltonian, and every residual and bracket
        # in basis order, with no context
        grids = {level: {ab: checks.bind(op, ms) for ab, op in planted(
            ms.replace(lam="symbolic", omega="symbolic"), level).items()}
            for level in (0, 1)}
        space, labels = ms.space, basis(ms.algebra)
        residuals = {
            (level, y, z): checks.operator_combination(space, [
                (1, commutator(grids[0][y], grids[level][z]))] + [
                (-c, grids[level][w])
                for w, c in structure_row(ms.algebra, y, z).items()])
            for level in (0, 1) for y in labels for z in labels}
        return grids, residuals

    @pytest.mark.parametrize("spec,formed_pairs", [(SP2, 6), (SP4, 40)],
                             ids=["sp(2)", "sp(4)"])
    def test_covariance_forms_generator_rows_only(self, spec, formed_pairs,
                                                  monkeypatch):
        formed = self.formed_residuals(monkeypatch)
        ms = ModelSpec(spec, 2, "sutherland", lam="star")
        r0, r1 = check_level_relations(ms)
        d = len(basis(spec))
        assert r1.notes == (f"{d * d} bracket pairs verified",)
        level1 = {(y, z) for _, level, y, z in formed if level == 1}
        assert len(level1) == formed_pairs
        assert {y for y, _ in level1} == set(checks.lie_generators(spec))
        # level-relation-0 is decided once, on the symbolic variant
        assert {(lam, level) for lam, level, _, _ in formed} == {
            ("symbolic", 0), ("star", 1)}

    def test_level0_conservation_forms_generator_brackets_only(self,
                                                               monkeypatch):
        formed = []
        ham_bracket = checks._ModelContext.ham_bracket
        monkeypatch.setattr(
            checks._ModelContext, "ham_bracket",
            lambda ctx, level, ab: formed.append((level, ab))
            or ham_bracket(ctx, level, ab))
        level0, _ = check_conservation(ModelSpec(SP4, 2, "sutherland"))
        assert level0.notes == ("coupling left symbolic",
                                "10 generators conserved")
        assert [ab for level, ab in formed if level == 0] == list(
            checks.lie_generators(SP4))

    def test_oracle_flags_form_no_other_residual(self, monkeypatch):
        ms = ModelSpec(SP4, 2, "sutherland", lam="star")
        ctx = checks._ModelContext(ms)
        formed = self.formed_residuals(monkeypatch)
        targets = checks._level_relation_targets(ctx, Random(3))
        assert all(t.symbolically_zero for t in targets)
        assert {y for _, level, y, _ in formed if level == 1} == set(
            checks.lie_generators(SP4))

    @pytest.mark.parametrize("spec,label", [(SP2, (1, 1)), (SP4, (2, 2))],
                             ids=["sp(2)", "sp(4)"])
    def test_planted_spin_term_in_non_generator_level1(self, spec, label,
                                                       monkeypatch):
        assert label not in checks.lie_generators(spec)
        planted = self.plant(monkeypatch, 1, label,
                             lambda space: Operator.spin_unit(space, 1, 1, 2))
        ms = ModelSpec(spec, 2, "sutherland", lam="star")
        grids, residuals = self.reference(ms, planted)
        labels = basis(spec)
        ctx = checks._ModelContext(ms)
        _, r1 = check_level_relations(ms, ctx)
        (y, z), diff = next(((y, z), residuals[(1, y, z)]) for y in labels
                            for z in labels
                            if not residuals[(1, y, z)].is_zero)
        assert r1.status == "fail"
        assert r1.witness == checks._witness_terms(
            diff, f"residue for {y} x {z}:")
        assert r1.notes == ()
        _, c1 = check_conservation(ms, ctx)
        ham = hamiltonian(ms)
        failing = [ab for ab in labels
                   if not commutator(ham, grids[1][ab]).is_zero]
        assert c1.status == "fail"
        assert c1.notes == (f"failing generators: {failing}",)
        assert c1.witness == checks._witness_terms(
            commutator(ham, grids[1][failing[0]]),
            f"defect for generator {failing[0]}:")

    def test_planted_non_representation_forms_every_residual(self,
                                                             monkeypatch):
        # J0^(1,1) + 1 breaks level-relation-0 and leaves every level-1
        # residual 0: level 1 is then decided on every label
        planted = self.plant(monkeypatch, 0, (1, 1), Operator.identity)
        ms = ModelSpec(SP2, 3, "sutherland", lam="star")
        _, residuals = self.reference(ms, planted)
        labels = basis(SP2)
        formed = self.formed_residuals(monkeypatch)
        r0, r1 = check_level_relations(ms)
        (y, z), diff = next(((y, z), residuals[(0, y, z)]) for y in labels
                            for z in labels
                            if not residuals[(0, y, z)].is_zero)
        assert r0.status == "fail"
        assert r0.witness == checks._witness_terms(
            diff, f"residue for {y} x {z}:")
        assert r1.status == "pass"
        assert r1.notes == ("9 bracket pairs verified",)
        assert {(y, z) for lam, level, y, z in formed
                if (lam, level) == ("star", 1)} == set(product(labels,
                                                               repeat=2))

    def test_planted_nonconserved_non_generator_level0(self, monkeypatch):
        # a one-site term in J0^(1,1), a label outside the Lie generators,
        # breaks [H, J0^(1,1)] = 0 (and level-relation-0 with it)
        assert (1, 1) not in checks.lie_generators(SP2)
        planted = self.plant(monkeypatch, 0, (1, 1),
                             lambda space: Operator.spin_unit(space, 1, 1, 2))
        ms = ModelSpec(SP2, 3, "sutherland", lam="star")
        free = ms.replace(lam="symbolic")
        ham = hamiltonian(free)
        grid = planted(free, 0)
        ab, defect = next((ab, commutator(ham, grid[ab]))
                          for ab in basis(SP2)
                          if not commutator(ham, grid[ab]).is_zero)
        level0, _ = check_conservation(ms)
        assert level0.status == "fail"
        assert level0.witness == checks._witness_terms(
            defect, f"defect for generator {ab}:")
        assert level0.notes == ("coupling left symbolic",)


class TestSpinIdentityChecks:
    def test_sp2_all_pass(self):
        results = check_pq_identities(SP2)
        assert {r.name for r in results} == {
            "spin-dense-bridge", "spin-exchange-square", "spin-twist-square",
            "spin-exchange-twist-product", "spin-twist-exchange-product",
            "spin-pair-difference", "spin-exchange-swap", "spin-twist-swap"}
        assert all(r.status == "pass" for r in results)

    @pytest.mark.parametrize("n,theta0", ((2, 1),) + LIE_SUITE_SPECS,
                             ids=lambda v: str(v))
    def test_names_and_notes_pinned(self, n, theta0):
        both = ("engine and dense routes agree",)
        pairs = (f"{n * n} generator pairs verified on both routes",)
        results = check_pq_identities(AlgebraSpec(n, theta0))
        assert [(r.name, r.status, r.witness, r.notes) for r in results] == [
            ("spin-dense-bridge", "pass", (),
             (f"{2 + n * n} operators agree with the dense rebuild",)),
            ("spin-exchange-square", "pass", (), both),
            ("spin-twist-square", "pass", (), both),
            ("spin-exchange-twist-product", "pass", (), both),
            ("spin-twist-exchange-product", "pass", (), both),
            ("spin-pair-difference", "pass", (), both),
            ("spin-exchange-swap", "pass", (), pairs),
            ("spin-twist-swap", "pass", (), pairs)]

    def test_planted_false_entry_fails_engine_route(self, monkeypatch):
        stated = checks._spin_identities

        def planted(spec):
            out = []
            for name, pairs, sides in stated(spec):
                if name == "twist square":
                    ((lhs, _),) = sides
                    sides = ((lhs, [(F(spec.N + 1), ("Q",))]),)
                out.append((name, pairs, sides))
            return tuple(out)

        monkeypatch.setattr(checks, "_spin_identities", planted)
        results = {r.name: r for r in check_pq_identities(SO3)}
        bad = results.pop("spin-twist-square")
        assert bad.status == "fail"
        assert bad.witness[0] == "engine-route residue:"
        assert all(r.status == "pass" for r in results.values())

    def test_corrupted_dense_twist_fails_bridge_and_dense_route(
            self, monkeypatch):
        built = checks._dense_atom

        def doubled_twist(spec, atom):
            m = built(spec, atom)
            return checks._dense_add(m, m) if atom == "Q" else m

        monkeypatch.setattr(checks, "_dense_atom", doubled_twist)
        results = {r.name: r for r in check_pq_identities(SP2)}
        assert results["spin-dense-bridge"].status == "fail"
        assert results["spin-dense-bridge"].witness[0] == \
            "engine twist vs dense twist:"
        assert results["spin-twist-square"].status == "fail"
        assert results["spin-twist-square"].witness[0] == \
            "dense-route residue:"
        assert results["spin-exchange-square"].status == "pass"

    def test_oracle_targets_in_pinned_order(self):
        for spec in (SP2, SO3, SP4):
            targets = checks._spin_targets(spec)
            assert [t.label for t in targets] == [
                "exchange square", "twist square", "exchange twist product",
                "pair difference", "exchange swap", "twist swap"]
            assert all(t.symbolically_zero for t in targets)

    @pytest.mark.parametrize("label,builder",
                             (("exchange swap", "permutation_op"),
                              ("twist swap", "twist_op")))
    def test_oracle_swap_targets_not_vacuous_for_so3(self, monkeypatch,
                                                     label, builder):
        # with X + 1 in place of X, each swap defect is F_1 -+ F_2 summed
        # over the generators; sum_ab F^{ab} = 0 for so(N), so an unweighted
        # sum would miss the fault on every vector
        built = getattr(checks, builder)
        monkeypatch.setattr(checks, builder, lambda spec, space, j, k: (
            built(spec, space, j, k) + Operator.identity(space)))
        (target,) = [t for t in checks._spin_targets(SO3) if t.label == label]
        ms = ModelSpec(SO3, 2, "calogero", lam="star")
        rng = Random(3)
        nonzero = 0
        for _ in range(20):
            vec = checks._random_vector(rng, OpSpace(3, 2))
            point = checks._random_point(rng, ms)
            nonzero += bool(evaluate_vector(target.defect(vec), point))
        assert nonzero == 20


class TestOracle:
    def test_deterministic_given_seed(self):
        ms = ModelSpec(SP2, 3, "sutherland", lam="star")
        a = oracle_crosscheck(ms, trials=5, seed=7)
        b = oracle_crosscheck(ms, trials=5, seed=7)
        assert a.to_dict(zero_millis=True) == b.to_dict(zero_millis=True)

    def test_trials_recorded_in_params(self):
        ms = ModelSpec(SP2, 2, "calogero", lam="star")
        r = oracle_crosscheck(ms, trials=4, seed=3)
        params = dict(r.params)
        assert params["trials"] == "4" and params["seed"] == "3"
        assert r.status == "pass"

    def test_detuned_targets_are_excluded_not_failed(self):
        # at star+1 conservation is symbolically nonzero; the oracle must
        # replay only proven identities and note the exclusions
        ms = ModelSpec(SP2, 2, "calogero", lam=F(4, 3))
        r = oracle_crosscheck(ms, trials=3, seed=1)
        assert r.status == "pass"
        assert any("excluded" in n for n in r.notes)

    @pytest.mark.parametrize("npos", [2, 3])
    def test_random_amplitude_matches_product_built(self, npos):
        # the constructor-built amplitude draws the same numbers and equals
        # the one formed by products and sums of positions
        def product_built(rng):
            total = RationalFunction.const(npos, 0)
            for _ in range(rng.randint(1, 3)):
                term = RationalFunction.const(
                    npos, F(rng.randint(-6, 6) or 1, rng.randint(1, 4)))
                for j in range(1, npos + 1):
                    for _ in range(rng.randint(0, 2)):
                        term = term * RationalFunction.position(npos, j)
                total = total + term
            return total

        rng, reference = Random(npos), Random(npos)
        for _ in range(1000):
            assert checks._random_amplitude(rng, npos) == \
                product_built(reference)
        assert rng.getstate() == reference.getstate()

    def test_needs_a_trial(self):
        ms = ModelSpec(SP2, 2, "calogero", lam="star")
        with pytest.raises(ValueError):
            oracle_crosscheck(ms, trials=0)

    def test_disagreement_raises_alarm(self, monkeypatch):
        # corrupt one target: claim a nonzero defect is symbolically zero
        one = RationalFunction.const(2, 1)

        def lying_targets(spec):
            def defect(vec):
                return {(1, 1): one}
            return [checks._OracleTarget("planted inconsistency", defect,
                                         True)]

        monkeypatch.setattr(checks, "_spin_targets", lying_targets)
        ms = ModelSpec(SP2, 2, "calogero", lam="star")
        r = oracle_crosscheck(ms, trials=2, seed=1)
        assert r.status == "fail"
        assert r.notes[0].startswith("ORACLE DISAGREEMENT")
        assert r.witness[0].startswith(
            "trial 0 on 'planted inconsistency': residue 1 on ket (1, 1) "
            "at point [")
        assert CheckReport.build([r]).oracle_alarm

    def test_defect_vanishing_at_the_point_raises_alarm(self, monkeypatch):
        # a nonzero defect whose every amplitude vanishes at the drawn point
        amp = RationalFunction.position(2, 1) - RationalFunction.const(2, 3)

        def planted_targets(spec):
            return [checks._OracleTarget("planted vanishing defect",
                                         lambda vec: {(1, 1): amp}, True)]

        draw = checks._random_point
        monkeypatch.setattr(checks, "_spin_targets", planted_targets)
        monkeypatch.setattr(checks, "_random_point",
                            lambda rng, ms: [F(3)] + draw(rng, ms)[1:])
        ms = ModelSpec(SP2, 2, "calogero", lam="star")
        r = oracle_crosscheck(ms, trials=2, seed=1)
        assert r.status == "fail"
        assert r.notes[0].startswith("ORACLE DISAGREEMENT")
        assert r.witness[0].startswith(
            f"trial 0 on 'planted vanishing defect': residue {amp.render()} "
            f"on ket (1, 1) at point ['3', ")


def nested(ops, vec):
    """Apply a product of operators to a vector, the last one first."""
    for op in reversed(ops):
        vec = apply_operator(op, vec)
    return vec


def linear(npos, parts):
    """``sum c * vec`` over ``(c, vec)``, one amplitude at a time."""
    out = {}
    for c, vec in parts:
        for ket, amp in vec.items():
            out[ket] = out.get(ket, RationalFunction.zero(npos)) + amp * c
    return {ket: amp for ket, amp in out.items() if not amp.is_zero}


def nested_commutator(a, b, vec):
    return linear(a.space.sites, [(F(1), nested([a, b], vec)),
                                  (F(-1), nested([b, a], vec))])


class Pick:
    """A stand-in random generator whose samples are fixed."""

    def __init__(self, items):
        self.items = list(items)

    def sample(self, population, k):
        assert all(item in population for item in self.items)
        return self.items


class TestOracleWords:
    """Every oracle defect against the nested ``apply_operator`` route."""

    MODELS = [ModelSpec(SP4, 2, "sutherland", lam=F(1)),
              ModelSpec(SP4, 2, "sutherland", lam="star"),
              ModelSpec(SP2, 2, "confined"),
              ModelSpec(SP4, 2, "calogero", lam="star")]
    IDS = ["sutherland-sp4-coupling-1", "sutherland-sp4-star",
           "confined-sp2", "calogero-sp4-star"]

    @staticmethod
    def vectors(space, count=3):
        """Vectors with a random amplitude on every ket."""
        rng = Random(17)
        kets = list(product(range(1, space.spin_dim + 1), repeat=space.sites))
        return [{ket: checks._random_amplitude(rng, space.sites)
                 for ket in kets} for _ in range(count)]

    @pytest.mark.parametrize("ms", MODELS, ids=IDS)
    def test_conservation_defects(self, ms):
        ctx = checks._ModelContext(ms)
        targets = checks._conservation_targets(ctx)
        ham = ctx.hamiltonian()
        wants = [(level, ab) for level in (0, 1) for ab in basis(ms.algebra)]
        assert len(targets) == len(wants)
        for target, (level, ab) in zip(targets, wants):
            assert target.label == f"conservation level {level} generator {ab}"
            for vec in self.vectors(ms.space, 2):
                want = nested_commutator(ham, ctx.grid(level)[ab], vec)
                assert target.defect(vec) == want, target.label

    @pytest.mark.parametrize("ms", MODELS, ids=IDS)
    def test_level_relation_defects(self, ms):
        ctx = checks._ModelContext(ms)
        labels = basis(ms.algebra)
        pairs = [(labels[0], labels[1]), (labels[1], labels[-1]),
                 (labels[2], labels[2])]
        targets = checks._level_relation_targets(ctx, Pick(pairs))
        assert len(targets) == len(pairs)
        grid0, grid1 = ctx.grid(0), ctx.grid(1)
        for target, (ab, cd) in zip(targets, pairs):
            for vec in self.vectors(ms.space):
                want = linear(ms.sites, [(F(1), nested_commutator(
                    grid0[ab], grid1[cd], vec))] + [
                    (-c, nested([grid1[ef]], vec))
                    for ef, c in structure_row(ms.algebra, ab, cd).items()])
                assert target.defect(vec) == want, target.label

    @pytest.mark.parametrize("ms", MODELS, ids=IDS)
    def test_cubic_defects(self, ms):
        ctx = checks._ModelContext(ms)
        labels = basis(ms.algebra)
        triples = [(labels[0], labels[1], labels[2]),
                   (labels[1], labels[0], labels[1])]
        targets = checks._serre_targets(ctx, Pick(triples))
        assert len(targets) == len(triples)
        grid0, grid1 = ctx.grid(0), ctx.grid(1)
        scale = checks._serre_rhs_scale(ms)
        weights = [checks._serre_weight(ms.algebra, *t) for t in triples]
        # sp(4) carries Serre weights, sp(2) none; the rational model's
        # right side scales them by 0
        assert any(weights) == (ms.algebra == SP4)
        assert scale.is_zero == (ms.kind == "calogero")
        for target, triple, weight in zip(targets, triples, weights):
            for vec in self.vectors(ms.space):
                parts = []
                for x, y, z in ((triple[0], triple[1], triple[2]),
                                (triple[2], triple[0], triple[1]),
                                (triple[1], triple[2], triple[0])):
                    inner = nested_commutator(grid0[y], grid1[z], vec)
                    parts.append((F(1), nested([grid1[x]], inner)))
                    parts.append((F(-1), nested_commutator(
                        grid0[y], grid1[z], nested([grid1[x]], vec))))
                for key, c in weight.items():
                    for perm in permutations(key):
                        chain = nested([grid0[label] for label in perm], vec)
                        parts.append((-c / 24, {ket: amp * scale for ket, amp
                                                in chain.items()}))
                want = linear(ms.sites, parts)
                assert target.defect(vec) == want, target.label

    @pytest.mark.parametrize("spec", [SP2, SO3, SP4])
    def test_spin_defects(self, spec):
        space = OpSpace(spec.N, 2)
        weight = {ab: F(k) for k, ab in enumerate(basis(spec), 1)}
        wants = []
        for name, pairs, sides in checks._spin_identities(spec):
            if name == "twist exchange product":
                continue
            weighted = [(F(1), sides[0])] if pairs is None else [
                (weight[ab], side) for ab, side in zip(pairs, sides)
                if ab in weight]
            wants.append((name, weighted))
        targets = checks._spin_targets(spec)
        assert [t.label for t in targets] == [name for name, _ in wants]
        for target, (_, weighted) in zip(targets, wants):
            for vec in self.vectors(space, 2):
                parts = [(w * sign * c, nested(
                    [checks._engine_atom(spec, space, atom) for atom in word],
                    vec))
                    for w, (lhs, rhs) in weighted
                    for sign, side in ((1, lhs), (-1, rhs))
                    for c, word in side]
                assert target.defect(vec) == linear(2, parts), target.label

    @pytest.mark.parametrize("triple, count", [
        (((1, 1), (1, 2), (2, 1)), 24),
        (((1, 1), (1, 1), (1, 2)), 17)])
    def test_cubic_application_counts(self, monkeypatch, triple, count):
        # the nested route makes 3 rotations x (4 + 4 + 2) = 30 applications;
        # the word map applies each distinct suffix once and each shared
        # leading operator once, on every call
        ms = ModelSpec(SP2, 2, "confined")
        (target,) = checks._serre_targets(checks._ModelContext(ms),
                                          Pick([triple]))
        calls = []

        def counting(op, vec):
            calls.append(op)
            return apply_operator(op, vec)

        monkeypatch.setattr(checks, "apply_operator", counting)
        for vec in self.vectors(ms.space, 2):
            calls.clear()
            target.defect(vec)
            assert len(calls) == count


class TestModelSuite:
    def test_default_check_names(self):
        ms = ModelSpec(SP2, 2, "calogero", lam="star")
        rep = run_model_suite(ms, trials=2)
        names = {r.name for r in rep.results}
        assert names == {"conservation-level0", "conservation-level1",
                         "level-relation-0", "level-relation-1",
                         "serre-halfloop", "oracle-crosscheck"}
        assert rep.ok

    def test_serre_dispatch_by_model(self):
        ms = ModelSpec(SP2, 2, "sutherland", lam="star")
        rep = run_model_suite(ms, checks=("serre",))
        assert [r.name for r in rep.results] == ["serre-yangian"]

    def test_unknown_check_rejected(self):
        ms = ModelSpec(SP2, 2, "calogero", lam="star")
        with pytest.raises(ValueError):
            run_model_suite(ms, checks=("serre", "spectrum"))

    def test_solver_opt_in(self):
        ms = ModelSpec(SP2, 3, "calogero", lam="symbolic")
        rep = run_model_suite(ms, checks=("solve-lambda",))
        assert [r.name for r in rep.results] == ["coupling-solver"]
        assert rep.ok


class TestSharedContext:
    """The default suite builds each operator once and keeps none of them."""

    MS = ModelSpec(SP2, 2, "confined", lam="star")

    def test_sharing_changes_no_verdict(self):
        ms = self.MS
        suite = run_model_suite(ms, trials=3)
        alone = CheckReport.build(
            check_conservation(ms) + check_level_relations(ms)
            + (check_serre_yangian(ms), oracle_crosscheck(ms, trials=3)))
        assert [r.to_dict(zero_millis=True) for r in suite.results] == \
            [r.to_dict(zero_millis=True) for r in alone.results]
        assert suite.ok

    def test_each_bracket_built_once(self, monkeypatch):
        seen = []

        def recording(a, b):
            seen.append((a, b))
            return commutator(a, b)

        monkeypatch.setattr(checks, "commutator", recording)
        run_model_suite(self.MS, trials=3)
        assert seen
        repeats = [i for i, (a, b) in enumerate(seen)
                   if any(a == c and b == d for c, d in seen[:i])]
        assert not repeats

    def test_grids_built_once_and_released(self, monkeypatch):
        calls = []
        refs = []

        def recording(ms, level):
            calls.append((ms, level))
            grid = generator_grid(ms, level)
            refs.extend(weakref.ref(op) for op in grid.values())
            return grid

        monkeypatch.setattr(checks, "generator_grid", recording)
        run_model_suite(self.MS, trials=3)
        assert len(calls) == len(set(calls))
        assert len(refs) == 2 * len(basis(SP2))
        gc.collect()
        assert all(ref() is None for ref in refs)
