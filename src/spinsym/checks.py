"""Verification suite over the exact operator engine.

Every check computes an operator identity in canonical form and reports a
machine-readable verdict: ``pass`` means the difference normalized to the
zero operator, ``fail`` carries a counterexample witness (up to ten
offending terms), ``error`` marks configurations the identity does not
apply to, and ``skipped`` marks checks that were not run.  Reports are
deterministic: results are ordered by check name and parameters, and the
oracle cross-check draws its trial data from a seeded generator.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import combinations, permutations, product
from math import gcd as _integer_gcd, isqrt
from operator import mul
from random import Random
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple, Union)

from .errors import (DegenerateCouplingError, OracleDisagreementError,
                     SingularMetricError, TermBudgetError)
from .exact import RationalFunction, lam_slot, om_slot
from .lie import (AlgebraSpec, Pair, basis, conjugate_index, generator_matrix,
                  generator_op, ideal_generators, lie_generators,
                  lowered_adjoint_constants, metric, raised_constants,
                  structure_row, structure_table, theta)
from .models import (Densities, Item, ModelSpec, bind, bind_densities,
                     coupling_weight, generator_densities,
                     hamiltonian_densities, site_sum, star_coupling,
                     symmetrized_triple)
from .operators import (Operator, OpSpace, SpinVector, apply_operator,
                        commutator, embed, evaluate_vector,
                        operator_combination, vector_combination, word_apply)
from .spin_ops import permutation_op, twist_op
from .value import Value
from .version import __version__

WITNESS_LIMIT = 10

Matrix = List[List[Fraction]]
Atom = Union[str, Tuple[int, int, int]]     # "P", "Q" or (site, a, b)
Side = List[Tuple[Fraction, Tuple[Atom, ...]]]
Triple = Tuple[Pair, Pair, Pair]
# the right densities and linear terms bracketed with one left side
RightSide = Tuple[Densities, List[Tuple[Fraction, Densities]]]
VectorMap = Callable[[SpinVector], SpinVector]


# ---------------------------------------------------------------------------
# results and reports


class CheckResult(Value):
    """Verdict for one identity at one parameter point."""

    __slots__ = ("name", "params", "status", "millis", "witness", "notes")

    def __init__(self, name: str, params: Tuple[Tuple[str, str], ...],
                 status: str, millis: int, witness: Tuple[str, ...] = (),
                 notes: Tuple[str, ...] = ()):
        if status not in ("pass", "fail", "skipped", "error"):
            raise ValueError(f"bad status {status!r}")
        # a refuted identity must always carry its counterexample
        if status == "fail" and not witness:
            raise ValueError("failing check without witness")
        self._freeze(name, params, status, millis, witness, notes)

    def to_dict(self, zero_millis: bool = False) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "status": self.status,
            "millis": 0 if zero_millis else self.millis,
            "witness": list(self.witness),
            "notes": list(self.notes),
        }


class CheckReport(Value):
    """Ordered collection of results plus summary bookkeeping."""

    __slots__ = ("results", "engine_version")

    def __init__(self, results: Tuple[CheckResult, ...],
                 engine_version: str = __version__):
        self._freeze(results, engine_version)

    @classmethod
    def build(cls, results: Iterable[CheckResult]) -> "CheckReport":
        ordered = tuple(sorted(results, key=lambda r: (r.name, r.params)))
        return cls(ordered)

    @property
    def counts(self) -> Dict[str, int]:
        out = {"pass": 0, "fail": 0, "skipped": 0, "error": 0}
        for r in self.results:
            out[r.status] += 1
        out["total"] = len(self.results)
        return out

    @property
    def ok(self) -> bool:
        c = self.counts
        return c["fail"] == 0 and c["error"] == 0

    @property
    def oracle_alarm(self) -> bool:
        return any(n.startswith("ORACLE DISAGREEMENT")
                   for r in self.results for n in r.notes)

    def to_payload(self, spec_info: Optional[Mapping[str, object]] = None,
                   zero_millis: bool = False) -> dict:
        c = self.counts
        return {
            "spec": dict(spec_info or {}),
            "checks": [r.to_dict(zero_millis) for r in self.results],
            "summary": {
                "pass": c["pass"],
                "fail": c["fail"],
                "skipped": c["skipped"],
                "error": c["error"],
                "total": c["total"],
                "ok": self.ok,
            },
            "engine_version": self.engine_version,
        }

    def to_text(self, zero_millis: bool = False) -> str:
        lines: List[str] = []
        for r in self.results:
            ms = 0 if zero_millis else r.millis
            ps = ", ".join(f"{k}={v}" for k, v in r.params)
            lines.append(f"[{r.status.upper():7s}] {r.name} ({ps}) {ms} ms")
            for n in r.notes:
                lines.append(f"    note: {n}")
            for w in r.witness:
                lines.append(f"    | {w}")
        c = self.counts
        lines.append(f"summary: {c['pass']} pass, {c['fail']} fail, "
                     f"{c['skipped']} skipped, {c['error']} error "
                     f"({'ok' if self.ok else 'NOT ok'})")
        return "\n".join(lines)


def _algebra_params(spec: AlgebraSpec) -> Tuple[Tuple[str, str], ...]:
    return (("algebra", spec.describe()),
            ("N", str(spec.N)),
            ("theta0", f"{spec.theta0:+d}"))


def _model_params(ms: ModelSpec) -> Tuple[Tuple[str, str], ...]:
    return _algebra_params(ms.algebra) + (
        ("sites", str(ms.sites)),
        ("model", ms.kind),
        ("coupling", ms.lam_label()),
        ("trap", ms.omega_label()),
    )


Body = Callable[[], Tuple[str, Tuple[str, ...], Tuple[str, ...]]]


def _run(name: str, params: Tuple[Tuple[str, str], ...], body: Body) -> CheckResult:
    start = time.perf_counter()
    try:
        status, witness, notes = body()
    except DegenerateCouplingError as exc:
        status, witness, notes = "error", (), (f"degenerate coupling: {exc}",)
    except TermBudgetError as exc:
        status, witness, notes = "error", (), (str(exc),)
    except OracleDisagreementError as exc:
        status = "fail"
        witness = (str(exc),)
        notes = ("ORACLE DISAGREEMENT: a symbolically proven identity "
                 "evaluated nonzero; this signals an engine bug",)
    millis = int((time.perf_counter() - start) * 1000)
    return CheckResult(name, params, status, millis, tuple(witness), tuple(notes))


def _witness_terms(op: Operator, label: str) -> Tuple[str, ...]:
    lines = op.render().splitlines()
    shown = lines[:WITNESS_LIMIT]
    if len(lines) > WITNESS_LIMIT:
        shown.append(f"... {len(lines) - WITNESS_LIMIT} more terms")
    return (label,) + tuple(shown)


# ---------------------------------------------------------------------------
# Lie-structure suite


def check_lie_closure(spec: AlgebraSpec) -> CheckResult:
    """Brackets of defining-representation generators close on the basis."""

    def body():
        labels = basis(spec)
        space = OpSpace(spec.N, 1)
        ops = {ab: generator_op(spec, space, 1, *ab) for ab in labels}
        for ab in labels:
            for cd in labels:
                diff = operator_combination(space, [
                    (1, commutator(ops[ab], ops[cd]))] + [
                    (-c, ops[ef])
                    for ef, c in structure_row(spec, ab, cd).items()])
                if not diff.is_zero:
                    return ("fail",
                            _witness_terms(diff, f"bracket {ab} x {cd} residue:"),
                            ())
        return "pass", (), (f"{len(labels) ** 2} bracket pairs close on the basis",)

    return _run("lie-closure", _algebra_params(spec), body)


def check_lie_jacobi(spec: AlgebraSpec) -> CheckResult:
    """Structure constants satisfy the Jacobi identity."""

    def body():
        labels = basis(spec)
        table = structure_table(spec)
        for ab in labels:
            for cd in labels:
                for ef in labels:
                    acc: Dict[Pair, Fraction] = {}
                    for left, right, out_pair in ((ab, cd, ef), (cd, ef, ab),
                                                  (ef, ab, cd)):
                        for gh, c1 in table[(left, right)].items():
                            for mn, c2 in table[(gh, out_pair)].items():
                                acc[mn] = acc.get(mn, Fraction(0)) + c1 * c2
                    bad = {mn: v for mn, v in acc.items() if v}
                    if bad:
                        lines = tuple(f"component {mn}: {v}"
                                      for mn, v in sorted(bad.items()))
                        return ("fail",
                                (f"jacobi residue at {ab}, {cd}, {ef}:",) + lines,
                                ())
        return "pass", (), (f"{len(labels) ** 3} triples verified",)

    return _run("lie-jacobi", _algebra_params(spec), body)


def check_lie_generator_symmetry(spec: AlgebraSpec) -> CheckResult:
    """Conjugate-index relation between generators on the full index square."""

    def body():
        n = spec.N
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                abar, bbar = conjugate_index(spec, a), conjugate_index(spec, b)
                sign = theta(spec, a) * theta(spec, b)
                left = generator_matrix(spec, bbar, abar)
                right = generator_matrix(spec, a, b)
                for i in range(n):
                    for j in range(n):
                        if left[i][j] != -sign * right[i][j]:
                            return ("fail",
                                    (f"pair ({a},{b}): entry ({i + 1},{j + 1}) "
                                     f"is {left[i][j]}, expected "
                                     f"{-sign * right[i][j]}",),
                                    ())
        return "pass", (), (f"{n * n} index pairs verified",)

    return _run("lie-generator-symmetry", _algebra_params(spec), body)


def check_metric_symmetric(spec: AlgebraSpec) -> CheckResult:
    def body():
        g = metric(spec)
        size = len(g.labels)
        for i in range(size):
            for j in range(size):
                if g.matrix[i][j] != g.matrix[j][i]:
                    return ("fail",
                            (f"entry {g.labels[i]} x {g.labels[j]} asymmetric",),
                            ())
        return "pass", (), ()

    return _run("metric-symmetric", _algebra_params(spec), body)


def check_metric_invertible(spec: AlgebraSpec) -> CheckResult:
    def body():
        try:
            g = metric(spec)
        except SingularMetricError as exc:
            return "fail", (str(exc),), ()
        size = len(g.labels)
        for i in range(size):
            for j in range(size):
                s = sum((g.matrix[i][k] * g.inverse[k][j] for k in range(size)),
                        Fraction(0))
                if s != (1 if i == j else 0):
                    return "fail", (f"g * g^-1 entry ({i},{j}) = {s}",), ()
        return "pass", (), (f"dimension {size}",)

    return _run("metric-invertible", _algebra_params(spec), body)


def check_metric_ad_invariant(spec: AlgebraSpec) -> CheckResult:
    """Bracket contraction with the metric is antisymmetric in the outer pair."""

    def body():
        labels = basis(spec)
        g = metric(spec)
        table = structure_table(spec)
        for ab in labels:
            for cd in labels:
                for ef in labels:
                    s = Fraction(0)
                    for mn, c in table[(ab, cd)].items():
                        s += c * g.entry(mn, ef)
                    for mn, c in table[(ab, ef)].items():
                        s += c * g.entry(mn, cd)
                    if s:
                        return ("fail",
                                (f"invariance residue {s} at {ab}, {cd}, {ef}",),
                                ())
        return "pass", (), ()

    return _run("metric-ad-invariant", _algebra_params(spec), body)


def check_appendix_f(spec: AlgebraSpec) -> CheckResult:
    """Two-site interaction weight collapses to 1 at the critical coupling."""

    params = _algebra_params(spec)
    if spec.N == 4 * spec.theta0:
        return CheckResult("coupling-weight-unity", params, "skipped", 0, (),
                           ("critical coupling undefined for this algebra",))

    def body():
        lam = star_coupling(spec)
        diff = coupling_weight(spec, lam) - RationalFunction.const(2, 1)
        if diff.is_zero:
            return "pass", (), (f"weight is identically 1 at coupling {lam}",)
        return "fail", (f"weight - 1 = {diff.render()}",), ()

    return _run("coupling-weight-unity", params, body)


LIE_SUITE_SPECS: Tuple[Tuple[int, int], ...] = (
    (2, -1), (3, 1), (4, 1), (4, -1), (5, 1), (6, 1), (6, -1))


def run_lie_suite(spec: AlgebraSpec) -> CheckReport:
    return CheckReport.build([
        check_lie_closure(spec),
        check_lie_jacobi(spec),
        check_lie_generator_symmetry(spec),
        check_metric_symmetric(spec),
        check_metric_invertible(spec),
        check_metric_ad_invariant(spec),
        check_appendix_f(spec),
    ])


# ---------------------------------------------------------------------------
# the per-model proof context


class _ModelContext:
    """The operators one model instance's proofs are built from, each once.

    ``run_model_suite`` makes one context and hands it to every check it
    runs, so the oracle's flags come from the very objects the checks
    proved; a check called on its own makes its own.  The context lives
    only as long as that call.  Every entry is built on first use, inside
    the check that first needs it, so a term-budget error is reported by
    that check.

    The context and its variants share one build of the fully symbolic
    densities of the model, one ``generator_densities`` call per level and
    one ``hamiltonian_densities`` call.  Each L-site operator is summed
    from them once per run (``models.site_sum``).  Every context binds its
    own coupling and trap strength into those sums, and into the densities
    themselves, each on its own sites.  Every family is decided by one
    rule: on the connected parts of its densities above its local bound
    (``connected_parts``), and on the L-site defect at or below it or
    where a part is nonzero.
    """

    def __init__(self, ms: ModelSpec,
                 symbolic: Optional[Dict[object, object]] = None):
        self.ms = ms
        self._cache: Dict[object, object] = {}
        self._symbolic = {} if symbolic is None else symbolic

    def _once(self, key: object, build: Callable[[], object],
              cache: Optional[Dict[object, object]] = None):
        cache = self._cache if cache is None else cache
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = build()
        return hit

    def _symbolic_build(self, key: object,
                        build: Callable[[ModelSpec], object]):
        symbolic = self.ms.replace(lam="symbolic", omega="symbolic")
        return self._once((symbolic, key), lambda: build(symbolic),
                          self._symbolic)

    def variant(self, **changes) -> "_ModelContext":
        """The context of this model with some spec fields replaced."""
        other = self.ms.replace(**changes)
        if other == self.ms:
            return self
        return self._once(("variant", other),
                          lambda: _ModelContext(other, self._symbolic))

    def _symbolic_densities(self, level: int) -> Dict[Pair, Densities]:
        return self._symbolic_build(("densities", level),
                                    lambda ms: generator_densities(ms, level))

    def _symbolic_ham(self) -> Densities:
        return self._symbolic_build("ham-densities", hamiltonian_densities)

    def _summed(self, key: object,
                densities: Callable[[], Densities]) -> Operator:
        """The L-site operator of some symbolic densities, summed once per
        run (``models.site_sum``) and bound to this context's model."""
        return self._once(key, lambda: bind(self._symbolic_build(
            key, lambda ms: site_sum(ms.space, densities())), self.ms))

    def densities(self, level: int) -> Dict[Pair, Densities]:
        """Each generator's densities at the given level."""
        return self._once(("densities", level), lambda: {
            ab: bind_densities(d, self.ms)
            for ab, d in self._symbolic_densities(level).items()})

    def ham_densities(self) -> Densities:
        return self._once("ham-densities", lambda: bind_densities(
            self._symbolic_ham(), self.ms))

    def generator(self, level: int, ab: Pair) -> Operator:
        """``J^ab`` of a level on the model's sites."""
        return self._summed(("generator", level, ab),
                            lambda: self._symbolic_densities(level)[ab])

    def grid(self, level: int) -> Dict[Pair, Operator]:
        return {ab: self.generator(level, ab)
                for ab in basis(self.ms.algebra)}

    def hamiltonian(self) -> Operator:
        return self._summed("hamiltonian", self._symbolic_ham)

    def ham_bracket(self, level: int, ab: Pair) -> Operator:
        """``[H, J^ab]`` for a generator of the given level."""
        return self._once(("ham", level, ab), lambda: commutator(
            self.hamiltonian(), self.generator(level, ab)))

    def zero_at(self, family: str, level: int, y: Pair) -> bool:
        """Whether a family vanishes at label y: for ``"ham"``, ``[H, J^y]``
        of the level; for ``"residual"``, ``R(y, z)`` for every z.

        The connected parts are read first (``local_zero``): where they
        all vanish, so does the family at y for every number of sites, and
        a nonzero one falls through to the L-site route, which gives the
        verdict.
        """
        if self.local_zero(family, level, y):
            return True
        if family == "ham":
            return self.ham_bracket(level, y).is_zero
        return all(self.residual(level, y, z).is_zero
                   for z in basis(self.ms.algebra))

    def identities(self, family: str, level: int, y: Pair
                   ) -> Tuple[Densities, List[RightSide]]:
        """A family at label y as one left side and its sides ``(right,
        linear)``, each the identity ``[sum left, sum right] + sum_c c *
        sum linear = 0`` of site sums of densities: ``R(y, z)`` for every
        z, ``(J0^y, I^z, -sum_w f^{yz}_w I^w)`` with ``I`` the level's
        densities, or ``[J^y, H]``, zero exactly when ``[H, J^y]`` is."""
        if family == "ham":
            return self.densities(level)[y], [(self.ham_densities(), [])]
        own, spec = self.densities(level), self.ms.algebra
        return self.densities(0)[y], [(own[z], [
            (-c, own[w]) for w, c in structure_row(spec, y, z).items()])
            for z in basis(spec)]

    def local_bound(self, family: str, level: int) -> int:
        """The largest left support plus the largest right support, less
        1: no larger set of sites is the union of two density tuples that
        meet, so every connected part above it is zero."""
        return self._once(("bound", family, level), lambda: max(
            max(left) + max(right) - 1 for y in basis(self.ms.algebra)
            for left, sides in [self.identities(family, level, y)]
            for right, _ in sides))

    def local_zero(self, family: str, level: int, y: Pair) -> bool:
        """Whether every connected part of the family's identities at label
        y vanishes; False at or below the local bound, where the parts are
        as large as the L-site defect and only the L-site route runs.
        Decided once per context and label."""
        bound = self.local_bound(family, level)
        if self.ms.sites <= bound:
            return False
        return self._once(("local", family, level, y), lambda: all(
            part.is_zero for k in range(1, bound + 1)
            for part in self.connected_parts(
                *self.identities(family, level, y), k)))

    def connected_parts(self, left: Densities, sides: List[RightSide],
                        k: int) -> Iterator[Operator]:
        """``c_k`` of each side, the part on exactly k sites of ``[sum
        left, sum right] + sum_c c * sum linear``; with ``a`` and ``b`` the
        left and right densities, ``c_k = sum_{s meets t, s | t = [k]}
        [embed_s a, embed_t b] + sum_c c * linear_k``.

        Densities at tuples that do not meet commute, and embedding is an
        algebra monomorphism, so on L sites the defect is ``sum_{U <= [L]}
        embed_U(c_|U|)``, zero at every L when every c_k is.  A part is
        one commutator per right tuple t, with the sum of the left
        densities that meet t and cover the rest of [k], formed once.
        """
        space = OpSpace(self.ms.algebra.N, k)
        sites = range(1, k + 1)
        placed = [(set(s), embed(a, s, space)) for p, a in left.items()
                  for s in combinations(sites, p)]
        sums: Dict[Tuple[int, ...], Operator] = {}
        for t in sorted({t for right, _ in sides for q in right
                         for t in combinations(sites, q)}):
            rest = set(sites).difference(t)
            # the left tuples that cover the rest of [k] and meet t
            lefts = [(1, a) for s, a in placed
                     if rest <= s and not s <= rest]
            if lefts:
                sums[t] = operator_combination(space, lefts)
        for right, linear in sides:
            yield operator_combination(space, [
                (1, commutator(sums[t], embed(b, t, space)))
                for q, b in right.items() for t in combinations(sites, q)
                if t in sums] + [(c, d[k]) for c, d in linear if k in d])

    def _generators(self, family: str, level: int
                    ) -> Tuple[Tuple[Pair, ...], Tuple[Tuple[str, int], ...]]:
        """The labels that decide a family, and the premises under which
        they do.

        Level-relation-0 makes ``y -> J0^y`` a representation, so the
        operators are a module of the algebra by ``ad J0``, and the labels
        that annihilate a vector of a module span a subalgebra (Humphreys,
        *Introduction to Lie Algebras and Representation Theory*, 1972,
        sections 1-6).  ``R(y, .)`` is y acting on the map ``z -> J^z``,
        and by Jacobi ``[H, J0^[y,y']] = [[H, J0^y], J0^y'] + [J0^y, [H,
        J0^y']]``; so covariance at level >= 1 and level-0 conservation
        are decided on labels that generate the algebra as a Lie algebra
        (``lie.lie_generators``).  If besides ``[J0^y, H] = 0`` every
        ``R(y, z)`` of a level vanishes, Jacobi gives ``[J0^y, D(z)] =
        sum_w f^{yz}_w D(w)`` for ``D(z) = [H, J^z]``, so the labels with
        ``D = 0`` span an ideal (section 20), and conservation at that
        level is decided on labels that generate the algebra as an ideal
        (``lie.ideal_generators``).  Level-relation-0 itself is decided on
        every label.
        """
        spec = self.ms.algebra
        if family == "residual" and level == 0:
            return basis(spec), ()
        if family == "residual" or level == 0:
            return lie_generators(spec), (("residual", 0),)
        return ideal_generators(spec), (("ham", 0), ("residual", level))

    def deciding_labels(self, family: str, level: int) -> Tuple[Pair, ...]:
        """The family's generators when their premises hold, every label
        otherwise; the premises are checked in order, stopping at the first
        that fails."""
        labels, premises = self._generators(family, level)
        if all(self.holds(*premise) for premise in premises):
            return labels
        return basis(self.ms.algebra)

    def holds(self, family: str, level: int) -> bool:
        """Whether a family vanishes at every label.  Decided once per
        context.

        Level 0 first reads the more symbolic variant, with the coupling
        and, for residuals, the trap left free: binding commutes with
        products and normal forms are unique, so what vanishes there
        vanishes at every binding.  Then the generators are tested, so a
        nonzero one refutes the family before any premise is formed, and
        last the deciding labels not tested yet.
        """

        def build() -> bool:
            if level == 0:
                free = (self.variant(lam="symbolic", omega="symbolic")
                        if family == "residual"
                        else self.variant(lam="symbolic"))
                if free is not self and free.holds(family, 0):
                    return True
            tested = self._generators(family, level)[0]
            return all(self.zero_at(family, level, y) for y in tested) and all(
                self.zero_at(family, level, y)
                for y in self.deciding_labels(family, level)
                if y not in tested)

        return self._once(("holds", family, level), build)

    def residual(self, level: int, y: Pair, z: Pair) -> Operator:
        """``R(y,z) = [J0^y, J^z] - sum_w f^{yz}_w J^w`` at the given level."""

        def build() -> Operator:
            return operator_combination(self.ms.space, [
                (1, commutator(self.generator(0, y),
                               self.generator(level, z)))] + [
                (-c, self.generator(level, w))
                for w, c in structure_row(self.ms.algebra, y, z).items()])

        return self._once(("residual", level, y, z), build)

    def bracket(self, x: Pair, w: Pair) -> Operator:
        """``B(x,w) = [J1^x, J1^w]``; asked for with ``x < w`` only."""
        return self._once(("bracket", x, w), lambda: commutator(
            self.generator(1, x), self.generator(1, w)))

    def pieces(self, triples: Iterable[Triple]) -> List[Item]:
        """``sum [J1^x, [J0^y, J1^z]]`` over basis triples as items, from
        ``B`` and ``R``.

        The inner bracket splits into its level-1 combination and the
        covariance residual ``R(y,z)``, so by bilinearity

            [J1^x, [J0^y, J1^z]] = sum_w f^{yz}_w B(x,w) + [J1^x, R(y,z)]

        with ``B(w,x) = -B(x,w)`` and ``B(x,x) = 0``, whether or not
        covariance holds; no residual is formed where
        ``holds("residual", 1)`` decided that they all vanish.  Each triple
        is a row of rationals over the entries ``x < w``; the rows are
        merged, and only an entry with a nonzero net coefficient is formed.
        Normal forms are unique, so the items sum to the nested commutators
        exactly.
        """
        row: Dict[Tuple[Pair, Pair], Fraction] = {}
        parts: List[Item] = []
        covariant = self.holds("residual", 1)
        for x, y, z in triples:
            for w, c in structure_row(self.ms.algebra, y, z).items():
                if w != x:
                    key, c = ((x, w), c) if x < w else ((w, x), -c)
                    row[key] = row.get(key, Fraction(0)) + c
            if covariant:
                continue
            rest = self.residual(1, y, z)
            if not rest.is_zero:
                parts.append((Fraction(1), commutator(self.generator(1, x),
                                                      rest)))
        return parts + [(c, self.bracket(*k)) for k, c in row.items() if c]

    def piece_sum(self, triples: Iterable[Triple]) -> Operator:
        return operator_combination(self.ms.space, self.pieces(triples))

    def serre_scale(self) -> RationalFunction:
        return self._once("scale", lambda: _serre_rhs_scale(self.ms))

    def serre_weight(self, ab: Pair, cd: Pair, ef: Pair) -> Dict[Triple, Fraction]:
        """``_serre_weight`` at a triple; empty where the scale is 0."""
        zero = self.serre_scale().is_zero
        return {} if zero else _serre_weight(self.ms.algebra, ab, cd, ef)

    def cubic_defect(self, ab: Pair, cd: Pair, ef: Pair
                     ) -> Tuple[Operator, bool]:
        """The cubic relation at one basis triple, for every family: its
        defect, the cyclic double-bracket sum less the scale times the
        weighted symmetrized triples ``R = sum_K c_K sym(K)``, and whether
        ``R`` is nonzero.  ``R`` is formed only for nonempty weights."""
        items = self.pieces(_rotations(ab, cd, ef))
        weights = self.serre_weight(ab, cd, ef)
        if not weights:
            return operator_combination(self.ms.space, items), False
        right = operator_combination(self.ms.space, (
            (c, self._once(("sym", key), lambda key=key: symmetrized_triple(
                *(self.generator(0, label) for label in key))))
            for key, c in weights.items()))
        items.append((-self.serre_scale(), right))
        return (operator_combination(self.ms.space, items),
                not right.is_zero)

    def orbit_defect(self, triple: Triple) -> Tuple[Operator, bool]:
        """``cubic_defect`` at a cyclic orbit's minimal triple, keeping the
        orbit's zero test for ``serre_zero``."""
        defect, right_nonzero = self.cubic_defect(*triple)
        self._cache[("serre-zero", triple)] = defect.is_zero
        return defect, right_nonzero

    def serre_zero(self, ab: Pair, cd: Pair, ef: Pair) -> bool:
        """Whether the cubic defect vanishes at a basis triple.

        The defect is invariant under rotating the triple, so the test is
        kept once per cyclic orbit, keyed by the orbit's minimal triple:
        read from ``orbit_defect`` when a Serre check walked the orbit, and
        otherwise decided here from the defect at that triple.
        """
        orbit = min(_rotations(ab, cd, ef))
        return self._once(("serre-zero", orbit),
                          lambda: self.orbit_defect(orbit)[0].is_zero)


def _context(ms: ModelSpec, context: Optional[_ModelContext]
             ) -> _ModelContext:
    if context is None:
        return _ModelContext(ms)
    if context.ms != ms:
        raise ValueError("the proof context belongs to another model")
    return context


# ---------------------------------------------------------------------------
# conservation and level relations


def check_conservation(ms: ModelSpec, context: Optional[_ModelContext] = None
                       ) -> Tuple[CheckResult, CheckResult]:
    """Level-0 generators commute with the Hamiltonian for every coupling;
    level-1 generators commute at the coupling bound in the model spec.

    Each level passes when ``_ModelContext.holds("ham", level)`` does,
    level 0 with the coupling free; otherwise the first failing
    generator's bracket is the witness, and level 1 lists every failing
    generator.
    """

    labels = basis(ms.algebra)
    ctx = _context(ms, context)

    def level0():
        free = ctx.variant(lam="symbolic")
        if not free.holds("ham", 0):
            for ab in labels:
                defect = free.ham_bracket(0, ab)
                if not defect.is_zero:
                    return ("fail",
                            _witness_terms(defect,
                                           f"defect for generator {ab}:"),
                            ("coupling left symbolic",))
        return "pass", (), ("coupling left symbolic",
                            f"{len(labels)} generators conserved")

    def level1():
        if ctx.holds("ham", 1):
            return "pass", (), (f"{len(labels)} generators conserved",)
        failing = [ab for ab in labels if not ctx.zero_at("ham", 1, ab)]
        return ("fail",
                _witness_terms(ctx.ham_bracket(1, failing[0]),
                               f"defect for generator {failing[0]}:"),
                (f"failing generators: {failing}",))

    return (_run("conservation-level0", _model_params(ms), level0),
            _run("conservation-level1", _model_params(ms), level1))


def check_level_relations(ms: ModelSpec,
                          context: Optional[_ModelContext] = None
                          ) -> Tuple[CheckResult, CheckResult]:
    """Bracket of a level-0 generator with a level-n generator lands on the
    structure-constant combination of level-n generators, n in {0, 1}.

    Each level is decided by ``_ModelContext.holds("residual", level)``;
    on a failure the first nonzero residual in basis order is the
    witness."""

    labels = basis(ms.algebra)
    ctx = _context(ms, context)

    def relation(level: int):
        def body():
            if ctx.holds("residual", level):
                return ("pass", (),
                        (f"{len(labels) ** 2} bracket pairs verified",))
            for ab in labels:
                for cd in labels:
                    diff = ctx.residual(level, ab, cd)
                    if not diff.is_zero:
                        return ("fail",
                                _witness_terms(diff,
                                               f"residue for {ab} x {cd}:"),
                                ())
            return "pass", (), (f"{len(labels) ** 2} bracket pairs verified",)
        return body

    return (_run("level-relation-0", _model_params(ms), relation(0)),
            _run("level-relation-1", _model_params(ms), relation(1)))


# ---------------------------------------------------------------------------
# Serre identities


def _serre_weight(spec: AlgebraSpec, ab: Pair, cd: Pair, ef: Pair
                  ) -> Dict[Triple, Fraction]:
    """Contract three lowered adjoint rows against the fully raised table.

    The contraction is symmetrized on the right side, so its weights are
    summed by sorted label multiset; multisets whose weights cancel are
    dropped.
    """
    low = lowered_adjoint_constants(spec)
    high = raised_constants(spec)
    out: Dict[Triple, Fraction] = {}
    for (first, ij), c1 in low[ab].items():
        for (second, kl), c2 in low[cd].items():
            for (third, mn), c3 in low[ef].items():
                c4 = high.get((ij, kl, mn))
                if c4:
                    key = tuple(sorted((first, second, third)))
                    out[key] = out.get(key, Fraction(0)) + c1 * c2 * c3 * c4
    return {k: v for k, v in out.items() if v}


def _rotations(ab: Pair, cd: Pair, ef: Pair) -> Tuple[Triple, ...]:
    """The three cyclic orders of a triple, in the order the sums take."""
    return (ab, cd, ef), (ef, ab, cd), (cd, ef, ab)


def _cyclic_orbits(labels: Sequence[Pair]) -> Iterator[Tuple[Triple, int]]:
    """Each cyclic orbit of basis triples once, at its minimal triple (its
    first in ``product`` order, as ``basis`` is sorted), with its size."""
    for triple in product(labels, repeat=3):
        cyclic = _rotations(*triple)
        if triple == min(cyclic):
            yield triple, len(set(cyclic))


def _serre_orbits(ctx: _ModelContext
                  ) -> Iterator[Tuple[Triple, int, Operator, bool]]:
    """``cubic_defect`` once per cyclic orbit (both sides are rotation
    invariant), walked lazily: each orbit's minimal triple and size, and
    the orbit's defect and right-side flag.  Each orbit's zero test stays
    in the context (``_ModelContext.orbit_defect``) for the oracle."""
    for triple, size in _cyclic_orbits(basis(ctx.ms.algebra)):
        yield (triple, size) + ctx.orbit_defect(triple)


def check_serre_halfloop(ms: ModelSpec,
                         context: Optional[_ModelContext] = None
                         ) -> CheckResult:
    """Cyclic double-bracket sum of level-1 generators vanishes.

    This is the cubic relation with right-hand scale 0, decided by
    ``_serre_orbits`` up to its first mismatch; after a pass, the triples
    with a nonzero piece ``[J1^x, [J0^y, J1^z]]`` are counted from the
    per-rotation pieces.
    """

    params = _model_params(ms)
    if ms.kind != "calogero":
        return CheckResult("serre-halfloop", params, "error", 0, (),
                           ("defined for the rational model only",))
    ctx = _context(ms, context)

    def body():
        labels = basis(ms.algebra)
        for (ab, cd, ef), _, defect, _ in _serre_orbits(ctx):
            if not defect.is_zero:
                return ("fail",
                        _witness_terms(defect,
                                       f"cyclic sum at {ab}, {cd}, {ef}:"),
                        ())
        nonvacuous = sum(size for triple, size in _cyclic_orbits(labels)
                         if any(not ctx.piece_sum((key,)).is_zero
                                for key in _rotations(*triple)))
        return "pass", (), (f"{len(labels) ** 3} triples verified",
                            f"triples with nonzero cyclic pieces: {nonvacuous}")

    return _run("serre-halfloop", params, body)


def _serre_rhs_scale(ms: ModelSpec) -> RationalFunction:
    """0 for the rational (half-loop) relation, ``lam^2`` for the
    trigonometric one and ``4 lam^2 om^2`` for the confined one."""
    lam = RationalFunction.coupling(ms.sites)
    om = RationalFunction.trap(ms.sites)
    factor = {"calogero": 0, "sutherland": 1, "confined": om * om * 4}[ms.kind]
    return (lam * lam * factor).substitute(ms.bindings())


def _zero_trap_mismatch(ctx: _ModelContext, zero: _ModelContext
                        ) -> Optional[str]:
    """Where substituting trap -> 0 into the Serre proof of ``ctx`` differs
    from the zero-trap context ``zero``, or None where it never does.

    Each ``J0`` and ``J1`` of ``ctx`` at trap -> 0 must equal that of
    ``zero``, and the right-hand scale must vanish.  No denominator holds
    the trap strength (it is an integer times factors ``x_j - x_k``), so
    the substitution is a ring homomorphism that commutes with ``d/dx_j``,
    products and commutators; as normal forms are unique, every table
    entry and residual term then agrees too, and none is formed.

    ``zero`` is a variant of ``ctx``: it binds trap 0 into the same
    symbolic build, and nothing is rebuilt.  So the grid comparison checks
    only that substitution composes, and the scale check that the right
    side carries the trap factor; the reduction itself follows from the
    symbolic-trap proof.
    """
    trap_off = {om_slot(ctx.ms.sites): Fraction(0)}
    for level in (0, 1):
        for x in basis(ctx.ms.algebra):
            if (ctx.generator(level, x).substitute(trap_off)
                    != zero.generator(level, x)):
                return (f"zero-trap reduction mismatch at level-{level} "
                        f"generator {x}")
    if not ctx.serre_scale().substitute(trap_off).is_zero:
        return "right side survives trap -> 0"
    return None


def check_serre_yangian(ms: ModelSpec,
                        context: Optional[_ModelContext] = None
                        ) -> CheckResult:
    """Cyclic double-bracket sum equals the scaled triple contraction.

    The committed convention lowers the second upper pair of each adjoint
    row and fully raises the lower pair of the remaining row; the
    symmetrized cube carries the 1/24 prefactor.  The relation is decided
    by ``_serre_orbits`` over every orbit; a failure reports how many
    triples mismatch and the residue at the first of them.

    The cyclic sums come from the level-1 bracket table through
    ``_ModelContext.pieces``; the evaluation oracle replays them through
    nested commutators.  For the confined model with a symbolic trap
    strength, the proof must also reduce to the zero-trap variant, as
    ``_zero_trap_mismatch`` checks on the generator grids and the
    right-hand scale.  The note keeps its wording, "the zero-trap
    rebuild", because the golden reports pin it.
    """

    params = _model_params(ms)
    if ms.kind not in ("sutherland", "confined"):
        return CheckResult("serre-yangian", params, "error", 0, (),
                           ("defined for the trigonometric and confined "
                            "models only",))
    ctx = _context(ms, context)

    def body():
        labels = basis(ms.algebra)
        reduce_zero_trap = (ms.kind == "confined"
                            and ms.resolved_omega() is None)
        nonvacuous = mismatching = 0
        first = None
        for triple, size, defect, right_nonzero in _serre_orbits(ctx):
            if right_nonzero:
                nonvacuous += size
            if not defect.is_zero:
                mismatching += size
                first = first or (triple, defect)
        if reduce_zero_trap and (failure := _zero_trap_mismatch(
                ctx, ctx.variant(omega=Fraction(0)))):
            return "fail", (failure,), ()

        if first is not None:
            triple, residue = first
            return ("fail",
                    (f"mismatching triples: {mismatching}/{len(labels) ** 3}",)
                    + _witness_terms(residue, f"residue at {triple}:"),
                    ())

        notes = [f"{len(labels) ** 3} triples verified under the committed "
                 f"convention",
                 f"nonvacuous triples: {nonvacuous}"]
        if not nonvacuous:
            # name the cause: the algebra's dimension or a zero scale
            notes.append("both sides vanish identically for every triple" + (
                ": the cubic relation is degenerate for a three-dimensional "
                "algebra" if len(labels) == 3 else
                ": the right-side scale is 0 at this coupling and trap"
                if ctx.serre_scale().is_zero else ""))
        if reduce_zero_trap:
            notes.append(f"trap -> 0 reduction matched the zero-trap rebuild "
                         f"byte for byte on {len(labels) ** 3} triples")
        return "pass", (), tuple(notes)

    return _run("serre-yangian", params, body)


# ---------------------------------------------------------------------------
# the coupling solver


def _coupling_polynomial(defect: Operator, slot: int) -> Dict[int, Fraction]:
    """The coefficients in the coupling of one monomial of a nonzero defect.

    The first term's numerator is read at the exponents of every other
    variable of its first monomial.  The defect vanishes at a coupling
    only if this polynomial does, so its roots hold every admissible one.
    """
    coeff = next(iter(defect.terms.values()))
    monomials = coeff.terms()
    rest = monomials[0][0][:slot] + monomials[0][0][slot + 1:]
    return {expo[slot]: c for expo, c in monomials
            if expo[:slot] + expo[slot + 1:] == rest}


def _rational_roots(poly: Dict[int, Fraction]) -> Set[Fraction]:
    """All rational roots of a nonzero univariate polynomial."""
    low = min(poly)
    core = {e - low: c for e, c in poly.items()}
    roots: Set[Fraction] = set()
    if low > 0:
        roots.add(Fraction(0))
    if max(core) == 0:
        return roots
    clear = 1
    for c in core.values():
        clear = clear * c.denominator // _integer_gcd(clear, c.denominator)
    integral = {e: int(c * clear) for e, c in core.items()}
    constant, leading = integral.get(0, 0), integral[max(integral)]

    def divisors(n: int) -> List[int]:
        # pairs (d, n // d) up to isqrt(n), so the cost is sqrt(n), not n
        n = abs(n)
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return sorted(set(small + [n // d for d in small])) or [1]

    for p in divisors(constant):
        for q in divisors(leading):
            for sign in (1, -1):
                cand = Fraction(sign * p, q)
                if cand in roots:
                    continue
                if sum(c * cand ** e for e, c in core.items()) == 0:
                    roots.add(cand)
    return roots


def solve_lambda(ms: ModelSpec, context: Optional[_ModelContext] = None
                 ) -> Set[Fraction]:
    """Couplings at which every level-1 generator is conserved.

    Requires a symbolic coupling.  The candidates are the rational roots
    of one coupling polynomial (``_coupling_polynomial``) of the first
    nonzero defect bracket of the Hamiltonian with a deciding level-1
    generator (``deciding_labels("ham", 1)``: one per generator of the
    algebra as an ideal when the level is covariant and level 0 is
    conserved, else every generator).  A candidate is kept when binding it
    turns every deciding bracket into the zero operator: binding commutes
    with products and derivatives and normal forms are unique, so that is
    the bracket of the bound model.  Binding a root keeps both premises,
    so at each root the deciding brackets vanish and with them all the
    others.  The root 0 is shared trivially (it switches the interaction
    off) and is excluded from the result, so an empty set means no
    interacting model has the symmetry.
    """
    if ms.lam != "symbolic":
        raise ValueError("solve_lambda needs a symbolic coupling")
    ctx = _context(ms, context)
    slot = lam_slot(ms.sites)
    defects = [d for d in (ctx.ham_bracket(1, ab)
                           for ab in ctx.deciding_labels("ham", 1))
               if not d.is_zero]
    if not defects:
        # defect vanished identically; every coupling is admissible
        return set()
    return {r for r in _rational_roots(_coupling_polynomial(defects[0], slot))
            if r != 0 and all(d.substitute({slot: r}).is_zero
                              for d in defects)}


def check_lambda_solver(ms: ModelSpec,
                        context: Optional[_ModelContext] = None
                        ) -> CheckResult:
    """Solver returns exactly the critical coupling, or nothing when the
    critical coupling is undefined."""
    return run_lambda_solver(ms, context)[0]


def run_lambda_solver(ms: ModelSpec, context: Optional[_ModelContext] = None
                      ) -> Tuple[CheckResult, Optional[Set[Fraction]]]:
    """The coupling-solver check together with the roots it found.

    The roots are None when the check stopped before the solve finished.
    """

    ctx = _context(ms, context).variant(lam="symbolic")
    symbolic = ctx.ms
    params = _model_params(symbolic)
    found: List[Set[Fraction]] = []

    def body():
        roots = solve_lambda(symbolic, ctx)
        found.append(roots)
        degenerate = ms.algebra.N == 4 * ms.algebra.theta0
        expected: Set[Fraction] = set()
        if not degenerate:
            expected = {star_coupling(ms.algebra)}
        shown = ", ".join(str(r) for r in sorted(roots)) or "(none)"
        notes = [f"roots: {shown}",
                 "trivial non-interacting root 0 excluded"]
        if ms.sites < 3:
            notes.append("weak run: fewer than three sites")
        if roots == expected:
            if degenerate:
                notes.append("no admissible coupling, as required for the "
                             "degenerate algebra")
            return "pass", (), tuple(notes)
        want = ", ".join(str(r) for r in sorted(expected)) or "(none)"
        return ("fail",
                (f"solver returned {shown}, expected {want}",),
                tuple(notes))

    result = _run("coupling-solver", params, body)
    return result, (found[0] if found else None)


# ---------------------------------------------------------------------------
# two-site spin identities: one table, read by the engine route and the
# dense-matrix route here and by the oracle's spin targets


def _dense_zero(n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(n)]


def _dense_unit(dim: int, a: int, b: int) -> Matrix:
    m = _dense_zero(dim)
    m[a - 1][b - 1] = Fraction(1)
    return m


def _dense_eye(n: int) -> Matrix:
    m = _dense_zero(n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def _dense_add(a: Matrix, b: Matrix, c: Fraction = Fraction(1)) -> Matrix:
    """``a + c * b``."""
    return [[x + c * y if y else x for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def _dense_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m = len(a), len(b[0])
    inner = len(b)
    out = _dense_zero(n)
    for i in range(n):
        row = a[i]
        acc = out[i]
        for k in range(inner):
            c = row[k]
            if c:
                brow = b[k]
                for j in range(m):
                    if brow[j]:
                        acc[j] += c * brow[j]
    return out


def _dense_kron(a: Matrix, b: Matrix) -> Matrix:
    na, nb = len(a), len(b)
    out = _dense_zero(na * nb)
    for i in range(na):
        for j in range(na):
            c = a[i][j]
            if c:
                for k in range(nb):
                    for l in range(nb):
                        if b[k][l]:
                            out[i * nb + k][j * nb + l] = c * b[k][l]
    return out


def _constant_value(rf: RationalFunction) -> Fraction:
    if rf.den:
        raise ValueError("coefficient is not constant")
    terms = rf.terms()
    if not terms:
        return Fraction(0)
    ((expo, coeff),) = terms
    if any(expo):
        raise ValueError("coefficient is not constant")
    return coeff


def _operator_to_dense(spec: AlgebraSpec, op: Operator) -> Matrix:
    """Two-site operator with constant coefficients as an N^2 x N^2 matrix."""
    n = spec.N
    out = _dense_zero(n * n)
    for (deriv, word), coeff in op.terms.items():
        if any(deriv):
            raise ValueError("operator is not purely spin")
        c = _constant_value(coeff)
        for ket in product(range(1, n + 1), repeat=2):
            image = word_apply(word, ket)
            if image is not None:
                out[(image[0] - 1) * n + image[1] - 1][
                    (ket[0] - 1) * n + ket[1] - 1] += c
    return out


def _dense_diff_witness(name: str, got: Matrix, want: Matrix
                        ) -> Tuple[str, ...]:
    lines = [name]
    count = 0
    for i, (rg, rw) in enumerate(zip(got, want)):
        for j, (x, y) in enumerate(zip(rg, rw)):
            if x != y:
                lines.append(f"entry ({i + 1},{j + 1}): {x} != {y}")
                count += 1
                if count >= WITNESS_LIMIT:
                    return tuple(lines)
    return tuple(lines)


def _spin_identities(spec: AlgebraSpec
                     ) -> Tuple[Tuple[str, Optional[Tuple[Pair, ...]],
                                      Tuple[Tuple[Side, Side], ...]], ...]:
    """The two-site exchange and twist identities, each stated once.

    An entry is ``(name, pairs, sides)``.  A side is a list of
    ``(coefficient, word)``; a word is a product of atoms, ``"P"`` for the
    exchange, ``"Q"`` for the twist and ``(site, a, b)`` for ``F^{ab}`` on
    that site, and the empty word is the identity.  ``pairs`` is None for
    a single identity with ``sides == ((lhs, rhs),)``; otherwise the
    identity holds at every index pair and ``sides`` has one
    ``(lhs, rhs)`` per pair, in the same order.
    """
    n = spec.N
    one = Fraction(1)
    theta0 = Fraction(spec.theta0)
    pairs = tuple(product(range(1, n + 1), repeat=2))
    return (
        ("exchange square", None,
         (([(one, ("P", "P"))], [(one, ())]),)),
        ("twist square", None,
         (([(one, ("Q", "Q"))], [(Fraction(n), ("Q",))]),)),
        ("exchange twist product", None,
         (([(one, ("P", "Q"))], [(theta0, ("Q",))]),)),
        ("twist exchange product", None,
         (([(one, ("Q", "P"))], [(theta0, ("Q",))]),)),
        # P - Q = 1/2 sum_ab F_1^{ab} F_2^{ba}
        ("pair difference", None,
         (([(one, ("P",)), (-one, ("Q",))],
           [(Fraction(1, 2), ((1, a, b), (2, b, a))) for a, b in pairs]),)),
        # the exchange carries F from site 1 to site 2; the twist flips
        # its sign on the way
        ("exchange swap", pairs,
         tuple(([(one, ("P", (1, a, b)))], [(one, ((2, a, b), "P"))])
               for a, b in pairs)),
        ("twist swap", pairs,
         tuple(([(one, ("Q", (1, a, b)))], [(-one, ("Q", (2, a, b)))])
               for a, b in pairs)),
    )


def _engine_atom(spec: AlgebraSpec, space: OpSpace, atom: Atom) -> Operator:
    if atom == "P":
        return permutation_op(spec, space, 1, 2)
    if atom == "Q":
        return twist_op(spec, space, 1, 2)
    site, a, b = atom
    return generator_op(spec, space, site, a, b)


def _dense_atom(spec: AlgebraSpec, atom: Atom) -> Matrix:
    """The atoms rebuilt as N^2 x N^2 matrices, independently of the engine."""
    n = spec.N
    if atom in ("P", "Q"):
        # P = sum_ab E^{ab} x E^{ba},
        # Q = sum_ab th_a th_b E^{ab} x E^{bar a, bar b}
        out = _dense_zero(n * n)
        for a, b in product(range(1, n + 1), repeat=2):
            c, d, sign = (b, a, 1) if atom == "P" else (
                conjugate_index(spec, a), conjugate_index(spec, b),
                theta(spec, a) * theta(spec, b))
            out = _dense_add(out, _dense_kron(_dense_unit(n, a, b),
                                              _dense_unit(n, c, d)),
                             Fraction(sign))
        return out
    site, a, b = atom
    f = generator_matrix(spec, a, b)
    return _dense_kron(f, _dense_eye(n)) if site == 1 \
        else _dense_kron(_dense_eye(n), f)


def _engine_defect(space: OpSpace, lhs: Side, rhs: Side,
                   atom: Callable[[Atom], Operator]) -> Operator:
    """``lhs - rhs`` of one identity, in one combination."""
    return operator_combination(space, (
        (sign * c,
         reduce(mul, map(atom, word)) if word else Operator.identity(space))
        for sign, side in ((1, lhs), (-1, rhs)) for c, word in side))


def _dense_side(n: int, side: Side, atom: Callable[[Atom], Matrix]) -> Matrix:
    out = _dense_zero(n * n)
    for c, word in side:
        m = reduce(_dense_mul, map(atom, word)) if word else _dense_eye(n * n)
        out = _dense_add(out, m, c)
    return out


def check_pq_identities(spec: AlgebraSpec) -> Tuple[CheckResult, ...]:
    """Exchange and twist identities on two sites, proved twice.

    Both routes read the one statement in ``_spin_identities``.  The engine
    route compares canonical operators; the dense route rebuilds every atom
    as an explicit N^2 x N^2 rational matrix with independent code and
    compares entrywise.  The bridge check ties the two atom maps together.
    """
    n = spec.N
    space = OpSpace(n, 2)
    params = _algebra_params(spec)
    engine = lru_cache(maxsize=None)(partial(_engine_atom, spec, space))
    dense = lru_cache(maxsize=None)(partial(_dense_atom, spec))

    def bridge_body():
        tags = {"P": "exchange", "Q": "twist"}
        for atom in ("P", "Q") + tuple((1, a, b) for a in range(1, n + 1)
                                       for b in range(1, n + 1)):
            got = _operator_to_dense(spec, engine(atom))
            if got != dense(atom):
                label = (f"engine {tags[atom]} vs dense {tags[atom]}:"
                         if atom in tags else
                         f"engine generator ({atom[1]},{atom[2]}) vs dense:")
                return "fail", _dense_diff_witness(label, got, dense(atom)), ()
        return "pass", (), (f"{2 + n * n} operators agree with the dense "
                            f"rebuild",)

    def identity_body(pairs, sides):
        def body():
            for ab, (lhs, rhs) in zip(pairs or (None,), sides):
                def label(route: str) -> str:
                    return (f"{route}-route residue:" if ab is None else
                            f"{route} residue at pair ({ab[0]},{ab[1]}):")
                diff = _engine_defect(space, lhs, rhs, engine)
                if not diff.is_zero:
                    return "fail", _witness_terms(diff, label("engine")), ()
                dl = _dense_side(n, lhs, dense)
                dr = _dense_side(n, rhs, dense)
                if dl != dr:
                    return ("fail",
                            _dense_diff_witness(label("dense"), dl, dr), ())
            if pairs is None:
                return "pass", (), ("engine and dense routes agree",)
            return "pass", (), (f"{len(pairs)} generator pairs verified on "
                                f"both routes",)
        return body

    results = [_run("spin-dense-bridge", params, bridge_body)]
    for name, pairs, sides in _spin_identities(spec):
        results.append(_run("spin-" + name.replace(" ", "-"), params,
                            identity_body(pairs, sides)))
    return tuple(results)


# ---------------------------------------------------------------------------
# the evaluation oracle


# how many of the d^2 level-relation pairs and d^3 cubic triples one oracle
# run samples
ORACLE_PAIRS = 6
ORACLE_TRIPLES = 3


class _OracleTarget(Value):
    __slots__ = ("label", "defect", "symbolically_zero")

    def __init__(self, label: str, defect: VectorMap,
                 symbolically_zero: bool):
        # defect: compositional application, never products
        self._freeze(label, defect, symbolically_zero)


# an oracle target is a signed list of words over named operators: "H",
# "S" (the Serre scale), (level, label) for a generator, or a spin atom
Name = Union[str, Tuple[int, Pair], Atom]
Word = Tuple[Name, ...]         # leading operator first: word[-1] acts first
Words = List[Tuple[Fraction, Word]]


def _op(name: Name) -> Words:
    return [(Fraction(1), (name,))]


def _bracket(a: Words, b: Words) -> Words:
    """``[a, b] = ab - ba`` on signed word lists."""
    return ([(c * d, u + v) for c, u in a for d, v in b]
            + [(-c * d, v + u) for c, u in a for d, v in b])


def _word_map(space: OpSpace, ops: Mapping[Name, Operator],
              words: Words) -> VectorMap:
    """``vec -> sum c * w(vec)`` over signed words of named operators.

    Equal words are merged first.  Within one call, every distinct suffix
    (the operators applied first) is applied once, and a leading operator
    shared by several words is applied once, to the combination of their
    rests.  Every step is ``apply_operator``; no product is ever formed.
    """
    merged: Dict[Word, Fraction] = {}
    for c, word in words:
        merged[word] = merged.get(word, 0) + c
    groups: Dict[Optional[Name], Words] = {}
    for word, c in merged.items():
        if c:
            groups.setdefault(word[0] if word else None, []).append(
                (c, word[1:]))
    npos = space.sites

    def defect(vec: SpinVector) -> SpinVector:
        memo: Dict[Word, SpinVector] = {(): vec}

        def suffix(word: Word) -> SpinVector:
            out = memo.get(word)
            if out is None:
                out = memo[word] = apply_operator(ops[word[0]],
                                                  suffix(word[1:]))
            return out

        parts = []
        for lead, rests in groups.items():
            rest = vector_combination(npos, [(c, suffix(w)) for c, w in rests])
            parts.append((1, rest if lead is None
                          else apply_operator(ops[lead], rest)))
        return vector_combination(npos, parts)

    return defect


def _conservation_targets(ctx: _ModelContext) -> List[_OracleTarget]:
    ham = ctx.hamiltonian()
    out: List[_OracleTarget] = []
    for level in (0, 1):
        for ab in basis(ctx.ms.algebra):
            gen = (level, ab)
            out.append(_OracleTarget(
                f"conservation level {level} generator {ab}",
                _word_map(ctx.ms.space,
                          {"H": ham, gen: ctx.generator(level, ab)},
                          _bracket(_op("H"), _op(gen))),
                ctx.holds("ham", level) or ctx.zero_at("ham", level, ab)))
    return out


def _grid_ops(ctx: _ModelContext) -> Dict[Name, Operator]:
    """The generators of both levels, named ``(level, label)``."""
    return {(level, ab): op for level in (0, 1)
            for ab, op in ctx.grid(level).items()}


def _level_relation_targets(ctx: _ModelContext, rng: Random
                            ) -> List[_OracleTarget]:
    ms = ctx.ms
    labels = basis(ms.algebra)
    ops = _grid_ops(ctx)
    pairs = [(ab, cd) for ab in labels for cd in labels]
    if len(pairs) > ORACLE_PAIRS:
        pairs = rng.sample(pairs, ORACLE_PAIRS)
    out: List[_OracleTarget] = []
    for ab, cd in pairs:
        row = structure_row(ms.algebra, ab, cd)
        words = _bracket(_op((0, ab)), _op((1, cd))) + [
            (-c, ((1, ef),)) for ef, c in row.items()]
        out.append(_OracleTarget(f"level relation {ab} x {cd}",
                                 _word_map(ms.space, ops, words),
                                 ctx.holds("residual", 1)
                                 or ctx.residual(1, ab, cd).is_zero))
    return out


def _serre_targets(ctx: _ModelContext, rng: Random
                   ) -> List[_OracleTarget]:
    """Cubic relations at sampled triples.

    The flag comes from the table route the Serre check proves with, read
    from the orbit's zero test where that check decided it
    (``_ModelContext.serre_zero``); the defect is the independent
    nested-commutator route, applied to vectors:
    the cyclic sum of ``[J1^x, [J0^y, J1^z]]`` less the Serre scale times
    the weighted symmetrized triples of level-0 generators (none at scale 0).
    """
    ms = ctx.ms
    ops = _grid_ops(ctx)
    ops["S"] = Operator.from_coefficient(ms.space, ctx.serre_scale())
    triples = list(product(basis(ms.algebra), repeat=3))
    if len(triples) > ORACLE_TRIPLES:
        triples = rng.sample(triples, ORACLE_TRIPLES)
    out: List[_OracleTarget] = []
    for ab, cd, ef in triples:
        words: Words = []
        for x, y, z in _rotations(ab, cd, ef):
            words += _bracket(_op((1, x)), _bracket(_op((0, y)), _op((1, z))))
        for key, c in ctx.serre_weight(ab, cd, ef).items():
            words += [(-c / 24, ("S",) + tuple((0, label) for label in perm))
                      for perm in permutations(key)]
        out.append(_OracleTarget(f"cubic relation {ab}, {cd}, {ef}",
                                 _word_map(ms.space, ops, words),
                                 ctx.serre_zero(ab, cd, ef)))
    return out


def _spin_targets(spec: AlgebraSpec) -> List[_OracleTarget]:
    """The two-site identities of ``_spin_identities`` as vector maps.

    A per-pair identity becomes one target, ``sum_k k * (lhs - rhs)`` over
    the basis labels with weights 1..d: the basis generators are linearly
    independent, so no relation among the ``F^{ab}`` (``sum_ab F^{ab} = 0``
    for so(N)) can cancel the combination.  The twist-exchange product is
    left out, so every seeded draw keeps its six targets.
    """
    space = OpSpace(spec.N, 2)
    weight = {ab: Fraction(k) for k, ab in enumerate(basis(spec), 1)}
    engine = lru_cache(maxsize=None)(partial(_engine_atom, spec, space))
    out: List[_OracleTarget] = []
    for name, pairs, sides in _spin_identities(spec):
        if name == "twist exchange product":
            continue
        weighted = [(Fraction(1), sides[0])] if pairs is None else [
            (weight[ab], side) for ab, side in zip(pairs, sides)
            if ab in weight]
        words = [(w * sign * c, word)
                 for w, (lhs, rhs) in weighted
                 for sign, side in ((1, lhs), (-1, rhs))
                 for c, word in side]
        atoms = {atom: engine(atom) for _, word in words for atom in word}
        out.append(_OracleTarget(name, _word_map(space, atoms, words), True))
    return out


def _random_amplitude(rng: Random, npos: int) -> RationalFunction:
    """A polynomial of 1 to 3 random monomials, built by the constructor
    alone, so that no arithmetic under test forms the oracle's inputs."""
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, 3)):
        coeff = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))
        # a power of each position, none of the coupling or trap
        expo = tuple(rng.randint(0, 2) for _ in range(npos)) + (0, 0)
        terms[expo] = terms.get(expo, Fraction(0)) + coeff
    return RationalFunction(npos, terms)


def _random_vector(rng: Random, space: OpSpace) -> SpinVector:
    out: SpinVector = {}
    for _ in range(rng.randint(1, 2)):
        ket = tuple(rng.randint(1, space.spin_dim)
                    for _ in range(space.sites))
        out[ket] = _random_amplitude(rng, space.sites)
    return out


def _random_point(rng: Random, ms: ModelSpec) -> List[Fraction]:
    npos = ms.sites
    values = rng.sample(range(-12, 13), npos)
    xs = [Fraction(v) + Fraction(1, 2 + i) for i, v in enumerate(values)]
    lam = ms.resolved_lam()
    omega = ms.resolved_omega()
    point = list(xs)
    point.append(lam if lam is not None
                 else Fraction(rng.randint(1, 9), rng.randint(1, 5)))
    point.append(omega if omega is not None
                 else Fraction(rng.randint(1, 9), rng.randint(1, 5)))
    return point


def oracle_crosscheck(ms: ModelSpec, trials: int = 20, seed: int = 1,
                      context: Optional[_ModelContext] = None) -> CheckResult:
    """Replay symbolically proven identities through independent evaluation.

    Every target identity is applied compositionally (operator application
    to random polynomial spin functions, commutators expanded as nested
    applications, never symbolic products).  The verdict is whether any
    defect amplitude is nonzero; a random rational point with pairwise
    distinct coordinates only names the witness.  Any nonzero defect for
    an identity the symbolic engine proved, even one that vanishes at the
    drawn point, is an engine bug and is reported with an alarm note,
    never downgraded to an ordinary failure.  Which identities count as
    proved is read from the same context objects the checks proved them
    with.
    """
    if trials < 1:
        raise ValueError("oracle needs at least one trial")
    params = _model_params(ms) + (("trials", str(trials)),
                                  ("seed", str(seed)))
    ctx = _context(ms, context)

    def body():
        rng = Random(seed)
        space = ms.space
        families: List[Tuple[str, List[_OracleTarget]]] = [
            ("conservation", _conservation_targets(ctx)),
            ("level-relations", _level_relation_targets(ctx, rng)),
            ("cubic-relations", _serre_targets(ctx, rng)),
            ("spin-identities", _spin_targets(ms.algebra)),
        ]
        spin_space = OpSpace(ms.algebra.N, 2)
        spin_ms = ms.replace(sites=2) if ms.sites != 2 else ms

        live: List[Tuple[str, List[_OracleTarget]]] = []
        skipped_labels: List[str] = []
        for fam, targets in families:
            zero_targets = [t for t in targets if t.symbolically_zero]
            skipped_labels.extend(t.label for t in targets
                                  if not t.symbolically_zero)
            if zero_targets:
                live.append((fam, zero_targets))

        if not live:
            return ("skipped", (),
                    ("no symbolically-zero identities to replay at this "
                     "coupling",))

        evaluations = 0
        for trial in range(trials):
            for fam, targets in live:
                target = targets[rng.randrange(len(targets))]
                if fam == "spin-identities":
                    vec = _random_vector(rng, spin_space)
                    point = _random_point(rng, spin_ms)
                else:
                    vec = _random_vector(rng, space)
                    point = _random_point(rng, ms)
                defect = target.defect(vec)
                residue = evaluate_vector(defect, point)
                evaluations += 1
                if any(defect.values()):
                    # a defect vanishing at the point names its amplitude
                    ket, value = min(residue.items()) if residue else min(
                        (k, amp.render()) for k, amp in defect.items() if amp)
                    raise OracleDisagreementError(
                        f"trial {trial} on '{target.label}': residue "
                        f"{value} on ket {ket} at point "
                        f"{[str(c) for c in point]}")
        notes = [f"{evaluations} evaluations over {len(live)} identity "
                 f"families, all exactly zero",
                 f"families: {', '.join(fam for fam, _ in live)}"]
        if skipped_labels:
            notes.append(f"not symbolically zero, excluded: "
                         f"{len(skipped_labels)} targets")
        return "pass", (), tuple(notes)

    return _run("oracle-crosscheck", params, body)


# ---------------------------------------------------------------------------
# model suite driver


MODEL_CHECK_NAMES: Tuple[str, ...] = (
    "conservation", "level-relations", "serre", "oracle", "solve-lambda")


def run_model_suite(ms: ModelSpec, checks: Optional[Sequence[str]] = None,
                    seed: int = 1, trials: int = 20) -> CheckReport:
    """Default model suite: conservation, level relations, the Serre check
    for the model family, and the evaluation oracle.

    The checks share one proof context, so each grid, Hamiltonian and
    bracket is built once per call.
    """
    selected = tuple(checks) if checks else (
        "conservation", "level-relations", "serre", "oracle")
    unknown = [c for c in selected if c not in MODEL_CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; "
                         f"available: {list(MODEL_CHECK_NAMES)}")

    ctx = _ModelContext(ms)
    results: List[CheckResult] = []
    if "conservation" in selected:
        results.extend(check_conservation(ms, ctx))
    if "level-relations" in selected:
        results.extend(check_level_relations(ms, ctx))
    if "serre" in selected:
        if ms.kind == "calogero":
            results.append(check_serre_halfloop(ms, ctx))
        else:
            results.append(check_serre_yangian(ms, ctx))
    if "solve-lambda" in selected:
        results.append(check_lambda_solver(ms, ctx))
    if "oracle" in selected:
        results.append(oracle_crosscheck(ms, trials=trials, seed=seed,
                                         context=ctx))
    return CheckReport.build(results)
