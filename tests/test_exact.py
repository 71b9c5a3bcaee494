"""Exact rational-function layer: canonical forms, arithmetic, evaluation."""

import ast
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinsym
from spinsym import exact
from spinsym.errors import (ExponentOverflowError, PoleEvaluationError,
                            ShapeMismatchError)
from spinsym.exact import (MAX_EXPONENT, LiftTable, RationalFunction,
                           lam_slot, nvars, om_slot, rf_sum)
from spinsym.operators import Operator, OpSpace

F = Fraction


def x(npos, j):
    return RationalFunction.position(npos, j)


def inv(npos, j, k, power=1):
    return RationalFunction.inverse_difference(npos, j, k, power)


def const(npos, value):
    return RationalFunction.const(npos, value)


class TestCanonicalization:
    def test_difference_cancels_against_numerator(self):
        # (x1 - x2) * 1/(x1 - x2) == 1
        num = x(2, 1) - x(2, 2)
        assert num * inv(2, 1, 2) == const(2, 1)

    def test_square_cancels_once(self):
        num = x(2, 1) - x(2, 2)
        assert num * inv(2, 1, 2, 2) == inv(2, 1, 2)

    def test_swapped_pair_absorbs_sign(self):
        # 1/(x2 - x1) = -1/(x1 - x2)
        assert inv(2, 2, 1) == -inv(2, 1, 2)
        assert inv(2, 2, 1) + inv(2, 1, 2) == RationalFunction.zero(2)

    def test_zero_numerator_clears_denominator(self):
        z = const(2, 0) * inv(2, 1, 2, 3)
        assert z.is_zero
        assert z == RationalFunction.zero(2)
        assert z.den == {}

    def test_content_is_stripped(self):
        half_x = const(2, F(1, 2)) * x(2, 1)
        assert half_x * 2 == x(2, 1)
        assert half_x + half_x == x(2, 1)
        assert const(2, F(2, 3)) * F(3, 2) == const(2, 1)

    def test_equal_pair_rejected(self):
        with pytest.raises(ValueError):
            inv(2, 1, 1)

    def test_render_is_canonical(self):
        lhs = (x(2, 1) + x(2, 2)) * inv(2, 1, 2)
        rhs = (x(2, 2) + x(2, 1)) * inv(2, 2, 1) * const(2, -1)
        assert lhs.render() == rhs.render()
        assert lhs.render() == "(x1 + x2) / ((x1-x2))"

    def test_zero_coefficients_stripped_at_the_boundary(self):
        # found by the ring-axioms property: a stored 0-coefficient monomial
        # broke associativity because equality is dict equality
        mono = (2, 0, 0, 2)  # x1^2 * om^2
        junk = RationalFunction(2, {mono: F(0)})
        assert junk.is_zero
        assert junk == RationalFunction.zero(2)
        a = RationalFunction(2, {mono: F(2)})
        b = RationalFunction(2, {mono: F(-2)})
        assert (a + b) + junk == a + (b + junk)
        mixed = RationalFunction(2, {mono: F(0), (0, 0, 0, 0): F(3)})
        assert mixed == const(2, 3)
        direct = RationalFunction(2, {mono: F(0)}, {(1, 2): 1})
        assert direct == RationalFunction.zero(2)


class TestArithmetic:
    def test_partial_fraction_identity(self):
        # hand identity: 1/((x1-x2)(x2-x3)) + 1/((x2-x3)(x3-x1))
        #              + 1/((x3-x1)(x1-x2)) == 0
        total = (inv(3, 1, 2) * inv(3, 2, 3)
                 + inv(3, 2, 3) * inv(3, 3, 1)
                 + inv(3, 3, 1) * inv(3, 1, 2))
        assert total.is_zero

    def test_scalar_multiplication(self):
        r = inv(2, 1, 2)
        assert r * F(2, 3) == const(2, F(2, 3)) * r
        assert F(2, 3) * r == r * F(2, 3)

    @pytest.mark.parametrize("make", [
        lambda: const(2, 0.1),
        lambda: const(2, True),
        lambda: const(2, "1/3"),
        lambda: inv(2, 1, 2) * 0.1,
        lambda: 0.1 * inv(2, 1, 2),
        lambda: inv(2, 1, 2) * "1/3",
        lambda: inv(2, 1, 2) + 1,
        lambda: 1 - inv(2, 1, 2),
        lambda: Operator.position_op(OpSpace(2, 2), 1).scaled(0.1),
    ], ids=["const-float", "const-bool", "const-str", "mul-float",
            "rmul-float", "mul-str", "add-int", "rsub-int", "scaled-float"])
    def test_inexact_inputs_rejected(self, make):
        # only an int or a Fraction enters the exact layer as a scalar: a
        # float would carry its binary expansion into every coefficient
        with pytest.raises(TypeError):
            make()

    def test_coupling_and_trap_slots(self):
        lam = RationalFunction.coupling(2)
        om = RationalFunction.trap(2)
        assert lam != om
        assert lam.render() == "(lam)"
        assert om.render() == "(om)"
        assert lam_slot(2) == 2 and om_slot(2) == 3 and nvars(2) == 4

    def test_rf_sum_matches_repeated_add(self):
        parts = [inv(3, 1, 2), x(3, 3) * inv(3, 2, 3), const(3, F(1, 7)),
                 -inv(3, 1, 2)]
        acc = RationalFunction.zero(3)
        for p in parts:
            acc = acc + p
        assert rf_sum(3, parts) == acc

    def test_mismatched_site_count_rejected(self):
        with pytest.raises(ShapeMismatchError):
            x(2, 1) + x(3, 1)


class TestEvaluation:
    POINT = (F(5), F(2), F(1, 3), F(7))  # x1, x2, lam, om

    def test_exact_value(self):
        r = (x(2, 1) + x(2, 2)) * inv(2, 1, 2) * RationalFunction.coupling(2)
        # (5+2)/(5-2) * 1/3 = 7/9
        assert r.evaluate(self.POINT) == F(7, 9)

    def test_pole_detected(self):
        with pytest.raises(PoleEvaluationError):
            inv(2, 1, 2).evaluate((F(4), F(4), F(0), F(0)))

    def test_point_length_checked(self):
        with pytest.raises(ShapeMismatchError):
            x(2, 1).evaluate((F(1), F(2)))

    def test_substitute_coupling(self):
        r = RationalFunction.coupling(2) * inv(2, 1, 2)
        bound = r.substitute({lam_slot(2): F(1, 3)})
        assert bound == inv(2, 1, 2) * F(1, 3)

    def test_substitute_rejects_position_slots(self):
        # positions are bound only by evaluate, so no binding meets a pole
        for slot in (0, 1):
            with pytest.raises(ValueError, match="not a parameter slot"):
                inv(2, 1, 2).substitute({slot: F(1)})

    def test_derivative_of_inverse_difference(self):
        # d/dx1 (x1-x2)^-1 = -(x1-x2)^-2
        assert inv(2, 1, 2).derivative(1) == -inv(2, 1, 2, 2)
        assert inv(2, 1, 2).derivative(2) == inv(2, 1, 2, 2)
        assert inv(2, 1, 2).derivative(1) + inv(2, 1, 2).derivative(2) \
            == RationalFunction.zero(2)


class TestSplit:
    # (3 x1^2 - 6 x1 x2 + 9 lam) / (4 (x1-x2)^2 (x2-x3)): content 3, an
    # integer denominator 4 and a difference profile
    C = RationalFunction(3, {(2, 0, 0, 0, 0): 3, (1, 1, 0, 0, 0): -6,
                             (0, 0, 0, 1, 0): 9},
                         {(1, 2): 2, (2, 3): 1}) * F(1, 4)

    @pytest.mark.parametrize("r", [C, -C, C * F(3, 2), x(2, 1), const(2, -5),
                                   inv(2, 2, 1, 3)])
    def test_scalar_times_primitive_is_input(self, r):
        q, p = r.split()
        assert q * p == r
        # a primitive is its own representative
        assert p.split() == (1, p)

    def test_primitive_is_normalized(self):
        q, p = self.C.split()
        assert q == F(3, 4)
        assert p.den == self.C.den
        coeffs = [c for _, c in p.terms()]
        assert all(c.denominator == 1 for c in coeffs)
        assert gcd(*(c.numerator for c in coeffs)) == 1

    def test_rational_multiples_share_one_primitive(self):
        q, p = self.C.split()
        for factor in (F(-1), F(3, 2), F(-2, 7)):
            fq, fp = (self.C * factor).split()
            assert fp == p
            assert hash(fp) == hash(p)
            assert fq == factor * q

    def test_equal_values_hash_equal(self):
        # the same value built by two routes, and a dict keyed by value
        built = (x(2, 1) - x(2, 2)) * inv(2, 1, 2, 2)
        assert built == inv(2, 1, 2)
        assert hash(built) == hash(inv(2, 1, 2))
        assert {built: "one"}[inv(2, 1, 2)] == "one"
        assert hash(const(2, F(1, 2)) * 2) == hash(const(2, 1))

    def test_zero(self):
        zero = RationalFunction.zero(3)
        assert zero.split() == (0, zero)
        assert hash(self.C - self.C) == hash(zero)


# strategy: small rational functions over two positions
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def rationals(draw, npos=2):
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 2)] * nvars(npos)), coeffs),
        min_size=0, max_size=3))
    num = {}
    for expo, c in terms:
        num[expo] = num.get(expo, F(0)) + c
    power = draw(st.integers(0, 2))
    rf = RationalFunction(npos, num)
    if power:
        rf = rf * RationalFunction.inverse_difference(npos, 1, 2, power)
    return rf


@settings(max_examples=60, deadline=None)
@given(a=rationals(), b=rationals(), c=rationals())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == RationalFunction.zero(2)
    assert a + RationalFunction.zero(2) == a
    assert a * RationalFunction.const(2, 1) == a


@settings(max_examples=60, deadline=None)
@given(a=rationals(), b=rationals())
def test_evaluation_is_a_homomorphism(a, b):
    point = (F(9), F(4), F(2, 5), F(3))
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
    assert (-a).evaluate(point) == -a.evaluate(point)


@settings(max_examples=60, deadline=None)
@given(a=rationals())
def test_canonical_form_is_stable(a):
    # rebuilding from the stored pieces must reproduce the object exactly
    rebuilt = RationalFunction(a.npos, dict(a.terms()), dict(a.den))
    assert rebuilt == a
    assert rebuilt.render() == a.render()


# differential check of the packed-key kernel against a plain reference:
# polynomials as dicts from exponent tuples to Fractions
PAIRS3 = ((1, 2), (1, 3), (2, 3))


def ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(i + j for i, j in zip(ma, mb))
            out[mono] = out.get(mono, F(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def ref_add(a, b):
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, F(0)) + c
    return {m: c for m, c in out.items() if c}


def ref_lift(rf, profile):
    """Numerator of `rf` written over `profile`, which its own divides."""
    num = dict(rf.terms())
    for (j, k), e in profile.items():
        gap = e - rf.den.get((j, k), 0)
        assert gap >= 0
        diff = {tuple(int(s == j - 1) for s in range(nvars(rf.npos))): F(1),
                tuple(int(s == k - 1) for s in range(nvars(rf.npos))): F(-1)}
        for _ in range(gap):
            num = ref_mul(num, diff)
    return num


def ref_diff(p, j):
    """d/dx_j of a reference polynomial."""
    out = {}
    for mono, c in p.items():
        if mono[j - 1]:
            lower = mono[:j - 1] + (mono[j - 1] - 1,) + mono[j:]
            out[lower] = c * mono[j - 1]
    return out


def quotient_rule_holds(rf, d, j):
    """d == d/dx_j rf, checked by the quotient rule without division.

    With rf = N / P and R the profile of P with each factor containing x_j
    raised by one, d/dx_j rf = (N' P - N P') / P**2.  So the numerator of
    `d` lifted over R, times P**2, must equal (N' P - N P') times R.
    """
    one = RationalFunction.const(rf.npos, 1)
    raised = {f: e + (j in f) for f, e in rf.den.items()}
    num, p = dict(rf.terms()), ref_lift(one, rf.den)
    top = ref_add(ref_mul(ref_diff(num, j), p),
                  {m: -c for m, c in ref_mul(num, ref_diff(p, j)).items()})
    return (ref_mul(ref_lift(d, raised), ref_mul(p, p))
            == ref_mul(top, ref_lift(one, raised)))


def piecewise_derivative(rf, j):
    """d/dx_j (N / P) as one rf_sum of the pieces N' / P and, for each
    factor f = x_a - x_b of P that contains x_j, -e_f (df/dx_j) N / (P f)."""
    pieces = [RationalFunction(rf.npos, ref_diff(dict(rf.terms()), j),
                               dict(rf.den))]
    for (a, b), e in rf.den.items():
        if j in (a, b):
            den = dict(rf.den)
            den[(a, b)] = e + 1
            sign = e if b == j else -e
            pieces.append(RationalFunction(
                rf.npos, {m: c * sign for m, c in rf.terms()}, den))
    return rf_sum(rf.npos, pieces)


@st.composite
def rationals3(draw):
    """Rational functions over three positions, several profiles."""
    npos = 3
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * nvars(npos)), coeffs, max_size=4))
    den = draw(st.dictionaries(st.sampled_from(PAIRS3), st.integers(0, 2)))
    return RationalFunction(npos, terms, den)


@settings(max_examples=80, deadline=None)
@given(a=rationals3(), b=rationals3(), c=rationals3())
def test_kernel_matches_fraction_reference(a, b, c):
    prod = a * b
    profile = dict(a.den)
    for f, e in b.den.items():
        profile[f] = profile.get(f, 0) + e
    assert ref_lift(prod, profile) == ref_mul(dict(a.terms()),
                                              dict(b.terms()))
    total = rf_sum(3, [a, b, c, a])
    lcm = {}
    for r in (a, b, c):
        for f, e in r.den.items():
            lcm[f] = max(lcm.get(f, 0), e)
    want = {}
    for r in (a, b, c, a):
        want = ref_add(want, ref_lift(r, lcm))
    assert ref_lift(total, lcm) == want
    derivatives = [a.derivative(j) for j in (1, 2, 3)]
    for j, d in enumerate(derivatives, 1):
        assert quotient_rule_holds(a, d, j)
        assert d == piecewise_derivative(a, j)
    # results are canonical: rebuilding one from its public parts, which
    # strips content afresh, reproduces it field for field
    for r in (prod, total, *derivatives):
        assert RationalFunction(3, dict(r.terms()), dict(r.den)) == r


@st.composite
def lift_rows(draw):
    """Primitive representatives over three positions, one common
    denominator m > 1, and integer rows over the representatives: random
    rows, one-item rows, a row of zeros, a row that cancels to 0 (a
    representative and its copy with opposite scalars), a row whose sum
    loses the factor (x2-x3) (``test_lift_table_cancels_shared_factors``)
    and one row with Fraction scalars."""
    reps = [r.split()[1] for r in draw(st.lists(
        rationals3().filter(bool), min_size=1, max_size=5))]
    reps.append(reps[0])
    (qa, pa), (qb, pb) = ((inv(3, 1, 2) * inv(3, 2, 3)).split(),
                          (inv(3, 2, 3) * inv(3, 3, 1)).split())
    reps += [pa, pb]
    n = len(reps)
    scalars = st.integers(-4, 4).filter(bool)
    rows = draw(st.lists(st.dictionaries(
        st.integers(0, n - 1), scalars, min_size=2, max_size=n), max_size=4))
    rows += [{k: draw(scalars)} for k in range(n)]
    q = draw(scalars)
    rows += [{0: 0, n - 3: 0}, {0: q, n - 3: -q},
             {n - 2: q * qa.numerator, n - 1: q * qb.numerator},
             {k: Fraction(draw(scalars), draw(st.integers(1, 3)))
              for k in range(n)}]
    return reps, draw(st.integers(2, 6)), rows


@settings(max_examples=80, deadline=None)
@given(case=lift_rows())
def test_lift_table_matches_rf_sum(case):
    reps, m, rows = case
    got = LiftTable(3, reps, m).totals(dict(enumerate(rows)))
    kept = []
    for i, row in enumerate(rows):
        want = rf_sum(3, [reps[k] * Fraction(q, m)
                          for k, q in row.items() if q])
        if not want:
            assert i not in got, row
            continue
        kept.append(i)
        assert got[i] == want, row
        assert got[i].render() == want.render()
        assert hash(got[i]) == hash(want)
    # the rows' order, zero sums left out
    assert list(got) == kept


def test_lift_table_cancels_shared_factors():
    # 1/((x1-x2)(x2-x3)) + 1/((x2-x3)(x3-x1)) = -1/((x3-x1)(x1-x2)): the
    # shared factor (x2-x3) cancels, while (x1-x2) and (x1-x3), each
    # carried by one item only, stay
    a = inv(3, 1, 2) * inv(3, 2, 3)
    b = inv(3, 2, 3) * inv(3, 3, 1)
    (qa, pa), (qb, pb) = a.split(), b.split()
    (total,) = LiftTable(3, [pa, pb], 1).totals(
        {"row": {0: qa.numerator, 1: qb.numerator}}).values()
    assert total == -(inv(3, 3, 1) * inv(3, 1, 2))
    assert total.den == {(1, 2): 1, (1, 3): 1}


@contextmanager
def counted_tries():
    """Record the factor (j, k) of every divisibility try made inside."""
    made = []
    divide = exact.poly_divexact_diff

    def counted(a, vj, vk):
        made.append((vj + 1, vk + 1))
        return divide(a, vj, vk)

    exact.poly_divexact_diff = counted
    try:
        yield made
    finally:
        exact.poly_divexact_diff = divide


@settings(max_examples=60, deadline=None)
@given(a=rationals())
def test_two_site_derivative_tries_nothing(a):
    # every factor of a two-site profile contains both variables, so a
    # derivative raises it, and a raised factor never cancels
    with counted_tries() as made:
        for j in (1, 2):
            a.derivative(j)
    assert made == []


@settings(max_examples=60, deadline=None)
@given(a=rationals3())
def test_derivative_tries_no_factor_it_raised(a):
    with counted_tries() as made:
        a.derivative(1)
    assert set(made) <= {(2, 3)}


def test_derivative_sums_no_pieces(monkeypatch):
    def refuse(npos, items):
        raise AssertionError("rf_sum called")

    monkeypatch.setattr(exact, "rf_sum", refuse)
    r = RationalFunction(3, {(1, 1, 0, 1, 0): 3, (0, 2, 1, 0, 0): -1},
                         {(1, 2): 2, (1, 3): 1, (2, 3): 1})
    for j in (1, 2, 3):
        assert quotient_rule_holds(r, r.derivative(j), j)


class TestTrialDivision:
    """Which divisibility tries canonical form makes: a numerator with a
    nonzero coefficient sum (its value where every variable is 1) is tried
    against no factor, and a zero sum is no proof of divisibility."""

    def test_derivative_tries_only_the_factor_without_x1(self):
        r = RationalFunction(3, {(1, 1, 0, 0, 0): 1, (0, 0, 1, 1, 0): 2},
                             {(1, 2): 2, (1, 3): 1, (2, 3): 1})
        with counted_tries() as made:
            d = r.derivative(1)
        assert made == [(2, 3)]
        assert d == piecewise_derivative(r, 1)

    def test_nonzero_coefficient_sum_tries_nothing(self):
        # x1 + x2 is 2 where x1 = x2 = 1, so no x_j - x_k divides it
        with counted_tries() as made:
            r = (x(2, 1) + x(2, 2)) * inv(2, 1, 2)
            built = RationalFunction(2, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1},
                                     {(1, 2): 1})
        assert r == built
        assert made == []

    @pytest.mark.parametrize("site, text", [
        (3, "(x1 + 2*x3) / ((x1-x2))"), (2, "(x1 + 2*x2) / ((x1-x2))")])
    def test_division_stops_once_the_sum_is_nonzero(self, site, text):
        # (x1-x2)^2 (x1 + 2 x_s) / (x1-x2)^3: two divisions leave x1 + 2 x_s,
        # whose coefficient sum 3 rules out a third
        diff = x(3, 1) - x(3, 2)
        num = diff * diff * (x(3, 1) + 2 * x(3, site))
        with counted_tries() as made:
            r = RationalFunction(3, dict(num.terms()), {(1, 2): 3})
        assert r.render() == text
        assert made == [(1, 2), (1, 2)]

    @pytest.mark.parametrize("num, text, tries", [
        # free of x2, so the occupancy test rules it out first
        (x(3, 1) - x(3, 3), "(x1 - x3) / ((x1-x2))", []),
        (x(3, 1) + x(3, 2) - 2 * x(3, 3), "(x1 + x2 - 2*x3) / ((x1-x2))",
         [(1, 2)])])
    def test_zero_sum_without_the_factor_keeps_it(self, num, text, tries):
        # the numerator vanishes at all ones but x1 - x2 does not divide it
        with counted_tries() as made:
            r = num * inv(3, 1, 2)
        assert r.den == {(1, 2): 1}
        assert r.render() == text
        assert made == tries


def test_exponent_past_field_width_raises():
    top = RationalFunction.position(2, 1, MAX_EXPONENT)
    assert top.terms() == [((MAX_EXPONENT, 0, 0, 0), F(1))]
    # a neighbouring field stays untouched: no carry between variables
    assert (top * RationalFunction.coupling(2)).terms() == [
        ((MAX_EXPONENT, 0, 1, 0), F(1))]
    with pytest.raises(ExponentOverflowError):
        top * x(2, 1)
    with pytest.raises(ExponentOverflowError):
        (top + x(2, 2)) * (x(2, 1) + const(2, 1))
    with pytest.raises(ExponentOverflowError):
        RationalFunction.position(2, 1, MAX_EXPONENT + 1)
    with pytest.raises(ExponentOverflowError):
        RationalFunction(2, {(0, MAX_EXPONENT + 1, 0, 0): F(1)})


@settings(max_examples=60, deadline=None)
@given(a=rationals())
def test_substitution_agrees_with_evaluation(a):
    point = (F(9), F(4), F(2, 5), F(-3, 7))
    bound = a.substitute({lam_slot(2): point[2], om_slot(2): point[3]})
    assert bound.evaluate(point) == a.evaluate(point)
    assert bound.evaluate((F(9), F(4), F(0), F(0))) == a.evaluate(point)


@settings(max_examples=40, deadline=None)
@given(a=rationals3())
def test_scaling_by_one_returns_the_function(a):
    for one in (1, F(1)):
        assert a * one == a
        assert a.is_zero or a * one is a


@settings(max_examples=80, deadline=None)
@given(a=rationals3(), factor=coeffs)
def test_split_is_shared_by_rational_multiples(a, factor):
    q, p = a.split()
    assert q * p == a
    if a.is_zero or not factor:
        return
    fq, fp = (a * factor).split()
    assert fp == p
    assert hash(fp) == hash(p)
    assert fq == q * factor


# increasing maps of three positions into five sites
SITES5 = st.lists(st.integers(1, 5), min_size=3, max_size=3,
                  unique=True).map(lambda s: tuple(sorted(s)))


def embed_by_constructor(rf, npos, sites):
    """``rf`` rebuilt on ``npos`` positions through the public constructor,
    with position i moved to site ``sites[i-1]``."""
    m = rf.npos
    terms = {}
    for expo, c in rf.terms():
        moved = [0] * nvars(npos)
        for i, s in enumerate(sites):
            moved[s - 1] = expo[i]
        moved[lam_slot(npos)] = expo[lam_slot(m)]
        moved[om_slot(npos)] = expo[om_slot(m)]
        terms[tuple(moved)] = c
    den = {(sites[j - 1], sites[k - 1]): e for (j, k), e in rf.den.items()}
    return RationalFunction(npos, terms, den)


class TestEmbed:
    @settings(max_examples=60, deadline=None)
    @given(a=rationals3(), b=rationals3(), sites=SITES5)
    def test_ring_monomorphism(self, a, b, sites):
        def up(r):
            return r.embed(5, sites)

        assert up(a + b) == up(a) + up(b)
        assert up(a * b) == up(a) * up(b)
        assert up(a - b) == up(a) - up(b)
        assert up(a * F(-3, 2)) == up(a) * F(-3, 2)

    @settings(max_examples=60, deadline=None)
    @given(a=rationals3(), sites=SITES5, j=st.integers(1, 3),
           value=coeffs)
    def test_commutes_with_derivative_and_substitution(self, a, sites, j,
                                                       value):
        up = a.embed(5, sites)
        assert a.derivative(j).embed(5, sites) == up.derivative(sites[j - 1])
        for slot3, slot5 in ((lam_slot(3), lam_slot(5)),
                             (om_slot(3), om_slot(5))):
            assert (a.substitute({slot3: value}).embed(5, sites)
                    == up.substitute({slot5: value}))

    @settings(max_examples=60, deadline=None)
    @given(a=rationals3(), sites=SITES5)
    def test_result_is_canonical(self, a, sites):
        # the constructor canonicalizes; the embedding copies the fields
        up = a.embed(5, sites)
        rebuilt = embed_by_constructor(a, 5, sites)
        assert rebuilt == up
        assert rebuilt.render() == up.render()
        assert hash(rebuilt) == hash(up)

    def test_identity_map_returns_the_value(self):
        a = (x(3, 1) + RationalFunction.coupling(3)) * inv(3, 3, 2)
        assert a.embed(3, (1, 2, 3)) is a

    def test_moves_positions_parameters_and_profile(self):
        a = (x(2, 1) * RationalFunction.trap(2)
             + RationalFunction.coupling(2)) * inv(2, 1, 2, 2)
        assert a.embed(4, (2, 4)).render() == \
            "(x2*om + lam) / ((x2-x4)^2)"

    @pytest.mark.parametrize("npos, sites", [
        (4, (2, 1)), (4, (1, 1)), (4, (0, 2)), (4, (3, 5)), (4, (1,)),
        (4, (1, 2, 3)), (1, (1, 2))])
    def test_bad_site_map_raises(self, npos, sites):
        with pytest.raises(ValueError, match="not an increasing map"):
            inv(2, 1, 2).embed(npos, sites)


def test_packed_fields_stay_in_exact():
    # the packed numerator and denominator of a RationalFunction are read
    # only inside exact.py; everything else goes through its methods
    readers = []
    for path in sorted(Path(spinsym.__file__).parent.glob("*.py")):
        if path.name == "exact.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("num",
                                                                 "denom"):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []
