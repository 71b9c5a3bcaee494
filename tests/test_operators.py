"""Normal-form operator algebra: products, commutators, the word quotient."""

import ast
import re
from fractions import Fraction
from itertools import permutations, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinsym.operators
from spinsym.errors import ShapeMismatchError, TermBudgetError
from spinsym.exact import RationalFunction, lam_slot, om_slot
from spinsym.operators import (Operator, OpSpace, _multi_derivative,
                               anticommutator, apply_operator, commutator,
                               embed, evaluate_vector,
                               operator_combination, operator_sum,
                               term_ceiling, vector_combination, word_apply)

F = Fraction
SP = OpSpace(spin_dim=2, sites=2)
SP3 = OpSpace(spin_dim=3, sites=2)


def E(site, a, b, space=SP):
    return Operator.spin_unit(space, site, a, b)


def D(site, order=1, space=SP):
    return Operator.derivative_op(space, site, order)


def X(site, power=1, space=SP):
    return Operator.position_op(space, site, power)


class TestWordQuotient:
    def test_matrix_unit_product(self):
        assert E(1, 1, 2) * E(1, 2, 1) == E(1, 1, 1)
        assert E(1, 1, 2) * E(1, 1, 2) == Operator.zero(SP)

    def test_trace_relation(self):
        # the per-site unit resolution: E^{11} + E^{22} = 1
        assert E(1, 1, 1) + E(1, 2, 2) == Operator.identity(SP)

    def test_last_unit_expands(self):
        # E^{NN} is stored eliminated, never as a word atom
        top = E(1, 2, 2)
        for (_, word), _c in top.terms.items():
            assert (1, 2, 2) not in word

    def test_cross_site_commutation(self):
        assert E(1, 1, 2) * E(2, 2, 1) == E(2, 2, 1) * E(1, 1, 2)

    def test_word_equality_decides_operator_equality(self):
        lhs = E(1, 1, 1) * E(1, 1, 2) + E(1, 2, 2) * E(1, 1, 2)
        assert lhs == E(1, 1, 2)


class TestWeylAction:
    def test_derivative_past_position(self):
        # d x = x d + 1
        assert D(1) * X(1) == X(1) * D(1) + Operator.identity(SP)

    def test_derivative_of_other_site_commutes(self):
        assert D(1) * X(2) == X(2) * D(1)

    def test_second_derivative_leibniz(self):
        # d^2 x = x d^2 + 2 d
        assert D(1, 2) * X(1) == X(1) * D(1, 2) + D(1).scaled(2)

    def test_derivative_hits_rational_coefficient(self):
        inv = RationalFunction.inverse_difference(2, 1, 2)
        op = Operator.from_coefficient(SP, inv)
        inv_sq = RationalFunction.inverse_difference(2, 1, 2, 2)
        assert commutator(D(1), op) == Operator.from_coefficient(SP, -inv_sq)

    def test_mixed_spaces_rejected(self):
        other = OpSpace(spin_dim=2, sites=3)
        with pytest.raises(ShapeMismatchError):
            D(1) + Operator.derivative_op(other, 1)


class TestOnePassCommutator:
    def test_top_orders_cancel_lower_orders_survive(self):
        # [d^2, x^2] = 4 x d + 2: the d^2 x^2 orders cancel, two lower survive
        expected = (X(1) * D(1)).scaled(4) + Operator.identity(SP).scaled(2)
        assert commutator(D(1, 2), X(1, 2)) == expected

    def test_noncommuting_words_with_a_derivative(self):
        # E12 d x E21 - E21 x E12 d = E11 (x d + 1) - E22 x d
        a = E(1, 1, 2) * D(1)
        b = E(1, 2, 1) * X(1)
        expected = (E(1, 1, 1) - E(1, 2, 2)) * X(1) * D(1) + E(1, 1, 1)
        assert commutator(a, b) == expected
        assert commutator(a, b) == a * b - b * a

    def test_commuting_words_form_no_products(self, monkeypatch):
        # derivative-free operators whose words commute: every pair's whole
        # contribution is a cancelling top order, so nothing is multiplied
        a = X(1) * E(1, 1, 2)
        b = X(2) * E(2, 2, 1)
        calls = []
        original = RationalFunction.__mul__

        def counting(self, other):
            calls.append(other)
            return original(self, other)

        monkeypatch.setattr(RationalFunction, "__mul__", counting)
        assert commutator(a, b).is_zero
        assert calls == []


# (2 x1 + lam) / (3 (x1-x2)^2): an integer denominator and a profile
C = RationalFunction(2, {(1, 0, 0, 0): 2, (0, 0, 1, 0): 1},
                     {(1, 2): 2}) * F(1, 3)


def class_sum(space, parts, coeff=C):
    """Sum of ``scalar * coeff * op`` over ``(scalar, op)`` parts."""
    return operator_sum(space, [op.scaled(coeff * scalar)
                                for scalar, op in parts])


def cancelling_pair(space=SP):
    # [c (E12 + E21), 2c (E12 + E21)] = 0: the pairs (E12, E21) and
    # (E21, E12) put opposite scalars of the class c^2 on each key
    flip = [(F(1), E(1, 1, 2, space)), (F(1), E(1, 2, 1, space))]
    return (class_sum(space, flip),
            class_sum(space, [(2 * q, op) for q, op in flip]))


class TestCoefficientClasses:
    def test_class_scalars_cancel_on_a_key(self):
        a, b = cancelling_pair()
        assert commutator(a, b).is_zero
        assert (a * b - b * a).is_zero

    def test_one_product_per_class_pair(self, monkeypatch):
        # terms carrying rational multiples of one coefficient per class:
        # a holds the classes of C and of x1 C, b the class of C, so two
        # class pairs, whatever the number of term pairs
        x_c = C * RationalFunction.position(2, 1)
        a = (class_sum(SP, [(F(1), E(1, 1, 2)), (F(-3, 2), E(1, 2, 1)),
                            (F(2), E(2, 1, 2))])
             + E(2, 1, 1).scaled(x_c * F(5, 7)))
        b = class_sum(SP, [(F(-1), E(1, 2, 1)), (F(2, 3), E(2, 2, 1)),
                           (F(4), E(1, 1, 1))])
        expected = a * b - b * a
        calls = []
        original = RationalFunction.__mul__

        def counting(self, other):
            if isinstance(other, RationalFunction):
                calls.append(other)
            return original(self, other)

        monkeypatch.setattr(RationalFunction, "__mul__", counting)
        for _ in range(2):
            # the class table lives for one call, so a repeat forms the
            # same products again
            calls.clear()
            assert commutator(a, b) == expected
            assert len(calls) == 2


class TestBookkeeping:
    def test_render_zero(self):
        assert Operator.zero(SP).render() == "0"

    def test_render_deterministic(self):
        op = X(2) * D(1) + E(1, 1, 2).scaled(F(1, 3))
        same = E(1, 1, 2).scaled(F(1, 3)) + X(2) * D(1)
        assert op.render() == same.render()
        assert op.render() == ("(1/3) * 1 * E1[1,2]\n"
                               "(x2) * d1 * 1")

    def test_substitute_parameters(self):
        lam = RationalFunction.coupling(2)
        op = D(1).scaled(lam)
        assert op.substitute({lam_slot(2): F(1, 3)}) == D(1).scaled(F(1, 3))
        assert op.substitute({lam_slot(2): F(0)}).is_zero

    @pytest.mark.parametrize("slot", [0, 1, om_slot(2) + 1])
    def test_substitute_rejects_non_parameter_slots(self, slot):
        # positions stay symbolic, and nothing lies past the trap slot
        op = D(1).scaled(RationalFunction.coupling(2))
        with pytest.raises(ValueError):
            op.substitute({slot: F(1)})

    def test_operator_sum_matches_addition(self):
        parts = [D(1), X(1) * D(2), E(1, 2, 1), -D(1)]
        acc = Operator.zero(SP)
        for p in parts:
            acc = acc + p
        assert operator_sum(SP, parts) == acc

    def test_operator_combination_matches_scaled_sum(self):
        scalars = [F(3), F(-1, 2), F(1), F(2, 7)]
        parts = [D(1), X(1) * D(2), E(1, 2, 1), D(1) + X(2)]
        acc = Operator.zero(SP)
        for c, p in zip(scalars, parts):
            acc = acc + p.scaled(c)
        assert operator_combination(SP, zip(scalars, parts)).terms == acc.terms
        # a cancelling combination leaves no term
        assert operator_combination(SP, [(F(2), D(1)), (F(-1), D(1).scaled(2))]
                                    ).is_zero

    @staticmethod
    def over_three_terms():
        op = operator_sum(SP, [X(1, p) * D(1) for p in range(1, 4)])
        return op * (op + E(1, 1, 2) + E(2, 1, 2))

    def test_term_ceiling_enforced(self):
        with term_ceiling(3), pytest.raises(TermBudgetError):
            self.over_three_terms()

    def test_term_ceiling_survives_inner_error(self):
        with term_ceiling(3):
            with pytest.raises(KeyError), term_ceiling(1000):
                raise KeyError("inside the inner block")
            with pytest.raises(TermBudgetError):
                self.over_three_terms()
        assert self.over_three_terms().term_count > 3

    def test_term_ceiling_must_be_positive(self):
        with pytest.raises(ValueError):
            with term_ceiling(0):
                pass


class TestVectorRoute:
    def test_word_apply(self):
        # E1[1,2] maps |2,1> to |1,1> and kills |1,1>
        assert word_apply(((1, 1, 2),), (2, 1)) == (1, 1)
        assert word_apply(((1, 1, 2),), (1, 1)) is None

    def test_apply_matches_symbolic_product(self):
        one = RationalFunction.const(2, 1)
        vec = {(2, 1): one}
        out = apply_operator(E(1, 1, 2) * X(1), vec)
        x1 = RationalFunction.position(2, 1)
        assert out == {(1, 1): x1}

    @staticmethod
    def term_by_term(op, vec):
        """``sum coeff * d^gamma amp`` over every term and ket, one by one."""
        out = {}
        for (deriv, word), coeff in op.terms.items():
            for ket, amp in vec.items():
                target = word_apply(word, ket)
                if target is None:
                    continue
                value = amp
                for j, order in enumerate(deriv, start=1):
                    for _ in range(order):
                        value = value.derivative(j)
                prev = out.get(target, RationalFunction.zero(2))
                out[target] = prev + coeff * value
        return {ket: amp for ket, amp in out.items() if not amp.is_zero}

    @staticmethod
    def sample_vector():
        x1 = RationalFunction.position(2, 1)
        x2 = RationalFunction.position(2, 2)
        return {(1, 1): x1 * x1 * x2 + x2, (1, 2): x1 * x2 * x2,
                (2, 1): RationalFunction.const(2, F(3, 2)),
                (2, 2): x1 * x1 * x1 * x2 * x2}

    def test_coinciding_diagonal_words_are_summed_once(self):
        # 1, E1[1,1], E2[1,1] and E1[2,2] = 1 - E1[1,1] all fix |1,1>
        op = (X(1) * E(1, 1, 1) + X(2) * E(2, 1, 1) + E(1, 2, 2)
              + Operator.identity(SP).scaled(F(2)))
        vec = self.sample_vector()
        assert apply_operator(op, vec) == self.term_by_term(op, vec)
        # one entry for |1,1> -> |1,1>, whose coefficient is the sum
        row = [(deriv, target) for deriv, target, _ in op._rows[(1, 1)]]
        assert row == [((0, 0), (1, 1))]

    def test_cancelling_terms_leave_no_entry(self):
        # x1 E1[1,1] - x1 E2[1,1] vanishes on |1,1> and |2,2> only
        op = X(1) * E(1, 1, 1) - X(1) * E(2, 1, 1)
        vec = self.sample_vector()
        got = apply_operator(op, vec)
        assert got == self.term_by_term(op, vec)
        assert set(got) == {(1, 2), (2, 1)}
        assert op._rows[(1, 1)] == [] and op._rows[(2, 2)] == []

    def test_higher_derivative_orders(self):
        op = (X(1, 2) * D(1, 2) * E(1, 1, 2) + D(1) * D(2) * E(2, 2, 1)
              + X(2) * D(2, 3) + D(1, 2) * D(2, 2))
        vec = self.sample_vector()
        assert apply_operator(op, vec) == self.term_by_term(op, vec)

    def test_empty_vector(self):
        op = X(1) * D(1) * E(1, 1, 2)
        assert apply_operator(op, {}) == {}
        assert apply_operator(Operator.zero(SP), self.sample_vector()) == {}

    def test_operators_never_share_rows(self):
        # equal words with different coefficients, and an equal operator
        # built apart: each keeps its own rows, filled on first use
        a = X(1) * E(1, 1, 2)
        b = X(2) * E(1, 1, 2)
        twin = Operator(SP, dict(a.terms))
        vec = {(2, 1): RationalFunction.const(2, 1)}
        x1 = RationalFunction.position(2, 1)
        x2 = RationalFunction.position(2, 2)
        assert a._rows is None
        assert apply_operator(a, vec) == {(1, 1): x1}
        assert apply_operator(b, vec) == {(1, 1): x2}
        assert twin._rows is None
        assert apply_operator(twin, vec) == apply_operator(a, vec)
        assert len({id(a._rows), id(b._rows), id(twin._rows)}) == 3
        # a new operator, possibly at a freed address, starts without rows
        del b
        for power in (2, 3):
            c = X(2, power) * E(1, 1, 2)
            assert apply_operator(c, vec) == {
                (1, 1): RationalFunction.position(2, 2, power)}

    def test_vector_difference_and_evaluation(self):
        one = RationalFunction.const(2, 1)
        a = {(1, 2): one, (2, 1): one}
        b = {(2, 1): one}
        diff = vector_combination(2, [(F(1), a), (F(-1), b)])
        assert diff == {(1, 2): one}
        assert vector_combination(2, [(F(1), diff), (F(1), b)]) == a
        point = (F(3), F(5), F(0), F(0))
        assert evaluate_vector(diff, point) == {(1, 2): F(1)}


# pool of small one- and two-site operators for algebraic laws
@st.composite
def small_ops(draw):
    picks = draw(st.lists(st.sampled_from(range(8)), min_size=1, max_size=3))
    atoms = [
        E(1, 1, 2), E(1, 2, 1), E(2, 1, 1),
        D(1), D(2), X(1), X(2),
        Operator.from_coefficient(SP, RationalFunction.inverse_difference(2, 1, 2)),
    ]
    acc = Operator.identity(SP)
    for i in picks:
        acc = acc * atoms[i]
    scale = draw(st.sampled_from([F(1), F(-1), F(1, 2), F(3)]))
    return acc.scaled(scale)


# the small_ops pool with coefficients that carry the coupling and the
# trap strength, alone and over a denominator x1 - x2
@st.composite
def parameter_ops(draw):
    lam, om = RationalFunction.coupling(2), RationalFunction.trap(2)
    inv = RationalFunction.inverse_difference(2, 1, 2)
    coefficients = [om, lam, om * om + lam, lam * inv, om * inv * inv,
                    (om - RationalFunction.const(2, 2))
                    * RationalFunction.position(2, 1)]
    acc = draw(small_ops())
    for i in draw(st.lists(st.sampled_from(range(len(coefficients))),
                           min_size=1, max_size=2)):
        atom = Operator.from_coefficient(SP, coefficients[i])
        acc = atom * acc if draw(st.booleans()) else acc * atom
    return acc + draw(small_ops())


# pool of operator pairs in one space, with same-site words that do not
# commute, an E^{NN} atom that expands, a second derivative and spin_dim 3;
# half the operators are sums of rational multiples of one coefficient C,
# and some pairs cancel a class of C^2 on every key
@st.composite
def op_pairs(draw):
    space = draw(st.sampled_from([SP, SP3]))
    n = space.spin_dim
    atoms = [
        E(1, 1, 2, space), E(1, 2, 1, space), E(1, n, n, space),
        E(2, 1, n, space), D(1, 2, space), D(2, space=space),
        X(1, space=space), X(2, 2, space),
        Operator.from_coefficient(
            space, RationalFunction.inverse_difference(2, 1, 2)),
    ]

    def draw_op():
        if draw(st.booleans()):
            # a sum whose terms carry rational multiples of one coefficient
            parts = draw(st.lists(
                st.tuples(st.sampled_from([F(1), F(-1), F(3, 2), F(-2, 3)]),
                          st.sampled_from(range(len(atoms)))),
                min_size=1, max_size=4))
            return class_sum(space, [(q, atoms[i]) for q, i in parts])
        picks = draw(st.lists(st.sampled_from(range(len(atoms))),
                              min_size=1, max_size=3))
        acc = Operator.identity(space)
        for i in picks:
            acc = acc * atoms[i]
        return acc.scaled(draw(st.sampled_from([F(1), F(-1), F(1, 2)])))

    if draw(st.integers(0, 7)) == 0:
        return cancelling_pair(space)
    return draw_op(), draw_op()


@settings(max_examples=60, deadline=None)
@given(pair=op_pairs())
def test_commutator_matches_product_route(pair):
    a, b = pair
    assert commutator(a, b) == a * b - b * a


@settings(max_examples=40, deadline=None)
@given(a=small_ops(), b=small_ops())
def test_commutator_antisymmetry(a, b):
    assert commutator(a, b) == -commutator(b, a)
    assert commutator(a, a).is_zero


@settings(max_examples=25, deadline=None)
@given(a=small_ops(), b=small_ops(), c=small_ops())
def test_commutator_jacobi(a, b, c):
    total = (commutator(a, commutator(b, c))
             + commutator(b, commutator(c, a))
             + commutator(c, commutator(a, b)))
    assert total.is_zero


@settings(max_examples=25, deadline=None)
@given(a=small_ops(), b=small_ops(), c=small_ops())
def test_product_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert commutator(a * b, c) == a * commutator(b, c) + commutator(a, c) * b


@settings(max_examples=40, deadline=None)
@given(a=small_ops())
def test_vector_route_agrees_with_symbolic_route(a):
    # applying a*E1[1,2] to |2,1> two ways
    one = RationalFunction.const(2, 1)
    vec = {(2, 1): one}
    symbolic = apply_operator(a * E(1, 1, 2), vec)
    staged = apply_operator(a, apply_operator(E(1, 1, 2), vec))
    # derivative operators act on amplitudes only, so staging must agree
    assert symbolic == staged


# an op_pairs() pair and a spin vector in its space, with amplitudes that
# every derivative of the pool reaches
@st.composite
def pairs_and_vectors(draw):
    a, b = draw(op_pairs())
    x1, x2 = RationalFunction.position(2, 1), RationalFunction.position(2, 2)
    amplitudes = [x1 * x1 * x2, -x2, x1 * x2 * x2 + RationalFunction.const(2, 3),
                  RationalFunction.inverse_difference(2, 1, 2) * x1,
                  RationalFunction.coupling(2) * x2 * x2 * x2]
    kets = list(product(range(1, a.space.spin_dim + 1), repeat=2))
    vec = draw(st.dictionaries(st.sampled_from(kets),
                               st.sampled_from(amplitudes),
                               min_size=1, max_size=4))
    return a, b, vec


@settings(max_examples=60, deadline=None)
@given(case=pairs_and_vectors())
def test_products_and_commutators_agree_with_the_vector_route(case):
    a, b, vec = case
    ab = apply_operator(a, apply_operator(b, vec))
    ba = apply_operator(b, apply_operator(a, vec))
    assert apply_operator(a * b, vec) == ab
    assert apply_operator(commutator(a, b), vec) == vector_combination(
        2, [(F(1), ab), (F(-1), ba)])
    assert apply_operator(anticommutator(a, b), vec) == vector_combination(
        2, [(F(1), ab), (F(1), ba)])


@settings(max_examples=40, deadline=None)
@given(a=small_ops(), b=small_ops())
def test_action_rows_match_term_by_term_application(a, b):
    op = a + b * E(2, 2, 2)
    vec = TestVectorRoute.sample_vector()
    assert apply_operator(op, vec) == TestVectorRoute.term_by_term(op, vec)


@settings(max_examples=40, deadline=None)
@given(a=parameter_ops(), b=parameter_ops(),
       slot=st.sampled_from([lam_slot(2), om_slot(2)]),
       value=st.sampled_from([F(0), F(1, 2), F(-3)]))
def test_parameter_substitution_is_a_homomorphism(a, b, slot, value):
    # no denominator holds a parameter, so fixing one commutes with d/dx_j,
    # with products and with commutators; the trap -> 0 replay relies on it
    at = {slot: value}
    assert (a * b).substitute(at) == a.substitute(at) * b.substitute(at)
    assert (commutator(a, b).substitute(at)
            == commutator(a.substitute(at), b.substitute(at)))


# increasing maps of two sites into four
SITES4 = st.lists(st.integers(1, 4), min_size=2, max_size=2,
                  unique=True).map(lambda s: tuple(sorted(s)))


@settings(max_examples=60, deadline=None)
@given(pair=op_pairs(), sites=SITES4)
def test_embed_commutes_with_products_and_commutators(pair, sites):
    a, b = pair
    big = OpSpace(a.space.spin_dim, 4)

    def up(op):
        return embed(op, sites, big)

    assert up(a * b) == up(a) * up(b)
    assert up(commutator(a, b)) == commutator(up(a), up(b))
    assert up(anticommutator(a, b)) == anticommutator(up(a), up(b))


@settings(max_examples=60, deadline=None)
@given(a=parameter_ops(), b=parameter_ops(), sites=SITES4)
def test_embed_commutes_with_linear_combinations(a, b, sites):
    big = OpSpace(2, 4)
    c = RationalFunction.coupling(2) * RationalFunction.inverse_difference(
        2, 2, 1)
    whole = operator_combination(SP, [(c, a), (F(-2, 3), b)])
    parts = operator_combination(big, [(c.embed(4, sites), embed(a, sites, big)),
                                       (F(-2, 3), embed(b, sites, big))])
    assert embed(whole, sites, big) == parts


def test_embed_relabels_sites_orders_and_words():
    big = OpSpace(2, 3)
    op = (X(1) * D(2, 2)) * E(1, 1, 2) * E(2, 2, 1)
    assert embed(op, (1, 3), big).render() == "(x1) * d3^2 * E1[1,2]*E3[2,1]"
    assert embed(op, (1, 2), SP) is op


def test_embed_rejects_bad_maps():
    op = E(1, 1, 2) * E(2, 2, 1)
    with pytest.raises(ValueError, match="not an increasing map"):
        embed(op, (2, 1), OpSpace(2, 3))
    with pytest.raises(ValueError, match="not an increasing map"):
        embed(Operator.zero(SP), (1, 4), OpSpace(2, 3))
    with pytest.raises(ShapeMismatchError):
        embed(op, (1, 2), OpSpace(3, 3))


def test_rf_sum_has_one_caller():
    # every sum of operator coefficients or vector amplitudes, key by key,
    # goes through one helper
    tree = ast.parse(Path(spinsym.operators.__file__).read_text())
    callers = {fn.name for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "rf_sum"}
    assert callers == {"_key_sums"}


def test_no_id_keyed_tables():
    # a memo keyed by id() can hit for a new object at a dead one's address
    call = re.compile(r"(?<![\w.])id\(")
    for path in sorted(Path(spinsym.operators.__file__).parent.glob("*.py")):
        assert not call.search(path.read_text()), path.name


# rational functions over three positions: a low-degree numerator, with a
# trap factor in some terms, over some difference factors
@st.composite
def rationals3(draw):
    exponents = st.tuples(*[st.integers(0, 2)] * 3, st.just(0),
                          st.integers(0, 1))
    terms = draw(st.dictionaries(
        exponents, st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=3))
    den = draw(st.dictionaries(st.sampled_from([(1, 2), (1, 3), (2, 3)]),
                               st.integers(0, 2)))
    return RationalFunction(3, terms, den)


DERIVS3 = st.tuples(*[st.integers(0, 2)] * 3)


def repeated_derivative(r, gamma, order=None):
    """d^gamma r, one ``RationalFunction.derivative`` at a time."""
    for j in order or [j for j, e in enumerate(gamma, 1) for _ in range(e)]:
        r = r.derivative(j)
    return r


@settings(max_examples=40, deadline=None)
@given(r=rationals3(), gamma=DERIVS3)
def test_multi_derivative_matches_every_order_of_single_derivatives(r, gamma):
    got = _multi_derivative(r, gamma, {})
    steps = [j for j, e in enumerate(gamma, 1) for _ in range(e)]
    for order in set(permutations(steps)):
        assert got == repeated_derivative(r, gamma, order)


@settings(max_examples=40, deadline=None)
@given(r=rationals3(), alpha=DERIVS3)
def test_leibniz_matches_reference_expansion(r, alpha):
    # d^alpha . r as an operator product, against sum_beta C(alpha, beta)
    # (d^(alpha-beta) r) d^beta
    space = OpSpace(spin_dim=2, sites=3)
    want = {}
    for beta in product(*(range(a + 1) for a in alpha)):
        part = repeated_derivative(r, tuple(a - b for a, b in zip(alpha, beta)))
        factor = 1
        for a, b in zip(alpha, beta):
            factor *= comb(a, b)
        if not part.is_zero:
            want[(beta, ())] = part * factor
    d_alpha = Operator(space, {(alpha, ()): RationalFunction.const(3, 1)})
    assert d_alpha * Operator.from_coefficient(space, r) == Operator(space, want)


def test_no_zero_value_is_differentiated(monkeypatch):
    # d1^3 reaches the zero second derivative of x1 and must stop there in
    # products, commutators and apply_operator alike
    original = RationalFunction.derivative
    zeros = []

    def counting(self, j):
        if self.is_zero:
            zeros.append(j)
        return original(self, j)

    monkeypatch.setattr(RationalFunction, "derivative", counting)
    d3, x1 = D(1, 3), X(1)
    assert d3 * x1 == x1 * d3 + D(1, 2).scaled(3)
    assert commutator(d3, x1) == D(1, 2).scaled(3)
    assert apply_operator(d3, {(1, 1): RationalFunction.position(2, 1)}) == {}
    assert zeros == []


# a point off the pole x1 = x2, with values for the coupling and the trap
@st.composite
def points(draw):
    value = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    x1, x2 = draw(value), draw(value)
    if x1 == x2:
        x2 += 1
    return (x1, x2, draw(value), draw(value))


# spin vectors over two sites, with amplitudes that cancel in pairs
@st.composite
def spin_vectors(draw):
    x1, lam = RationalFunction.position(2, 1), RationalFunction.coupling(2)
    inv = RationalFunction.inverse_difference(2, 1, 2)
    amplitudes = [x1, -x1, lam * inv, inv * F(-1, 2), RationalFunction.const(2, 3),
                  RationalFunction.trap(2) * x1 + lam]
    kets = [(1, 1), (1, 2), (2, 1), (2, 2)]
    return draw(st.dictionaries(st.sampled_from(kets),
                                st.sampled_from(amplitudes), max_size=4))


SCALARS = [F(0), F(1), F(-1), F(1, 2), F(-3)]


def assert_key_sums(result, parts, point):
    """Each value of ``result`` at ``point`` is the sum of ``c * value`` over
    ``(c, terms)`` in ``parts``; no zero is stored, and a key that is absent
    sums to zero there."""
    def at(r):
        return r.evaluate(point) if isinstance(r, RationalFunction) else r

    want = {}
    for c, terms in parts:
        for key, coeff in terms.items():
            want[key] = want.get(key, 0) + at(c) * coeff.evaluate(point)
    assert set(result) <= set(want)
    assert all(not coeff.is_zero for coeff in result.values())
    for key, total in want.items():
        assert (result[key].evaluate(point) if key in result else 0) == total


@settings(max_examples=60, deadline=None)
@given(a=parameter_ops(), b=parameter_ops(), point=points(),
       c=st.sampled_from(SCALARS + [
           RationalFunction.coupling(2), RationalFunction.zero(2),
           RationalFunction.trap(2) * RationalFunction.inverse_difference(2, 1, 2)]))
def test_linear_combinations_sum_coefficients_key_by_key(a, b, point, c):
    for result, parts in ((a + b, [(1, a), (1, b)]),
                          (a - b, [(1, a), (-1, b)]),
                          (a - a, [(1, a), (-1, a)]),
                          (a.scaled(c), [(c, a)]),
                          (a.scaled(c) + b, [(c, a), (1, b)])):
        assert_key_sums(result.terms, [(s, op.terms) for s, op in parts], point)
    assert (a - a).is_zero


@settings(max_examples=60, deadline=None)
@given(vectors=st.lists(st.tuples(st.sampled_from(SCALARS), spin_vectors()),
                        min_size=1, max_size=4),
       point=points())
def test_vector_combination_sums_amplitudes_key_by_key(vectors, point):
    assert_key_sums(vector_combination(2, vectors), vectors, point)
    c, vec = vectors[0]
    assert not vector_combination(2, [(c, vec), (-c, vec)])
