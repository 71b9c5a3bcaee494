"""Two-site exchange and twist operators on the spin chain."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsym.errors import TermBudgetError
from spinsym.exact import RationalFunction
from spinsym.lie import (AlgebraSpec, basis, conjugate_index,
                         generator_entries, generator_op, theta)
from spinsym.operators import (Operator, OpSpace, apply_operator,
                               operator_combination, operator_sum,
                               term_ceiling)
from spinsym.spin_ops import (_unit_pairs, mirror_pair_contraction,
                              pair_contraction, permutation_op,
                              triple_contraction, twist_op)

F = Fraction

SP2 = AlgebraSpec(2, -1)
SO3 = AlgebraSpec(3, 1)
LEGAL = [AlgebraSpec(2, 1), SP2, SO3, AlgebraSpec(4, 1), AlgebraSpec(4, -1)]


def unit_pair_contraction(spec, space, j, k, a, b):
    """(E_j E_k)^{ab}, the raw matrix-unit contraction: the one-entry word
    sum of the routine behind ``mirror_pair_contraction``."""
    return _unit_pairs(spec, space, j, k, {(a, b): 1})


def one(npos=2):
    return RationalFunction.const(npos, 1)


def ket(*indices):
    return {tuple(indices): one(2)}


class TestPermutationAction:
    def test_swaps_product_kets(self):
        space = OpSpace(2, 2)
        p = permutation_op(SP2, space, 1, 2)
        assert apply_operator(p, ket(1, 2)) == ket(2, 1)
        assert apply_operator(p, ket(2, 1)) == ket(1, 2)
        assert apply_operator(p, ket(1, 1)) == ket(1, 1)

    @settings(max_examples=30, deadline=None)
    @given(c=st.integers(1, 3), d=st.integers(1, 3))
    def test_swap_property(self, c, d):
        space = OpSpace(3, 2)
        p = permutation_op(SO3, space, 1, 2)
        vec = {(c, d): RationalFunction.const(2, 1)}
        assert apply_operator(p, vec) == {(d, c): RationalFunction.const(2, 1)}

    def test_square_is_identity(self):
        for spec in (SP2, SO3):
            space = OpSpace(spec.N, 2)
            p = permutation_op(spec, space, 1, 2)
            assert p * p == Operator.identity(space)


class TestTwistAction:
    def test_sp2_frozen_action(self):
        # Q|c,d> = [d == bar c] * sum_a th_a th_c |a, bar a>
        # with theta = (+1, -1): Q|1,2> = |1,2> - |2,1>, Q|1,1> = 0
        space = OpSpace(2, 2)
        q = twist_op(SP2, space, 1, 2)
        got = apply_operator(q, ket(1, 2))
        assert got == {(1, 2): one(), (2, 1): -one()}
        assert apply_operator(q, ket(1, 1)) == {}
        assert apply_operator(q, ket(2, 1)) == {(1, 2): -one(), (2, 1): one()}

    def test_so3_frozen_action(self):
        # all theta = +1, bar a = 4 - a
        space = OpSpace(3, 2)
        q = twist_op(SO3, space, 1, 2)
        v = {(2, 2): RationalFunction.const(2, 1)}
        got = apply_operator(q, v)
        c = RationalFunction.const(2, 1)
        assert got == {(1, 3): c, (2, 2): c, (3, 1): c}

    def test_square_absorbs_dimension(self):
        for spec in (SP2, SO3):
            space = OpSpace(spec.N, 2)
            q = twist_op(spec, space, 1, 2)
            assert q * q == q.scaled(spec.N)

    def test_exchange_twist_products(self):
        for spec in LEGAL:
            space = OpSpace(spec.N, 2)
            p = permutation_op(spec, space, 1, 2)
            q = twist_op(spec, space, 1, 2)
            assert p * q == q.scaled(spec.theta0)
            assert q * p == q.scaled(spec.theta0)


class TestPairDifference:
    @pytest.mark.parametrize("spec", LEGAL, ids=lambda s: s.describe())
    def test_exchange_minus_twist_is_half_contraction(self, spec):
        space = OpSpace(spec.N, 2)
        p = permutation_op(spec, space, 1, 2)
        q = twist_op(spec, space, 1, 2)
        total = operator_sum(space, [
            generator_op(spec, space, 1, a, b) * generator_op(spec, space, 2, b, a)
            for a in range(1, spec.N + 1) for b in range(1, spec.N + 1)])
        assert p - q == total.scaled(F(1, 2))

    def test_generators_swap_through_exchange(self):
        for spec in (SP2, SO3):
            space = OpSpace(spec.N, 2)
            p = permutation_op(spec, space, 1, 2)
            for a in range(1, spec.N + 1):
                for b in range(1, spec.N + 1):
                    f1 = generator_op(spec, space, 1, a, b)
                    f2 = generator_op(spec, space, 2, a, b)
                    assert p * f1 == f2 * p
                    assert q_annihilates_difference(spec, space, a, b)


def q_annihilates_difference(spec, space, a, b):
    q = twist_op(spec, space, 1, 2)
    f1 = generator_op(spec, space, 1, a, b)
    f2 = generator_op(spec, space, 2, a, b)
    return q * f1 == (q * f2).scaled(-1)


class TestContractions:
    def test_pair_contraction_is_product_sum(self):
        for spec in (SP2, SO3):
            space = OpSpace(spec.N, 2)
            for (a, b) in ((1, 1), (1, 2), (2, 1)):
                direct = operator_sum(space, [
                    generator_op(spec, space, 1, a, c)
                    * generator_op(spec, space, 2, c, b)
                    for c in range(1, spec.N + 1)])
                assert pair_contraction(spec, space, 1, 2, a, b) == direct

    def test_unit_contraction_on_distinct_sites(self):
        space = OpSpace(2, 2)
        got = unit_pair_contraction(SP2, space, 1, 2, 1, 1)
        direct = operator_sum(space, [
            Operator.spin_unit(space, 1, 1, c) * Operator.spin_unit(space, 2, c, 1)
            for c in (1, 2)])
        assert got == direct

    def test_sites_must_be_present(self):
        space = OpSpace(2, 2)
        with pytest.raises(ValueError):
            permutation_op(SP2, space, 1, 3)


# ---------------------------------------------------------------------------
# the builders against products of single-site matrix units


def unit(space, site, a, b):
    return Operator.spin_unit(space, site, a, b)


def ref_generator(spec, space, site, a, b):
    return operator_combination(space, (
        (c, unit(space, site, i, k))
        for (i, k), c in generator_entries(spec, a, b).items()))


def ref_permutation(spec, space, j, k):
    n = range(1, spec.N + 1)
    return operator_sum(space, [unit(space, j, a, b) * unit(space, k, b, a)
                                for a in n for b in n])


def ref_twist(spec, space, j, k):
    n = range(1, spec.N + 1)
    return operator_sum(space, [
        (unit(space, j, a, b)
         * unit(space, k, conjugate_index(spec, a), conjugate_index(spec, b)))
        .scaled(theta(spec, a) * theta(spec, b)) for a in n for b in n])


def ref_unit_pair(spec, space, j, k, a, b):
    return operator_sum(space, [unit(space, j, a, c) * unit(space, k, c, b)
                                for c in range(1, spec.N + 1)])


def ref_pair(spec, space, j, k, a, b):
    return operator_sum(space, [
        ref_generator(spec, space, j, a, c) * ref_generator(spec, space, k, c, b)
        for c in range(1, spec.N + 1)])


def ref_triple(spec, space, k, j, l, a, b):
    n = range(1, spec.N + 1)
    return operator_sum(space, [
        ref_generator(spec, space, k, a, c) * ref_generator(spec, space, j, c, d)
        * ref_generator(spec, space, l, d, b) for c in n for d in n])


@pytest.mark.parametrize("spec", LEGAL, ids=lambda s: s.describe())
def test_builders_match_unit_products(spec):
    space = OpSpace(spec.N, 3)
    labels = [(a, b) for a in range(1, spec.N + 1)
              for b in range(1, spec.N + 1)]
    for site in (1, 2, 3):
        for a, b in labels:
            assert (generator_op(spec, space, site, a, b)
                    == ref_generator(spec, space, site, a, b))
    for j, k in permutations((1, 2, 3), 2):
        assert permutation_op(spec, space, j, k) == ref_permutation(
            spec, space, j, k)
        assert twist_op(spec, space, j, k) == ref_twist(spec, space, j, k)
        for a, b in labels:
            assert pair_contraction(spec, space, j, k, a, b) == ref_pair(
                spec, space, j, k, a, b)
            assert unit_pair_contraction(spec, space, j, k, a, b) \
                == ref_unit_pair(spec, space, j, k, a, b)
    for k, j, l in permutations((1, 2, 3)):
        for a, b in labels:
            assert triple_contraction(spec, space, k, j, l, a, b) \
                == ref_triple(spec, space, k, j, l, a, b)


@pytest.mark.parametrize("spec", LEGAL, ids=lambda s: s.describe())
def test_mirror_pair_matches_unit_products(monkeypatch, spec):
    # (E_j E_k) read through the entries of F^{ab}, one word sum
    space = OpSpace(spec.N, 3)
    expected = {}
    for j, k in permutations((1, 2, 3), 2):
        for a in range(1, spec.N + 1):
            for b in range(1, spec.N + 1):
                expected[(j, k, a, b)] = operator_combination(space, (
                    (c, ref_unit_pair(spec, space, j, k, p, q))
                    for (p, q), c in generator_entries(spec, a, b).items()))
    monkeypatch.setattr(Operator, "__mul__", None)
    for (j, k, a, b), want in expected.items():
        assert mirror_pair_contraction(spec, space, j, k, a, b) == want


def test_spin_layer_forms_no_operator_product(monkeypatch):
    # every spin operator is one word sum read off the generator entries
    original = Operator.__mul__

    def guarded(self, other):
        if isinstance(other, Operator):
            raise AssertionError("operator product in the spin layer")
        return original(self, other)

    monkeypatch.setattr(Operator, "__mul__", guarded)
    spec = AlgebraSpec(4, -1)
    space = OpSpace(4, 3)
    for a, b in basis(spec):
        generator_op(spec, space, 1, a, b)
        pair_contraction(spec, space, 1, 2, a, b)
        triple_contraction(spec, space, 2, 1, 3, a, b)
        unit_pair_contraction(spec, space, 3, 1, a, b)
    permutation_op(spec, space, 1, 2)
    twist_op(spec, space, 2, 3)


class TestSpinSum:
    SPACE = OpSpace(2, 2)

    def test_error_texts(self):
        with pytest.raises(ValueError, match=r"^site 3 out of range$"):
            Operator.spin_sum(self.SPACE, [(1, ((1, 1, 2), (3, 1, 1)))])
        with pytest.raises(ValueError,
                           match=r"^spin indices \(1,3\) out of range$"):
            Operator.spin_sum(self.SPACE, [(1, ((1, 1, 3),))])
        with pytest.raises(ValueError,
                           match=r"^sites must be pairwise distinct$"):
            Operator.spin_sum(self.SPACE, [(1, ((2, 1, 2), (2, 2, 1)))])

    def test_expands_the_last_diagonal_unit(self):
        # sp(2) F^{11} = E^{11} - E^{22} = 2 E^{11} - 1
        space = self.SPACE
        got = Operator.spin_sum(space, [(1, ((1, 1, 1),)),
                                        (-1, ((1, 2, 2),))])
        zero = space.zero_deriv
        assert got.terms == {(zero, ((1, 1, 1),)): RationalFunction.const(2, 2),
                             (zero, ()): RationalFunction.const(2, -1)}
        assert got == generator_op(SP2, space, 1, 1, 1)

    def test_sorts_sums_and_drops_zeros(self):
        space = self.SPACE
        got = Operator.spin_sum(space, [(F(1, 2), ((2, 1, 2), (1, 2, 1))),
                                        (F(1, 2), ((1, 2, 1), (2, 1, 2))),
                                        (3, ((1, 1, 2),)),
                                        (-3, ((1, 1, 2),))])
        assert got == unit(space, 1, 2, 1) * unit(space, 2, 1, 2)
        assert Operator.spin_sum(space, []).is_zero

    def test_term_ceiling_applies(self):
        with term_ceiling(2):
            with pytest.raises(TermBudgetError):
                permutation_op(SP2, self.SPACE, 1, 2)
