"""Model builders: Hamiltonians, symmetry generators, the critical coupling."""

import gc
import weakref
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import spinsym.models as models
import spinsym.operators as operators
from spinsym.errors import DegenerateCouplingError
from spinsym.exact import RationalFunction, lam_slot, om_slot
from spinsym.lie import (AlgebraSpec, basis, conjugate_index,
                         generator_entries, generator_op, theta)
from spinsym.models import (MODEL_KINDS, ModelSpec, bind, coupling_weight,
                            generator_grid, hamiltonian, star_coupling,
                            symmetrized_triple, symmetry_generator)
from spinsym.operators import (Operator, OpSpace, commutator,
                               operator_combination, operator_sum)
from spinsym.spin_ops import (pair_contraction, permutation_op,
                              triple_contraction, twist_op)

F = Fraction

SP2 = AlgebraSpec(2, -1)
SO3 = AlgebraSpec(3, 1)
SP4 = AlgebraSpec(4, -1)


def unit_pair_contraction(spec, space, j, k, a, b):
    """(E_j E_k)^{ab} = sum_r E_j^{ar} E_k^{rb}, the raw matrix-unit
    contraction, as one word sum."""
    return Operator.spin_sum(space, ((1, ((j, a, r), (k, r, b)))
                                     for r in range(1, spec.N + 1)))


# critical coupling 2/(N - 4*theta0), cross-checked by hand
STAR_TABLE = {
    ("so", 3): F(-2),
    ("sp", 2): F(1, 3),
    ("sp", 4): F(1, 4),
    ("so", 5): F(2),
    ("so", 6): F(1),
    ("sp", 6): F(1, 5),
}


class TestStarCoupling:
    def test_frozen_values(self):
        for (family, n), value in STAR_TABLE.items():
            spec = AlgebraSpec(n, 1 if family == "so" else -1)
            assert star_coupling(spec) == value

    def test_degenerate_case_raises(self):
        with pytest.raises(DegenerateCouplingError):
            star_coupling(AlgebraSpec(4, 1))


class TestModelSpec:
    def test_kinds(self):
        assert MODEL_KINDS == ("calogero", "sutherland", "confined")
        with pytest.raises(ValueError):
            ModelSpec(SP2, sites=2, kind="toda")

    def test_resolved_couplings(self):
        assert ModelSpec(SP2, 2, "calogero", lam="star").resolved_lam() == F(1, 3)
        assert ModelSpec(SP2, 2, "calogero", lam=F(7)).resolved_lam() == F(7)
        assert ModelSpec(SP2, 2, "calogero", lam="symbolic").resolved_lam() is None

    @pytest.mark.parametrize("kind", ["calogero", "confined"])
    def test_coupling_bindings(self, kind):
        def bindings(lam):
            return ModelSpec(SP2, 2, kind, lam=lam).bindings()
        assert bindings("star") == {lam_slot(2): F(1, 3)}
        assert bindings(F(7)) == {lam_slot(2): F(7)}
        assert bindings("symbolic") == {}

    def test_trap_bindings(self):
        # only the confined model has a trap slot to bind
        with pytest.raises(ValueError, match="calogero model has no trap"):
            ModelSpec(SP2, 2, "calogero", lam="symbolic", omega=F(2))
        assert ModelSpec(SP2, 2, "confined", lam="symbolic",
                         omega=F(2)).bindings() == {om_slot(2): F(2)}
        assert ModelSpec(SP2, 2, "confined", lam="star",
                         omega=F(0)).bindings() == {lam_slot(2): F(1, 3),
                                                   om_slot(2): F(0)}

    def test_labels(self):
        ms = ModelSpec(SP2, 2, "confined", lam="star", omega=F(2))
        assert ms.lam_label() == "star(1/3)"
        assert ms.omega_label() == "2"
        assert ModelSpec(SP2, 2, "confined").omega_label() == "symbolic"
        assert ModelSpec(SP2, 2, "calogero").omega_label() == "-"

    def test_space(self):
        ms = ModelSpec(SO3, 3, "calogero")
        assert ms.space == OpSpace(3, 3)


def free(ms):
    """The exact operator the model must reduce to when the coupling is off."""
    space = ms.space
    sites = range(1, ms.sites + 1)
    if ms.kind == "calogero":
        return operator_sum(space, [
            Operator.derivative_op(space, j, 2).scaled(-1) for j in sites])
    if ms.kind == "sutherland":
        # -(x d)^2 = -x^2 d^2 - x d per site
        return operator_sum(space, [
            Operator.position_op(space, j, 2) * Operator.derivative_op(space, j, 2)
            + Operator.position_op(space, j) * Operator.derivative_op(space, j)
            for j in sites]).scaled(-1)
    om = RationalFunction.trap(ms.sites)
    return operator_sum(space, [
        Operator.derivative_op(space, j, 2).scaled(-1)
        + Operator.position_op(space, j, 2).scaled(om * om)
        for j in sites])


class TestFreeLimits:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_hamiltonian_free_limit(self, kind):
        for spec in (SP2, SO3):
            ms = ModelSpec(spec, sites=3, kind=kind, lam=F(0))
            assert hamiltonian(ms) == free(ms)

    def test_level1_free_limit(self):
        space = OpSpace(2, 2)
        d = {j: Operator.derivative_op(space, j) for j in (1, 2)}
        x = {j: Operator.position_op(space, j) for j in (1, 2)}
        f = {j: generator_op(SP2, space, j, 1, 2) for j in (1, 2)}
        cal = ModelSpec(SP2, 2, "calogero", lam=F(0))
        assert symmetry_generator(cal, 1, (1, 2)) == \
            f[1] * d[1] + f[2] * d[2]
        sut = ModelSpec(SP2, 2, "sutherland", lam=F(0))
        assert symmetry_generator(sut, 1, (1, 2)) == \
            f[1] * x[1] * d[1] + f[2] * x[2] * d[2]
        om = RationalFunction.trap(2)
        conf = ModelSpec(SP2, 2, "confined", lam=F(0))
        expected = operator_sum(space, [
            f[j] * (Operator.derivative_op(space, j, 2)
                    - Operator.position_op(space, j, 2).scaled(om * om))
            for j in (1, 2)])
        assert symmetry_generator(conf, 1, (1, 2)) == expected


def pair_sum(ms, term):
    """sum over unordered pairs j < k of term(j, k)."""
    return operator_sum(ms.space, [
        term(j, k) for j in range(1, ms.sites + 1)
        for k in range(j + 1, ms.sites + 1)])


class TestInteraction:
    """The builders at a nonzero (symbolic) coupling, written over unordered
    pairs: every summand is symmetric (or odd) under j <-> k."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_hamiltonian(self, kind):
        for spec in (SP2, SO3):
            ms = ModelSpec(spec, sites=3, kind=kind, lam="symbolic")
            space = ms.space
            lam = RationalFunction.coupling(3)

            def pair(j, k):
                weight = RationalFunction.inverse_difference(3, j, k, 2)
                if kind == "sutherland":
                    weight = weight * RationalFunction.position(3, j) \
                        * RationalFunction.position(3, k)
                spin = Operator.from_coefficient(space, lam * lam) \
                    - permutation_op(spec, space, j, k).scaled(lam) \
                    + twist_op(spec, space, j, k).scaled(lam)
                return spin.scaled(weight * 2)

            assert hamiltonian(ms) == free(ms) + pair_sum(ms, pair)

    @pytest.mark.parametrize("kind", ["calogero", "sutherland"])
    def test_level1(self, kind):
        for spec in (SP2, SO3):
            ms = ModelSpec(spec, sites=3, kind=kind, lam="symbolic")
            space = ms.space
            lam = RationalFunction.coupling(3)
            x = {j: RationalFunction.position(3, j) for j in (1, 2, 3)}

            def f(j, c, d):
                return generator_op(spec, space, j, c, d)

            def kinetic(j):
                d = Operator.derivative_op(space, j)
                return Operator.position_op(space, j) * d \
                    if kind == "sutherland" else d

            for a, b in basis(spec):
                def pair(j, k):
                    # v_jk (F_j F_k)^{ab} + v_kj (F_k F_j)^{ab}, v_kj = -v_jk
                    v = lam * RationalFunction.inverse_difference(3, j, k)
                    if kind == "sutherland":
                        v = v * (x[j] + x[k]) * F(1, 2)
                    return operator_sum(space, [
                        f(j, a, c) * f(k, c, b) - f(k, a, c) * f(j, c, b)
                        for c in range(1, spec.N + 1)]).scaled(-v)

                expected = operator_sum(space, [
                    f(j, a, b) * kinetic(j) for j in (1, 2, 3)]) \
                    + pair_sum(ms, pair)
                assert symmetry_generator(ms, 1, (a, b)) == expected

    @pytest.mark.parametrize("spec, sites", [(SP2, 3), (SO3, 2), (SP4, 2)],
                             ids=["sp(2)-L3", "so(3)-L2", "sp(4)-L2"])
    def test_confined_level1(self, spec, sites):
        # the mirror term of (E_j E_k)^{ab} written out by hand:
        # unit_pair(a, b) - th_a th_b unit_pair(bar b, bar a)
        ms = ModelSpec(spec, sites=sites, kind="confined", lam="symbolic")
        space = ms.space
        lam = RationalFunction.coupling(sites)
        om = RationalFunction.trap(sites)
        sites_ = range(1, sites + 1)

        def d(j, order=1):
            return Operator.derivative_op(space, j, order)

        def inv(j, k, power=1):
            return RationalFunction.inverse_difference(sites, j, k, power)

        grid = generator_grid(ms, 1)
        for a, b in basis(spec):
            sign = theta(spec, a) * theta(spec, b)
            abar, bbar = conjugate_index(spec, a), conjugate_index(spec, b)
            parts = []
            for j in sites_:
                f = generator_op(spec, space, j, a, b)
                parts.append(f * d(j, 2) - (f * Operator.position_op(
                    space, j, 2)).scaled(om * om))
            for j, k in permutations(sites_, 2):
                parts.append((pair_contraction(spec, space, j, k, a, b)
                              * (d(j) + d(k))).scaled(-(lam * inv(j, k))))
                mirror = unit_pair_contraction(spec, space, j, k, a, b) \
                    - unit_pair_contraction(spec, space, j, k, bbar,
                                            abar).scaled(sign)
                parts.append((mirror - generator_op(spec, space, j, a, b)
                              .scaled(lam)).scaled(lam * inv(j, k, 2)))
            for j, k, l in permutations(sites_, 3):
                parts.append(triple_contraction(spec, space, k, j, l, a, b)
                             .scaled(-(lam * lam * inv(j, k) * inv(j, l))))
            assert grid[(a, b)] == operator_sum(space, parts), (a, b)


# the per-site route: every pair and triple term built on the full L-site
# space, once per ordered site tuple and once per label


def per_site_hamiltonian(ms):
    spec, kind, space, sites = ms.algebra, ms.kind, ms.space, ms.sites
    lam = RationalFunction.coupling(sites)

    def kinetic(j):
        d = Operator.derivative_op(space, j)
        return Operator.position_op(space, j) * d if kind == "sutherland" \
            else d

    items = [(-1, kinetic(j) * kinetic(j)) for j in range(1, sites + 1)]
    for j, k in combinations(range(1, sites + 1), 2):
        weight = RationalFunction.inverse_difference(sites, j, k, 2)
        if kind == "sutherland":
            weight = weight * RationalFunction.position(sites, j) \
                * RationalFunction.position(sites, k)
        weight = lam * weight * 2
        items += [(lam * weight, Operator.identity(space)),
                  (-weight, permutation_op(spec, space, j, k)),
                  (weight, twist_op(spec, space, j, k))]
    if kind == "confined":
        om = RationalFunction.trap(sites)
        items += [(om * om, Operator.position_op(space, j, 2))
                  for j in range(1, sites + 1)]
    return bind(operator_combination(space, items), ms)


def per_site_generator(ms, level, a, b):
    spec, kind, space, sites = ms.algebra, ms.kind, ms.space, ms.sites
    lam = RationalFunction.coupling(sites)
    site_range = range(1, sites + 1)

    def inv(j, k, power=1):
        return RationalFunction.inverse_difference(sites, j, k, power)

    def f(j):
        return generator_op(spec, space, j, a, b)

    def d(j, order=1):
        return Operator.derivative_op(space, j, order)

    if level == 0:
        items = [(1, f(j)) for j in site_range]
    elif kind != "confined":
        items = [(1, f(j) * (Operator.position_op(space, j) * d(j)
                             if kind == "sutherland" else d(j)))
                 for j in site_range]
        for j, k in permutations(site_range, 2):
            weight = lam * inv(j, k)
            if kind == "sutherland":
                weight = weight * (RationalFunction.position(sites, j)
                                   + RationalFunction.position(sites, k)) \
                    * F(1, 2)
            items.append((-weight, pair_contraction(spec, space, j, k, a, b)))
    else:
        om = RationalFunction.trap(sites)
        items = [(1, f(j) * d(j, 2)) for j in site_range]
        for j, k in permutations(site_range, 2):
            pair = pair_contraction(spec, space, j, k, a, b)
            items += [(-(lam * inv(j, k)), pair * d(site)) for site in (j, k)]
            inv2 = lam * inv(j, k, 2)
            items += [(inv2 * c,
                       unit_pair_contraction(spec, space, j, k, p, q))
                      for (p, q), c in generator_entries(spec, a, b).items()]
            items.append((-lam * inv2, f(j)))
        for j, k, l in permutations(site_range, 3):
            items.append((-(lam * lam * inv(j, k) * inv(j, l)),
                          triple_contraction(spec, space, k, j, l, a, b)))
        items += [(-(om * om) * RationalFunction.position(sites, j, 2), f(j))
                  for j in site_range]
    return bind(operator_combination(space, items), ms)


class TestPerSiteReference:
    """Each builder states its items once on their smallest support and
    embeds them per increasing site tuple; the operators equal the
    per-site route's, term for term."""

    @pytest.mark.parametrize("sites", [2, 3, 4])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_builders_match_per_site_route(self, kind, sites):
        for spec in (SP2, SO3):
            for lam in ("symbolic", "star"):
                ms = ModelSpec(spec, sites, kind, lam=lam)
                assert hamiltonian(ms) == per_site_hamiltonian(ms)
                for level in (0, 1):
                    grid = generator_grid(ms, level)
                    assert list(grid) == list(basis(spec))
                    for ab, op in grid.items():
                        assert op == per_site_generator(ms, level, *ab), \
                            (spec, lam, level, ab)

    def test_sp4_confined_matches_per_site_route(self):
        ms = ModelSpec(SP4, 3, "confined", lam="symbolic")
        for ab, op in generator_grid(ms, 1).items():
            assert op == per_site_generator(ms, 1, *ab), ab


class TestGenerators:
    def test_rejects_inadmissible_label_and_level(self):
        ms = ModelSpec(SP2, 2, "calogero")
        with pytest.raises(ValueError, match="not in the admissible set"):
            symmetry_generator(ms, 1, (2, 2))
        with pytest.raises(ValueError, match="levels are 0 and 1"):
            symmetry_generator(ms, 2, (1, 2))

    def test_level0_is_generator_sum(self):
        for kind in MODEL_KINDS:
            ms = ModelSpec(SO3, 3, kind, lam="symbolic")
            for ab in basis(SO3):
                direct = operator_sum(ms.space, [
                    generator_op(SO3, ms.space, j, *ab) for j in (1, 2, 3)])
                assert symmetry_generator(ms, 0, ab) == direct

    def test_grid_covers_basis(self):
        ms = ModelSpec(SP2, 2, "calogero", lam="star")
        grid = generator_grid(ms, 1)
        assert set(grid) == set(basis(SP2))
        assert grid[(1, 2)] == symmetry_generator(ms, 1, (1, 2))

    def test_moment_two_frozen(self):
        # without the coupling the confined level 1 is its free part less
        # the trap term om^2 sum_j F_j^{ab} x_j^2
        ms = ModelSpec(SP2, 2, "confined", lam=F(0))
        space = ms.space
        om = RationalFunction.trap(2)
        expected = operator_sum(space, [
            generator_op(SP2, space, j, 1, 2)
            * (Operator.derivative_op(space, j, 2)
               - Operator.position_op(space, j, 2).scaled(om * om))
            for j in (1, 2)])
        assert symmetry_generator(ms, 1, (1, 2)) == expected

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_one_combination_per_build(self, monkeypatch, kind):
        # each built operator is one linear combination of its items: no
        # sum, difference or scaling of intermediate operators
        calls = []
        combine = operators.operator_combination

        def counting(space, items):
            calls.append(space)
            return combine(space, items)

        monkeypatch.setattr(models, "operator_combination", counting)
        monkeypatch.setattr(operators, "operator_combination", counting)
        ms = ModelSpec(SP2, 3, kind, lam="symbolic")
        hamiltonian(ms)
        assert len(calls) == 1
        for level in (0, 1):
            for ab in basis(SP2):
                calls.clear()
                symmetry_generator(ms, level, ab)
                assert len(calls) == 1, (level, ab)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_builders_keep_nothing(self, kind):
        ms = ModelSpec(SP2, 2, kind, lam="symbolic")
        refs = [weakref.ref(hamiltonian(ms))]
        refs.extend(weakref.ref(op) for op in generator_grid(ms, 1).values())
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_translation_invariance(self):
        # total momentum commutes with the rational Hamiltonian at any coupling
        ms = ModelSpec(SO3, 3, "calogero", lam="symbolic")
        space = ms.space
        total_p = operator_sum(space, [Operator.derivative_op(space, j)
                                       for j in (1, 2, 3)])
        assert commutator(hamiltonian(ms), total_p).is_zero

    def test_dilation_invariance(self):
        # the Euler operator commutes with the homogeneous Hamiltonian
        ms = ModelSpec(SP2, 3, "sutherland", lam="symbolic")
        space = ms.space
        euler = operator_sum(space, [
            Operator.position_op(space, j) * Operator.derivative_op(space, j)
            for j in (1, 2, 3)])
        assert commutator(hamiltonian(ms), euler).is_zero


class TestSymmetrizedTriple:
    def test_permutation_invariance(self):
        space = OpSpace(2, 2)
        a = Operator.spin_unit(space, 1, 1, 2)
        b = Operator.spin_unit(space, 1, 2, 1)
        c = Operator.spin_unit(space, 2, 1, 1)
        abc = symmetrized_triple(a, b, c)
        assert abc == symmetrized_triple(c, a, b)
        assert abc == symmetrized_triple(b, a, c)

    def test_coincident_arguments(self):
        # normalization is 1/24 over the six ordered products
        space = OpSpace(2, 2)
        d = Operator.derivative_op(space, 1)
        x = Operator.position_op(space, 1)
        expected = (d * d * x + d * x * d + x * d * d).scaled(F(1, 12))
        assert symmetrized_triple(d, d, x) == expected


class TestCouplingWeight:
    def test_unity_at_star(self):
        for (family, n) in STAR_TABLE:
            spec = AlgebraSpec(n, 1 if family == "so" else -1)
            w = coupling_weight(spec, star_coupling(spec))
            assert w == RationalFunction.const(2, 1)

    def test_not_unity_off_star(self):
        w = coupling_weight(SO3, F(1))
        assert w != RationalFunction.const(2, 1)

    def test_symbolic_render_frozen(self):
        w = coupling_weight(SO3)
        assert w.render() == ("(-1/2*x1^2*lam - x1*x2*lam - 1/2*x2^2*lam"
                              " - 4*x1*x2) / ((x1-x2)^2)")
