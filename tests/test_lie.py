"""Lie structure layer: bases, structure constants, metric, raising maps.

Frozen values for sp(2) are hand-derived from 2x2 matrix products:
F^{11} = E11 - E22, F^{12} = 2 E12, F^{21} = 2 E21.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import spinsym
from spinsym.checks import LIE_SUITE_SPECS
from spinsym.errors import DegenerateCouplingError
from spinsym.lie import (AlgebraSpec, basis, conjugate_index,
                         generated_ideal, generator_entries, generator_matrix,
                         generator_op, ideal_generators,
                         lowered_adjoint_constants, metric, raised_constants,
                         structure_row, structure_table, theta)
from spinsym.operators import OpSpace, commutator, operator_sum, Operator

F = Fraction

ALL_SPECS = [AlgebraSpec(2, -1), AlgebraSpec(3, 1), AlgebraSpec(4, 1),
             AlgebraSpec(4, -1), AlgebraSpec(5, 1), AlgebraSpec(6, 1),
             AlgebraSpec(6, -1)]

SP2 = AlgebraSpec(2, -1)
SO3 = AlgebraSpec(3, 1)


class TestSpecAndBasis:
    def test_family_names(self):
        assert SP2.describe() == "sp(2)"
        assert SO3.describe() == "so(3)"

    def test_odd_symplectic_rejected(self):
        with pytest.raises(ValueError):
            AlgebraSpec(3, -1)

    def test_dimensions(self):
        # so(N): N(N-1)/2, sp(N): N(N+1)/2
        expected = {("so", 3): 3, ("so", 4): 6, ("so", 5): 10, ("so", 6): 15,
                    ("sp", 2): 3, ("sp", 4): 10, ("sp", 6): 21}
        for spec in ALL_SPECS:
            assert len(basis(spec)) == expected[(spec.family, spec.N)]

    def test_sp2_basis_frozen(self):
        assert basis(SP2) == ((1, 1), (1, 2), (2, 1))

    def test_conjugation_involution(self):
        for spec in ALL_SPECS:
            for a in range(1, spec.N + 1):
                assert conjugate_index(spec, conjugate_index(spec, a)) == a

    def test_theta_signs(self):
        # odd N: all +1.  even N: +1 on the first half, theta0 on the second.
        assert [theta(SO3, a) for a in (1, 2, 3)] == [1, 1, 1]
        assert [theta(SP2, a) for a in (1, 2)] == [1, -1]
        sp4 = AlgebraSpec(4, -1)
        assert [theta(sp4, a) for a in (1, 2, 3, 4)] == [1, 1, -1, -1]


class TestGeneratorMatrices:
    def test_entries_frozen(self):
        assert generator_entries(SP2, 1, 1) == {(1, 1): 1, (2, 2): -1}
        assert generator_entries(SP2, 1, 2) == {(1, 2): 2}
        assert generator_entries(SO3, 1, 2) == {(1, 2): 1, (2, 3): -1}
        # not a basis label: the entry and its mirror cancel
        assert generator_entries(SO3, 1, 3) == {}

    def test_mirror_rule_stated_once(self):
        # the models read F^{ab} through its entries, and in lie.py only the
        # basis and the entries ask for index signs or conjugates
        src = Path(spinsym.__file__).parent
        rule = {"theta", "conjugate_index"}
        tree = ast.parse((src / "models.py").read_text())
        named = {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
        named |= {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
        assert not named & rule
        callers = set()
        for top in ast.parse((src / "lie.py").read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(
                        node.func, "id", None) in rule:
                    callers.add(getattr(top, "name", "<module>"))
        assert callers == {"basis", "generator_entries"}

    def test_sp2_matrices_frozen(self):
        assert generator_matrix(SP2, 1, 1) == ((F(1), F(0)), (F(0), F(-1)))
        assert generator_matrix(SP2, 1, 2) == ((F(0), F(2)), (F(0), F(0)))
        assert generator_matrix(SP2, 2, 1) == ((F(0), F(0)), (F(2), F(0)))

    def test_defining_symmetry(self):
        # F^{ab} = -theta_a theta_b F^{bar b bar a} on the full index square
        for spec in ALL_SPECS:
            n = spec.N
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    lhs = generator_matrix(spec, a, b)
                    mirror = generator_matrix(spec, conjugate_index(spec, b),
                                              conjugate_index(spec, a))
                    sign = -theta(spec, a) * theta(spec, b)
                    assert lhs == tuple(tuple(sign * x for x in row)
                                        for row in mirror)

    def test_operator_matches_matrix(self):
        for spec in (SP2, SO3):
            space = OpSpace(spec.N, 1)
            for (a, b) in basis(spec):
                op = generator_op(spec, space, 1, a, b)
                m = generator_matrix(spec, a, b)
                direct = operator_sum(space, [
                    Operator.spin_unit(space, 1, i + 1, j + 1).scaled(m[i][j])
                    for i in range(spec.N) for j in range(spec.N)
                    if m[i][j]])
                assert op == direct


def _dense_bracket(spec, ab, cd):
    x, y = generator_matrix(spec, *ab), generator_matrix(spec, *cd)
    n = spec.N
    out = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = sum((x[i][k] * y[k][j] - y[i][k] * x[k][j]
                             for k in range(n)), F(0))
    return out


class TestStructureConstants:
    def test_sp2_table_frozen(self):
        # hand: [F11,F12]=2F12, [F11,F21]=-2F21, [F12,F21]=4F11
        assert structure_row(SP2, (1, 1), (1, 2)) == {(1, 2): F(2)}
        assert structure_row(SP2, (1, 1), (2, 1)) == {(2, 1): F(-2)}
        assert structure_row(SP2, (1, 2), (2, 1)) == {(1, 1): F(4)}
        assert structure_row(SP2, (1, 2), (1, 2)) == {}

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.describe())
    def test_rows_reproduce_dense_brackets(self, spec):
        # dual route: expand the defining-representation commutator densely
        labels = basis(spec)
        for ab in labels:
            for cd in labels:
                dense = _dense_bracket(spec, ab, cd)
                recon = [[F(0)] * spec.N for _ in range(spec.N)]
                for ef, c in structure_row(spec, ab, cd).items():
                    m = generator_matrix(spec, *ef)
                    for i in range(spec.N):
                        for j in range(spec.N):
                            recon[i][j] += c * m[i][j]
                assert recon == dense, (ab, cd)

    def test_antisymmetry(self):
        table = structure_table(SO3)
        for (ab, cd), row in table.items():
            flipped = table[(cd, ab)]
            assert flipped == {k: -v for k, v in row.items()}


def _dense_ideal_dimension(spec, labels):
    # span of the generator matrices closed under commutators with every
    # generator matrix, ranked by elimination on the flattened entries
    gens = [generator_matrix(spec, *ab) for ab in basis(spec)]
    n = spec.N
    rows = []
    queue = [generator_matrix(spec, *ab) for ab in labels]
    while queue and len(rows) < len(gens):
        m = queue.pop()
        vec = [m[i][j] for i in range(n) for j in range(n)]
        for row in rows:
            lead = next(k for k, v in enumerate(row) if v)
            if vec[lead]:
                factor = vec[lead] / row[lead]
                vec = [v - factor * w for v, w in zip(vec, row)]
        if not any(vec):
            continue
        rows.append(vec)
        for g in gens:
            queue.append([[sum(g[i][k] * m[k][j] - m[i][k] * g[k][j]
                               for k in range(n)) for j in range(n)]
                          for i in range(n)])
    return len(rows)


class TestIdeals:
    @pytest.mark.parametrize("spec", ALL_SPECS + [AlgebraSpec(2, 1)],
                             ids=lambda s: s.describe())
    def test_generators_give_the_whole_algebra_on_dense_matrices(self, spec):
        chosen = ideal_generators(spec)
        assert chosen == ((1, 1),)
        assert _dense_ideal_dimension(spec, chosen) == len(basis(spec))

    @pytest.mark.parametrize("spec", ALL_SPECS[:5], ids=lambda s: s.describe())
    def test_single_label_ideals_match_dense_matrices(self, spec):
        # so(4) = sl2 + sl2 is not simple: a root vector there generates
        # one three-dimensional factor only (the dense route takes seconds
        # per algebra past dimension 10, so so(6) and sp(6) are left out)
        dims = [len(generated_ideal(spec, [ab])) for ab in basis(spec)]
        assert dims == [_dense_ideal_dimension(spec, [ab])
                        for ab in basis(spec)]
        if spec == AlgebraSpec(4, 1):
            assert dims == [6, 3, 3, 3, 6, 3]

    def test_echelon_rows_are_reduced(self):
        spec = AlgebraSpec(4, 1)
        ideal = generated_ideal(spec, [(1, 2)])
        for pivot, row in ideal.items():
            assert row[pivot] == 1
            assert all(other not in row for other in ideal if other != pivot)


class TestMetric:
    def test_sp2_metric_frozen(self):
        # g = (1/2) tr(F F): g(11,11)=1, g(12,21)=g(21,12)=2, rest 0
        g = metric(SP2)
        expect = {((1, 1), (1, 1)): F(1),
                  ((1, 2), (2, 1)): F(2),
                  ((2, 1), (1, 2)): F(2)}
        for ab in basis(SP2):
            for cd in basis(SP2):
                assert g.entry(ab, cd) == expect.get((ab, cd), F(0))

    def test_metric_is_half_trace(self):
        for spec in ALL_SPECS:
            g = metric(spec)
            for ab in basis(spec):
                for cd in basis(spec):
                    x, y = generator_matrix(spec, *ab), generator_matrix(spec, *cd)
                    tr = sum((x[i][k] * y[k][i]
                              for i in range(spec.N) for k in range(spec.N)),
                             F(0))
                    assert g.entry(ab, cd) == tr / 2

    def test_inverse_is_exact(self):
        for spec in ALL_SPECS:
            g = metric(spec)
            dim = len(g.labels)
            for i in range(dim):
                for j in range(dim):
                    s = sum((g.matrix[i][k] * g.inverse[k][j]
                             for k in range(dim)), F(0))
                    assert s == (F(1) if i == j else F(0))


class TestRaisingMaps:
    def test_round_trip(self):
        def restore_second_pair(spec, ab):
            """Raise the lowered middle slot back with the metric."""
            labels = basis(spec)
            g = metric(spec)
            out = {}
            for (pq, ij), value in lowered_adjoint_constants(spec)[ab].items():
                p = g.index(pq)
                for c, cd in enumerate(labels):
                    weight = g.matrix[p][c]
                    if not weight:
                        continue
                    key = (cd, ij)
                    total = out.get(key, F(0)) + value * weight
                    if total:
                        out[key] = total
                    elif key in out:
                        del out[key]
            return out

        for spec in (SP2, SO3, AlgebraSpec(4, 1)):
            table = structure_table(spec)
            for ab in basis(spec):
                restored = restore_second_pair(spec, ab)
                direct = {(cd, ij): v
                          for cd in basis(spec)
                          for ij, v in table[(ab, cd)].items()}
                assert restored == direct

    def test_raised_agrees_with_metric_contraction(self):
        # the dense contraction over every metric column, zeros included,
        # emitted in (ij, kl, mn) label order
        for n, theta0 in LIE_SUITE_SPECS + ((8, -1), (7, 1), (8, 1)):
            spec = AlgebraSpec(n, theta0)
            g = metric(spec)
            table = structure_table(spec)
            expected = {}
            for ij in basis(spec):
                for kl in basis(spec):
                    for m, mn in enumerate(g.labels):
                        total = sum(
                            (v * g.matrix[g.index(pq)][m]
                             for pq, v in table[(ij, kl)].items()), F(0))
                        if total:
                            expected[(ij, kl, mn)] = total
            assert list(raised_constants(spec).items()) \
                == list(expected.items()), spec

    def test_lowered_matches_inverse_contraction(self):
        spec = SP2
        g = metric(spec)
        table = structure_table(spec)
        lowered = lowered_adjoint_constants(spec)
        for ab in basis(spec):
            direct = {}
            for p, pq in enumerate(g.labels):
                for c, cd in enumerate(g.labels):
                    w = g.inverse[p][c]
                    if not w:
                        continue
                    for ij, v in table[(ab, cd)].items():
                        key = (pq, ij)
                        total = direct.get(key, F(0)) + w * v
                        if total:
                            direct[key] = total
                        elif key in direct:
                            del direct[key]
            assert lowered[ab] == direct


class TestDegeneracyGuard:
    def test_so4_star_is_rejected(self):
        from spinsym.models import star_coupling
        with pytest.raises(DegenerateCouplingError):
            star_coupling(AlgebraSpec(4, 1))
