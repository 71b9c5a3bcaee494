"""Model densities: each label's items summed once per support.

A builder states each summand once, as a weight with its operator on the
operator's own support, and sums the items of one support into a density
on ``OpSpace(N, m)``.  Densities do not depend on the number of sites;
every L-site operator is one combination of them, embedded at the
increasing site tuples.
"""

import pytest

import spinsym.models as models
import spinsym.operators as operators
from spinsym.errors import ShapeMismatchError
from spinsym.exact import RationalFunction
from spinsym.lie import AlgebraSpec, basis
from spinsym.models import (ModelSpec, generator_densities, generator_grid,
                            hamiltonian_densities)
from spinsym.operators import Operator, OpSpace

SP2, SP4 = AlgebraSpec(2, -1), AlgebraSpec(4, -1)


def density_spaces(monkeypatch, build):
    """The spaces of the combinations one build makes, in order."""
    calls = []
    combine = operators.operator_combination

    def counting(space, items):
        calls.append(space)
        return combine(space, items)

    monkeypatch.setattr(models, "operator_combination", counting)
    build()
    monkeypatch.undo()
    return calls


def test_each_density_formed_once_per_support(monkeypatch):
    # one confined sp(4) level-1 grid on four sites: per label one
    # combination on each support 1, 2 and 3, then one on the four sites
    ms = ModelSpec(SP4, 4, "confined", lam="symbolic")
    spaces = density_spaces(monkeypatch, lambda: generator_grid(ms, 1))
    per_label = [OpSpace(4, 1), OpSpace(4, 2), OpSpace(4, 3)]
    labels = len(basis(SP4))
    assert spaces == per_label * labels + [ms.space] * labels
    densities = generator_densities(ms, 1)
    assert all(op.space == OpSpace(4, m) for own in densities.values()
               for m, op in own.items())


def test_densities_do_not_depend_on_sites(monkeypatch):
    # a support larger than the model's sites is never built, and every
    # other density is the same on any number of sites
    triples = []
    contraction = models.triple_contraction
    monkeypatch.setattr(models, "triple_contraction", lambda *args: (
        triples.append(args) or contraction(*args)))
    for kind in models.MODEL_KINDS:
        triples.clear()
        small, large = (ModelSpec(SP2, sites, kind, lam="symbolic")
                        for sites in (2, 4))
        for level in (0, 1):
            few, many = (generator_densities(ms, level)
                         for ms in (small, large))
            for ab in basis(SP2):
                assert max(few[ab]) <= 2
                assert few[ab] == {m: op for m, op in many[ab].items()
                                   if m <= 2}
        assert hamiltonian_densities(small) == hamiltonian_densities(large)
        assert all(args[1] == OpSpace(2, 3) for args in triples)
        assert len(triples) == (
            6 * len(basis(SP2)) if kind == "confined" else 0), kind


@pytest.mark.parametrize("weight, support", [
    (RationalFunction.coupling(2), 1),
    (RationalFunction.coupling(1), 2),
    (RationalFunction.coupling(3), 2),
])
def test_weight_off_its_operator_support_rejected(weight, support):
    # a density lives on its operator's support, so a weight on another
    # number of positions cannot scale its operator there
    item = (weight, Operator.identity(OpSpace(2, support)))
    with pytest.raises(ShapeMismatchError, match="mixed variable tables"):
        models._densities(SP2, {support: lambda: [item]}, 3)
