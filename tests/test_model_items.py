"""Model items: a weight with its operator, on the operator's support.

A builder embeds each weight once per increasing site tuple of its
operator's site count, and equal weights share one embedding across the
items and labels of one call.
"""

from collections import Counter

import pytest

import spinsym.models as models
from spinsym.exact import RationalFunction, lam_slot, om_slot
from spinsym.lie import AlgebraSpec
from spinsym.models import ModelSpec, generator_grid
from spinsym.operators import Operator, OpSpace

SP2, SP4 = AlgebraSpec(2, -1), AlgebraSpec(4, -1)


def _carries_parameters(value):
    slots = (lam_slot(value.npos), om_slot(value.npos))
    return any(expo[s] for expo, _ in value.terms() for s in slots)


def weight_embeddings(monkeypatch, spec):
    """How often each value that carries lam or om is embedded at each
    site tuple in one confined level-1 grid on three sites.  Only weights
    carry those variables: the local operators are spin words,
    derivatives and positions."""
    seen = Counter()
    embed = RationalFunction.embed

    def counting(value, npos, sites):
        if _carries_parameters(value):
            seen[value, npos, tuple(sites)] += 1
        return embed(value, npos, sites)

    monkeypatch.setattr(RationalFunction, "embed", counting)
    generator_grid(ModelSpec(spec, 3, "confined", lam="symbolic"), 1)
    monkeypatch.undo()
    return seen


def test_each_weight_embedded_once_per_tuple(monkeypatch):
    seen = weight_embeddings(monkeypatch, SP4)
    assert seen
    assert all(count == 1 for count in seen.values()), [
        (key[2], count) for key, count in seen.items() if count > 1]


def test_embeddings_do_not_grow_with_labels(monkeypatch):
    # sp(2) has 3 labels and sp(4) 10; the weights are the same
    assert sum(weight_embeddings(monkeypatch, SP2).values()) \
        == sum(weight_embeddings(monkeypatch, SP4).values())


@pytest.mark.parametrize("weight, support", [
    (RationalFunction.coupling(2), 1),
    (RationalFunction.coupling(1), 2),
    (RationalFunction.coupling(3), 2),
])
def test_weight_off_its_operator_support_rejected(weight, support):
    # the support is read off the operator, so a weight on another number
    # of positions cannot be embedded there
    frame = models._Frame(OpSpace(2, 3))
    item = (weight, Operator.identity(OpSpace(2, support)))
    with pytest.raises(ValueError, match="is not an increasing map"):
        frame.build([item])
