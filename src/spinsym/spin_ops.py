"""Two-site and three-site spin operators as sums of matrix-unit words.

`permutation_op` exchanges the spin states of two sites; `twist_op` is its
signed partner obtained by conjugating one slot of the pair with the index
reflection.  The pair/triple contractions combine signed generators across
distinct sites with the auxiliary matrix index summed over the full range,
e.g. pair_contraction(j, k)^{ab} = sum_c F_j^{ac} F_k^{cb}.  Each is a sum
of words with one matrix unit per site, read off the generator entries
(``lie.generator_entries``) and built by one ``Operator.spin_sum``, which
checks the sites; no operator product is formed.  These are the building
blocks for every interaction term in the model Hamiltonians and symmetry
generators.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Sequence, Tuple

from .lie import AlgebraSpec, conjugate_index, generator_entries, theta
from .operators import Operator, OpSpace

Entries = Callable[[AlgebraSpec, int, int], Dict[Tuple[int, int], Fraction]]


def permutation_op(spec: AlgebraSpec, space: OpSpace, j: int, k: int) -> Operator:
    """Spin exchange of sites j and k: sum_ab E^{ab}_j E^{ba}_k."""
    n = spec.N
    return Operator.spin_sum(space, (
        (1, ((j, a, b), (k, b, a)))
        for a in range(1, n + 1) for b in range(1, n + 1)))


def twist_op(spec: AlgebraSpec, space: OpSpace, j: int, k: int) -> Operator:
    """Signed companion of the exchange: sum_ab th_a th_b E^{ab}_j E^{bar a bar b}_k."""
    n = spec.N
    return Operator.spin_sum(space, (
        (theta(spec, a) * theta(spec, b),
         ((j, a, b), (k, conjugate_index(spec, a), conjugate_index(spec, b))))
        for a in range(1, n + 1) for b in range(1, n + 1)))


def _unit_entries(spec: AlgebraSpec, a: int, b: int
                  ) -> Dict[Tuple[int, int], Fraction]:
    return {(a, b): Fraction(1)}


def _chain(spec: AlgebraSpec, space: OpSpace, sites: Sequence[int],
           a: int, b: int, entries: Entries = generator_entries) -> Operator:
    """(X_{s_1} ... X_{s_m})^{ab} over distinct sites, X = F by default:
    the sum over index chains a = c_0, ..., c_m = b of one entry of
    X^{c_{i-1} c_i} on site s_i per factor."""
    if space.spin_dim != spec.N:
        raise ValueError("operator space spin dimension differs from N")
    chains = [(Fraction(1), (), a)]
    for i, site in enumerate(sites):
        ends = (b,) if i == len(sites) - 1 else range(1, spec.N + 1)
        chains = [(c * e, atoms + ((site, p, q),), end)
                  for c, atoms, start in chains for end in ends
                  for (p, q), e in entries(spec, start, end).items()]
    return Operator.spin_sum(space, ((c, atoms) for c, atoms, _ in chains))


def pair_contraction(spec: AlgebraSpec, space: OpSpace, j: int, k: int,
                     a: int, b: int) -> Operator:
    """(F_j F_k)^{ab} = sum over the full auxiliary index range."""
    return _chain(spec, space, (j, k), a, b)


def triple_contraction(spec: AlgebraSpec, space: OpSpace, k: int, j: int,
                       l: int, a: int, b: int) -> Operator:
    """(F_k F_j F_l)^{ab} over pairwise distinct sites."""
    return _chain(spec, space, (k, j, l), a, b)


def unit_pair_contraction(spec: AlgebraSpec, space: OpSpace, j: int, k: int,
                          a: int, b: int) -> Operator:
    """(E_j E_k)^{ab}: the raw matrix-unit contraction, no signed mirror."""
    return _chain(spec, space, (j, k), a, b, _unit_entries)
