"""Two-site and three-site spin operators as sums of matrix-unit words.

`permutation_op` exchanges the spin states of two sites; `twist_op` is its
signed partner obtained by conjugating one slot of the pair with the index
reflection.  The pair/triple contractions combine signed generators across
distinct sites with the auxiliary matrix index summed over the full range,
e.g. pair_contraction(j, k)^{ab} = sum_c F_j^{ac} F_k^{cb}, and the
mirror pair contraction reads the raw matrix-unit contraction (E_j E_k)
through the entries of F^{ab}.  Each is a sum
of words with one matrix unit per site, read off the generator entries
(``lie.generator_entries``) and built by one ``Operator.spin_sum``, which
checks the sites; no operator product is formed.  These are the building
blocks for every interaction term in the model Hamiltonians and symmetry
generators.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .lie import AlgebraSpec, conjugate_index, generator_entries, theta
from .operators import Operator, OpSpace


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


def _check_dim(spec: AlgebraSpec, space: OpSpace) -> None:
    if space.spin_dim != spec.N:
        raise ValueError("operator space spin dimension differs from N")


def _chain(spec: AlgebraSpec, space: OpSpace, sites: Sequence[int],
           a: int, b: int) -> Operator:
    """(F_{s_1} ... F_{s_m})^{ab} over distinct sites: the sum over index
    chains a = c_0, ..., c_m = b of one entry of F^{c_{i-1} c_i} on site
    s_i per factor.  The entries are integers, so each chain's
    coefficient is an integer product."""
    _check_dim(spec, space)
    chains = [(1, (), a)]
    for i, site in enumerate(sites):
        ends = (b,) if i == len(sites) - 1 else range(1, spec.N + 1)
        chains = [(c * e, atoms + ((site, p, q),), end)
                  for c, atoms, start in chains for end in ends
                  for (p, q), e in generator_entries(spec, start, end).items()]
    return Operator.spin_sum(space, ((c, atoms) for c, atoms, _ in chains))


def _unit_pairs(spec: AlgebraSpec, space: OpSpace, j: int, k: int,
                entries: Dict[Tuple[int, int], int]) -> Operator:
    """sum c_pq (E_j E_k)^{pq} over the entries, with the raw matrix-unit
    contraction (E_j E_k)^{pq} = sum_r E_j^{pr} E_k^{rq}."""
    _check_dim(spec, space)
    return Operator.spin_sum(space, (
        (c, ((j, p, r), (k, r, q))) for (p, q), c in entries.items()
        for r in range(1, spec.N + 1)))


def pair_contraction(spec: AlgebraSpec, space: OpSpace, j: int, k: int,
                     a: int, b: int) -> Operator:
    """(F_j F_k)^{ab} = sum over the full auxiliary index range."""
    return _chain(spec, space, (j, k), a, b)


def triple_contraction(spec: AlgebraSpec, space: OpSpace, k: int, j: int,
                       l: int, a: int, b: int) -> Operator:
    """(F_k F_j F_l)^{ab} over pairwise distinct sites."""
    return _chain(spec, space, (k, j, l), a, b)


def mirror_pair_contraction(spec: AlgebraSpec, space: OpSpace, j: int,
                            k: int, a: int, b: int) -> Operator:
    """(E_j E_k)^{ab} with F's mirror term: sum over the entries c_pq of
    F^{ab} of c_pq (E_j E_k)^{pq}."""
    return _unit_pairs(spec, space, j, k, generator_entries(spec, a, b))
