"""Two-site and three-site spin operators built from matrix units.

`permutation_op` exchanges the spin states of two sites; `twist_op` is its
signed partner obtained by conjugating one slot of the pair with the index
reflection.  The pair/triple contractions combine signed generators across
distinct sites with the auxiliary matrix index summed over the full range,
e.g. pair_contraction(j, k)^{ab} = sum_c F_j^{ac} F_k^{cb}.  These are the
building blocks for every interaction term in the model Hamiltonians and
symmetry generators.
"""

from __future__ import annotations

from .lie import AlgebraSpec, conjugate_index, generator_op, theta
from .operators import Operator, OpSpace, operator_sum


def _check_sites(space: OpSpace, *sites: int) -> None:
    seen = set()
    for s in sites:
        if not 1 <= s <= space.sites:
            raise ValueError(f"site {s} out of range")
        if s in seen:
            raise ValueError("sites must be pairwise distinct")
        seen.add(s)


def permutation_op(spec: AlgebraSpec, space: OpSpace, j: int, k: int) -> Operator:
    """Spin exchange of sites j and k: sum_ab E^{ab}_j E^{ba}_k."""
    _check_sites(space, j, k)
    n = spec.N
    parts = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            parts.append(Operator.spin_unit(space, j, a, b)
                         * Operator.spin_unit(space, k, b, a))
    return operator_sum(space, parts)


def twist_op(spec: AlgebraSpec, space: OpSpace, j: int, k: int) -> Operator:
    """Signed companion of the exchange: sum_ab th_a th_b E^{ab}_j E^{bar a bar b}_k."""
    _check_sites(space, j, k)
    n = spec.N
    parts = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            sign = theta(spec, a) * theta(spec, b)
            term = Operator.spin_unit(space, j, a, b) \
                * Operator.spin_unit(space, k, conjugate_index(spec, a),
                                     conjugate_index(spec, b))
            parts.append(term.scaled(sign))
    return operator_sum(space, parts)


def pair_contraction(spec: AlgebraSpec, space: OpSpace, j: int, k: int,
                     a: int, b: int) -> Operator:
    """(F_j F_k)^{ab} = sum over the full auxiliary index range."""
    _check_sites(space, j, k)
    parts = [generator_op(spec, space, j, a, c) * generator_op(spec, space, k, c, b)
             for c in range(1, spec.N + 1)]
    return operator_sum(space, parts)


def triple_contraction(spec: AlgebraSpec, space: OpSpace, k: int, j: int,
                       l: int, a: int, b: int) -> Operator:
    """(F_k F_j F_l)^{ab} over pairwise distinct sites."""
    _check_sites(space, k, j, l)
    n = spec.N
    parts = []
    for c in range(1, n + 1):
        for d in range(1, n + 1):
            parts.append(generator_op(spec, space, k, a, c)
                         * generator_op(spec, space, j, c, d)
                         * generator_op(spec, space, l, d, b))
    return operator_sum(space, parts)


def unit_pair_contraction(spec: AlgebraSpec, space: OpSpace, j: int, k: int,
                          a: int, b: int) -> Operator:
    """(E_j E_k)^{ab}: the raw matrix-unit contraction, no signed mirror."""
    _check_sites(space, j, k)
    parts = [Operator.spin_unit(space, j, a, c) * Operator.spin_unit(space, k, c, b)
             for c in range(1, spec.N + 1)]
    return operator_sum(space, parts)
