"""Model builders: Hamiltonians and symmetry generators for the three
integrable spin-chain families (rational, trigonometric-rational with
Euler derivatives, and harmonically confined).

Every displayed formula is assembled with the coupling `lam` (and trap
strength `om`) fully symbolic; explicit coupling modes then bind the
parameters by exact substitution (`bind`), so a star-mode operator is
literally the symbolic one evaluated at lam = 2/(N - 4*theta0).  The
builders keep nothing between calls: a caller that needs one operator at
several couplings builds the symbolic spec once and binds it for each.

Pair sums run over ordered pairs j != k and triple sums over pairwise
distinct (j, k, l), matching the displayed conventions, except where a
summand is symmetric under j <-> k; odd reorderings of a difference
factor push their sign into the numerator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Dict, List, Tuple, Union

from .errors import DegenerateCouplingError
from .exact import RationalFunction, lam_slot, om_slot
from .lie import AlgebraSpec, basis, generator_entries, generator_op
from .operators import (Operator, OpSpace, Scalar, anticommutator,
                        operator_combination)
from .spin_ops import (pair_contraction, permutation_op, triple_contraction,
                       twist_op, unit_pair_contraction)
from .value import Value

Pair = Tuple[int, int]
CouplingMode = Union[str, Fraction]
Item = Tuple[Union[Scalar, RationalFunction], Operator]

MODEL_KINDS = ("calogero", "sutherland", "confined")


def star_coupling(spec: AlgebraSpec) -> Fraction:
    """The critical coupling 2 / (N - 4*theta0)."""
    d = spec.N - 4 * spec.theta0
    if d == 0:
        raise DegenerateCouplingError(
            "critical coupling undefined for so(4): N - 4*theta0 = 0 "
            "(the algebra is not simple)")
    return Fraction(2, d)


class ModelSpec(Value):
    """A fully pinned model instance.

    lam is "star", "symbolic", or an explicit Fraction; omega likewise
    ("symbolic" or a Fraction), and explicit only for the confined kind.
    """

    __slots__ = ("algebra", "sites", "kind", "lam", "omega")

    def __init__(self, algebra: AlgebraSpec, sites: int, kind: str,
                 lam: CouplingMode = "star",
                 omega: CouplingMode = "symbolic"):
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        if sites < 2:
            raise ValueError("at least two sites are required")
        if isinstance(lam, str):
            if lam not in ("star", "symbolic"):
                raise ValueError(f"bad coupling mode {lam!r}")
            if lam == "star":
                star_coupling(algebra)  # raises when degenerate
        if isinstance(omega, str) and omega != "symbolic":
            raise ValueError(f"bad trap mode {omega!r}")
        if kind != "confined" and omega != "symbolic":
            raise ValueError(f"the {kind} model has no trap to set")
        self._freeze(algebra, sites, kind, lam, omega)

    @property
    def space(self) -> OpSpace:
        return OpSpace(self.algebra.N, self.sites)

    def resolved_lam(self) -> Union[Fraction, None]:
        if self.lam == "symbolic":
            return None
        if self.lam == "star":
            return star_coupling(self.algebra)
        return self.lam

    def resolved_omega(self) -> Union[Fraction, None]:
        return None if self.omega == "symbolic" else self.omega

    def bindings(self) -> Dict[int, Fraction]:
        """Slot values of the explicit parameters: the coupling unless it
        is symbolic, and the trap strength unless it is symbolic.  The one
        place where modes become bound values."""
        out: Dict[int, Fraction] = {}
        lam = self.resolved_lam()
        if lam is not None:
            out[lam_slot(self.sites)] = lam
        if self.omega != "symbolic":
            out[om_slot(self.sites)] = self.omega
        return out

    def lam_label(self) -> str:
        if self.lam == "symbolic":
            return "symbolic"
        if self.lam == "star":
            return f"star({star_coupling(self.algebra)})"
        return str(self.lam)

    def omega_label(self) -> str:
        if self.kind != "confined":
            return "-"
        return "symbolic" if self.omega == "symbolic" else str(self.omega)


def bind(op: Operator, ms: ModelSpec) -> Operator:
    """Substitute the model's explicit coupling and trap strength into an
    operator built with them symbolic; symbolic modes stay symbolic."""
    return op.substitute(ms.bindings())


def _coupling(space: OpSpace) -> RationalFunction:
    return RationalFunction.coupling(space.sites)


def _inv_diff(space: OpSpace, j: int, k: int, power: int = 1) -> RationalFunction:
    return RationalFunction.inverse_difference(space.sites, j, k, power)


def _kinetic(kind: str, space: OpSpace, j: int) -> Operator:
    """The family's one-site derivative: d_j, or x_j d_j in Euler form."""
    d = Operator.derivative_op(space, j)
    return Operator.position_op(space, j) * d if kind == "sutherland" else d


def _pair_weight(kind: str, space: OpSpace, j: int, k: int) -> RationalFunction:
    """1/(x_j-x_k)^2, times x_j x_k for the trigonometric family."""
    weight = _inv_diff(space, j, k, 2)
    if kind == "sutherland":
        weight = RationalFunction.position(space.sites, j) \
            * RationalFunction.position(space.sites, k) * weight
    return weight


# ---------------------------------------------------------------------------
# Hamiltonians


def hamiltonian(ms: ModelSpec) -> Operator:
    """-sum_j D_j^2 + sum_{j!=k} w_jk (lam^2 - lam P_jk + lam Q_jk), plus the
    trap om^2 sum_j x_j^2 for the confined model, in one combination."""
    spec, kind, space = ms.algebra, ms.kind, ms.space
    lam = _coupling(space)
    kinetic = [_kinetic(kind, space, j) for j in range(1, ms.sites + 1)]
    items = [(-1, d * d) for d in kinetic]
    # w_jk, P_jk and Q_jk are symmetric under j <-> k: each unordered pair
    # is summed once, with the weight doubled
    for j, k in combinations(range(1, ms.sites + 1), 2):
        weight = lam * _pair_weight(kind, space, j, k) * 2
        items += [(lam * weight, Operator.identity(space)),
                  (-weight, permutation_op(spec, space, j, k)),
                  (weight, twist_op(spec, space, j, k))]
    if kind == "confined":
        om = RationalFunction.trap(space.sites)
        items += [(om * om, Operator.position_op(space, j, 2))
                  for j in range(1, ms.sites + 1)]
    return bind(operator_combination(space, items), ms)


# ---------------------------------------------------------------------------
# symmetry generators


def _rotation_moment(spec: AlgebraSpec, sites: int, a: int, b: int) -> Operator:
    """Level 0: the rotation sum_j F_j^{ab}."""
    space = OpSpace(spec.N, sites)
    return operator_combination(space, (
        (1, generator_op(spec, space, j, a, b)) for j in range(1, sites + 1)))


def _level1(kind: str, spec: AlgebraSpec, sites: int, a: int, b: int) -> Operator:
    """sum_j F_j^{ab} D_j - sum_{j!=k} v_jk (F_j F_k)^{ab}, with
    v = lam/(x_j-x_k), times (x_j+x_k)/2 in Euler form."""
    space = OpSpace(spec.N, sites)
    lam = _coupling(space)
    items = [(1, generator_op(spec, space, j, a, b) * _kinetic(kind, space, j))
             for j in range(1, sites + 1)]
    for j, k in permutations(range(1, sites + 1), 2):
        weight = lam * _inv_diff(space, j, k)
        if kind == "sutherland":
            # weight (x_j+x_k)/(2(x_j-x_k)); the 1/2 is forced by
            # [H, level1] = 0 at the critical coupling, doubling it breaks
            # conservation for every algebra tested
            weight = weight * (RationalFunction.position(space.sites, j)
                               + RationalFunction.position(space.sites, k)) \
                * Fraction(1, 2)
        items.append((-weight, pair_contraction(spec, space, j, k, a, b)))
    return operator_combination(space, items)


def _rational_level2(spec: AlgebraSpec, sites: int, a: int, b: int) -> List[Item]:
    """The rational level 2 as ``(coefficient, operator)`` items."""
    space = OpSpace(spec.N, sites)
    lam = _coupling(space)
    entries = generator_entries(spec, a, b)
    items: List[Item] = [
        (1, generator_op(spec, space, j, a, b)
         * Operator.derivative_op(space, j, 2)) for j in range(1, sites + 1)]
    for j, k in permutations(range(1, sites + 1), 2):
        inv1 = lam * _inv_diff(space, j, k)
        # (d_j + d_k): the relative sign is pinned by the bracket identity
        # [level1, level1] = f * level2 at the critical coupling; the
        # difference d_j - d_k leaves an f-contractible residue
        pair = pair_contraction(spec, space, j, k, a, b)
        items += [(-inv1, pair * Operator.derivative_op(space, site))
                  for site in (j, k)]
        inv2 = lam * _inv_diff(space, j, k, 2)
        # (E_j E_k)^{ab} with F's mirror term, less lam F_j^{ab}
        items += [(inv2 * c, unit_pair_contraction(spec, space, j, k, p, q))
                  for (p, q), c in entries.items()]
        items.append((-lam * inv2, generator_op(spec, space, j, a, b)))
    for j, k, l in permutations(range(1, sites + 1), 3):
        weight = lam * lam * _inv_diff(space, j, k) * _inv_diff(space, j, l)
        items.append((-weight, triple_contraction(spec, space, k, j, l, a, b)))
    return items


def _confined_level1(spec: AlgebraSpec, sites: int, a: int, b: int) -> Operator:
    """The rational level 2 less om^2 sum_j x_j^2 F_j^{ab}."""
    space = OpSpace(spec.N, sites)
    om = RationalFunction.trap(space.sites)
    return operator_combination(space, _rational_level2(spec, sites, a, b) + [
        (-(om * om) * RationalFunction.position(sites, j, 2),
         generator_op(spec, space, j, a, b)) for j in range(1, sites + 1)])


def symmetry_generator(ms: ModelSpec, level: int, ab: Pair) -> Operator:
    """The model's own tower (levels 0 and 1), dispatched by kind."""
    if level not in (0, 1):
        raise ValueError("symmetry tower levels are 0 and 1")
    if ab not in basis(ms.algebra):
        raise ValueError(f"label {ab} not in the admissible set")
    spec, sites = ms.algebra, ms.sites
    if level == 0:
        op = _rotation_moment(spec, sites, *ab)
    elif ms.kind == "confined":
        op = _confined_level1(spec, sites, *ab)
    else:
        op = _level1(ms.kind, spec, sites, *ab)
    return bind(op, ms)


def generator_grid(ms: ModelSpec, level: int) -> Dict[Pair, Operator]:
    return {ab: symmetry_generator(ms, level, ab)
            for ab in basis(ms.algebra)}


def symmetrized_triple(a: Operator, b: Operator, c: Operator) -> Operator:
    """The sum of the six ordered products times 1/24, formed as
    (1/24) sum_cyc x * {y, z}: each product holds two of the six orders,
    and the cyclic sum holds each order once."""
    return operator_combination(a.space, (
        (Fraction(1, 24), x * anticommutator(y, z))
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b))))


def coupling_weight(spec: AlgebraSpec, lam_value: Union[Fraction, None] = None
                    ) -> RationalFunction:
    """The two-site weight (lam*(N-4*theta0)*(x_j+x_k)^2 - 8 x_j x_k) over
    2*(x_j-x_k)^2, on a two-site table; collapses to 1 at the critical
    coupling."""
    npos = 2
    x1 = RationalFunction.position(npos, 1)
    x2 = RationalFunction.position(npos, 2)
    lam: RationalFunction = RationalFunction.coupling(npos)
    if lam_value is not None:
        lam = RationalFunction.const(npos, lam_value)
    s = x1 + x2
    numerator = lam * (spec.N - 4 * spec.theta0) * s * s - 8 * x1 * x2
    return numerator * RationalFunction.inverse_difference(npos, 1, 2, 2) \
        * Fraction(1, 2)
