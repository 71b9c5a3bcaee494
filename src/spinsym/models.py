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

Each summand is stated once, as an item: a weight with its operator on
the smallest support, which is the operator's site count.  A one-site
item acts on site 1, a pair item on (1, 2) in both orders, (1, 2) and
(2, 1), or once with its weight doubled where it is symmetric, and a
triple item on (1, 2, 3) in all six orders.  The L-site sum is then the
sum of these items embedded at every increasing site tuple (j,), (j, k)
with j < k, or (j, k, l) with j < k < l (``operators.embed``): an
increasing tuple carries both orders of a pair and all six of a triple,
so each ordered pair and each ordered triple of distinct sites is met
exactly once.  A builder states each weight once per call, and equal
weights share one embedding at each tuple.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Dict, Iterable, List, Tuple, Union

from .errors import DegenerateCouplingError
from .exact import RationalFunction, lam_slot, om_slot
from .lie import AlgebraSpec, basis, generator_op
from .operators import (Operator, OpSpace, Scalar, anticommutator, embed,
                        operator_combination)
from .spin_ops import (mirror_pair_contraction, pair_contraction,
                       permutation_op, triple_contraction, twist_op)
from .value import Value

Pair = Tuple[int, int]
CouplingMode = Union[str, int, Fraction]
Weight = Union[Scalar, RationalFunction]
# a weight with its operator, on the operator's own support
Item = Tuple[Weight, Operator]
# a site tuple and a weight embedded there
Placed = Tuple[Tuple[int, ...], Weight]
# a tower's items at a label (a, b)
Tower = Callable[[int, int], List[Item]]

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

    lam is "star", "symbolic", or an explicit int or Fraction; omega
    likewise ("symbolic", an int or a Fraction), and explicit only for the
    confined kind.  Any other value raises ValueError.
    """

    __slots__ = ("algebra", "sites", "kind", "lam", "omega")

    def __init__(self, algebra: AlgebraSpec, sites: int, kind: str,
                 lam: CouplingMode = "star",
                 omega: CouplingMode = "symbolic"):
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        if type(sites) is not int:
            raise ValueError(f"sites must be an integer, not {sites!r}")
        if sites < 2:
            raise ValueError("at least two sites are required")
        exact = (int, Fraction)  # by type, so a bool is refused
        if lam not in ("star", "symbolic") and type(lam) not in exact:
            raise ValueError(f"bad coupling mode {lam!r}")
        if lam == "star":
            star_coupling(algebra)  # raises when degenerate
        if omega != "symbolic" and type(omega) not in exact:
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


def _kinetic(kind: str, space: OpSpace) -> Operator:
    """The family's one-site derivative on a one-site space: d_1, or
    x_1 d_1 in Euler form."""
    d = Operator.derivative_op(space, 1)
    return Operator.position_op(space, 1) * d if kind == "sutherland" else d


class _Frame:
    """An L-site space and the weight embeddings of one builder call.

    An item is a weight with its operator; the operator's site count is
    the item's support.  A weight is embedded once per increasing site
    tuple of that size (``RationalFunction.embed``) and kept for the
    frame's life, so equal weights share one embedding across items and
    labels.  Scalar weights are not embedded.
    """

    def __init__(self, space: OpSpace):
        self.space = space
        self._at: Dict[Tuple[Weight, int], List[Placed]] = {}

    def _placed(self, weight: Weight, size: int) -> List[Placed]:
        at = self._at.get((weight, size))
        if at is None:
            sites = self.space.sites
            at = self._at[weight, size] = [
                (t, weight.embed(sites, t)
                 if isinstance(weight, RationalFunction) else weight)
                for t in combinations(range(1, sites + 1), size)]
        return at

    def build(self, items: Iterable[Item]) -> Operator:
        """The sum of the items, each embedded at every increasing site
        tuple of its support with its weight there (``operators.embed``),
        in one combination."""
        return operator_combination(self.space, (
            (w, embed(op, t, self.space))
            for weight, op in items
            for t, w in self._placed(weight, op.space.sites)))


# ---------------------------------------------------------------------------
# Hamiltonians


def hamiltonian(ms: ModelSpec) -> Operator:
    """-sum_j D_j^2 + sum_{j!=k} w_jk (lam^2 - lam P_jk + lam Q_jk), plus the
    trap om^2 sum_j x_j^2 for the confined model, in one combination.

    w_jk is 1/(x_j-x_k)^2, times x_j x_k for the trigonometric family."""
    spec, kind = ms.algebra, ms.kind
    one, two = OpSpace(spec.N, 1), OpSpace(spec.N, 2)
    lam = RationalFunction.coupling(2)
    # w_jk, P_jk and Q_jk are symmetric under j <-> k: each unordered pair
    # is summed once, with the weight doubled
    w = lam * RationalFunction.inverse_difference(2, 1, 2, 2) * 2
    if kind == "sutherland":
        w = w * RationalFunction.position(2, 1) \
            * RationalFunction.position(2, 2)
    kinetic = _kinetic(kind, one)
    items: List[Item] = [(-1, kinetic * kinetic),
                         (lam * w, Operator.identity(two)),
                         (-w, permutation_op(spec, two, 1, 2)),
                         (w, twist_op(spec, two, 1, 2))]
    if kind == "confined":
        om = RationalFunction.trap(1)
        items.append((om * om, Operator.position_op(one, 1, 2)))
    return bind(_Frame(ms.space).build(items), ms)


# ---------------------------------------------------------------------------
# symmetry generators: each tower builds its label-independent weights
# once and returns the function from a label (a, b) to its items


def _rotation_moment(spec: AlgebraSpec) -> Tower:
    """Level 0: the rotation sum_j F_j^{ab}."""
    one = OpSpace(spec.N, 1)
    return lambda a, b: [(1, generator_op(spec, one, 1, a, b))]


def _level1(kind: str, spec: AlgebraSpec) -> Tower:
    """sum_j F_j^{ab} D_j - sum_{j!=k} v_jk (F_j F_k)^{ab}, with
    v_jk = lam/(x_j-x_k), times (x_j+x_k)/2 in Euler form."""
    one, two = OpSpace(spec.N, 1), OpSpace(spec.N, 2)
    lam, kinetic = RationalFunction.coupling(2), _kinetic(kind, one)
    # weight (x_j+x_k)/(2(x_j-x_k)) in Euler form; the 1/2 is forced by
    # [H, level1] = 0 at the critical coupling, doubling it breaks
    # conservation for every algebra tested
    euler = (RationalFunction.position(2, 1) + RationalFunction.position(2, 2)
             ) * Fraction(1, 2) if kind == "sutherland" else 1
    pairs = [((j, k), -(lam * RationalFunction.inverse_difference(2, j, k)
                        * euler)) for j, k in ((1, 2), (2, 1))]
    return lambda a, b: [
        (1, generator_op(spec, one, 1, a, b) * kinetic)] + [
        (v, pair_contraction(spec, two, j, k, a, b)) for (j, k), v in pairs]


def _rational_level2(spec: AlgebraSpec, sites: int) -> Tower:
    """sum_j F_j^{ab} d_j^2 - sum_{j!=k} lam/(x_j-x_k) (F_j F_k)^{ab}
    (d_j + d_k), plus w_jk = lam/(x_j-x_k)^2 times (E_j E_k)^{ab} with F's
    mirror term, less lam w_jk F_j^{ab}, and over pairwise distinct
    (j, k, l) the weight -lam^2/((x_j-x_k)(x_j-x_l)) times
    (F_k F_j F_l)^{ab} (three sites or more)."""
    one, two, three = (OpSpace(spec.N, m) for m in (1, 2, 3))
    lam, inv = RationalFunction.coupling(2), RationalFunction.inverse_difference
    w = lam * inv(2, 1, 2, 2)
    lam_w = -(lam * w)
    d2 = Operator.derivative_op(one, 1, 2)
    pairs = [((j, k), -(lam * inv(2, j, k))) for j, k in ((1, 2), (2, 1))]
    triples = []
    if sites >= 3:
        lam3 = RationalFunction.coupling(3)
        triples = [((j, k, l), -(lam3 * lam3 * inv(3, j, k) * inv(3, j, l)))
                   for j, k, l in permutations((1, 2, 3))]

    def items(a: int, b: int) -> List[Item]:
        out: List[Item] = [(1, generator_op(spec, one, 1, a, b) * d2)]
        for (j, k), weight in pairs:
            # (d_j + d_k): the relative sign is pinned by the bracket
            # identity [level1, level1] = f * level2 at the critical
            # coupling; the difference d_j - d_k leaves an f-contractible
            # residue
            pair = pair_contraction(spec, two, j, k, a, b)
            out += [(weight, pair * Operator.derivative_op(two, site))
                    for site in (j, k)]
            out += [(w, mirror_pair_contraction(spec, two, j, k, a, b)),
                    (lam_w, generator_op(spec, two, j, a, b))]
        out += [(weight, triple_contraction(spec, three, k, j, l, a, b))
                for (j, k, l), weight in triples]
        return out
    return items


def _confined_level1(spec: AlgebraSpec, sites: int) -> Tower:
    """The rational level 2 less om^2 sum_j x_j^2 F_j^{ab}."""
    one, om = OpSpace(spec.N, 1), RationalFunction.trap(1)
    trap = -(om * om) * RationalFunction.position(1, 1, 2)
    rational = _rational_level2(spec, sites)
    return lambda a, b: rational(a, b) + [
        (trap, generator_op(spec, one, 1, a, b))]


def _tower(ms: ModelSpec, level: int, labels: Iterable[Pair]
           ) -> Dict[Pair, Operator]:
    """The model's own tower (levels 0 and 1) at the given labels,
    dispatched by kind: one frame, then one combination per label."""
    if level not in (0, 1):
        raise ValueError("symmetry tower levels are 0 and 1")
    spec, kind = ms.algebra, ms.kind
    if level == 0:
        items = _rotation_moment(spec)
    elif kind == "confined":
        items = _confined_level1(spec, ms.sites)
    else:
        items = _level1(kind, spec)
    frame = _Frame(ms.space)
    return {ab: bind(frame.build(items(*ab)), ms) for ab in labels}


def symmetry_generator(ms: ModelSpec, level: int, ab: Pair) -> Operator:
    """One generator of the model's own tower (``_tower``)."""
    if ab not in basis(ms.algebra):
        raise ValueError(f"label {ab} not in the admissible set")
    return _tower(ms, level, (ab,))[ab]


def generator_grid(ms: ModelSpec, level: int) -> Dict[Pair, Operator]:
    """Every generator of one level, from one frame (``_tower``)."""
    return _tower(ms, level, basis(ms.algebra))


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
