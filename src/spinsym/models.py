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

Each summand is stated once, on its smallest support: a one-site item
on sites (1,), a pair item on (1, 2) in both orders, (1, 2) and (2, 1),
or once with its weight doubled where it is symmetric, and a triple item
on (1, 2, 3) in all six orders.  The L-site sum is then the sum of these
items embedded at every increasing site tuple (j,), (j, k) with j < k,
or (j, k, l) with j < k < l (``operators.embed``): an increasing tuple
carries both orders of a pair and all six of a triple, so each ordered
pair and each ordered triple of distinct sites is met exactly once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations, permutations
from typing import (Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple,
                    Union)

from .errors import DegenerateCouplingError
from .exact import RationalFunction, lam_slot, om_slot
from .lie import AlgebraSpec, basis, generator_op
from .operators import (Operator, OpSpace, Scalar, anticommutator, embed,
                        operator_combination)
from .spin_ops import (mirror_pair_contraction, pair_contraction,
                       permutation_op, triple_contraction, twist_op)
from .value import Value

Pair = Tuple[int, int]
CouplingMode = Union[str, Fraction]
Weight = Union[Scalar, RationalFunction]
Item = Tuple[Weight, Operator]
# a weight's name and an operator on the weight's support
Local = Tuple[Hashable, Operator]

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


def _inv_diff(npos: int, j: int, k: int, power: int = 1) -> RationalFunction:
    return RationalFunction.inverse_difference(npos, j, k, power)


def _kinetic(kind: str, space: OpSpace) -> Operator:
    """The family's one-site derivative on a one-site space: d_1, or
    x_1 d_1 in Euler form."""
    d = Operator.derivative_op(space, 1)
    return Operator.position_op(space, 1) * d if kind == "sutherland" else d


class _Frame:
    """An L-site space and the label-independent weights of one build.

    Each weight is stated once, on its smallest support: ``supports``
    holds one dict of named weights per support size (one, two and three
    sites).  A weight is embedded once per increasing site tuple of its
    size (``RationalFunction.embed``), and every label's items share the
    embeddings.  A frame lives for one builder call.
    """

    def __init__(self, space: OpSpace,
                 supports: Sequence[Mapping[Hashable, Weight]]):
        self.space = space
        self._at: Dict[Hashable, List[Tuple[Tuple[int, ...], Weight]]] = {}
        for size, weights in enumerate(supports, 1):
            tuples = list(combinations(range(1, space.sites + 1), size))
            for name, weight in weights.items():
                self._at[name] = [
                    (t, weight.embed(space.sites, t)
                     if isinstance(weight, RationalFunction) else weight)
                    for t in tuples]

    def build(self, local: Iterable[Local]) -> Operator:
        """The sum of the local items ``(weight name, operator on the
        weight's support)``, each embedded at every increasing site tuple
        with its weight there (``operators.embed``), in one combination."""
        return operator_combination(self.space, (
            (weight, embed(op, t, self.space))
            for name, op in local for t, weight in self._at[name]))


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
    weight = lam * _inv_diff(2, 1, 2, 2) * 2
    if kind == "sutherland":
        weight = weight * RationalFunction.position(2, 1) \
            * RationalFunction.position(2, 2)
    singles: Dict[Hashable, Weight] = {"-1": -1}
    kinetic = _kinetic(kind, one)
    local = [("-1", kinetic * kinetic),
             ("lam^2 w", Operator.identity(two)),
             ("-lam w", permutation_op(spec, two, 1, 2)),
             ("lam w", twist_op(spec, two, 1, 2))]
    if kind == "confined":
        om = RationalFunction.trap(1)
        singles["om^2"] = om * om
        local.append(("om^2", Operator.position_op(one, 1, 2)))
    frame = _Frame(ms.space, [singles, {
        "lam^2 w": lam * weight, "-lam w": -weight, "lam w": weight}])
    return bind(frame.build(local), ms)


# ---------------------------------------------------------------------------
# symmetry generators: the label-independent weights of each tower, and
# each label's local items


def _rotation_moment(spec: AlgebraSpec, sites: int, a: int, b: int
                     ) -> List[Local]:
    """Level 0: the rotation sum_j F_j^{ab}."""
    return [("1", generator_op(spec, OpSpace(spec.N, 1), 1, a, b))]


def _level1_weights(kind: str) -> List[Dict[Hashable, Weight]]:
    """1 on a site, and -v_12, -v_21 on a pair: v_jk = lam/(x_j-x_k),
    times (x_j+x_k)/2 in Euler form."""
    lam = RationalFunction.coupling(2)
    pairs: Dict[Hashable, Weight] = {}
    for name, (j, k) in (("-v12", (1, 2)), ("-v21", (2, 1))):
        weight = lam * _inv_diff(2, j, k)
        if kind == "sutherland":
            # weight (x_j+x_k)/(2(x_j-x_k)); the 1/2 is forced by
            # [H, level1] = 0 at the critical coupling, doubling it breaks
            # conservation for every algebra tested
            weight = weight * (RationalFunction.position(2, 1)
                               + RationalFunction.position(2, 2)) \
                * Fraction(1, 2)
        pairs[name] = -weight
    return [{"1": 1}, pairs]


def _level1(kind: str, spec: AlgebraSpec, sites: int, a: int, b: int
            ) -> List[Local]:
    """sum_j F_j^{ab} D_j - sum_{j!=k} v_jk (F_j F_k)^{ab}
    (``_level1_weights``)."""
    one, two = OpSpace(spec.N, 1), OpSpace(spec.N, 2)
    return [("1", generator_op(spec, one, 1, a, b) * _kinetic(kind, one)),
            ("-v12", pair_contraction(spec, two, 1, 2, a, b)),
            ("-v21", pair_contraction(spec, two, 2, 1, a, b))]


def _level2_weights(sites: int) -> List[Dict[Hashable, Weight]]:
    """The weights of the rational level 2 and of the confined level 1.

    On a site: 1, and the trap weight -om^2 x_1^2 of the confined level
    1.  On a pair: -lam/(x_j-x_k) at (1,2) and (2,1), w = lam/(x_1-x_2)^2
    and -lam w.  On a triple (three sites or more): -lam^2 /
    ((x_j-x_k)(x_j-x_l)), keyed by ``(j, {k, l})``, since it is symmetric
    under k <-> l.
    """
    lam, om = RationalFunction.coupling(2), RationalFunction.trap(1)
    w = lam * _inv_diff(2, 1, 2, 2)
    supports: List[Dict[Hashable, Weight]] = [
        {"1": 1, "-om^2 x^2": -(om * om) * RationalFunction.position(1, 1, 2)},
        {"-lam/x12": -(lam * _inv_diff(2, 1, 2)),
         "-lam/x21": -(lam * _inv_diff(2, 2, 1)),
         "w": w, "-lam w": -(lam * w)}]
    if sites >= 3:
        lam = RationalFunction.coupling(3)
        supports.append({
            (j, frozenset((k, l))):
                -(lam * lam * _inv_diff(3, j, k) * _inv_diff(3, j, l))
            for j, k, l in permutations((1, 2, 3)) if k < l})
    return supports


def _rational_level2(spec: AlgebraSpec, sites: int, a: int, b: int
                     ) -> List[Local]:
    """The rational level 2 as local items (``_level2_weights``)."""
    one, two = OpSpace(spec.N, 1), OpSpace(spec.N, 2)
    items: List[Local] = [
        ("1", generator_op(spec, one, 1, a, b)
         * Operator.derivative_op(one, 1, 2))]
    for name, (j, k) in (("-lam/x12", (1, 2)), ("-lam/x21", (2, 1))):
        # (d_j + d_k): the relative sign is pinned by the bracket identity
        # [level1, level1] = f * level2 at the critical coupling; the
        # difference d_j - d_k leaves an f-contractible residue
        pair = pair_contraction(spec, two, j, k, a, b)
        items += [(name, pair * Operator.derivative_op(two, site))
                  for site in (j, k)]
        # (E_j E_k)^{ab} with F's mirror term, less lam F_j^{ab}
        items += [("w", mirror_pair_contraction(spec, two, j, k, a, b)),
                  ("-lam w", generator_op(spec, two, j, a, b))]
    if sites >= 3:
        three = OpSpace(spec.N, 3)
        items += [((j, frozenset((k, l))),
                   triple_contraction(spec, three, k, j, l, a, b))
                  for j, k, l in permutations((1, 2, 3))]
    return items


def _confined_level1(spec: AlgebraSpec, sites: int, a: int, b: int
                     ) -> List[Local]:
    """The rational level 2 less om^2 sum_j x_j^2 F_j^{ab}."""
    return _rational_level2(spec, sites, a, b) + [
        ("-om^2 x^2", generator_op(spec, OpSpace(spec.N, 1), 1, a, b))]


def _tower(ms: ModelSpec, level: int, labels: Iterable[Pair]
           ) -> Dict[Pair, Operator]:
    """The model's own tower (levels 0 and 1) at the given labels,
    dispatched by kind: one frame of weights, then one combination per
    label."""
    if level not in (0, 1):
        raise ValueError("symmetry tower levels are 0 and 1")
    spec, sites, kind = ms.algebra, ms.sites, ms.kind
    if level == 0:
        weights, local = [{"1": 1}], _rotation_moment
    elif kind == "confined":
        weights, local = _level2_weights(sites), _confined_level1
    else:
        weights = _level1_weights(kind)
        local = partial(_level1, kind)
    frame = _Frame(ms.space, weights)
    return {ab: bind(frame.build(local(spec, sites, *ab)), ms)
            for ab in labels}


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
