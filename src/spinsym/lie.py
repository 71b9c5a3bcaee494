"""Orthogonal/symplectic structure in the matrix-unit presentation.

The algebra is fixed by an even/odd dimension N and a sign theta0:
theta0 = +1 selects so(N), theta0 = -1 selects sp(N) (N even).  Index
signs, the conjugate index, the signed generators

    F^{ab} = E^{ab} - theta_a theta_b E^{bar b, bar a}

the admissible index set, structure constants, generated ideals, and the
invariant metric with its exact inverse all live here.  The generators are
stated once, as their nonzero entries (``generator_entries``); the N x N
Fraction matrices (for traces, rank and closure oracles), the site-local
Operators, the structure constants and the metric are all read off them.

All tables are exact, deterministic and cached per algebra.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

from .errors import SingularMetricError
from .operators import Operator, OpSpace, operator_combination
from .value import Value

Pair = Tuple[int, int]
Row = Dict[Pair, Fraction]

_HALF = Fraction(1, 2)


class AlgebraSpec(Value):
    """so(N) for theta0 = +1, sp(N) for theta0 = -1 (N even)."""

    __slots__ = ("N", "theta0")

    def __init__(self, N: int, theta0: int):
        if N < 2:
            raise ValueError("N must be at least 2")
        if theta0 not in (1, -1):
            raise ValueError("theta0 must be +1 or -1")
        if theta0 == -1 and N % 2:
            raise ValueError("theta0 = -1 requires even N")
        self._freeze(N, theta0)

    @property
    def family(self) -> str:
        return "so" if self.theta0 == 1 else "sp"

    def describe(self) -> str:
        return f"{self.family}({self.N})"


def theta(spec: AlgebraSpec, a: int) -> int:
    """Index sign: +1 on the first half (and everywhere for odd N)."""
    if not 1 <= a <= spec.N:
        raise ValueError(f"index {a} out of range for N={spec.N}")
    if spec.N % 2 or a <= spec.N // 2:
        return 1
    return spec.theta0


def conjugate_index(spec: AlgebraSpec, a: int) -> int:
    """The reflected index bar(a) = N + 1 - a."""
    if not 1 <= a <= spec.N:
        raise ValueError(f"index {a} out of range for N={spec.N}")
    return spec.N + 1 - a


@lru_cache(maxsize=None)
def basis(spec: AlgebraSpec) -> Tuple[Pair, ...]:
    """Admissible generator labels, lexicographically ordered.

    so(N) keeps (a, b) with bar(a) > b; sp(N) also keeps bar(a) = b.
    Sizes come out to N(N-1)/2 and N(N+1)/2 respectively.
    """
    out = []
    for a in range(1, spec.N + 1):
        abar = conjugate_index(spec, a)
        for b in range(1, spec.N + 1):
            if abar > b or (spec.theta0 == -1 and abar == b):
                out.append((a, b))
    return tuple(out)


def generator_entries(spec: AlgebraSpec, a: int, b: int) -> Dict[Pair, Fraction]:
    """The nonzero entries of F^{ab}, keyed (row, col): 1 at (a, b) less
    theta_a theta_b at (bar b, bar a), the one statement of the mirror rule.
    On b = bar a they add up to 2 (sp) or cancel (so)."""
    entries = {(a, b): Fraction(1)}
    mirror = (conjugate_index(spec, b), conjugate_index(spec, a))
    entries[mirror] = entries.get(mirror, Fraction(0)) \
        - theta(spec, a) * theta(spec, b)
    return {key: c for key, c in entries.items() if c}


def generator_matrix(spec: AlgebraSpec, a: int, b: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """F^{ab} in the defining representation, defined on the full square."""
    n = spec.N
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, k), c in generator_entries(spec, a, b).items():
        rows[i - 1][k - 1] = c
    return tuple(tuple(r) for r in rows)


def generator_op(spec: AlgebraSpec, space: OpSpace, site: int,
                 a: int, b: int) -> Operator:
    """F^{ab} acting on one site of an operator space."""
    if space.spin_dim != spec.N:
        raise ValueError("operator space spin dimension differs from N")
    return operator_combination(space, (
        (c, Operator.spin_unit(space, site, i, k))
        for (i, k), c in generator_entries(spec, a, b).items()))


def structure_row(spec: AlgebraSpec, ab: Pair, cd: Pair) -> Row:
    """Expansion of [F^{ab}, F^{cd}] over the admissible basis."""
    table = structure_table(spec)
    try:
        return table[(ab, cd)]
    except KeyError:
        raise ValueError(f"labels {ab}, {cd} not in the admissible set") from None


def _bracket(x: Dict[Pair, Fraction], y: Dict[Pair, Fraction]
             ) -> Dict[Pair, Fraction]:
    # [X, Y] on sparse entries: (XY)_il = X_ij Y_jl, (YX)_kj = Y_kl X_lj
    out: Dict[Pair, Fraction] = {}
    for (i, j), u in x.items():
        for (k, l), v in y.items():
            if j == k:
                out[(i, l)] = out.get((i, l), 0) + u * v
            if l == i:
                out[(k, j)] = out.get((k, j), 0) - u * v
    return out


@lru_cache(maxsize=None)
def structure_table(spec: AlgebraSpec) -> Dict[Tuple[Pair, Pair], Row]:
    """All structure-constant rows, keyed by ordered basis label pairs.

    A row is the commutator of two generators' entries read at each basis
    position (e, f) over F^{ef}'s own entry there (1, or 2 on the sp
    diagonal); no other basis generator has an entry at (e, f).
    """
    pairs = basis(spec)
    entries = {ab: generator_entries(spec, *ab) for ab in pairs}
    table: Dict[Tuple[Pair, Pair], Row] = {}
    for ab in pairs:
        for cd in pairs:
            bracket = _bracket(entries[ab], entries[cd])
            table[(ab, cd)] = {ef: value / entries[ef][ef] for ef in pairs
                               if (value := bracket.get(ef))}
    return table


# ---------------------------------------------------------------------------
# ideals


def _subtract(row: Row, c: Fraction, other: Row) -> None:
    # row -= c * other, dropping the entries that cancel
    for key, v in other.items():
        total = row.get(key, Fraction(0)) - c * v
        if total:
            row[key] = total
        else:
            row.pop(key, None)


def generated_ideal(spec: AlgebraSpec, labels: Iterable[Pair]) -> Dict[Pair, Row]:
    """Basis of the ideal the labels generate, in reduced echelon form.

    The ideal is the span of the labels closed under ``ad`` of every basis
    label; each row is keyed by its pivot label and carries 1 there and 0
    at every other pivot.  Exact elimination over the structure rows, so
    nothing assumes the algebra is simple.
    """
    pairs = basis(spec)
    echelon: Dict[Pair, Row] = {}
    queue: List[Row] = [{label: Fraction(1)} for label in labels]
    while queue:
        row = queue.pop()
        for pivot, base in echelon.items():
            if row.get(pivot):
                _subtract(row, row[pivot], base)
        if not row:
            continue
        pivot = min(row)
        lead = row[pivot]
        row = {key: v / lead for key, v in row.items()}
        for base in echelon.values():
            if base.get(pivot):
                _subtract(base, base[pivot], row)
        echelon[pivot] = row
        for y in pairs:
            image: Row = {}
            for z, c in row.items():
                _subtract(image, -c, structure_row(spec, y, z))
            if image:
                queue.append(image)
    return echelon


def ideal_generators(spec: AlgebraSpec) -> Tuple[Pair, ...]:
    """Basis labels, in basis order, that generate the whole algebra as an
    ideal: each one is taken only if it enlarges the ideal generated by
    those taken before it, and the walk stops once that ideal is all of it.
    """
    pairs = basis(spec)
    chosen: List[Pair] = []
    size = 0
    for label in pairs:
        if size == len(pairs):
            break
        grown = len(generated_ideal(spec, chosen + [label]))
        if grown > size:
            chosen.append(label)
            size = grown
    return tuple(chosen)


# ---------------------------------------------------------------------------
# invariant metric


class MetricTensor(Value):
    """g^{ab,cd} = Tr(F^{ab} F^{cd}) / 2 over the basis, plus its inverse."""

    __slots__ = ("labels", "matrix", "inverse")

    def __init__(self, labels: Tuple[Pair, ...],
                 matrix: Tuple[Tuple[Fraction, ...], ...],
                 inverse: Tuple[Tuple[Fraction, ...], ...]):
        self._freeze(labels, matrix, inverse)

    def index(self, pair: Pair) -> int:
        return self.labels.index(pair)

    def entry(self, ab: Pair, cd: Pair) -> Fraction:
        return self.matrix[self.index(ab)][self.index(cd)]

    def inverse_entry(self, ab: Pair, cd: Pair) -> Fraction:
        return self.inverse[self.index(ab)][self.index(cd)]


def invert_matrix(matrix: List[List[Fraction]]) -> List[List[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    n = len(matrix)
    work = [list(row) + [Fraction(1) if i == j else Fraction(0)
                         for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise SingularMetricError("bilinear form is singular")
        work[col], work[pivot] = work[pivot], work[col]
        scale = work[col][col]
        work[col] = [v / scale for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return [row[n:] for row in work]


@lru_cache(maxsize=None)
def metric(spec: AlgebraSpec) -> MetricTensor:
    labels = basis(spec)
    entries = [generator_entries(spec, a, b) for (a, b) in labels]
    # (1/2) tr(f h) read off as (1/2) sum_ik f_ik h_ki over the entries of f
    g = [[sum((c * h.get((k, i), 0) for (i, k), c in f.items()),
              Fraction(0)) * _HALF for h in entries]
         for f in entries]
    inverse = invert_matrix(g)
    return MetricTensor(labels,
                        tuple(tuple(row) for row in g),
                        tuple(tuple(row) for row in inverse))


# ---------------------------------------------------------------------------
# raising and lowering basis-pair slots


@lru_cache(maxsize=None)
def lowered_adjoint_constants(spec: AlgebraSpec) -> Dict[Pair, Dict[Tuple[Pair, Pair], Fraction]]:
    """Rows with the second upper pair pulled down by the inverse metric.

    lowered[ab][(pq, ij)] carries the coefficient obtained from the plain
    row table by contracting its middle slot: sum_cd inv(pq,cd) * f[ab,cd][ij].
    """
    labels = basis(spec)
    g = metric(spec)
    table = structure_table(spec)
    out: Dict[Pair, Dict[Tuple[Pair, Pair], Fraction]] = {}
    for ab in labels:
        entry: Dict[Tuple[Pair, Pair], Fraction] = {}
        for p, pq in enumerate(labels):
            for c, cd in enumerate(labels):
                weight = g.inverse[p][c]
                if not weight:
                    continue
                for ij, value in table[(ab, cd)].items():
                    key = (pq, ij)
                    total = entry.get(key, Fraction(0)) + weight * value
                    if total:
                        entry[key] = total
                    elif key in entry:
                        del entry[key]
        out[ab] = entry
    return out


@lru_cache(maxsize=None)
def raised_constants(spec: AlgebraSpec) -> Dict[Tuple[Pair, Pair, Pair], Fraction]:
    """Fully raised rows: sum_pq f[ij,kl][pq] * g(pq,mn), keyed (ij,kl,mn).

    Each pq is contracted only with the nonzero entries of its metric row
    (one per row in every so(N) and sp(N)); each (ij, kl) group comes out
    in label order of mn.
    """
    labels = basis(spec)
    table = structure_table(spec)
    partners = {pq: [(m, w) for m, w in enumerate(row) if w]
                for pq, row in zip(labels, metric(spec).matrix)}
    out: Dict[Tuple[Pair, Pair, Pair], Fraction] = {}
    for ij in labels:
        for kl in labels:
            totals: Dict[int, Fraction] = {}
            for pq, value in table[(ij, kl)].items():
                for m, w in partners[pq]:
                    totals[m] = totals.get(m, 0) + value * w
            for m in sorted(totals):
                if totals[m]:
                    out[(ij, kl, labels[m])] = totals[m]
    return out

