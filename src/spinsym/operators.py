"""Noncommutative operators: rational-function coefficients, partial
derivatives, and matrix-unit spin words over L sites of dimension N.

An operator is stored in normal form as a dict mapping

    (derivative monomial, spin word)  ->  RationalFunction coefficient

where the derivative monomial is a length-L tuple of nonnegative orders
and a spin word is a site-sorted tuple of atoms (site, a, b), each atom a
matrix unit E^{ab} acting on that site.  An absent site acts as the
identity; the empty word is the identity on all sites.  Coefficients
always stand to the left of derivatives, maintained through the single
rewrite rule

    d_j . r  =  r . d_j + (dr/dx_j)

applied via the general Leibniz expansion when products are formed.
Same-site atoms contract by E^{ab} E^{cd} = delta_{bc} E^{ad}, and the
trace relation sum_a E^{aa} = 1 of the defining representation is imposed
by eliminating E^{NN}: stored words never contain an (site, N, N) atom.
Per site the surviving words {identity} + {E^{ab} : (a,b) != (N,N)} are a
basis of the full N x N matrix algebra, so normal forms are unique and
term-dict equality coincides with equality of the operators themselves.

Term dicts are never mutated after an Operator is constructed; arithmetic
builds fresh dicts, so equal operators compare equal regardless of the
order their terms were accumulated in.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iproduct
from math import comb
from operator import add as _tadd
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from .errors import ShapeMismatchError, TermBudgetError
from .exact import RationalFunction, lam_slot, om_slot, rf_sum

Deriv = Tuple[int, ...]
SpinAtom = Tuple[int, int, int]
SpinWord = Tuple[SpinAtom, ...]
TermKey = Tuple[Deriv, SpinWord]

DEFAULT_TERM_CEILING = 500_000
_term_ceiling: ContextVar[int] = ContextVar("term_ceiling",
                                           default=DEFAULT_TERM_CEILING)


@contextmanager
def term_ceiling(limit: int) -> Iterator[None]:
    """Cap the number of normal-form terms any single result may hold.

    The cap also bounds the accumulator while a product or commutator is
    being built.  The cap holds in the current context until the block
    exits, however it exits; then the enclosing cap (by default
    DEFAULT_TERM_CEILING) returns.
    """
    if limit < 1:
        raise ValueError("term ceiling must be positive")
    token = _term_ceiling.set(limit)
    try:
        yield
    finally:
        _term_ceiling.reset(token)


def _budget_check(count: int) -> None:
    limit = _term_ceiling.get()
    if count > limit:
        raise TermBudgetError(
            f"operator exceeded the term ceiling ({count} > {limit}); "
            "raise it via term_ceiling or the --term-ceiling flag")


@dataclass(frozen=True)
class OpSpace:
    """Shape of an operator algebra: N spin states on each of L sites."""

    spin_dim: int
    sites: int

    def __post_init__(self):
        if self.spin_dim < 1 or self.sites < 1:
            raise ValueError("OpSpace needs positive spin dimension and sites")

    @property
    def zero_deriv(self) -> Deriv:
        return (0,) * self.sites


def _insert_atom(word: SpinWord, atom: SpinAtom) -> SpinWord:
    i = 0
    while i < len(word) and word[i][0] < atom[0]:
        i += 1
    return word[:i] + (atom,) + word[i:]


def reduce_word(spin_dim: int, word: SpinWord) -> List[Tuple[int, SpinWord]]:
    """Expand every E^{NN} atom through E^{NN} = 1 - sum_{c<N} E^{cc}.

    Returns signed reduced words; words free of E^{NN} pass through as a
    single +1 entry.
    """
    for i, atom in enumerate(word):
        if atom[1] == spin_dim and atom[2] == spin_dim:
            site = atom[0]
            rest = word[:i] + word[i + 1:]
            out: List[Tuple[int, SpinWord]] = []
            for sign, tail in reduce_word(spin_dim, rest):
                out.append((sign, tail))
                for c in range(1, spin_dim):
                    out.append((-sign, _insert_atom(tail, (site, c, c))))
            return out
    return [(1, word)]


def word_mul(spin_dim: int, left: SpinWord,
             right: SpinWord) -> List[Tuple[int, SpinWord]]:
    """Signed reduced components of a word product; empty when annihilated.

    Inputs must already be reduced; a fresh E^{NN} can then only arise from
    a same-site contraction, and gets expanded on the spot.
    """
    if not left:
        return [(1, right)]
    if not right:
        return [(1, left)]
    out: List[SpinAtom] = []
    i = j = 0
    nl, nr = len(left), len(right)
    hot = False
    while i < nl and j < nr:
        la = left[i]
        ra = right[j]
        if la[0] < ra[0]:
            out.append(la)
            i += 1
        elif la[0] > ra[0]:
            out.append(ra)
            j += 1
        else:
            if la[2] != ra[1]:
                return []
            if la[1] == spin_dim and ra[2] == spin_dim:
                hot = True
            out.append((la[0], la[1], ra[2]))
            i += 1
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    word = tuple(out)
    if not hot:
        return [(1, word)]
    return reduce_word(spin_dim, word)


class Operator:
    """Normal-form operator over an OpSpace."""

    __slots__ = ("space", "terms", "__weakref__")

    def __init__(self, space: OpSpace, terms: Dict[TermKey, RationalFunction]):
        """Wrap terms that are already in normal form: reduced spin words,
        no zero coefficients, every coefficient over ``space.sites``
        positions.  The dict is kept, not copied, and never mutated."""
        self.space = space
        self.terms = terms

    # constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, space: OpSpace) -> "Operator":
        return cls(space, {})

    @classmethod
    def identity(cls, space: OpSpace) -> "Operator":
        coeff = RationalFunction.const(space.sites, 1)
        return cls(space, {(space.zero_deriv, ()): coeff})

    @classmethod
    def from_coefficient(cls, space: OpSpace, coeff: RationalFunction) -> "Operator":
        if coeff.is_zero:
            return cls.zero(space)
        return cls(space, {(space.zero_deriv, ()): coeff})

    @classmethod
    def spin_unit(cls, space: OpSpace, site: int, a: int, b: int) -> "Operator":
        """Matrix unit E^{ab} acting on one site (E^{NN} arrives expanded)."""
        if not 1 <= site <= space.sites:
            raise ValueError(f"site {site} out of range")
        if not (1 <= a <= space.spin_dim and 1 <= b <= space.spin_dim):
            raise ValueError(f"spin indices ({a},{b}) out of range")
        one = RationalFunction.const(space.sites, 1)
        terms: Dict[TermKey, RationalFunction] = {}
        for sign, word in reduce_word(space.spin_dim, ((site, a, b),)):
            terms[(space.zero_deriv, word)] = one if sign > 0 else -one
        return cls(space, terms)

    @classmethod
    def derivative_op(cls, space: OpSpace, site: int, order: int = 1) -> "Operator":
        if not 1 <= site <= space.sites:
            raise ValueError(f"site {site} out of range")
        deriv = tuple(order if s == site else 0
                      for s in range(1, space.sites + 1))
        coeff = RationalFunction.const(space.sites, 1)
        return cls(space, {(deriv, ()): coeff})

    @classmethod
    def position_op(cls, space: OpSpace, site: int, power: int = 1) -> "Operator":
        if not 1 <= site <= space.sites:
            raise ValueError(f"site {site} out of range")
        coeff = RationalFunction.position(space.sites, site, power)
        return cls(space, {(space.zero_deriv, ()): coeff})

    # predicates --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Operator)
                and self.space == other.space
                and self.terms == other.terms)

    __hash__ = None  # type: ignore[assignment]

    def _check(self, other: "Operator") -> None:
        if self.space != other.space:
            raise ShapeMismatchError(
                f"mixed operator spaces: {self.space} and {other.space}")

    # arithmetic ---------------------------------------------------------------

    def __neg__(self) -> "Operator":
        return Operator(self.space, {k: -v for k, v in self.terms.items()})

    def __add__(self, other: "Operator") -> "Operator":
        self._check(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            prev = out.get(key)
            if prev is None:
                out[key] = coeff
            else:
                s = prev + coeff
                if s.is_zero:
                    del out[key]
                else:
                    out[key] = s
        _budget_check(len(out))
        return Operator(self.space, out)

    def __sub__(self, other: "Operator") -> "Operator":
        return self + (-other)

    def __mul__(self, other) -> "Operator":
        if isinstance(other, Operator):
            self._check(other)
            acc: Dict[TermKey, List[RationalFunction]] = {}
            _accumulate_product(self, other, acc)
            return _finalize(self.space, acc)
        return self.scaled(other)

    def __rmul__(self, other) -> "Operator":
        return self.scaled(other)

    def scaled(self, scalar) -> "Operator":
        """Multiply every coefficient by a Fraction or RationalFunction."""
        if isinstance(scalar, RationalFunction):
            if scalar.is_zero:
                return Operator.zero(self.space)
            out = {k: v * scalar for k, v in self.terms.items()}
            return Operator(self.space,
                            {k: v for k, v in out.items() if not v.is_zero})
        c = Fraction(scalar)
        if not c:
            return Operator.zero(self.space)
        return Operator(self.space, {k: v * c for k, v in self.terms.items()})

    # substitution and rendering ----------------------------------------------

    def substitute(self, bindings: Mapping[int, Fraction]) -> "Operator":
        """Bind the coupling and/or trap slot to exact rationals."""
        npos = self.space.sites
        for slot in bindings:
            if slot not in (lam_slot(npos), om_slot(npos)):
                raise ValueError(f"slot {slot} is not a parameter slot; "
                                 "positions stay symbolic in operators")
        if not bindings:
            return self
        out: Dict[TermKey, RationalFunction] = {}
        for key, coeff in self.terms.items():
            c = coeff.substitute(bindings)
            if not c.is_zero:
                out[key] = c
        return Operator(self.space, out)

    def sorted_terms(self) -> List[Tuple[TermKey, RationalFunction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def render(self) -> str:
        """Deterministic text form: one `coeff * d-word * spin-word` per line."""
        if not self.terms:
            return "0"
        lines = []
        for (deriv, word), coeff in self.sorted_terms():
            dparts = [f"d{j + 1}" if e == 1 else f"d{j + 1}^{e}"
                      for j, e in enumerate(deriv) if e]
            dstr = "*".join(dparts) or "1"
            wparts = [f"E{site}[{a},{b}]" for (site, a, b) in word]
            wstr = "*".join(wparts) or "1"
            lines.append(f"{coeff.render()} * {dstr} * {wstr}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Operator<{self.space.spin_dim},{self.space.sites}>({self.term_count} terms)"


# ---------------------------------------------------------------------------
# products


def _multi_derivative(r: RationalFunction, gamma: Deriv,
                      cache: Dict) -> RationalFunction:
    if not any(gamma):
        return r
    key = (id(r), gamma)
    hit = cache.get(key)
    if hit is not None:
        return hit
    for j, e in enumerate(gamma, start=1):
        if e:
            lower = gamma[:j - 1] + (e - 1,) + gamma[j:]
            prev = _multi_derivative(r, lower, cache)
            out = prev.derivative(j)
            break
    cache[key] = out
    return out


def _leibniz(alpha: Deriv, r: RationalFunction,
             cache: Dict) -> List[Tuple[Deriv, RationalFunction]]:
    """Expand d^alpha . r into sum of coeff(beta) * d^beta with beta <= alpha."""
    key = ("L", id(r), alpha)
    hit = cache.get(key)
    if hit is not None:
        return hit
    out: List[Tuple[Deriv, RationalFunction]] = []
    for beta in _iproduct(*(range(a + 1) for a in alpha)):
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        rg = _multi_derivative(r, gamma, cache)
        if rg.is_zero:
            continue
        factor = 1
        for a, b in zip(alpha, beta):
            factor *= comb(a, b)
        out.append((beta, rg if factor == 1 else rg * factor))
    cache[key] = out
    return out


def _push(acc: Dict[TermKey, List[RationalFunction]], deriv: Deriv,
          words: List[Tuple[int, SpinWord]], value: RationalFunction) -> None:
    """Add ``value`` times each signed word of ``words`` at ``deriv``."""
    minus = None
    for sign, word in words:
        if sign > 0:
            acc.setdefault((deriv, word), []).append(value)
        else:
            if minus is None:
                minus = -value
            acc.setdefault((deriv, word), []).append(minus)


def _accumulate_product(left: Operator, right: Operator,
                        acc: Dict[TermKey, List[RationalFunction]]) -> None:
    if left.is_zero or right.is_zero:
        return
    zero_deriv = left.space.zero_deriv
    ndim = left.space.spin_dim
    by_deriv: Dict[Deriv, List[Tuple[SpinWord, RationalFunction]]] = {}
    for (deriv, word), coeff in left.terms.items():
        by_deriv.setdefault(deriv, []).append((word, coeff))
    # keyed by id() of coefficients of `right`, which outlives this call
    cache: Dict = {}
    for (rderiv, rword), rcoeff in right.terms.items():
        for alpha, group in by_deriv.items():
            if alpha == zero_deriv:
                expansion = ((zero_deriv, rcoeff),)
            else:
                expansion = _leibniz(alpha, rcoeff, cache)
            for lword, lcoeff in group:
                words = word_mul(ndim, lword, rword)
                if not words:
                    continue
                for beta, rpart in expansion:
                    if beta == zero_deriv:
                        deriv = rderiv
                    else:
                        deriv = tuple(map(_tadd, beta, rderiv))
                    _push(acc, deriv, words, lcoeff * rpart)
        _budget_check(len(acc))


def _finalize(space: OpSpace, acc: Dict[TermKey, List[RationalFunction]]) -> Operator:
    npos = space.sites
    terms: Dict[TermKey, RationalFunction] = {}
    for key, items in acc.items():
        total = rf_sum(npos, items)
        if not total.is_zero:
            terms[key] = total
    _budget_check(len(terms))
    return Operator(space, terms)


def _push_lower(acc: Dict[TermKey, List[RationalFunction]], alpha: Deriv,
                coeff: RationalFunction, other: RationalFunction,
                other_deriv: Deriv, words: List[Tuple[int, SpinWord]],
                cache: Dict) -> None:
    """Push the orders beta < alpha of ``coeff d^alpha . other d^other_deriv``.

    The top order beta = alpha is always the last Leibniz entry, since
    ``other`` is a nonzero stored coefficient.
    """
    expansion = _leibniz(alpha, other, cache)
    for i in range(len(expansion) - 1):
        beta, part = expansion[i]
        _push(acc, tuple(map(_tadd, beta, other_deriv)), words, coeff * part)


def commutator(a: Operator, b: Operator) -> Operator:
    """[a, b] in one pass over the term pairs of a and b.

    A pair (c_s d^alpha_s w_s, c_t d^alpha_t w_t) contributes the top order
    c_s c_t d^(alpha_s+alpha_t) (w_s w_t - w_t w_s), formed only when
    the two signed word products differ: where they are equal it cancels
    exactly and is never built.  The lower Leibniz orders of each side,
    where a derivative of one factor hits the other's coefficient, are
    formed as in a product.
    """
    a._check(b)
    acc: Dict[TermKey, List[RationalFunction]] = {}
    zero_deriv = a.space.zero_deriv
    ndim = a.space.spin_dim
    # keyed by id() of coefficients of `a` and `b`, which outlive this call
    cache: Dict = {}
    for (tderiv, tword), tcoeff in b.terms.items():
        # -c_t leads the lower orders of -b.a, which exist only if alpha_t > 0
        minus_t = -tcoeff if tderiv != zero_deriv else None
        for (sderiv, sword), scoeff in a.terms.items():
            st = word_mul(ndim, sword, tword)
            ts = word_mul(ndim, tword, sword)
            if st != ts:
                value = scoeff * tcoeff
                deriv = tuple(map(_tadd, sderiv, tderiv))
                _push(acc, deriv, st, value)
                _push(acc, deriv, ts, -value)
            if st and sderiv != zero_deriv:
                _push_lower(acc, sderiv, scoeff, tcoeff, tderiv, st, cache)
            if ts and minus_t is not None:
                _push_lower(acc, tderiv, minus_t, scoeff, sderiv, ts, cache)
        _budget_check(len(acc))
    return _finalize(a.space, acc)


def operator_sum(space: OpSpace, items: Iterable[Operator]) -> Operator:
    acc: Dict[TermKey, List[RationalFunction]] = {}
    for op in items:
        if op.space != space:
            raise ShapeMismatchError("mixed operator spaces in sum")
        for key, coeff in op.terms.items():
            acc.setdefault(key, []).append(coeff)
    return _finalize(space, acc)


# ---------------------------------------------------------------------------
# application to spin vectors (the evaluation oracle)

SpinBasis = Tuple[int, ...]
SpinVector = Dict[SpinBasis, RationalFunction]


def word_apply(word: SpinWord, basis: SpinBasis) -> Optional[SpinBasis]:
    """Image of a basis ket under a spin word, or None if annihilated."""
    state = list(basis)
    for (site, a, b) in word:
        if state[site - 1] != b:
            return None
        state[site - 1] = a
    return tuple(state)


def apply_operator(op: Operator, vec: SpinVector) -> SpinVector:
    """Apply an operator to a spin vector with rational-function amplitudes."""
    npos = op.space.sites
    acc: Dict[SpinBasis, List[RationalFunction]] = {}
    # keyed by id() of amplitudes of `vec`, which outlives this call
    cache: Dict = {}
    for (deriv, word), coeff in op.terms.items():
        for basis, amp in vec.items():
            target = word_apply(word, basis)
            if target is None:
                continue
            value = _multi_derivative(amp, deriv, cache)
            if value.is_zero:
                continue
            acc.setdefault(target, []).append(coeff * value)
    out: SpinVector = {}
    for basis, items in acc.items():
        total = rf_sum(npos, items)
        if not total.is_zero:
            out[basis] = total
    return out


def vector_add(a: SpinVector, b: SpinVector,
               scale: Optional[Fraction] = None) -> SpinVector:
    """``a + scale * b`` (``a + b`` without a scale), dropping zero amplitudes."""
    out: SpinVector = dict(a)
    for basis, amp in b.items():
        term = amp if scale is None else amp * scale
        prev = out.get(basis)
        total = term if prev is None else prev + term
        if total.is_zero:
            out.pop(basis, None)
        else:
            out[basis] = total
    return out


def evaluate_vector(vec: SpinVector,
                    point: Sequence[Fraction]) -> Dict[SpinBasis, Fraction]:
    """Evaluate every amplitude at a full point; drops exact zeros."""
    out: Dict[SpinBasis, Fraction] = {}
    for basis, amp in vec.items():
        value = amp.evaluate(point)
        if value:
            out[basis] = value
    return out

