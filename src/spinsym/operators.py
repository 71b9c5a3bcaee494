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
from fractions import Fraction
from itertools import product as _iproduct
from math import comb, lcm
from operator import add as _tadd
from operator import sub as _tsub
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, TypeVar, Union)

from .errors import ShapeMismatchError, TermBudgetError
from .exact import RationalFunction, rf_sum
from .value import Value

Deriv = Tuple[int, ...]
SpinAtom = Tuple[int, int, int]
SpinWord = Tuple[SpinAtom, ...]
TermKey = Tuple[Deriv, SpinWord]
Key = TypeVar("Key")

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


class OpSpace(Value):
    """Shape of an operator algebra: N spin states on each of L sites."""

    __slots__ = ("spin_dim", "sites")

    def __init__(self, spin_dim: int, sites: int):
        if spin_dim < 1 or sites < 1:
            raise ValueError("OpSpace needs positive spin dimension and sites")
        self._freeze(spin_dim, sites)

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

    __slots__ = ("space", "terms", "_rows", "__weakref__")

    def __init__(self, space: OpSpace, terms: Dict[TermKey, RationalFunction]):
        """Wrap terms that are already in normal form: reduced spin words,
        no zero coefficients, every coefficient over ``space.sites``
        positions.  The dict is kept, not copied, and never mutated."""
        self.space = space
        self.terms = terms
        # the action rows of apply_operator, one per source ket, built on
        # first use from ``terms`` alone
        self._rows: Optional[Dict[SpinBasis, ActionRow]] = None

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
        return operator_combination(self.space, ((1, self), (1, other)))

    def __sub__(self, other: "Operator") -> "Operator":
        return operator_combination(self.space, ((1, self), (-1, other)))

    def __mul__(self, other) -> "Operator":
        if isinstance(other, Operator):
            self._check(other)
            acc: Dict[TermKey, List[RationalFunction]] = {}
            _accumulate_product(self, other, acc)
            return _finalize(self.space, _key_sums(self.space.sites,
                                                   acc.items()))
        return self.scaled(other)

    def __rmul__(self, other) -> "Operator":
        return self.scaled(other)

    def scaled(self, scalar) -> "Operator":
        """Multiply every coefficient by a Fraction or RationalFunction."""
        return operator_combination(self.space, ((scalar, self),))

    # substitution and rendering ----------------------------------------------

    def substitute(self, bindings: Mapping[int, Fraction]) -> "Operator":
        """Bind the coupling and/or trap slot to exact rationals; any other
        slot raises ValueError (``RationalFunction.substitute``)."""
        if not bindings:
            return self
        out: Dict[TermKey, RationalFunction] = {}
        for key, coeff in self.terms.items():
            c = coeff.substitute(bindings)
            if c:
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
                      memo: Dict[Deriv, RationalFunction]) -> RationalFunction:
    """d^gamma r; ``memo`` holds the derivatives of this one ``r``.  Products,
    commutators and ``apply_operator`` share this recursion, which returns a
    zero lower derivative as it is."""
    if not any(gamma):
        return r
    hit = memo.get(gamma)
    if hit is None:
        j = next(j for j, e in enumerate(gamma) if e)
        prev = _multi_derivative(
            r, gamma[:j] + (gamma[j] - 1,) + gamma[j + 1:], memo)
        hit = memo[gamma] = prev.derivative(j + 1) if prev else prev
    return hit


def _leibniz_orders(alpha: Deriv) -> Iterator[Tuple[Deriv, Deriv, int]]:
    """``(beta, alpha - beta, prod_j C(alpha_j, beta_j))`` for every
    ``beta <= alpha``: the orders of ``d^alpha . r = sum C d^(alpha-beta) r
    d^beta``."""
    for beta in _iproduct(*(range(a + 1) for a in alpha)):
        factor = 1
        for a, b in zip(alpha, beta):
            factor *= comb(a, b)
        yield beta, tuple(map(_tsub, alpha, beta)), factor


def _leibniz(alpha: Deriv, r: RationalFunction,
             memo: Dict[Deriv, RationalFunction]
             ) -> List[Tuple[Deriv, RationalFunction]]:
    """Expand d^alpha . r into sum of coeff(beta) * d^beta with beta <= alpha;
    ``memo`` holds the derivatives of this one ``r``."""
    out: List[Tuple[Deriv, RationalFunction]] = []
    for beta, gamma, factor in _leibniz_orders(alpha):
        rg = _multi_derivative(r, gamma, memo)
        if rg:
            out.append((beta, rg if factor == 1 else rg * factor))
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
    for (rderiv, rword), rcoeff in right.terms.items():
        memo: Dict[Deriv, RationalFunction] = {}
        for alpha, group in by_deriv.items():
            if alpha == zero_deriv:
                expansion = ((zero_deriv, rcoeff),)
            else:
                expansion = _leibniz(alpha, rcoeff, memo)
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


def _key_sums(npos: int, sums: Iterable[Tuple[Key, Iterable[RationalFunction]]],
              out: Optional[Dict[Key, RationalFunction]] = None
              ) -> Dict[Key, RationalFunction]:
    """One ``rf_sum`` per key of ``sums``, written into ``out`` (by default
    a new dict): a nonzero sum replaces the key's entry, a zero sum removes
    it."""
    out = {} if out is None else out
    for key, items in sums:
        total = rf_sum(npos, items)
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def _finalize(space: OpSpace, terms: Dict[TermKey, RationalFunction]
              ) -> Operator:
    _budget_check(len(terms))
    return Operator(space, terms)


Scalar = Union[int, Fraction]
ClassTerm = Tuple[Scalar, int]  # q * reps[i]
ScaledTerm = Tuple[Deriv, SpinWord, int, int]  # (deriv, word, n, i)


class _CoefficientClasses:
    """The coefficients of one commutator, each as a scalar times
    ``reps[i]``.

    ``reps`` holds one primitive representative per class of coefficients
    equal up to a rational factor (``RationalFunction.split``), and the
    memos hold each product of two classes, each derivative of a
    representative (through ``_multi_derivative``) and each Leibniz
    expansion once.  A table lives for one call.
    """

    def __init__(self) -> None:
        self.reps: List[RationalFunction] = []
        self._index: Dict[RationalFunction, int] = {}
        self._products: Dict[Tuple[int, int], ClassTerm] = {}
        self._memos: Dict[int, Dict[Deriv, RationalFunction]] = {}
        self._lower: Dict[Tuple[Deriv, int, int],
                          List[Tuple[Deriv, Scalar, int]]] = {}

    def _intern(self, r: RationalFunction) -> Tuple[Fraction, int]:
        q, p = r.split()
        i = self._index.get(p)
        if i is None:
            i = self._index[p] = len(self.reps)
            self.reps.append(p)
        return q, i

    def _class_term(self, r: RationalFunction) -> ClassTerm:
        # products and derivatives of representatives, whose denominator
        # is 1, split with integer scalars
        q, i = self._intern(r)
        return (q.numerator if q.denominator == 1 else q), i

    def terms(self, op: Operator) -> Tuple[List[ScaledTerm], int]:
        """The terms of ``op`` as ``(deriv, word, n, i)``, and ``m``.

        Every coefficient equals ``n / m * reps[i]``, with integer ``n``
        and one common denominator ``m``.
        """
        split = [(deriv, word) + self._intern(coeff)
                 for (deriv, word), coeff in op.terms.items()]
        m = lcm(*(q.denominator for _, _, q, _ in split))
        return [(deriv, word, q.numerator * (m // q.denominator), i)
                for deriv, word, q, i in split], m

    def product(self, i: int, j: int) -> ClassTerm:
        key = (i, j) if i <= j else (j, i)
        hit = self._products.get(key)
        if hit is None:
            hit = self._products[key] = self._class_term(
                self.reps[i] * self.reps[j])
        return hit

    def lower(self, alpha: Deriv, i: int,
              j: int) -> List[Tuple[Deriv, Scalar, int]]:
        """The orders beta < alpha of ``reps[i] d^alpha . reps[j]``.

        Each entry ``(beta, q, k)`` stands for ``q * reps[k] d^beta``.
        """
        key = (alpha, i, j)
        hit = self._lower.get(key)
        if hit is not None:
            return hit
        out = []
        memo = self._memos.setdefault(j, {})
        for beta, gamma, factor in _leibniz_orders(alpha):
            if beta != alpha and (d := _multi_derivative(self.reps[j], gamma,
                                                         memo)):
                p, dj = self._class_term(d)
                q, k = self.product(i, dj)
                out.append((beta, factor * p * q, k))
        self._lower[key] = out
        return out


def _push_scalar(acc: Dict[TermKey, Dict[int, Scalar]], deriv: Deriv,
                 words: List[Tuple[int, SpinWord]], k: int,
                 q: Scalar) -> None:
    """Add ``q * reps[k]`` times each signed word of ``words`` at ``deriv``."""
    for sign, word in words:
        row = acc.get((deriv, word))
        if row is None:
            acc[(deriv, word)] = {k: q if sign > 0 else -q}
        else:
            row[k] = row.get(k, 0) + (q if sign > 0 else -q)


def commutator(a: Operator, b: Operator) -> Operator:
    """[a, b] in one pass over the term pairs of a and b.

    A pair (c_s d^alpha_s w_s, c_t d^alpha_t w_t) contributes the top order
    c_s c_t d^(alpha_s+alpha_t) (w_s w_t - w_t w_s), formed only when
    the two signed word products differ: where they are equal it cancels
    exactly and is never built.  The lower Leibniz orders of each side,
    where a derivative of one factor hits the other's coefficient, are
    formed as in a product.

    Every coefficient is carried as an integer times the representative of
    its class (_CoefficientClasses), over one common denominator per
    operand.  So each product of two classes, each Leibniz expansion and
    each product of two words is formed once per call, and each term of
    the result sums integers per class before one scaled representative
    per class goes to rf_sum.
    """
    a._check(b)
    classes = _CoefficientClasses()
    left, ma = classes.terms(a)
    right, mb = classes.terms(b)
    by_word: Dict[SpinWord, List[Tuple[Deriv, int, int]]] = {}
    for sderiv, sword, qs, cs in left:
        by_word.setdefault(sword, []).append((sderiv, qs, cs))
    # per word of b: each group of a's terms with w_s w_t and w_t w_s
    word_pairs: Dict[SpinWord, list] = {}
    acc: Dict[TermKey, Dict[int, Scalar]] = {}
    zero_deriv = a.space.zero_deriv
    ndim = a.space.spin_dim
    for tderiv, tword, qt, ct in right:
        pairs = word_pairs.get(tword)
        if pairs is None:
            pairs = word_pairs[tword] = [
                (group, word_mul(ndim, sword, tword),
                 word_mul(ndim, tword, sword))
                for sword, group in by_word.items()]
        t_lower = tderiv != zero_deriv
        for group, st, ts in pairs:
            top = st != ts
            if not top and not st:
                continue
            lower_ts = ts and t_lower
            for sderiv, qs, cs in group:
                lower_st = st and sderiv != zero_deriv
                if not top and not lower_st and not lower_ts:
                    continue
                qst = qs * qt
                if top:
                    q, k = classes.product(cs, ct)
                    q *= qst
                    deriv = tuple(map(_tadd, sderiv, tderiv))
                    _push_scalar(acc, deriv, st, k, q)
                    _push_scalar(acc, deriv, ts, k, -q)
                if lower_st:
                    for beta, q, k in classes.lower(sderiv, cs, ct):
                        _push_scalar(acc, tuple(map(_tadd, beta, tderiv)),
                                     st, k, qst * q)
                if lower_ts:
                    for beta, q, k in classes.lower(tderiv, ct, cs):
                        _push_scalar(acc, tuple(map(_tadd, beta, sderiv)),
                                     ts, k, -qst * q)
        _budget_check(len(acc))
    reps = classes.reps
    m = ma * mb
    return _finalize(a.space, _key_sums(a.space.sites, (
        (key, [reps[k] * (q if m == 1 else Fraction(q, m))
               for k, q in row.items() if q])
        for key, row in acc.items())))


def _combine(npos: int,
             items: Iterable[Tuple[Union[Scalar, RationalFunction],
                                   Mapping[Key, RationalFunction]]]
             ) -> Dict[Key, RationalFunction]:
    """``sum c * terms`` over ``(c, terms)``, key by key.

    Each coefficient is scaled once (``c = 1`` takes it as it is, and an
    item with ``c = 0`` is skipped) and gathered under its key.  A key met
    once keeps its one value, which is nonzero as a product of nonzero
    factors; the values of a key met more than once go to one ``rf_sum``.
    """
    out: Dict[Key, RationalFunction] = {}
    more: Dict[Key, List[RationalFunction]] = {}
    for c, terms in items:
        if not c:
            continue
        if c == -1:
            # negation keeps the content: no gcd, unlike value * -1
            terms = {key: -value for key, value in terms.items()}
        elif c != 1:
            terms = {key: value * c for key, value in terms.items()}
        if not out:
            out = dict(terms)
            continue
        for key, value in terms.items():
            if key in out:
                more.setdefault(key, [out[key]]).append(value)
            else:
                out[key] = value
    return _key_sums(npos, more.items(), out)


def operator_combination(
        space: OpSpace,
        items: Iterable[Tuple[Union[Scalar, RationalFunction], Operator]]
) -> Operator:
    """``sum c * op`` over ``(c, op)``, with ``c`` a rational or a
    RationalFunction; every sum, difference and scaling of operators."""
    parts = []
    for c, op in items:
        if op.space != space:
            raise ShapeMismatchError(
                f"mixed operator spaces: {space} and {op.space}")
        parts.append((c, op.terms))
    return _finalize(space, _combine(space.sites, parts))


def operator_sum(space: OpSpace, items: Iterable[Operator]) -> Operator:
    return operator_combination(space, ((1, op) for op in items))


# ---------------------------------------------------------------------------
# application to spin vectors (the evaluation oracle)

SpinBasis = Tuple[int, ...]
SpinVector = Dict[SpinBasis, RationalFunction]
ActionRow = List[Tuple[Deriv, SpinBasis, RationalFunction]]


def word_apply(word: SpinWord, basis: SpinBasis) -> Optional[SpinBasis]:
    """Image of a basis ket under a spin word, or None if annihilated."""
    state = list(basis)
    for (site, a, b) in word:
        if state[site - 1] != b:
            return None
        state[site - 1] = a
    return tuple(state)


def _action_row(op: Operator, ket: SpinBasis) -> ActionRow:
    """How ``op`` acts on one basis ket: ``(deriv, target, coeff)`` entries.

    The coefficients of all terms with the same derivative that send the
    ket to the same target are summed once; zero sums are dropped.  Rows
    are kept on the operator, built on first use, one ket at a time.
    """
    rows = op._rows
    if rows is None:
        rows = op._rows = {}
    row = rows.get(ket)
    if row is None:
        acc: Dict[Tuple[Deriv, SpinBasis], List[RationalFunction]] = {}
        for (deriv, word), coeff in op.terms.items():
            target = word_apply(word, ket)
            if target is not None:
                acc.setdefault((deriv, target), []).append(coeff)
        row = rows[ket] = [
            (deriv, target, total) for (deriv, target), total
            in _key_sums(op.space.sites, acc.items()).items()]
    return row


def apply_operator(op: Operator, vec: SpinVector) -> SpinVector:
    """Apply an operator to a spin vector with rational-function amplitudes.

    Each ket reads its action row (``_action_row``); each derivative of
    its amplitude is formed once per call.
    """
    acc: Dict[SpinBasis, List[RationalFunction]] = {}
    for ket, amp in vec.items():
        memo: Dict[Deriv, RationalFunction] = {}
        for deriv, target, coeff in _action_row(op, ket):
            value = _multi_derivative(amp, deriv, memo)
            if not value.is_zero:
                acc.setdefault(target, []).append(coeff * value)
    return _key_sums(op.space.sites, acc.items())


def vector_combination(npos: int, items: Iterable[Tuple[Scalar, SpinVector]]
                       ) -> SpinVector:
    """``sum c * v`` over ``(c, v)``, as operator_combination sums terms."""
    return _combine(npos, items)


def evaluate_vector(vec: SpinVector,
                    point: Sequence[Fraction]) -> Dict[SpinBasis, Fraction]:
    """Evaluate every amplitude at a full point; drops exact zeros."""
    out: Dict[SpinBasis, Fraction] = {}
    for basis, amp in vec.items():
        value = amp.evaluate(point)
        if value:
            out[basis] = value
    return out

