"""Exact sparse arithmetic: multivariate polynomials with integer
coefficients and rational functions whose denominators are a positive
integer times a product of coordinate differences.

Representation choices, shared by the whole engine:

* A polynomial is a dict mapping a packed exponent key to a nonzero
  Python int.  With L position variables there are L + 2 variables:
  x_1..x_L, the coupling `lam` and the trap strength `om`; variable v
  owns bits FIELD_BITS*v .. FIELD_BITS*(v+1) - 1 of the key, so the key
  of a monomial product is one integer addition (the packed monomials of
  Johnson 1974 and of Monagan & Pearce, "Sparse polynomial
  multiplication and division in Maple 14", 2009).  The top bit of each
  field is a guard bit that every stored key keeps clear: the sum of two
  stored keys may set it but never carries into the next field, so one
  mask test catches every exponent overflow, and ExponentOverflowError
  is raised instead of a wrong key.  The zero polynomial is the empty
  dict.
* A denominator profile is a dict mapping ordered site pairs (j, k) with
  1 <= j < k <= L to positive integer exponents; it stands for the
  product of (x_j - x_k)**e over its entries.  Signs from reversed pairs
  are absorbed into the numerator.
* RationalFunction holds a numerator polynomial `num`, a positive integer
  common denominator `denom` and a profile `den`; its value is
  num / (denom * profile).  It keeps itself canonical: the gcd of the
  coefficients and `denom` is 1 (content stripped), the numerator is
  never divisible by an active difference factor, and zero is uniquely
  (empty dict, 1, empty profile).  Equality is plain field equality,
  and the hash is taken over the same fields, once per value.  `split()`
  factors a value as a rational scalar times a primitive representative,
  which every rational multiple of the value shares.
* The packed format stays inside this module.  Other modules build
  values with the constructors, which take exponent tuples (slots 0..L-1
  for x_1..x_L, slot L for `lam`, slot L + 1 for `om`) and rationals,
  and read them back through `terms()`, which yields (exponent tuple,
  Fraction) items.

Difference factors are irreducible, so canonical form never needs a
general multivariate GCD: divisibility by the monic linear factor
(x_j - x_k) is decided exactly by the substitution x_j -> x_k, and the
quotient falls out of synthetic division, which keeps integer
coefficients and, by Gauss's lemma, the content.  Two exact rules
exclude a factor before any division is tried.  Every x_j - x_k vanishes
where all variables are 1, so a numerator with a nonzero coefficient
sum has no difference factor (`_cancel`).  And a derivative by x_j,
written over the profile with each factor containing x_j raised by one,
is prime to those factors, because modulo such a factor only a nonzero
multiple of the canonical numerator times the other factors is left
(`RationalFunction.derivative`).

Polynomial dicts and profiles are shared freely between values and are
never changed once stored; only `_accumulate` writes into a dict, and
only into one its caller built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm
from operator import or_
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, TypeVar

from .errors import (ExponentOverflowError, PoleEvaluationError,
                     ShapeMismatchError)

Exponent = Tuple[int, ...]
Poly = Dict[int, int]
DiffFactor = Tuple[int, int]
Profile = Dict[DiffFactor, int]
Key = TypeVar("Key")

FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
MAX_VARIABLES = 64
_FIELD = (1 << FIELD_BITS) - 1
_GUARD = sum(1 << (FIELD_BITS * v + FIELD_BITS - 1)
             for v in range(MAX_VARIABLES))


def lam_slot(npos: int) -> int:
    """Exponent-tuple slot of the coupling variable."""
    return npos


def om_slot(npos: int) -> int:
    """Exponent-tuple slot of the trap-strength variable."""
    return npos + 1


def nvars(npos: int) -> int:
    return npos + 2


def var_name(npos: int, slot: int) -> str:
    if slot < npos:
        return f"x{slot + 1}"
    if slot == npos:
        return "lam"
    return "om"


# ---------------------------------------------------------------------------
# packed monomial keys


def _overflow() -> ExponentOverflowError:
    return ExponentOverflowError(
        f"an exponent exceeds {MAX_EXPONENT}, the largest that a "
        f"{FIELD_BITS}-bit monomial field holds")


def _check_keys(p: Poly) -> Poly:
    # a set guard bit in any key means some field passed MAX_EXPONENT
    if reduce(or_, p, 0) & _GUARD:
        raise _overflow()
    return p


def _unit(slot: int, power: int = 1) -> int:
    """Packed key of the single variable `slot` raised to `power`."""
    if not 0 <= slot < MAX_VARIABLES:
        raise ShapeMismatchError(
            f"variable slot {slot} outside the {MAX_VARIABLES} packed fields")
    if power < 0:
        raise ValueError("negative exponent")
    if power > MAX_EXPONENT:
        raise _overflow()
    return power << (FIELD_BITS * slot)


def _pack(expo: Sequence[int]) -> int:
    key = 0
    for slot, e in enumerate(expo):
        key += _unit(slot, e)
    return key


def _unpack(key: int, nv: int) -> Exponent:
    return tuple((key >> (FIELD_BITS * v)) & _FIELD for v in range(nv))


# ---------------------------------------------------------------------------
# polynomials


def poly_mul(a: Poly, b: Poly) -> Poly:
    """Product of two polynomials; an overflowing exponent raises."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((ka, ca),) = a.items()
        if not ka:
            if ca == 1:
                return b
            return {kb: ca * cb for kb, cb in b.items()}
        return _check_keys({ka + kb: ca * cb for kb, cb in b.items()})
    out: Poly = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            c = get(k)
            out[k] = ca * cb if c is None else c + ca * cb
    if 0 in out.values():
        out = {k: c for k, c in out.items() if c}
    return _check_keys(out)


def _accumulate(acc: Poly, acc_denom: int, p: Poly, denom: int) -> int:
    """acc/acc_denom += p/denom in place; returns acc's new denominator.

    Only for locally owned `acc`; cancelled monomials are deleted.
    """
    scale = 1
    if denom != acc_denom:
        common = lcm(acc_denom, denom)
        if common != acc_denom:
            lift = common // acc_denom
            for k in acc:
                acc[k] *= lift
            acc_denom = common
        scale = common // denom
    get = acc.get
    for k, c in p.items():
        if scale != 1:
            c *= scale
        s = get(k)
        if s is None:
            acc[k] = c
        else:
            s += c
            if s:
                acc[k] = s
            else:
                del acc[k]
    return acc_denom


def _subst_equal_vars(a: Poly, vj: int, vk: int) -> Poly:
    """Substitute x_vj -> x_vk; the remainder modulo (x_vj - x_vk)."""
    sj = FIELD_BITS * vj
    move = (1 << (FIELD_BITS * vk)) - (1 << sj)
    out: Poly = {}
    get = out.get
    for k, c in a.items():
        e = (k >> sj) & _FIELD
        if e:
            k += e * move
        s = get(k)
        out[k] = c if s is None else s + c
    if 0 in out.values():
        out = {k: c for k, c in out.items() if c}
    return _check_keys(out)


def poly_divexact_diff(a: Poly, vj: int, vk: int):
    """Exact quotient of `a` by (x_vj - x_vk), or None if not divisible.

    vj and vk are variable slots (0-based).  Divisibility is equivalent to
    the remainder `a|_{x_vj -> x_vk}` vanishing; the quotient then comes
    from synthetic division in x_vj.
    """
    if not a:
        return {}
    if _subst_equal_vars(a, vj, vk):
        return None
    sj = FIELD_BITS * vj
    unit_j = 1 << sj
    unit_k = 1 << (FIELD_BITS * vk)
    buckets: Dict[int, Poly] = {}
    for k, c in a.items():
        d = (k >> sj) & _FIELD
        buckets.setdefault(d, {})[k - d * unit_j] = c
    quotient: Poly = {}
    carry: Poly = {}
    for d in range(max(buckets), 0, -1):
        # carry_d = a_d + x_vk * carry_{d+1} is the x_vj^(d-1) coefficient
        step = dict(buckets.get(d, ()))
        _accumulate(step, 1, {k + unit_k: c for k, c in carry.items()}, 1)
        carry = step
        shift = (d - 1) * unit_j
        for k, c in carry.items():
            quotient[k + shift] = c
    return _check_keys(quotient)


def _render_poly(num: Poly, denom: int, npos: int) -> str:
    if not num:
        return "0"
    nv = nvars(npos)
    # canonical order: graded, then lexicographic, largest first
    items = sorted(((_unpack(k, nv), c) for k, c in num.items()),
                   key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    chunks: List[str] = []
    for mono, c in items:
        value = Fraction(c, denom)
        parts = []
        for slot, e in enumerate(mono):
            if e == 1:
                parts.append(var_name(npos, slot))
            elif e > 1:
                parts.append(f"{var_name(npos, slot)}^{e}")
        body = "*".join(parts)
        if not body:
            text = str(value)
        elif value == 1:
            text = body
        elif value == -1:
            text = f"-{body}"
        else:
            text = f"{value}*{body}"
        chunks.append(text)
    out = chunks[0]
    for text in chunks[1:]:
        if text.startswith("-"):
            out += f" - {text[1:]}"
        else:
            out += f" + {text}"
    return out


# ---------------------------------------------------------------------------
# difference-factor helpers

_DIFF_POW_CACHE: Dict[Tuple[int, int, int], Poly] = {}


def diff_power(j: int, k: int, power: int) -> Poly:
    """(x_j - x_k)**power as a polynomial; j < k are 1-based sites."""
    key = (j, k, power)
    cached = _DIFF_POW_CACHE.get(key)
    if cached is None:
        if power > MAX_EXPONENT:
            raise _overflow()
        uj, uk = _unit(j - 1), _unit(k - 1)
        cached = {i * uj + (power - i) * uk:
                  comb(power, i) * (-1) ** (power - i)
                  for i in range(power + 1)}
        _DIFF_POW_CACHE[key] = cached
    return cached


def site_map(m: int, npos: int, sites: Sequence[int]) -> Tuple[int, ...]:
    """`sites` as a tuple, checked to be an increasing map of m positions
    into the 1-based sites 1..npos; ValueError otherwise."""
    sites = tuple(sites)
    if (len(sites) != m or any(a >= b for a, b in zip(sites, sites[1:]))
            or (sites and not (1 <= sites[0] and sites[-1] <= npos))):
        raise ValueError(f"site map {sites} is not an increasing map of "
                         f"{m} positions into sites 1..{npos}")
    return sites


def profile_render(den: Profile, npos: int) -> str:
    parts = []
    for (j, k) in sorted(den):
        e = den[(j, k)]
        base = f"(x{j}-x{k})"
        parts.append(base if e == 1 else f"{base}^{e}")
    return "*".join(parts)


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """Canonical quotient of a polynomial by an integer and a product of
    differences."""

    __slots__ = ("npos", "num", "denom", "den", "_hash")

    def __init__(self, npos: int,
                 terms: Mapping[Exponent, object] | None = None,
                 den: Profile | None = None):
        """Build num / profile from exponent tuples and rational coefficients.

        `terms` maps exponent tuples of length npos + 2 to anything
        Fraction accepts; `den` maps site pairs (j, k), j < k, to
        exponents.  The result is canonical.
        """
        nv = nvars(npos)
        packed: Dict[int, Fraction] = {}
        for expo, c in (terms or {}).items():
            if len(expo) != nv:
                raise ShapeMismatchError(
                    f"exponent tuple {expo} has {len(expo)} slots, "
                    f"expected {nv}")
            packed[_pack(expo)] = Fraction(c)
        profile: Profile = {}
        for (j, k), e in (den or {}).items():
            if not 1 <= j < k <= npos:
                raise ValueError(f"difference factor (x{j}-x{k}) is not an "
                                 f"ordered pair of sites 1..{npos}")
            if e:
                profile[(j, k)] = e
        denom = lcm(*(c.denominator for c in packed.values()))
        num = {k: c.numerator * (denom // c.denominator)
               for k, c in packed.items() if c}
        value = _reduce(npos, num, denom, profile)
        self.npos = npos
        self.num = value.num
        self.denom = value.denom
        self.den = value.den
        self._hash = None

    # constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, npos: int) -> "RationalFunction":
        return _make(npos, {}, 1, {})

    @classmethod
    def const(cls, npos: int, value) -> "RationalFunction":
        if type(value) not in (int, Fraction):
            raise TypeError(f"exact constant must be an int or a Fraction, "
                            f"not {value!r}")
        c = Fraction(value)
        if not c:
            return _make(npos, {}, 1, {})
        return _make(npos, {0: c.numerator}, c.denominator, {})

    @classmethod
    def position(cls, npos: int, j: int, power: int = 1) -> "RationalFunction":
        """x_j**power for the 1-based site j."""
        if not 1 <= j <= npos:
            raise ValueError(f"position index {j} out of range")
        return _make(npos, {_unit(j - 1, power): 1}, 1, {})

    @classmethod
    def coupling(cls, npos: int) -> "RationalFunction":
        return _make(npos, {_unit(lam_slot(npos)): 1}, 1, {})

    @classmethod
    def trap(cls, npos: int) -> "RationalFunction":
        return _make(npos, {_unit(om_slot(npos)): 1}, 1, {})

    @classmethod
    def inverse_difference(cls, npos: int, j: int, k: int,
                           power: int = 1) -> "RationalFunction":
        """1 / (x_j - x_k)**power with the pair stored in sorted order."""
        if j == k:
            raise ValueError("difference factor needs distinct sites")
        sign = 1
        if j > k:
            j, k = k, j
            sign = (-1) ** power
        return _make(npos, {0: sign}, 1, {(j, k): power})

    # accessors and predicates ----------------------------------------------

    def terms(self) -> List[Tuple[Exponent, Fraction]]:
        """Numerator monomials as (exponent tuple, Fraction) items.

        Their sum divided by the profile `den` is the value.
        """
        nv = nvars(self.npos)
        return [(_unpack(k, nv), Fraction(c, self.denom))
                for k, c in self.num.items()]

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunction)
                and self.npos == other.npos
                and self.denom == other.denom
                and self.den == other.den
                and self.num == other.num)

    def __hash__(self) -> int:
        # the fields never change, so the hash is taken once, on first use
        h = self._hash
        if h is None:
            h = self._hash = hash((self.npos, self.denom,
                                   frozenset(self.num.items()),
                                   frozenset(self.den.items())))
        return h

    def split(self) -> Tuple[Fraction, "RationalFunction"]:
        """``(q, p)`` with ``q * p == self`` and ``p`` primitive.

        ``p`` keeps the profile; its numerator has integer coefficients
        with gcd 1, a positive coefficient at the largest packed key, and
        denominator 1.  So ``r``, ``-r`` and every rational multiple of
        ``r`` split to one ``p``.  Zero splits as ``(0, zero)``.
        """
        num = self.num
        if not num:
            return Fraction(0), self
        g = gcd(*num.values())
        if num[max(num)] < 0:
            g = -g
        q = Fraction(g, self.denom)
        if g == 1 and self.denom == 1:
            return q, self
        return q, _make(self.npos, {k: c // g for k, c in num.items()},
                        1, self.den)

    def _check(self, other: "RationalFunction") -> None:
        if self.npos != other.npos:
            raise ShapeMismatchError(
                f"mixed variable tables: {self.npos} and {other.npos} positions")

    # arithmetic -----------------------------------------------------------

    def __neg__(self) -> "RationalFunction":
        return _make(self.npos, {k: -c for k, c in self.num.items()},
                     self.denom, self.den)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        self._check(other)
        return rf_sum(self.npos, (self, other))

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "RationalFunction":
        npos = self.npos
        if not isinstance(other, RationalFunction):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            p, q = other.numerator, other.denominator
            if not p or not self.num:
                return _make(npos, {}, 1, {})
            if p == q == 1:
                return self
            num = self.num if p == 1 else {k: c * p for k, c in self.num.items()}
            # a scalar changes the content but not divisibility
            num, denom = _strip_content(num, self.denom * q)
            return _make(npos, num, denom, self.den)
        self._check(other)
        if not self.num or not other.num:
            return _make(npos, {}, 1, {})
        # A canonical numerator is prime to the factors of its own profile,
        # so only the other operand's numerator can cancel one of them; the
        # product of the two cancelled numerators is then canonical up to
        # its content.
        a, b = self.num, other.num
        left, right = self.den, other.den
        if left:
            b, left = _cancel(b, left, other.den)
        if right:
            a, right = _cancel(a, right, self.den)
        if right:
            den = dict(left)
            for f, e in right.items():
                den[f] = den.get(f, 0) + e
        else:
            den = left
        num, denom = _strip_content(poly_mul(a, b), self.denom * other.denom)
        return _make(npos, num, denom, den)

    def __rmul__(self, other) -> "RationalFunction":
        return self.__mul__(other)

    # calculus and evaluation ----------------------------------------------

    def derivative(self, j: int) -> "RationalFunction":
        """Partial derivative with respect to the position x_j (1-based).

        The result is written directly over the profile in which each
        factor f that contains x_j has its exponent e_f raised by one:
        the numerator is dN * P + N * S, with P the product of those
        factors and S the sum over them of s_f e_f times the product of
        the others, where s_f is -1 when x_j is the first site of f and
        +1 when it is the second.  A raised factor never cancels: modulo
        f only s_f e_f N times the other factors is left, and that is
        nonzero because a canonical N is prime to f and distinct
        difference factors are coprime.  So only factors without x_j are
        tried, and on two sites no division is tried at all.
        """
        if not 1 <= j <= self.npos:
            raise ValueError(f"position index {j} out of range")
        npos, num, denom = self.npos, self.num, self.denom
        shift = FIELD_BITS * (j - 1)
        unit = 1 << shift
        dnum = {}
        for k, c in num.items():
            e = (k >> shift) & _FIELD
            if e:
                dnum[k - unit] = c * e
        raised = {f: e for f, e in self.den.items() if j in f}
        if not raised:
            return _reduce(npos, dnum, denom, self.den)
        # P and S over the raised factors met so far
        prod: Poly = {0: 1}
        weights: Poly = {}
        for (a, b), e in raised.items():
            f = diff_power(a, b, 1)
            step = {k: c * (e if b == j else -e) for k, c in prod.items()}
            if weights:
                _accumulate(step, 1, poly_mul(weights, f), 1)
            weights, prod = step, poly_mul(prod, f)
        total = poly_mul(num, weights)
        if dnum:
            total = dict(total)
            _accumulate(total, 1, poly_mul(dnum, prod), 1)
        total, denom = _strip_content(total, denom)
        den = dict(self.den)
        for f in raised:
            den[f] += 1
        if len(raised) < len(den):
            total, den = _cancel(total, den, raised)
        return _make(npos, total, denom, den)

    def embed(self, npos: int, sites: Sequence[int]) -> "RationalFunction":
        """The value on an `npos`-position table, with position i moved to
        the 1-based site ``sites[i-1]`` and `lam` and `om` to their new
        slots.

        `sites` must be increasing and within 1..npos, one site per
        position of this value.  A profile pair (j, k) becomes
        (sites[j-1], sites[k-1]) in the same order, so no sign appears.
        The map is an injective renaming of variables, a ring
        monomorphism that sends each difference factor to a difference
        factor; it keeps the content and every divisibility by a
        difference factor, so a canonical value stays canonical.  The
        identity map returns the value itself.
        """
        sites = site_map(self.npos, npos, sites)
        if npos == self.npos:
            return self
        num, den = self.num, self.den
        # a constant (only the key 0, no profile) keeps its fields as they are
        if den or any(num):
            shifts = [FIELD_BITS * (s - 1) for s in sites] + [
                FIELD_BITS * lam_slot(npos), FIELD_BITS * om_slot(npos)]
            moved: Poly = {}
            for k, c in num.items():
                key = 0
                for shift in shifts:
                    if k:
                        key |= (k & _FIELD) << shift
                        k >>= FIELD_BITS
                moved[key] = c
            num = moved
            den = {(sites[j - 1], sites[k - 1]): e for (j, k), e in den.items()}
        return _make(npos, num, self.denom, den)

    def substitute(self, bindings: Mapping[int, Fraction]) -> "RationalFunction":
        """Bind the coupling and/or trap slot to exact rationals.

        Positions stay symbolic: they are bound only by ``evaluate``.  So
        the profile is kept, and no binding can meet a pole.
        """
        npos = self.npos
        for slot in bindings:
            if slot not in (lam_slot(npos), om_slot(npos)):
                raise ValueError(f"slot {slot} is not a parameter slot; "
                                 "positions stay symbolic")
        if not bindings:
            return self
        num, denom = self.num, self.denom
        for slot, v in bindings.items():
            v = Fraction(v)
            p, q = v.numerator, v.denominator
            shift = FIELD_BITS * slot
            # clear q**e from every term by one common power of q
            top = max(((k >> shift) & _FIELD for k in num), default=0) \
                if q != 1 else 0
            out: Poly = {}
            for k, c in num.items():
                e = (k >> shift) & _FIELD
                if e:
                    if not p:
                        continue
                    k -= e << shift
                    c *= p ** e
                if top > e:
                    c *= q ** (top - e)
                s = out.get(k)
                out[k] = c if s is None else s + c
            if 0 in out.values():
                out = {k: c for k, c in out.items() if c}
            num, denom = out, denom * q ** top
        return _reduce(npos, num, denom, self.den)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Exact value at a full point (positions, lam, om)."""
        nv = nvars(self.npos)
        if len(point) != nv:
            raise ShapeMismatchError(
                f"point has {len(point)} coordinates, expected {nv}")
        coords = [Fraction(v) for v in point]
        value = Fraction(0)
        for k, c in self.num.items():
            term = Fraction(c)
            for slot, e in enumerate(_unpack(k, nv)):
                if e:
                    term *= coords[slot] ** e
            value += term
        value /= self.denom
        for (j, k), e in self.den.items():
            d = coords[j - 1] - coords[k - 1]
            if not d:
                raise PoleEvaluationError(f"(x{j}-x{k}) vanishes at the point")
            value /= d ** e
        return value

    # rendering -------------------------------------------------------------

    def render(self) -> str:
        num = _render_poly(self.num, self.denom, self.npos)
        if not self.den:
            return f"({num})"
        return f"({num}) / ({profile_render(self.den, self.npos)})"

    def __repr__(self) -> str:
        return f"RationalFunction[{self.render()}]"


def _make(npos: int, num: Poly, denom: int, den: Profile) -> RationalFunction:
    """A RationalFunction from its parts, taken as they are.

    Callers pass canonical parts.
    """
    r = object.__new__(RationalFunction)
    r.npos = npos
    r.num = num
    r.denom = denom
    r.den = den
    r._hash = None
    return r


def _strip_content(num: Poly, denom: int) -> Tuple[Poly, int]:
    """Divide the coefficients and `denom` by their gcd."""
    if denom != 1:
        g = gcd(denom, *num.values())
        if g != 1:
            return {k: c // g for k, c in num.items()}, denom // g
    return num, denom


def _reduce(npos: int, num: Poly, denom: int, den: Profile) -> RationalFunction:
    """Canonical form of num / (denom * den).

    `num` must hold no zero coefficient and `denom` must be positive.
    """
    if not num:
        return _make(npos, {}, 1, {})
    num, denom = _strip_content(num, denom)
    if not den:
        return _make(npos, num, denom, den)
    num, den = _cancel(num, den, {})
    return _make(npos, num, denom, den)


def _cancel(num: Poly, factors: Profile, prime: Profile) -> Tuple[Poly, Profile]:
    """Divide `num` by the factors of `factors` that are not in `prime`, each
    as often as it divides and its exponent allows.

    `prime` lists factors already known not to divide `num`.  Returns the
    quotient and the factors left over; `factors` itself is not changed.

    Every x_j - x_k vanishes where all variables are 1, so a numerator
    whose coefficient sum is nonzero is divisible by no difference
    factor.  That sum is taken just before the first trial division and
    again after each division that succeeds; while it is nonzero, no
    further division is tried.
    """
    left = factors
    occupied = reduce(or_, num, 0)
    weight = None  # coefficient sum of `num`, once taken
    for factor, e in factors.items():
        if factor in prime:
            continue
        sj, sk = FIELD_BITS * (factor[0] - 1), FIELD_BITS * (factor[1] - 1)
        cut = 0
        # a numerator free of x_j or of x_k is not divisible by x_j - x_k
        while (cut < e and (occupied >> sj) & _FIELD
               and (occupied >> sk) & _FIELD):
            if weight is None:
                weight = sum(num.values())
            if weight:
                break
            q = poly_divexact_diff(num, factor[0] - 1, factor[1] - 1)
            if q is None:
                break
            num = q
            occupied = reduce(or_, num, 0)
            weight = None
            cut += 1
        if cut:
            if left is factors:
                left = dict(factors)
            if cut == e:
                del left[factor]
            else:
                left[factor] = e - cut
        if weight:
            break
    return num, left


class LiftTable:
    """Sums ``sum_k q_k / m * reps[k]`` over rows of one list of canonical
    primitive representatives (``RationalFunction.split``: integer
    numerator, denominator 1) and one positive integer ``m``.

    A row's numerators are lifted to the least common multiple of its
    profiles, its target, and ``sum_k q_k * lift`` is accumulated in
    integers before one reduction of a nonzero total.  ``totals`` sums
    the rows one target at a time and keeps each lift while the rows of
    its target are summed, so a representative met again under the same
    target costs no ``poly_mul``, and the lifts of one target are dropped
    before the next.  A one-item row is one scaled representative, kept
    per (representative, scalar).  A factor that only one item of the row
    carries at its top exponent divides every other lifted term but not
    that item's (its canonical numerator is prime to the factor, and
    distinct difference factors are coprime), so no division by it is
    tried.  Each sum equals ``rf_sum`` of the scaled representatives:
    both are canonical, and canonical forms are unique.  A table serves
    one list of representatives, for one caller.
    """

    __slots__ = ("npos", "reps", "m", "_ids", "_profiles", "_profile_of",
                 "_lcms", "_scaled")

    def __init__(self, npos: int, reps: Sequence[RationalFunction], m: int):
        self.npos = npos
        self.reps = reps
        self.m = m
        self._ids: Dict[frozenset, int] = {}
        self._profiles: List[Profile] = []
        self._profile_of = [self._profile_id(r.den) for r in reps]
        self._lcms: Dict[frozenset, Tuple[int, Dict[DiffFactor, int]]] = {}
        self._scaled: Dict[Tuple[int, object], RationalFunction] = {}

    def _profile_id(self, den: Profile) -> int:
        key = frozenset(den.items())
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self._profiles)
            self._profiles.append(den)
        return i

    def _lcm(self, ids: frozenset) -> Tuple[int, Dict[DiffFactor, int]]:
        """The lcm of the profiles ``ids``, and each of its factors that
        only one of them carries at the top exponent, with that profile."""
        hit = self._lcms.get(ids)
        if hit is None:
            den: Profile = {}
            solo: Dict[DiffFactor, int] = {}
            for j in ids:
                for f, e in self._profiles[j].items():
                    top = den.get(f, 0)
                    if e > top:
                        den[f] = e
                        solo[f] = j
                    elif e == top:
                        solo.pop(f, None)
            hit = self._lcms[ids] = (self._profile_id(den), solo)
        return hit

    def _lift(self, k: int, target: Profile) -> Poly:
        """``reps[k]``'s numerator over the profile ``target``."""
        p = self.reps[k].num
        own = self._profiles[self._profile_of[k]]
        for f, e in target.items():
            gap = e - own.get(f, 0)
            if gap:
                p = poly_mul(p, diff_power(f[0], f[1], gap))
        return p

    def _scaled_rep(self, item: Tuple[int, object]) -> RationalFunction:
        hit = self._scaled.get(item)
        if hit is None:
            k, q = item
            hit = self._scaled[item] = self.reps[k] * (
                q if self.m == 1 else Fraction(q, self.m))
        return hit

    def totals(self, rows: Mapping[Key, Mapping[int, object]]
               ) -> Dict[Key, RationalFunction]:
        """``sum_k row[k] / m * reps[k]`` for each row, canonical, keyed as
        the rows are and in their order, with the zero sums left out; the
        scalars are ints or Fractions."""
        out: Dict[Key, RationalFunction] = {}
        by_target: Dict[int, list] = {}
        for key, row in rows.items():
            live = [(k, q) for k, q in row.items() if q]
            if len(live) == 1:
                out[key] = self._scaled_rep(live[0])
            elif live:
                out[key] = None
                ids = [self._profile_of[k] for k, _ in live]
                if ids.count(ids[0]) == len(ids):
                    target, prime = ids[0], ()
                else:
                    target, solo = self._lcm(frozenset(ids))
                    prime = [f for f, j in solo.items() if ids.count(j) == 1]
                by_target.setdefault(target, []).append((key, prime))
        for target, group in by_target.items():
            den = self._profiles[target]
            lifts: Dict[int, Poly] = {}
            for key, prime in group:
                live = [(k, q) for k, q in rows[key].items() if q]
                d = lcm(*(q.denominator for _, q in live))
                total: Poly = {}
                get = total.get
                for k, q in live:
                    c = q.numerator * (d // q.denominator)
                    lift = lifts.get(k)
                    if lift is None:
                        lift = lifts[k] = self._lift(k, den)
                    for mono, v in lift.items():
                        s = get(mono)
                        total[mono] = c * v if s is None else s + c * v
                if 0 in total.values():
                    total = {mono: v for mono, v in total.items() if v}
                if total:
                    num, denom = _strip_content(total, self.m * d)
                    num, left = _cancel(num, den, prime)
                    out[key] = _make(self.npos, num, denom, left)
        return {key: v for key, v in out.items() if v is not None}


def rf_sum(npos: int, items: Iterable[RationalFunction]) -> RationalFunction:
    """Sum many rational functions with a single canonicalization pass.

    Numerators that share a profile are summed first; the partial sums
    are then lifted to the least common multiple of the profiles.  Two or
    more items may be in any form, since the sum is canonicalized; a
    single item is returned as it is.  `RationalFunction.derivative`
    feeds it no raw pieces: it writes its result in closed form.
    """
    live = [r for r in items if r.num]
    if not live:
        return _make(npos, {}, 1, {})
    if len(live) == 1:
        return live[0]
    groups: List[list] = []  # [profile, owned numerator, denominator]
    for r in live:
        if r.npos != npos:
            raise ShapeMismatchError("mixed variable tables in sum")
        den = r.den
        for group in groups:
            if group[0] == den:
                group[2] = _accumulate(group[1], group[2], r.num, r.denom)
                break
        else:
            groups.append([den, dict(r.num), r.denom])
    if len(groups) == 1:
        den, total, denom = groups[0]
    else:
        den = {}
        for group in groups:
            for f, e in group[0].items():
                if e > den.get(f, 0):
                    den[f] = e
        total, denom = {}, 1
        for profile, p, d in groups:
            if not p:
                continue
            for f, e in den.items():
                gap = e - profile.get(f, 0)
                if gap:
                    p = poly_mul(p, diff_power(f[0], f[1], gap))
            denom = _accumulate(total, denom, p, d)
    if not total:
        return _make(npos, {}, 1, {})
    return _reduce(npos, total, denom, den)

