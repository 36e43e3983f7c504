"""Exact multivariate polynomials over Q in block-graded rings.

A :class:`PolyRing` is a polynomial ring whose variables come in blocks
(one per projective factor), graded by the per-block total degree as its
:class:`~mgimplicit.regions.BlockStructure` says: ``s`` blocks for the
parameter ring of ``P^{r_1} x ... x P^{r_s}``, one block for the target
ring ``k[T_0..T_n]`` of ``P^n``.  A polynomial never mixes two rings.

Representation: a term map ``exponent tuple -> coefficient`` with dense
exponent tuples (variable counts here are tiny) and no zero coefficients
stored.  Coefficients are exact rationals; integral values are stored as
plain ``int`` for speed.

The canonical term order is graded lexicographic, blocks by index,
variables by position inside a block, ``T_0 > T_1 > ... > T_n``; printing
and iteration are always in descending canonical order, so rendered
polynomials are byte-stable.

Text grammar (also in the README)::

    poly   ::= ['+'|'-'] term (('+'|'-') term)*
    term   ::= coeff ['*' factors] | factors
    factors::= factor ('*' factor)*
    factor ::= var ['^' nat]
    coeff  ::= nat ['/' nat]
    var    ::= [A-Za-z_][A-Za-z_0-9]*

with explicit ``*`` between all factors; a ring accepts only names that
are a ``var``.  ``"0"`` denotes the zero polynomial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm

from .regions import BlockStructure

Rational = int | Fraction

# a variable name, as the tokenizer reads one back
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"


class PolyParseError(ValueError):
    """Malformed polynomial text (carries a character position)."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class RingMismatchError(ValueError):
    """Operands live in different rings."""


class NotMultihomogeneousError(ValueError):
    """Polynomial has terms of different block degrees (or is zero)."""


@dataclass(frozen=True)
class PolyRing:
    """Variable context for :class:`MultiPoly`: the variable names, block
    by block, and the grading ``blocks`` (``r_i + 1`` names in block i)."""

    names: tuple[str, ...]
    blocks: BlockStructure

    def __post_init__(self):
        for name in self.names:
            if not isinstance(name, str) or not re.fullmatch(_NAME, name):
                raise ValueError(
                    f"variable name {name!r} cannot be read back: a name is a letter or '_' "
                    "followed by letters, digits or '_'"
                )
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        if self.blocks.nvars != len(self.names):
            raise ValueError("block sizes do not cover the variable names")

    @cached_property
    def index(self):
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def block_slices(self):
        out = []
        start = 0
        for ri in self.blocks.r:
            out.append((start, start + ri + 1))
            start += ri + 1
        return tuple(out)

    @property
    def nvars(self):
        return len(self.names)

    def block_degrees(self, exps):
        """Per-block total degree of an exponent tuple."""
        return tuple(sum(exps[a:b]) for a, b in self.block_slices)


def parameter_ring(blocks) -> PolyRing:
    """Build the block-graded ring from name groups, e.g. ``[["s","u"],["t","v"]]``."""
    groups = [tuple(g) for g in blocks]
    names = tuple(n for g in groups for n in g)
    return PolyRing(names, BlockStructure(tuple(len(g) - 1 for g in groups)))


def target_ring(names_or_count) -> PolyRing:
    """Build the one-block (standard-graded) ring, from names or as ``T_0..T_{n}``."""
    if isinstance(names_or_count, int):
        names_or_count = [f"T_{i}" for i in range(names_or_count)]
    return parameter_ring([names_or_count])


def _whole(x):
    """Collapse integral Fractions to int (cheaper arithmetic, same value)."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def _term_key(exps):
    return (sum(exps), exps)


def _monomial_str(names, exps):
    """``name^e`` factors joined by ``*``; empty for the constant monomial."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e)


class MultiPoly:
    """Immutable-by-convention exact polynomial attached to a :class:`PolyRing`."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def constant(cls, ring, c):
        c = _whole(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        if c == 0:
            return cls.zero(ring)
        return cls(ring, {(0,) * ring.nvars: c})

    @classmethod
    def monomial(cls, ring, exps, coeff=1):
        coeff = _whole(coeff)
        if coeff == 0:
            return cls.zero(ring)
        return cls(ring, {tuple(exps): coeff})

    @classmethod
    def from_terms(cls, ring, items):
        acc = {}
        for exps, c in items:
            exps = tuple(exps)
            c0 = acc.get(exps, 0) + c
            if c0:
                acc[exps] = c0
            else:
                acc.pop(exps, None)
        return cls(ring, {e: _whole(c) for e, c in acc.items()})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(sum(e) for e in self.terms)

    def coeff(self, exps):
        return self.terms.get(tuple(exps), 0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _term_key(kv[0]), reverse=True)

    def leading(self):
        """(exponents, coefficient) of the canonical leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_term_key)
        return exps, self.terms[exps]

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("operands live in different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.ring, other)
        self._check_ring(other)
        return MultiPoly.from_terms(self.ring, chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = _whole(c)
        if c == 0:
            return MultiPoly.zero(self.ring)
        return MultiPoly(self.ring, {e: _whole(k * c) for e, k in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ring(other)
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.ring)
        # a constant factor is a scale, which keeps the other's exponent
        # tuples instead of building equal new ones
        for p, q in ((self, other), (other, self)):
            if len(q.terms) == 1:
                ((exps, c),) = q.terms.items()
                if not any(exps):
                    return p.scale(c)
        acc = {}
        get = acc.get
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c0 = get(e, 0) + ca * cb
                if c0:
                    acc[e] = c0
                else:
                    del acc[e]
        return MultiPoly(self.ring, {e: _whole(c) for e, c in acc.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.ring, other)
        return (
            isinstance(other, MultiPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        # a constant equals its value (see __eq__), so it hashes like it
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1:
            ((exps, c),) = self.terms.items()
            if not any(exps):
                return hash(c)
        return hash((self.ring, frozenset(self.terms.items())))

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps, c in self.sorted_terms():
            mono = _monomial_str(self.ring.names, exps)
            neg = c < 0
            a = -c if neg else c
            if mono:
                body = mono if a == 1 else f"{a}*{mono}"
            else:
                body = str(a)
            pieces.append((neg, body))
        neg0, body0 = pieces[0]
        out = [("-" if neg0 else "") + body0]
        for neg, body in pieces[1:]:
            out.append((" - " if neg else " + ") + body)
        return "".join(out)

    def __repr__(self):
        return f"MultiPoly({self})"


def monomial_str(ring, exps):
    """Canonical rendering of a single monomial (``1`` for the constant one)."""
    return _monomial_str(ring.names, exps) or "1"


# --------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(rf"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>{_NAME})|(?P<op>[*^+\-/])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


def parse_poly(text: str, ring: PolyRing) -> MultiPoly:
    """Parse polynomial text in the module grammar against ``ring``.

    Raises :class:`PolyParseError` on malformed input and unknown
    variables (including variables of the other ring).
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial text")
    # one end token, at the end of the last token, so every read has a token
    _, last, pos = tokens[-1]
    tokens.append(("end", "", pos + len(last)))
    i = 0
    terms = []

    def take(kind, spelled=None):
        """Step past the next token and return its text if it is a ``kind``
        (spelled ``spelled``); else None."""
        nonlocal i
        k, s, _ = tokens[i]
        if k != kind or spelled not in (None, s):
            return None
        i += 1
        return s

    def expect(kind, message):
        s = take(kind)
        if s is None:
            raise PolyParseError(message, tokens[i][2])
        return s

    while True:
        sign = take("op", "-") or take("op", "+")
        if sign and tokens[i][0] == "end":
            raise PolyParseError("dangling sign", tokens[i - 1][2])
        coeff = Fraction(-1 if sign == "-" else 1)
        exps = [0] * ring.nvars
        num = take("int")
        if num is not None:
            coeff *= int(num)
            if take("op", "/"):
                den = int(expect("int", "expected denominator after '/'"))
                if den == 0:
                    raise PolyParseError("zero denominator", tokens[i - 1][2])
                coeff /= den
        # a coefficient without '*' is a bare constant term
        if num is None or take("op", "*"):
            while True:
                name = expect("name", "expected a variable name")
                var = ring.index.get(name)
                if var is None:
                    raise PolyParseError(
                        f"unknown variable {name!r} for this ring (expected one of {', '.join(ring.names)})",
                        tokens[i - 1][2],
                    )
                power = 1
                if take("op", "^"):
                    power = int(expect("int", "malformed exponent: expected a non-negative integer"))
                exps[var] += power
                if not take("op", "*"):
                    break
        terms.append((tuple(exps), coeff))
        if tokens[i][0] == "end":
            return MultiPoly.from_terms(ring, terms)
        if tokens[i][1] not in ("+", "-"):
            raise PolyParseError("expected '+' or '-' between terms", tokens[i][2])


# --------------------------------------------------------------------------
# grading

def multidegree_of(p: MultiPoly):
    """Common per-block degree vector of a multihomogeneous polynomial."""
    if p.is_zero():
        raise NotMultihomogeneousError("zero polynomial has no multidegree")
    degs = {p.ring.block_degrees(e) for e in p.terms}
    if len(degs) > 1:
        listing = ", ".join(str(d) for d in sorted(degs))
        raise NotMultihomogeneousError(f"terms of different block degrees: {listing}")
    return next(iter(degs))


# --------------------------------------------------------------------------
# evaluation

def _eval_terms(terms, values):
    """Exact value of a term map ``exponents -> coefficient`` at the point
    ``values`` (one value per variable, in ring order; a variable that no
    term uses may have any value)."""
    total = 0
    for exps, c in terms.items():
        v = c
        for i, k in enumerate(exps):
            if k:
                v *= values[i] ** k
        total += v
    return total


def eval_at(p: MultiPoly, assignment) -> Rational:
    """Exact value of ``p`` at a point given as ``{variable name: rational}``;
    integer coefficients at an integer point give integer arithmetic.  The
    point is read once, by name; the exponents are scanned only when a
    name is missing, to tell whether a term uses it."""
    names = p.ring.names
    values = [assignment[name] if name in assignment else None for name in names]
    if None in values:
        for i, name in enumerate(names):
            if values[i] is None and any(e[i] for e in p.terms):
                raise ValueError(f"missing assignment for variable {name!r}")
    return _whole(_eval_terms(p.terms, values))


# --------------------------------------------------------------------------
# exact division, normalization

def exact_div(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Quotient ``p / q`` by long division on leading terms; raises
    ``ValueError`` when ``q`` does not divide ``p``.

    The term order is a monomial order, so the leading term of a multiple
    of ``q`` is a multiple of that of ``q``: a remainder whose leading term
    is not proves that ``q`` does not divide ``p``.  The remainder is one
    term map, updated in place, with a heap of its exponents in descending
    term order (stale entries of cancelled terms are skipped), so each
    quotient term costs one pass over the terms of ``q``; two integer
    coefficients are divided as integers when no remainder is left.  The
    pipeline divides only where Cayley's formula has a denominator, the
    even minors of a wide strand
    (:func:`~mgimplicit.implicitize.strand_determinant`), and divides
    primitive parts, whose quotient has integer coefficients."""
    p._check_ring(q)
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    (lq_e, lq_c), *rest = q.sorted_terms()
    rem = dict(p.terms)
    heap = [(_heap_key(e), e) for e in rem]
    heapify(heap)
    quot = {}
    while heap:
        lr_e = heappop(heap)[1]
        lr_c = rem.pop(lr_e, 0)
        if not lr_c:
            continue
        diff = tuple(a - b for a, b in zip(lr_e, lq_e))
        if min(diff) < 0:
            raise ValueError("inexact polynomial division")
        if isinstance(lr_c, int) and isinstance(lq_c, int) and not lr_c % lq_c:
            c = lr_c // lq_c
        else:
            c = _whole(Fraction(lr_c) / lq_c)
        quot[diff] = c
        for e, cq in rest:
            e = tuple(a + b for a, b in zip(diff, e))
            old = rem.get(e)
            new = (old or 0) - c * cq
            if new:
                rem[e] = new
                if old is None:
                    heappush(heap, (_heap_key(e), e))
            elif old is not None:
                del rem[e]
    return MultiPoly(p.ring, quot)


def _heap_key(exps):
    """A key whose least value is the canonical leading exponent."""
    return (-sum(exps), tuple(-x for x in exps))


def normalize_poly(p: MultiPoly) -> MultiPoly:
    """Integer-primitive representative with positive leading coefficient:
    the coefficients times the lcm of their denominators, divided by the
    gcd of those numerators, with the sign that makes the leading
    coefficient positive; every coefficient of the result is an ``int``,
    and the terms keep their order."""
    if p.is_zero():
        return p
    coeffs = p.terms.values()
    den = lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*nums)
    if p.leading()[1] < 0:
        g = -g
    return MultiPoly(p.ring, {e: c // g for e, c in zip(p.terms, nums)})
