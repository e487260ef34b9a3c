"""Exact symbolic expressions closed under the operations we need.

An :class:`Expr` is a finite sum of terms

    c * x1^m1 * ... * xk^mk * exp(l)

where ``c`` is a rational number, the ``mi`` are nonzero integers (a term is
a Laurent monomial times an exponential) and ``l`` is a rational-affine form
in the variables.  The class is closed under addition, multiplication,
integer powers, partial differentiation and substitution by affine
expressions; products of exponentials merge their arguments, so the
representation is canonical and zero-equality is decidable by inspection.
Every one-term Expr is a unit, its inverse negating its exponents and its
linear form.  There is no division node: division is only available as exact
division (:func:`div_exact`) or by rational constants.

An Expr stores its coefficients over one denominator: a dict from term key
to int numerator, and a positive int denominator that shares no factor with
all the numerators together (zero is the empty dict over 1).  Each value has
one such pair, and sums, products, :func:`dot`, :meth:`Expr.diff` and
scaling by a constant run on ints alone: a rescaled operand costs an int
product per term, not a ``Fraction`` one.  The coefficients of a linear form
inside a key, and every rational an Expr hands out (:attr:`Expr.terms`,
:meth:`Expr.constant_value`, :meth:`Expr.as_linear`), are stored in one form
(:func:`rational`): an ``int`` when integral, else a ``Fraction``.  Division
of coefficients always goes through ``Fraction``, never ``int / int``.

A term's key, its monomial and linear form, is interned to a small int, and
the dict of numerators is keyed by key id.  Sums, products, :func:`dot` and
:meth:`Expr.diff` work on the ids and never sort; equality and hashing
compare the dicts as mappings, and the denominators.  The canonical sorted
tuple :attr:`Expr.terms` is built only when read (printing, serialising,
evaluation, compiling a matrix, rewriting in ``reduction``) and kept on the
Expr.  The same few key pairs recur throughout a computation, so the
product of two keys and the derivative of a key are memoised in tables that
are cleared when they reach a fixed size.

:attr:`Expr.gradient`, the nonzero partial derivatives along the variables
an Expr reads, is likewise formed on first read and kept: the anchor
derivatives of the algebroid calculus are built from it, so a tensor entry
is differentiated once per variable it reads, not once per use.
"""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

Number = Union[int, Fraction]
# A monomial is a sorted tuple of (variable, exponent), each exponent a
# nonzero integer.
Mono = tuple[tuple[str, int], ...]
# A linear form is a sorted tuple of (variable, coefficient); the empty
# variable name "" holds the constant part of the exponent.
Lin = tuple[tuple[str, Number], ...]
TermKey = tuple[Mono, Lin]


def rational(q) -> Number:
    """The stored form of a rational number: an int when integral, else a
    Fraction.  Every linear-form coefficient in a key, and every coefficient
    an Expr takes in or hands out, passes through here."""
    if type(q) is not Fraction:
        if type(q) is int:
            return q
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


class ExprError(ValueError):
    """Raised for operations that would leave the expression class."""


class ExprSyntaxError(ExprError):
    """Raised on parse failure; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# -- interned term keys --------------------------------------------------------
#
# _KEYS[i] is the key (mono, lin) with id i and _IDS maps it back.  Ids are
# never freed or reused, so an id names one key for the life of the process.
# _PARTS holds one object for each monomial, monomial factor and linear form
# in a stored key: keys far outnumber them, and fresh copies come from every
# key product.
_KEYS: list[TermKey] = []
_IDS: dict[TermKey, int] = {}
_PARTS: dict[tuple, tuple] = {}


def _intern(m: Mono, l: Lin) -> int:
    i = _IDS.get((m, l))
    if i is None:
        shared = _PARTS.setdefault
        if m not in _PARTS:
            m = tuple([shared(f, f) for f in m])
            _PARTS[m] = m
        k = (_PARTS[m], shared(l, l))
        i = _IDS[k] = len(_KEYS)
        _KEYS.append(k)
    return i


_ONE = _intern((), ())  # the key of a constant term

# Memoised key products, one row per first key: _PROD[i][j] is the id of key
# i times key j.  Memoised derivatives: _DIFF[i, v] is d/dv of key i as
# (q, ((id, p), ...)), the sum of p/q times key id over the pairs, where q is
# the denominator of v's coefficient in the linear form.  Both tables are
# cleared together once they hold _TABLE_BOUND entries.  A pass of the
# big-operand benchmark workload stores about 15,000 products over 5,300
# keys, and the same key pairs recur across operations, so the bound keeps a
# pass's products with room to spare.
_TABLE_BOUND = 1 << 16
_PROD: dict[int, dict[int, int]] = {}
_DIFF: dict[tuple[int, str], tuple[int, tuple[tuple[int, int], ...]]] = {}
_entries = 0


def _memo_entry() -> None:
    """Count one new memo entry, clearing both tables first when full."""
    global _entries
    if _entries >= _TABLE_BOUND:
        _PROD.clear()
        _DIFF.clear()
        _entries = 0
    _entries += 1


def _mono_mul(a: Mono, b: Mono) -> Mono:
    d: dict[str, int] = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in d.items() if e != 0))


def _lin_add(a: Lin, b: Lin) -> Lin:
    # both forms are canonical, so adding the empty form is the identity
    if not b:
        return a
    if not a:
        return b
    d: dict[str, Number] = dict(a)
    for v, c in b:
        d[v] = d.get(v, 0) + c
    return tuple(sorted((v, rational(c)) for v, c in d.items() if c != 0))


def _lin_scale(a: Lin, k: Number) -> Lin:
    if k == 0:
        return ()
    return tuple((v, rational(c * k)) for v, c in a)


def _product(i: int, j: int, row: dict[int, int]) -> int:
    """The id of key i times key j, stored in ``row``, the product row of i."""
    (m1, l1), (m2, l2) = _KEYS[i], _KEYS[j]
    k = _intern(_mono_mul(m1, m2), _lin_add(l1, l2))
    _memo_entry()
    row[j] = k
    return k


def _derivative(i: int, v: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """d/dv of key i as a denominator and (id, numerator) pairs, stored in
    _DIFF."""
    m, l = _KEYS[i]
    out = []
    md = dict(m)
    e = md.pop(v, 0)
    lv = dict(l).get(v, 0)
    q = lv.denominator  # 1 for an int
    if e:
        if e != 1:
            md[v] = e - 1
        out.append((_intern(tuple(sorted(md.items())), l), e * q))
    if lv:
        out.append((i, lv.numerator))
    _memo_entry()
    row = _DIFF[i, v] = (q, tuple(out))
    return row


def _canonical(d: dict[int, int]) -> dict[int, int]:
    """``d`` without its zero numerators."""
    return {k: c for k, c in d.items() if c}


def _table(d: dict[int, Number]) -> tuple[dict[int, int], int]:
    """Rational coefficients as the stored pair: nonzero int numerators over
    the least common denominator, which shares no factor with all of them."""
    d = {k: rational(c) for k, c in d.items() if c}
    den = 1
    for c in d.values():
        if type(c) is not int:
            den = lcm(den, c.denominator)
    if den != 1:
        d = {k: c.numerator * (den // c.denominator) for k, c in d.items()}
    return d, den


class Expr:
    """Canonical sum of rational-coefficient Laurent-monomial-times-exponential
    terms.

    ``Expr(terms)`` builds one from (mono, lin, c) triples.  An Expr is
    immutable and hashable; it stores a dict from interned key id to nonzero
    int numerator and one denominator, and equality and hashing compare the
    dict as a mapping and the denominator."""

    # _t: key id -> numerator; _d: the denominator of every numerator.
    # _terms, _hash and _grad are filled on first read.
    __slots__ = ("_t", "_d", "_terms", "_hash", "_grad")

    def __init__(self, terms: Iterable[tuple[Mono, Lin, Number]] = ()):
        d: dict[int, Number] = {}
        for m, l, c in terms:
            k = _intern(m, l)
            d[k] = d.get(k, 0) + c
        t, den = _table(d)
        _set_t(self, t)
        _set_d(self, den)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # key ids are local to a process; a copy or pickle carries the terms
        return (Expr, (self.terms,))

    @property
    def terms(self) -> tuple[tuple[Mono, Lin, Number], ...]:
        """The terms as (mono, lin, c) triples in canonical (sorted key) order."""
        try:
            return self._terms
        except AttributeError:
            den = self._d
            if den == 1:
                t = tuple(sorted([_KEYS[i] + (c,) for i, c in self._t.items()]))
            else:
                t = tuple(sorted([_KEYS[i] + (rational(Fraction(c, den)),)
                                  for i, c in self._t.items()]))
            _set_terms(self, t)
            return t

    @property
    def gradient(self) -> tuple[tuple[str, "Expr"], ...]:
        """The sparse gradient: (v, d/dv of self) for each variable v that
        self reads, in sorted order, every partial nonzero.  It takes one
        :meth:`diff` per variable read and is kept on this Expr, so each
        partial derivative of a value held in a tensor is formed once."""
        try:
            return self._grad
        except AttributeError:
            g = []
            for v in sorted(self.variables()):
                d = self.diff(v)
                if d._t:
                    g.append((v, d))
            g = tuple(g)
            _set_grad(self, g)
            return g

    # -- constructors ------------------------------------------------------

    @staticmethod
    def number(q: Number) -> "Expr":
        q = rational(q)
        if q == 0:
            return Expr()
        return _wrap({_ONE: q.numerator}, q.denominator)

    @staticmethod
    def var(name: str) -> "Expr":
        if not _IDENT_RE.fullmatch(name):
            raise ExprError(f"invalid variable name {name!r}")
        return _wrap({_intern(((name, 1),), ()): 1})

    @staticmethod
    def from_terms(d: Mapping[TermKey, Number]) -> "Expr":
        return _wrap(*_table({_intern(m, l): c for (m, l), c in d.items()}))

    @staticmethod
    def exp_of(argument: "Expr") -> "Expr":
        """exp of an affine expression (raises if the argument is not affine)."""
        lin = argument.as_linear()
        return _wrap({_intern((), lin): 1})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def is_constant(self) -> bool:
        t = self._t
        return not t or (len(t) == 1 and _ONE in t)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ExprError(f"not a constant: {self}")
        return Fraction(self._t[_ONE], self._d)

    def variables(self) -> set[str]:
        vs: set[str] = set()
        for i in self._t:
            m, l = _KEYS[i]
            vs.update(v for v, _ in m)
            vs.update(v for v, _ in l if v)
        return vs

    def as_linear(self) -> Lin:
        """View as an affine form; raise if a term is nonlinear or exponential."""
        d: dict[str, int] = {}
        for i, c in self._t.items():
            m, l = _KEYS[i]
            if l:
                raise ExprError("exponential term inside a linear form")
            if m == ():
                d[""] = d.get("", 0) + c
            elif len(m) == 1 and m[0][1] == 1:
                v = m[0][0]
                d[v] = d.get(v, 0) + c
            else:
                raise ExprError(f"nonlinear term in supposed linear form: {self}")
        den = self._d
        return tuple(sorted((v, rational(Fraction(c, den))) for v, c in d.items() if c != 0))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Expr":
        if type(other) is not Expr:
            other = _coerce(other)
        a, b = self._t, other._t
        # every constructor yields canonical terms, so x + 0 is x itself
        if not b:
            return self
        if not a:
            return other
        den = self._d
        if den != other._d:
            return _combine(a, den, b, other._d, 1)
        if len(a) < len(b):
            a, b = b, a
        d = a.copy()
        for k, c in b.items():
            s = d.get(k, 0) + c
            if s:
                d[k] = s
            else:
                del d[k]
        return _wrap(d) if den == 1 else _reduced(d, den)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return _wrap({k: -c for k, c in self._t.items()}, self._d)

    def __sub__(self, other) -> "Expr":
        if type(other) is not Expr:
            other = _coerce(other)
        b = other._t
        if not b:
            return self
        den = self._d
        if den != other._d:
            return _combine(self._t, den, b, other._d, -1)
        d = self._t.copy()
        for k, c in b.items():
            s = d.get(k, 0) - c
            if s:
                d[k] = s
            else:
                del d[k]
        return _wrap(d) if den == 1 else _reduced(d, den)

    def __rsub__(self, other) -> "Expr":
        return _coerce(other).__sub__(self)

    def __mul__(self, other) -> "Expr":
        if type(other) is not Expr:
            other = _coerce(other)
        a, b = self._t, other._t
        if not a or not b:
            return ZERO
        if len(b) == 1 and _ONE in b:
            return self._scaled(b[_ONE], other._d)
        if len(a) == 1 and _ONE in a:
            return other._scaled(a[_ONE], self._d)
        d: dict[int, int] = {}
        _mul_into(d, a, b)
        # a one-term factor leaves no zero numerator (see _mul_into)
        t = d if len(a) == 1 or len(b) == 1 else _canonical(d)
        den = self._d * other._d
        return _wrap(t) if den == 1 else _reduced(t, den)

    __rmul__ = __mul__

    def _scaled(self, num: int, den: int) -> "Expr":
        # times the nonzero constant num/den: every key stays, none cancels
        if num == den:
            return self
        t = {i: c * num for i, c in self._t.items()}
        den *= self._d
        return _wrap(t) if den == 1 else _reduced(t, den)

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            raise ExprError("only integer powers are supported")
        if n < 0:
            # a one-term Expr is a unit: its inverse negates its exponents
            # and its linear form; no other Expr has an inverse in the class
            if len(self._t) != 1:
                raise ExprError("negative power of a non-invertible expression")
            return _div_term(ONE, self) ** -n
        out = Expr.number(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __truediv__(self, other) -> "Expr":
        other = _coerce(other)
        if other.is_constant():
            c = other.constant_value()
            if c == 0:
                raise ZeroDivisionError("division by zero constant")
            return self * Expr.number(Fraction(1) / c)
        return div_exact(self, other)

    def __eq__(self, other) -> bool:
        if type(other) is not Expr:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Expr.number(other)
        return self._t == other._t and self._d == other._d

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((frozenset(self._t.items()), self._d))
            _set_hash(self, h)
            return h

    # -- calculus ----------------------------------------------------------

    def diff(self, v: str) -> "Expr":
        """Exact partial derivative with respect to the variable ``v``."""
        d: dict[int, int] = {}
        get = d.get
        # every numerator in d is over `scale`, the lcm of the row
        # denominators so far; it stays 1 unless v has a non-integral
        # coefficient in some exponential
        scale = 1
        for i, c in self._t.items():
            row = _DIFF.get((i, v))
            if row is None:
                row = _derivative(i, v)
            q, pairs = row
            if q != scale:
                if scale % q:
                    grown = lcm(scale, q)
                    f = grown // scale
                    for k in d:
                        d[k] *= f
                    scale = grown
                c *= scale // q
            for k, f in pairs:
                d[k] = get(k, 0) + c * f
        t, den = _canonical(d), self._d * scale
        return _wrap(t) if den == 1 else _reduced(t, den)

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Replace variables by expressions.

        Variables occurring inside an exponential argument must map to affine
        expressions (otherwise the result would leave the class).
        """
        mapping = {v: _coerce(e) for v, e in mapping.items()}
        pairs = []  # per term, its monomial part and its exponential part
        for i, c in self._t.items():
            m, l = _KEYS[i]
            t = Expr.number(c)
            for v, e in m:
                t = t * (mapping[v] ** e if v in mapping else Expr.var(v) ** e)
            if l:
                arg = Expr()
                for v, k in l:
                    if v == "":
                        arg = arg + Expr.number(k)
                    elif v in mapping:
                        img = mapping[v]
                        img.as_linear()  # raises if not affine
                        arg = arg + Expr.number(k) * img
                    else:
                        arg = arg + Expr.number(k) * Expr.var(v)
            pairs.append((t, Expr.exp_of(arg) if l else ONE))
        # the terms above carry the numerators; divide once by the denominator
        return dot(pairs)._scaled(1, self._d)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: "Point"):
        """Evaluate at a point; returns a float, or a :class:`DualValue` when
        the point carries infinitesimal seeds.  A negative power of a
        variable that is 0 at the point raises ``ZeroDivisionError``."""
        if not point.dual:
            return self._eval_real(point.values)
        val = self._eval_real(point.values)
        dual = {}
        for v, seed in point.dual.items():
            dual[v] = self.diff(v)._eval_real(point.values) * seed
        return DualValue(val, dual)

    def _eval_real(self, values: Mapping[str, float]) -> float:
        total = 0.0
        for m, l, c in self.terms:
            t = float(c)
            for v, e in m:
                t *= _lookup(values, v) ** e
            if l:
                arg = 0.0
                for v, k in l:
                    arg += float(k) * (1.0 if v == "" else _lookup(values, v))
                t *= math.exp(arg)
            total += t
        return total

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (m, l, c) in enumerate(self.terms):
            factors = []
            if abs(c) != 1 or (not m and not l):
                factors.append(_fmt_frac(abs(c)))
            for v, e in m:
                factors.append(v if e == 1 else f"{v}^{e}")
            if l:
                factors.append(f"exp({_fmt_lin(l)})")
            text = "*".join(factors) if factors else "1"
            if i == 0:
                parts.append(("-" if c < 0 else "") + text)
            else:
                parts.append(("- " if c < 0 else "+ ") + text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Expr({self})"


def _fmt_frac(q: Number) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _fmt_lin(l: Lin) -> str:
    parts = []
    for i, (v, c) in enumerate(l):
        body = _fmt_frac(abs(c)) if v == "" else (v if abs(c) == 1 else f"{_fmt_frac(abs(c))}*{v}")
        if i == 0:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Expr.number(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


def _lookup(values: Mapping[str, float], v: str) -> float:
    try:
        return values[v]
    except KeyError:
        raise ExprError(f"unbound variable {v!r} in evaluation") from None


def _wrap(t: dict[int, int], den: int = 1) -> Expr:
    """An Expr holding the canonical table ``t`` itself, not a copy, over
    ``den``."""
    e = _new(Expr)
    _set_t(e, t)
    _set_d(e, den)
    return e


def _reduced(t: dict[int, int], den: int) -> Expr:
    """An Expr of the table ``t`` of nonzero numerators over ``den``, with
    their common factor divided out."""
    g = gcd(den, *t.values())
    if g != 1:
        den //= g
        t = {k: c // g for k, c in t.items()}
    return _wrap(t, den)


_new = object.__new__
_set_t = Expr._t.__set__
_set_d = Expr._d.__set__
_set_terms = Expr._terms.__set__
_set_hash = Expr._hash.__set__
_set_grad = Expr._grad.__set__


def _combine(a: dict[int, int], da: int, b: dict[int, int], db: int, sign: int) -> Expr:
    """a/da + sign * b/db for tables over different denominators."""
    den = lcm(da, db)
    fa, fb = den // da, sign * (den // db)
    d = {k: c * fa for k, c in a.items()}
    for k, c in b.items():
        s = d.get(k, 0) + c * fb
        if s:
            d[k] = s
        else:
            del d[k]
    return _reduced(d, den)


def _mul_into(d: dict[int, int], a: dict[int, int], b: dict[int, int]) -> None:
    """Add the product of the term tables ``a`` and ``b`` into the table ``d``.

    A constant factor keeps the keys of the other table, and no product row
    is read.  A one-term factor sends distinct keys to distinct products, so
    into an empty ``d`` their numerators are written, not accumulated; ``d``
    then holds no zero."""
    if len(b) == 1 and _ONE in b:
        a, b = b, a
    get = d.get
    if len(a) == 1 and _ONE in a:
        c1 = a[_ONE]
        for j, c2 in b.items():
            d[j] = get(j, 0) + c1 * c2
        return
    fresh = not d and (len(a) == 1 or len(b) == 1)
    for i, c1 in a.items():
        row = _PROD.get(i)
        if row is None:
            row = _PROD[i] = {}
        for j, c2 in b.items():
            k = row.get(j)
            if k is None:
                k = _product(i, j, row)
            d[k] = c1 * c2 if fresh else get(k, 0) + c1 * c2


def dot(pairs: Iterable[tuple[Expr, Expr]]) -> Expr:
    """The sum of ``a * b`` over the pairs, formed in one term table: the
    shared ZERO for no pair, ``a * b`` (with its constant and one-term
    paths) for one pair.

    The table is kept over the lcm of the pairs' denominators so far; a pair
    over another denominator rescales the table only when it grows the lcm."""
    if type(pairs) is not list:
        pairs = list(pairs)
    if len(pairs) < 2:
        return pairs[0][0] * pairs[0][1] if pairs else ZERO
    d: dict[int, int] = {}
    den = 1
    for a, b in pairs:
        p = a._d * b._d
        if p == den:
            _mul_into(d, a._t, b._t)
            continue
        if den % p:
            grown = lcm(den, p)
            f = grown // den
            for k in d:
                d[k] *= f
            den = grown
        f = den // p
        _mul_into(d, {i: c * f for i, c in a._t.items()} if f != 1 else a._t, b._t)
    t = _canonical(d)
    return _wrap(t) if den == 1 else _reduced(t, den)


def _nonzero(v) -> list[tuple[int, Expr]]:
    """The nonzero entries of a row or column, with their indices."""
    return [(k, e) for k, e in enumerate(v) if not e.is_zero()]


ZERO = Expr()
ONE = Expr.number(1)


@dataclass(frozen=True)
class Point:
    """Evaluation point: variable values plus optional infinitesimal seeds."""

    values: Mapping[str, float]
    dual: Mapping[str, float] = field(default_factory=dict)


@dataclass
class DualValue:
    """Result of evaluating with infinitesimal seeds: value plus one dual
    part per designated variable."""

    value: float
    dual: dict[str, float]


# ---------------------------------------------------------------------------
# parsing

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", bad_pos)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", pos)
        return e

    def expr(self) -> Expr:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        e = self.term()
        if negate:
            e = -e
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                e = e * self.factor()
            elif kind == "op" and val == "/":
                self.next()
                rhs = self.factor()
                if not rhs.is_constant():
                    raise ExprSyntaxError("division only by rational constants", pos)
                c = rhs.constant_value()
                if c == 0:
                    raise ExprSyntaxError("division by zero", pos)
                e = e * Expr.number(Fraction(1) / c)
            else:
                return e

    def factor(self) -> Expr:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return -self.factor()
        e = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            sign = 1
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                self.next()
                sign = -1
            kind, val, pos = self.next()
            if kind != "num":
                raise ExprSyntaxError("exponent must be an integer", pos)
            try:
                e = e ** (sign * int(val))
            except ExprError as err:
                raise ExprSyntaxError(str(err), pos) from None
        return e

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            return Expr.number(int(val))
        if kind == "ident":
            if val == "exp":
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                try:
                    return Expr.exp_of(arg)
                except ExprError:
                    raise ExprSyntaxError(
                        "exp() argument must be affine in the variables", pos
                    ) from None
            return Expr.var(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(f"unexpected token {val or 'end of input'!r}", pos)


def parse(text: str) -> Expr:
    """Parse the expression grammar: integers, rationals p/q, identifiers,
    ``+ - * ^`` with integer exponents, ``exp(<affine form>)``, parentheses."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# exact division

_DIV_STEPS = 20000  # reduction steps of one division before it gives up


def _sparse_vec(pairs: Iterable[tuple[str, object]], keys: list[str]):
    d = dict(pairs)
    return tuple(d.get(k, 0) for k in keys)


def _term_order_key(key: TermKey, mono_vars: list[str], lin_vars: list[str]):
    m, l = key
    return (_sparse_vec(m, mono_vars), _sparse_vec(l, lin_vars))


def div_exact(num: Expr, den: Expr) -> Expr:
    """Exact division in the expression ring; raises ExprError when the
    quotient does not exist in the class."""
    if den.is_zero():
        raise ZeroDivisionError("exact division by zero")
    if num.is_zero():
        return ZERO
    if len(den._t) == 1:
        return _div_term(num, den)
    vars_ = sorted(num.variables() | den.variables())
    lin_vars = [""] + vars_

    def leading(e: Expr):
        # keys are distinct, so the maximum does not depend on the table order
        i = max(e._t, key=lambda i: _term_order_key(_KEYS[i], vars_, lin_vars))
        return _KEYS[i] + (Fraction(e._t[i], e._d),)

    def coords(key: TermKey):
        return sum(_term_order_key(key, vars_, lin_vars), ())

    def box(e: Expr):
        return [(min(c), max(c)) for c in zip(*(coords(_KEYS[i]) for i in e._t))]

    # Newton polytopes add, N(q * den) = N(q) + N(den): were num = q * den,
    # each coordinate of each term of q would lie between these bounds, so a
    # quotient term outside them ends a division that would not terminate
    bounds = [(lo - dlo, hi - dhi) for (lo, hi), (dlo, dhi) in zip(box(num), box(den))]
    md, ld, cd = leading(den)
    inv_md, neg_ld = _inverse_key(md, ld)
    quot: dict[TermKey, Number] = {}
    rem = num
    for _ in range(_DIV_STEPS):
        if rem.is_zero():
            return Expr.from_terms(quot)
        mr, lr, cr = leading(rem)
        # every term is a unit, so the leading terms always divide
        k = (_mono_mul(mr, inv_md), _lin_add(lr, neg_ld))
        if not all(lo <= x <= hi for x, (lo, hi) in zip(coords(k), bounds)):
            raise ExprError("exact division failed (no quotient in class)")
        c = rational(cr / cd)
        quot[k] = quot.get(k, 0) + c
        rem = rem - Expr.from_terms({k: c}) * den
    raise ExprError("exact division did not terminate")


def _inverse_key(m: Mono, l: Lin) -> TermKey:
    """The key of the inverse of the unit x^m * exp(l)."""
    return tuple([(v, -e) for v, e in m]), _lin_scale(l, -1)


def _div_term(num: Expr, den: Expr) -> Expr:
    """``div_exact`` by a one-term ``den``: each term of ``num`` is divided on
    its own, its exponents less den's, its linear form less den's and its
    coefficient over den's.  Distinct terms give distinct quotients."""
    ((i, c),) = den._t.items()
    inv, neg = _inverse_key(*_KEYS[i])
    scale = den._d if c > 0 else -den._d
    t: dict[int, int] = {}
    for j, n in num._t.items():
        m, l = _KEYS[j]
        t[_intern(_mono_mul(m, inv) if inv else m, _lin_add(l, neg))] = n * scale
    return _reduced(t, num._d * abs(c))
