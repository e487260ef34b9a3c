"""Exact symbolic expressions closed under the operations we need.

An :class:`Expr` is a finite sum of terms

    c * x1^m1 * ... * xk^mk * exp(l)

where ``c`` is a rational number, the ``mi`` are nonnegative integers and
``l`` is a rational-affine form in the variables.  The class is closed under
addition, multiplication, integer powers, partial differentiation and
substitution by affine expressions; products of exponentials merge their
arguments, so the representation is canonical and zero-equality is decidable
by inspection.  There is no division node: division is only available as
exact division (:func:`div_exact`) or by rational constants.

Every rational in a term, ``c`` and the coefficients of ``l`` alike, is
stored in one form (:func:`rational`): an ``int`` when integral, else a
``Fraction``.  Most coefficients are integral, and ``int`` hashing and
arithmetic are much cheaper than ``Fraction``'s.  Division of coefficients
always goes through ``Fraction``, never ``int / int``.

A term's key, its monomial and linear form, is interned to a small int, and
an Expr stores a dict from key id to coefficient.  Sums, products,
:func:`dot` and :meth:`Expr.diff` work on the ids and never sort; equality
and hashing compare the dicts as mappings.  The canonical sorted tuple
:attr:`Expr.terms` is built only when read (printing, serialising,
evaluation, compiling a matrix, rewriting in ``reduction``) and kept on the
Expr.  The same few key pairs recur throughout a computation, so the
product of two keys and the derivative of a key are memoised in tables that
are cleared when they reach a fixed size.
"""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union

Number = Union[int, Fraction]
# A monomial is a sorted tuple of (variable, exponent) with exponent >= 1.
Mono = tuple[tuple[str, int], ...]
# A linear form is a sorted tuple of (variable, coefficient); the empty
# variable name "" holds the constant part of the exponent.
Lin = tuple[tuple[str, Number], ...]
TermKey = tuple[Mono, Lin]


def rational(q) -> Number:
    """The stored form of a rational number: an int when integral, else a
    Fraction.  Every coefficient an Expr holds passes through here."""
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
# ((id, factor), ...).  Both tables are cleared together once they hold
# _TABLE_BOUND entries.  A pass of the big-operand benchmark workload stores
# about 15,000 products over 5,300 keys, and the same key pairs recur across
# operations, so the bound keeps a pass's products with room to spare.
_TABLE_BOUND = 1 << 16
_PROD: dict[int, dict[int, int]] = {}
_DIFF: dict[tuple[int, str], tuple[tuple[int, Number], ...]] = {}
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


def _derivative(i: int, v: str) -> tuple[tuple[int, Number], ...]:
    """d/dv of key i as (id, factor) pairs, stored in _DIFF."""
    m, l = _KEYS[i]
    out = []
    md = dict(m)
    e = md.pop(v, 0)
    if e:
        if e != 1:
            md[v] = e - 1
        out.append((_intern(tuple(sorted(md.items())), l), e))
    lv = dict(l).get(v)
    if lv is not None:
        out.append((i, lv))
    _memo_entry()
    row = _DIFF[i, v] = tuple(out)
    return row


def _canonical(d: dict[int, Number]) -> dict[int, Number]:
    """``d`` without its zero coefficients, each stored by :func:`rational`."""
    return {k: c if type(c) is int else rational(c) for k, c in d.items() if c}


class Expr:
    """Canonical sum of rational-coefficient monomial-times-exponential terms.

    ``Expr(terms)`` builds one from (mono, lin, c) triples.  An Expr is
    immutable and hashable; it stores a dict from interned key id to nonzero
    coefficient, and equality and hashing compare that dict as a mapping."""

    # _t: key id -> coefficient.  _terms and _hash are filled on first read.
    __slots__ = ("_t", "_terms", "_hash")

    def __init__(self, terms: Iterable[tuple[Mono, Lin, Number]] = ()):
        d: dict[int, Number] = {}
        for m, l, c in terms:
            k = _intern(m, l)
            d[k] = d.get(k, 0) + c
        _set_t(self, _canonical(d))

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
            t = tuple(sorted([_KEYS[i] + (c,) for i, c in self._t.items()]))
            _set_terms(self, t)
            return t

    # -- constructors ------------------------------------------------------

    @staticmethod
    def number(q: Number) -> "Expr":
        q = rational(q)
        if q == 0:
            return Expr()
        return _wrap({_ONE: q})

    @staticmethod
    def var(name: str) -> "Expr":
        if not _IDENT_RE.fullmatch(name):
            raise ExprError(f"invalid variable name {name!r}")
        return _wrap({_intern(((name, 1),), ()): 1})

    @staticmethod
    def from_terms(d: Mapping[TermKey, Number]) -> "Expr":
        return _wrap(_canonical({_intern(m, l): c for (m, l), c in d.items()}))

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
        return Fraction(self._t[_ONE])

    def variables(self) -> set[str]:
        vs: set[str] = set()
        for i in self._t:
            m, l = _KEYS[i]
            vs.update(v for v, _ in m)
            vs.update(v for v, _ in l if v)
        return vs

    def as_linear(self) -> Lin:
        """View as an affine form; raise if a term is nonlinear or exponential."""
        d: dict[str, Number] = {}
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
        return tuple(sorted((v, rational(c)) for v, c in d.items() if c != 0))

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
        if len(a) < len(b):
            a, b = b, a
        d = a.copy()
        for k, c in b.items():
            s = d.get(k, 0) + c
            if s:
                d[k] = s if type(s) is int else rational(s)
            else:
                del d[k]
        return _wrap(d)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return _wrap({k: -c for k, c in self._t.items()})

    def __sub__(self, other) -> "Expr":
        if type(other) is not Expr:
            other = _coerce(other)
        b = other._t
        if not b:
            return self
        d = self._t.copy()
        for k, c in b.items():
            s = d.get(k, 0) - c
            if s:
                d[k] = s if type(s) is int else rational(s)
            else:
                del d[k]
        return _wrap(d)

    def __rsub__(self, other) -> "Expr":
        return _coerce(other).__sub__(self)

    def __mul__(self, other) -> "Expr":
        if type(other) is not Expr:
            other = _coerce(other)
        a, b = self._t, other._t
        if not a or not b:
            return ZERO
        if len(b) == 1 and _ONE in b:
            return self._scaled(b[_ONE])
        if len(a) == 1 and _ONE in a:
            return other._scaled(a[_ONE])
        d: dict[int, Number] = {}
        _mul_into(d, a, b)
        return _wrap(_canonical(d))

    __rmul__ = __mul__

    def _scaled(self, k: Number) -> "Expr":
        # a nonzero constant factor keeps every key and leaves no zero
        if k == 1:
            return self
        return _wrap({i: rational(c * k) for i, c in self._t.items()})

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            raise ExprError("only integer powers are supported")
        if n < 0:
            if len(self._t) == 1:
                ((i, c),) = self._t.items()
                m, l = _KEYS[i]
                if not m:
                    inv = _wrap({_intern((), _lin_scale(l, -1)): rational(Fraction(1) / c)})
                    return inv ** (-n)
            raise ExprError("negative power of a non-invertible expression")
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
        return self._t == other._t

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(frozenset(self._t.items()))
            _set_hash(self, h)
            return h

    # -- calculus ----------------------------------------------------------

    def diff(self, v: str) -> "Expr":
        """Exact partial derivative with respect to the variable ``v``."""
        d: dict[int, Number] = {}
        for i, c in self._t.items():
            row = _DIFF.get((i, v))
            if row is None:
                row = _derivative(i, v)
            for k, f in row:
                d[k] = d.get(k, 0) + c * f
        return _wrap(_canonical(d))

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Replace variables by expressions.

        Variables occurring inside an exponential argument must map to affine
        expressions (otherwise the result would leave the class).
        """
        mapping = {v: _coerce(e) for v, e in mapping.items()}
        out = Expr()
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
                t = t * Expr.exp_of(arg)
            out = out + t
        return out

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: "Point"):
        """Evaluate at a point; returns a float, or a :class:`DualValue` when
        the point carries infinitesimal seeds."""
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


def _wrap(t: dict[int, Number]) -> Expr:
    """An Expr holding the canonical table ``t`` itself, not a copy."""
    e = _new(Expr)
    _set_t(e, t)
    return e


_new = object.__new__
_set_t = Expr._t.__set__
_set_terms = Expr._terms.__set__
_set_hash = Expr._hash.__set__


def _mul_into(d: dict[int, Number], a: dict[int, Number], b: dict[int, Number]) -> None:
    """Add the product of the term tables ``a`` and ``b`` into the table ``d``."""
    get = d.get
    for i, c1 in a.items():
        row = _PROD.get(i)
        if row is None:
            row = _PROD[i] = {}
        for j, c2 in b.items():
            k = row.get(j)
            if k is None:
                k = _product(i, j, row)
            d[k] = get(k, 0) + c1 * c2


def dot(pairs: Iterable[tuple[Expr, Expr]]) -> Expr:
    """The sum of ``a * b`` over the pairs, formed in one term table."""
    d: dict[int, Number] = {}
    for a, b in pairs:
        _mul_into(d, a._t, b._t)
    return _wrap(_canonical(d))


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

def _sparse_vec(pairs: Iterable[tuple[str, object]], keys: list[str]):
    d = dict(pairs)
    return tuple(d.get(k, 0) for k in keys)


def _term_order_key(term: tuple[Mono, Lin, Number], mono_vars: list[str], lin_vars: list[str]):
    m, l, _ = term
    return (_sparse_vec(m, mono_vars), _sparse_vec(l, lin_vars))


def div_exact(num: Expr, den: Expr, max_steps: int = 20000) -> Expr:
    """Exact division in the expression ring; raises ExprError when the
    quotient does not exist in the class."""
    if den.is_zero():
        raise ZeroDivisionError("exact division by zero")
    if num.is_zero():
        return ZERO
    vars_ = sorted(num.variables() | den.variables())
    lin_vars = [""] + vars_

    def leading(e: Expr):
        # keys are distinct, so the maximum does not depend on the table order
        return max((_KEYS[i] + (c,) for i, c in e._t.items()),
                   key=lambda t: _term_order_key(t, vars_, lin_vars))

    lt_den = leading(den)
    quot: dict[TermKey, Number] = {}
    rem = num
    for _ in range(max_steps):
        if rem.is_zero():
            return Expr.from_terms(quot)
        mr, lr, cr = leading(rem)
        md, ld, cd = lt_den
        # monomial part must divide; exponential parts always do (units)
        dd = dict(md)
        mq: dict[str, int] = {}
        for v, e in mr:
            q = e - dd.pop(v, 0)
            if q < 0:
                raise ExprError("exact division failed (no quotient in class)")
            if q:
                mq[v] = q
        if dd:
            raise ExprError("exact division failed (no quotient in class)")
        k = (tuple(sorted(mq.items())), _lin_add(lr, _lin_scale(ld, -1)))
        c = rational(Fraction(cr, cd))
        quot[k] = quot.get(k, 0) + c
        t = _wrap({_intern(*k): c})
        rem = rem - t * den
    raise ExprError("exact division did not terminate")
