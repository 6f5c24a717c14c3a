"""Dense truncated multivariate power series (jets).

Every chart and obstruction quantity in this package is carried by a
:class:`TruncatedSeries`: a polynomial in a fixed ordered tuple of named
variables, truncated at an ``order``.  An int order bounds the total degree.
An order pair ``(a, b)`` makes the space bigraded: the degree in the first
variable is at most ``a`` and the total degree in the others at most ``b``;
the chart series over ``(t, xi1, xi2)`` are truncated this way, since the
obstruction reads t-degrees and xi-degrees against separate bounds.  Both
kinds of truncation are quotients by an ideal, so every ring operation is
exact through the order.

The coefficient kind is decided here alone: ``DOUBLE`` (IEEE doubles, the
default) or ``RATIONAL``, named by the mode strings ``"double"`` and
``"rational"`` (:func:`kind`).  A series holds its kind and an array ``num`` of
numerators over one ``int`` denominator ``den``.  Doubles sit over ``den = 1``,
so sums, constants, negation, derivatives and re-placements run one path for
both kinds.  Rational numerators are Python ``int``s in canonical form:
``den >= 1``, ``gcd(den, *num) == 1``, and the zero series has ``den == 1``; a
ring operation is integer arithmetic followed by one gcd.  Each kind owns the
rules that differ: a scalar as a coefficient (``coerce``) or as a pair
``(p, q)`` (``ratio``), the scaling by one (``scale``), the product kernel
(``product``), the antiderivative's division (``divide``), how a coefficient
leaves a series (``value``, ``values``, ``floats``, ``max_abs``, ``json``), the
zero, the dtype, the zero test (``negligible``: below a tolerance in size for
doubles, where a NaN is never negligible, and exactly 0 for rationals) and
the square root of a constant term (``root``).  ``fractions.Fraction`` values
appear only where a coefficient enters or leaves a series:
:meth:`~TruncatedSeries.from_terms`, :meth:`~TruncatedSeries.constant`,
:meth:`~TruncatedSeries.coeff`, :meth:`~TruncatedSeries.constant_term`,
:meth:`~TruncatedSeries.max_abs`, :meth:`~TruncatedSeries.nonzero_terms`, the
JSON encoders and the read-only :attr:`~TruncatedSeries.coeffs` view.

Truncation orders are strict: binary operations require identical variable
tuples *and* identical orders, and lowering must be done explicitly with
:meth:`TruncatedSeries.truncate`.  A derivative lowers the bound on the degree
of its variable by one, and the result is tracked at the lower order.  This
makes silent precision loss a hard error instead of a latent bug.

Monomials are stored in graded order (total degree, then lexicographic on
the exponent tuple), with the constant first.

Both coefficient modes run through the same index arrays, built once per
``_Space`` (variables, order) and kept:

* the pair table ``(I, J, K)`` with ``mono[I] + mono[J] = mono[K]``; a
  product is one ``np.add.at`` over it, on doubles or on numerators, and the
  denominators multiply.  A product with a constant factor (a series whose
  only nonzero coefficient, if any, is the constant one) skips the table: it
  is the other factor's numerators times that constant, one scaling, and on
  doubles it is bit for bit what the table would sum (``_Double.product``);
* per variable, the derivative and antiderivative maps ``(src, dst, k)``;
* per target space, the map that places there each monomial that space
  holds, shared by :meth:`TruncatedSeries.truncate`,
  :meth:`TruncatedSeries.slice_at_zero` and :meth:`TruncatedSeries.embed`.

Each map is built with numpy over the exponent array: a monomial's index is
found from its additive key, the exponents read as digits in base
``top + 1``, by a search in the space's sorted keys.

Scalar products, derivatives, antiderivatives and re-placements are then one
indexed numpy operation on the numerators.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetError, DomainError, SeriesMismatchError

# Largest pair table a space may build: C(order + 2 n, 2 n) pairs for n
# variables at a total-degree order, C(a + 2, 2) C(b + 2 n - 2, 2 n - 2) at an
# order pair (a, b).  Three variables reach it between total orders 24 and 25,
# where the table holds about 14 MB of index arrays.
MAX_PAIRS = 600_000
# Smallest pair table at which a double-mode product looks for a constant
# factor.  The look costs about 0.7 us per operand on one core (the numerators
# scanned by np.count_nonzero) and mostly finds none in a generic chart, while
# the table product costs 10 us at 525 pairs (orders (4, 3)), 14 us at 2,646
# ((5, 5)) and 26 us at 5,880 ((6, 6)); exact products always look, since
# their masks are built anyway.
CONSTANT_CHECK_PAIRS = 2_000


@lru_cache(maxsize=None)
def _space(names: tuple, order) -> "_Space":
    return _Space(names, order)


def _lowered(order, pos: int):
    """The order of a derivative in variable ``pos``."""
    if isinstance(order, int):
        return order - 1
    return (order[0] - 1, order[1]) if pos == 0 else (order[0], order[1] - 1)


class _Space:
    """Monomial bookkeeping shared by all series over (variables, order)."""

    def __init__(self, names: tuple, order):
        bounds = (order,) if isinstance(order, int) else tuple(order)
        blocks = (len(names),) if len(bounds) == 1 else (1, len(names) - 1)
        if min(bounds) < 0:
            raise SeriesMismatchError("truncation order must be >= 0")
        pairs = math.prod(math.comb(b + 2 * n, 2 * n) for b, n in zip(bounds, blocks))
        if pairs > MAX_PAIRS:
            raise BudgetError(
                f"series in {len(names)} variables at order {order} need {pairs} "
                f"coefficient pairs per product, above the limit {MAX_PAIRS}")
        self.names = names
        self.order = order
        self.npairs = pairs  # the length of the pair table
        self.nvars = len(names)
        self.top = sum(bounds)  # the largest total degree in the space
        self.bounds = np.array(bounds)
        # member[v, k] = 1 when the order bounds variable v in its k-th degree
        self.member = np.repeat(np.eye(len(blocks), dtype=np.int64), blocks, axis=0)
        grid = np.indices((self.top + 1,) * self.nvars).reshape(self.nvars, -1).T
        held = grid[self.fits(grid)]
        # graded order: total degree first, then lexicographic (lexsort's last key leads)
        self.expo = held[np.lexsort((*held.T[::-1], held.sum(axis=1)))]
        self.size = len(self.expo)
        self.monos = list(map(tuple, self.expo.tolist()))
        self.index = {m: i for i, m in enumerate(self.monos)}
        self.grades = (self.expo @ self.member).astype(np.int16)  # the bounded degrees
        # additive keys: the key of a sum of exponents is the sum of their keys
        self.base = (self.top + 1) ** np.arange(self.nvars)
        self.codes = self.expo @ self.base
        self._rank = np.argsort(self.codes)
        self._maps = {}

    def var_pos(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SeriesMismatchError(f"unknown variable {name!r} in {self.names}") from None

    def _cached(self, key, build):
        """Index arrays from ``build()`` (a tuple of int sequences), built once."""
        if key not in self._maps:
            self._maps[key] = tuple(np.array(col, dtype=np.int64) for col in build())
        return self._maps[key]

    def fits(self, expo: np.ndarray) -> np.ndarray:
        """Which rows of exponents, over this space's variables, it holds."""
        return (expo @ self.member <= self.bounds).all(axis=1)

    def locate(self, codes: np.ndarray) -> np.ndarray:
        """The index of each additive key; every key must be one the space holds."""
        return self._rank[np.searchsorted(self.codes[self._rank], codes)]

    def pairs(self):
        """(I, J, K) index arrays with mono[I] + mono[J] = mono[K] inside the space."""

        def build():
            fits = (self.grades[:, None] + self.grades[None] <= self.bounds).all(axis=2)
            I, J = np.nonzero(fits)
            return I, J, self.locate(self.codes[I] + self.codes[J])

        return self._cached("pairs", build)

    def diff_map(self, pos: int):
        """(src, dst, factor) arrays implementing d/d(var pos) into the lowered space."""

        def build():
            lower = _space(self.names, _lowered(self.order, pos))
            src = np.flatnonzero(self.expo[:, pos])
            down = self.expo[src]
            down[:, pos] -= 1
            return src, lower.locate(down @ lower.base), self.expo[src, pos]

        return self._cached(("diff", pos), build)

    def integ_map(self, pos: int):
        """(src, dst, divisor) arrays implementing the antiderivative in var pos;
        monomials that would rise above the order are left out."""

        def build():
            up = self.expo.copy()
            up[:, pos] += 1
            src = np.flatnonzero(self.fits(up))
            return src, self.locate(self.codes[src] + self.base[pos]), self.expo[src, pos] + 1

        return self._cached(("integ", pos), build)

    def onto_map(self, names: tuple, order):
        """(src, dst) arrays placing every monomial that the space of (``names``,
        ``order``) holds at its index there; the others are dropped."""

        def build():
            target = _space(names, order)
            key = np.zeros((self.size, len(names)), dtype=np.int64)
            for j, v in enumerate(names):
                if v in self.names:
                    key[:, j] = self.expo[:, self.names.index(v)]
            # equal degrees: the monomial uses no variable outside names
            held = (key.sum(axis=1) == self.expo.sum(axis=1)) & target.fits(key)
            src = np.flatnonzero(held)
            return src, target.locate(key[src] @ target.base)

        return self._cached(("onto", names, order), build)


def as_double(value, den=None):
    """The IEEE double nearest an exact scalar (an int or a Fraction; a float
    passes through), or, given ``den``, the doubles nearest ``value / den``
    for an object array of int numerators.  Exact values become doubles
    here: one beyond the double range is a DomainError, where ``float``
    raises OverflowError."""
    try:
        # int / int is correctly rounded, as float(Fraction) is
        return float(value) if den is None else (value / den).astype(np.float64)
    except OverflowError:
        raise DomainError("an exact value lies beyond the double range") from None


def _pair_sum(a: np.ndarray, b: np.ndarray, I, J, K) -> np.ndarray:
    """The numerators of a product, summed over the pair-table entries (I, J, K)."""
    out = np.zeros(a.size, dtype=a.dtype)
    np.add.at(out, K, a[I] * b[J])
    return out


class _Double:
    """IEEE double coefficients: ``num`` holds floats over ``den = 1``."""

    name, zero, dtype = "double", 0.0, np.float64
    negligible = staticmethod(lambda value, tol: abs(value) < tol)  # False on a NaN
    coerce = staticmethod(as_double)  # a scalar as a coefficient of the kind
    json = staticmethod(float)  # a coefficient as a JSON value
    root = staticmethod(math.sqrt)  # the square root of a positive constant term
    # a coefficient, the coeffs view and the doubles eval reads: as stored
    value = values = floats = staticmethod(lambda num, den: num)
    ratio = staticmethod(lambda value: (as_double(value), 1))  # a scalar over 1
    divide = staticmethod(lambda num, div: (num / div, 1))  # antiderivative division
    max_abs = staticmethod(lambda num, den: float(np.max(np.abs(num))))

    @staticmethod
    def scale(num: np.ndarray, p) -> np.ndarray:
        """The numerators times ``p``, where 0 stays 0 even if ``p`` is inf."""
        out = num.copy()
        nz = np.flatnonzero(out)
        out[nz] = out[nz] * p
        return out

    @staticmethod
    def product(sp: "_Space", a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The product's numerators, with no zero mask: it would cost more than
        it saves.  Past ``CONSTANT_CHECK_PAIRS`` a constant factor scales the
        other one as the table sums it, onto +0.0 (a -0.0 becomes +0.0); a
        non-finite result is left to the table, which spreads 0 * inf = nan."""
        if sp.npairs > CONSTANT_CHECK_PAIRS:
            # a constant has no nonzero coefficient past the first one
            if np.count_nonzero(b) <= (b[0] != 0):
                out = a * b[0]
            elif np.count_nonzero(a) <= (a[0] != 0):
                out = b * a[0]
            else:
                out = None
            if out is not None:
                out += 0.0
                if np.isfinite(out).all():
                    return out
        return _pair_sum(a, b, *sp.pairs())


class _Rational:
    """Exact coefficients: ``num`` holds Python ints over the int ``den``."""

    name, zero, dtype = "rational", Fraction(0), object
    negligible = staticmethod(lambda value, tol: value == 0)  # exact: tol plays no part
    value, floats, scale = Fraction, staticmethod(as_double), staticmethod(np.multiply)
    max_abs = staticmethod(lambda num, den: Fraction(max(map(abs, num)), den))

    @staticmethod
    def ratio(value) -> tuple:
        """An exact scalar as (numerator, denominator), without building a Fraction."""
        if isinstance(value, Fraction):
            return value.numerator, value.denominator
        if isinstance(value, int):
            return value, 1
        raise DomainError(f"exact mode requires rational coefficients, got {value!r}")

    @staticmethod
    def coerce(value) -> Fraction:
        return value if isinstance(value, Fraction) else Fraction(*_Rational.ratio(value))

    @staticmethod
    def json(value) -> str:
        """The ``p/q`` string, so nothing is rounded; a value with more digits
        than the interpreter converts to text is a :class:`BudgetError`."""
        try:
            return str(value)
        except ValueError:  # the int-to-str digit limit (sys.set_int_max_str_digits)
            raise BudgetError(
                f"an exact coefficient has more than {sys.get_int_max_str_digits()} digits "
                f"in its numerator or denominator, too many to write") from None

    @staticmethod
    def root(c) -> Fraction:
        p, q = math.isqrt(c.numerator), math.isqrt(c.denominator)
        if p * p != c.numerator or q * q != c.denominator:
            raise DomainError(f"exact sqrt needs a perfect-square constant term, got {c}")
        return Fraction(p, q)

    @staticmethod
    def product(sp: "_Space", a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The product's numerators.  Each pair costs a Python int product, so
        pairs with a zero factor are dropped; the same masks show a constant
        factor, which leaves one pair per output: a scaling."""
        nza, nzb = a != 0, b != 0
        if np.count_nonzero(nzb) <= nzb[0]:
            return a * b[0]
        if np.count_nonzero(nza) <= nza[0]:
            return b * a[0]
        I, J, K = sp.pairs()
        keep = nza[I] & nzb[J]
        return _pair_sum(a, b, I[keep], J[keep], K[keep])

    @staticmethod
    def divide(num: np.ndarray, div: np.ndarray) -> tuple:
        """``num / div`` over the least common multiple of ``div``, and that multiple."""
        div = div.astype(object)  # the lcm can pass the int64 range
        lcm = math.lcm(*div)
        return num * (lcm // div), lcm

    @staticmethod
    def values(num, den) -> np.ndarray:
        out = np.array([Fraction(n, den) for n in num], dtype=object)
        out.flags.writeable = False  # a write here would not reach the series
        return out


DOUBLE, RATIONAL = _Double(), _Rational()


def kind(mode: str):
    """The coefficient kind that a mode string names: DOUBLE or RATIONAL."""
    for k in (DOUBLE, RATIONAL):
        if k.name == mode:
            return k
    raise DomainError(f"unknown mode {mode!r}")


class TruncatedSeries:
    """A polynomial in named variables truncated at a fixed order: a total
    degree, or a pair (degree in the first variable, total degree in the rest).

    ``num`` holds one entry per monomial, in graded order, over the int
    ``den``: the coefficient of monomial i is ``num[i] / den``.  Doubles sit
    over ``den = 1``; the constructor brings a rational pair to canonical
    form.  ``kind`` is the coefficient kind, which owns every rule that
    differs between kinds.
    """

    __slots__ = ("vars", "order", "num", "den", "kind")

    def __init__(self, vars: tuple, order, num: np.ndarray, den: int, kind):
        self.vars = tuple(vars)
        self.order = order
        if den != 1:
            g = math.gcd(den, *num)  # past a running gcd of 1 the rest costs no division
            if g != 1:
                num, den = num // g, den // g
        self.num = num
        self.den = den
        self.kind = kind

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, vars, order, kind=DOUBLE):
        return cls.from_terms(vars, order, {}, kind)

    @classmethod
    def constant(cls, vars, order, value, kind=DOUBLE):
        return cls.from_terms(vars, order, {(0,) * len(vars): value}, kind)

    @classmethod
    def variable(cls, vars, order, name, kind=DOUBLE):
        """The series of the coordinate function `name` (no constant part); it is
        0 in a space that holds no degree of `name`, as it is in the quotient."""
        mono = tuple(1 if v == name else 0 for v in vars)
        if sum(mono) != 1:
            raise SeriesMismatchError(f"{name!r} is not one of {vars}")
        held = mono in _space(tuple(vars), order).index
        return cls.from_terms(vars, order, {mono: 1} if held else {}, kind)

    @classmethod
    def from_terms(cls, vars, order, terms: dict, kind=DOUBLE):
        sp = _space(tuple(vars), order)
        values, den = {}, 1
        for mono, value in terms.items():
            mono = tuple(mono)
            if mono not in sp.index:
                raise SeriesMismatchError(f"monomial {mono} exceeds order {order}")
            values[sp.index[mono]] = p, q = kind.ratio(value)
            den = math.lcm(den, q)
        num = np.zeros(sp.size, kind.dtype)
        for i, (p, q) in values.items():
            num[i] = p * (den // q)
        return cls(vars, order, num, den, kind)

    # -- basic queries -----------------------------------------------------

    @property
    def exact(self) -> bool:
        # kept for the benchmark's tracer, which reads it to tell the kinds apart
        return self.kind is RATIONAL

    @property
    def space(self) -> _Space:
        return _space(self.vars, self.order)

    @property
    def coeffs(self) -> np.ndarray:
        """The coefficients in graded monomial order: in double mode the stored
        array itself, in exact mode a read-only array of Fractions."""
        return self.kind.values(self.num, self.den)

    def _value(self, i):
        return self.kind.value(self.num[i], self.den)

    def coeff(self, mono):
        sp = self.space
        mono = tuple(mono)
        if mono not in sp.index:
            return self.kind.zero
        return self._value(sp.index[mono])

    def nonzero_terms(self):
        sp = self.space
        return [(sp.monos[i], self._value(i)) for i in np.flatnonzero(self.num != 0)]

    def max_abs(self) -> float | Fraction:
        """The largest coefficient magnitude: a float, or a Fraction in exact mode."""
        return self.kind.max_abs(self.num, self.den)

    def constant_term(self):
        return self._value(0)

    def equals(self, other) -> bool:
        # canonical exact form: equal values have equal numerators and denominator
        return (
            self.vars == other.vars
            and self.order == other.order
            and self.kind is other.kind
            and self.den == other.den
            and np.array_equal(self.num, other.num)
        )

    def __repr__(self):
        terms = self.nonzero_terms()
        if not terms:
            return f"<series 0 vars={self.vars} order={self.order}>"
        body = " + ".join(f"{c}*{m}" for m, c in terms[:6])
        more = "" if len(terms) <= 6 else f" ... ({len(terms)} terms)"
        return f"<series {body}{more} vars={self.vars} order={self.order}>"

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise SeriesMismatchError(f"variable mismatch: {self.vars} vs {other.vars}")
        if self.order != other.order:
            raise SeriesMismatchError(
                f"order mismatch: {self.order} vs {other.order}; truncate explicitly"
            )
        if self.kind is not other.kind:
            raise SeriesMismatchError(
                f"cannot mix {self.kind.name} and {other.kind.name} coefficients")

    def _sum(self, other, op):
        """``op`` (np.add or np.subtract) of two series of one space; the
        operands meet over the least common multiple of their denominators."""
        self._check(other)
        g = math.gcd(self.den, other.den)
        ka, kb = other.den // g, self.den // g
        a = self.num if ka == 1 else self.num * ka
        b = other.num if kb == 1 else other.num * kb
        return TruncatedSeries(self.vars, self.order, op(a, b), self.den * ka, self.kind)

    def _plus_constant(self, value, sign: int):
        """The series plus ``sign * value`` in the constant term."""
        p, q = self.kind.ratio(value)
        num = self.num * q if q != 1 else self.num.copy()
        num[0] += sign * p * self.den
        return TruncatedSeries(self.vars, self.order, num, self.den * q, self.kind)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._plus_constant(other, 1)
        return self._sum(other, np.add)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._plus_constant(other, -1)
        return self._sum(other, np.subtract)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return TruncatedSeries(self.vars, self.order, -self.num, self.den, self.kind)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._scale(other)
        self._check(other)
        out = self.kind.product(self.space, self.num, other.num)
        return TruncatedSeries(self.vars, self.order, out, self.den * other.den, self.kind)

    def __rmul__(self, other):
        return self.__mul__(other)

    def _scale(self, value):
        p, q = self.kind.ratio(value)
        return TruncatedSeries(self.vars, self.order, self.kind.scale(self.num, p),
                               self.den * q, self.kind)

    # -- calculus ----------------------------------------------------------

    def truncate(self, order):
        """Explicitly lower the truncation order, or each bound of an order pair."""
        if order == self.order:
            return self
        lower = type(order) is type(self.order) and (
            all(a <= b for a, b in zip(order, self.order)) if isinstance(order, tuple)
            else order <= self.order)
        if not lower:
            raise SeriesMismatchError(f"cannot truncate order {self.order} to {order}")
        return self._onto(self.vars, order)

    def derive(self, name: str):
        """Formal partial derivative; the bound on `name`'s degree drops by one."""
        sp = self.space
        pos = sp.var_pos(name)
        order = _lowered(self.order, pos)
        src, dst, fac = sp.diff_map(pos)
        num = np.zeros(_space(self.vars, order).size, dtype=self.num.dtype)
        num[dst] = self.num[src] * fac
        return TruncatedSeries(self.vars, order, num, self.den, self.kind)

    def integrate(self, name: str):
        """Antiderivative in `name` vanishing at 0; kept at the same order.

        Contributions that would land above the truncation order are dropped,
        so the result is exact through `order` whenever the input is exact
        one degree of `name` below it.
        """
        sp = self.space
        src, dst, div = sp.integ_map(sp.var_pos(name))
        num = np.zeros_like(self.num)
        num[dst], q = self.kind.divide(self.num[src], div)
        return TruncatedSeries(self.vars, self.order, num, self.den * q, self.kind)

    def reciprocal(self):
        """Series inverse by Newton iteration; constant term must be nonzero."""
        c, kind = self.constant_term(), self.kind
        if kind.negligible(c, 1e-300):  # a double below this has no reciprocal
            raise DomainError("reciprocal of a series with zero constant term")
        r = TruncatedSeries.constant(self.vars, self.order, 1 / c, kind)
        two = TruncatedSeries.constant(self.vars, self.order, 2, kind)
        correct = 1
        while correct <= self.space.top:
            r = r * (two - self * r)
            correct *= 2
        return r

    def sqrt(self):
        """Series square root; constant term must be a positive (exact: perfect
        square) number.  Uses the inverse-square-root Newton iteration."""
        c, kind = self.constant_term(), self.kind
        if c <= 0:
            raise DomainError("sqrt of a series with non-positive constant term")
        y = TruncatedSeries.constant(self.vars, self.order, 1 / kind.root(c), kind)
        three = TruncatedSeries.constant(self.vars, self.order, 3, kind)
        correct = 1
        while correct <= self.space.top:
            y = (y * (three - self * (y * y))) * Fraction(1, 2)
            correct *= 2
        return self * y

    # -- restructuring -----------------------------------------------------

    def slice_at_zero(self, name: str):
        """Set variable `name` to 0 and drop it from the variable tuple; without
        the first variable, an order pair (a, b) leaves the total order b."""
        pos = self.space.var_pos(name)  # raises for an unknown variable
        order = self.order if isinstance(self.order, int) or pos else self.order[1]
        return self._onto(tuple(v for v in self.vars if v != name), order)

    def embed(self, vars: tuple, order):
        """The same series over a superset variable tuple, at ``order``, which
        must hold every monomial of this one."""
        vars = tuple(vars)
        if vars == self.vars and order == self.order:
            return self
        if len(self.space.onto_map(vars, order)[0]) < self.num.size:
            raise SeriesMismatchError(
                f"{vars} at order {order} cannot hold {self.vars} at order {self.order}")
        return self._onto(vars, order)

    def _onto(self, names: tuple, order):
        src, dst = self.space.onto_map(names, order)
        num = np.zeros(_space(names, order).size, dtype=self.num.dtype)
        num[dst] = self.num[src]
        return TruncatedSeries(names, order, num, self.den, self.kind)

    # -- evaluation / serialization -----------------------------------------

    def eval(self, points):
        """Evaluate the truncated polynomial at one point or an (N, nvars) batch."""
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.shape[1] != len(self.vars):
            raise SeriesMismatchError(
                f"points have {pts.shape[1]} coordinates, series has {len(self.vars)}"
            )
        vals = _design_matrix(self.space, pts) @ self.kind.floats(self.num, self.den)
        return float(vals[0]) if single else vals

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "order": self.order if isinstance(self.order, int) else list(self.order),
            "coeffs": [{"mi": list(m), "c": self.kind.json(c)}
                       for m, c in self.nonzero_terms()],
        }


def _powers(x: np.ndarray, top: int) -> np.ndarray:
    """The table (x^0, ..., x^top) of each value of x, built by cumulative
    products; shape (len(x), top + 1)."""
    pw = np.ones((x.shape[0], top + 1), dtype=np.float64)
    for k in range(1, top + 1):
        pw[:, k] = pw[:, k - 1] * x
    return pw


def _design_matrix(space: _Space, pts: np.ndarray) -> np.ndarray:
    """Monomial values at each point, the products of power tables."""
    design = np.ones((pts.shape[0], space.size), dtype=np.float64)
    for v in range(space.nvars):
        maxe = int(space.expo[:, v].max()) if space.size else 0
        design *= _powers(pts[:, v], maxe)[:, space.expo[:, v]]
    return design


def apply_univariate(s: TruncatedSeries, taylor: list):
    """Compose a univariate function with a series.

    ``taylor[k]`` must be the k-th Taylor coefficient g^(k)(c)/k! of the outer
    function at c = constant term of ``s``.  Evaluated by Horner on the
    nilpotent part, so the cost is ``len(taylor) - 1`` series multiplications;
    powers of the nilpotent part above ``s.space.top`` vanish, so no caller
    needs a longer table.
    """
    num = s.num.copy()
    num[0] = 0
    u = TruncatedSeries(s.vars, s.order, num, s.den, s.kind)
    out = TruncatedSeries.constant(s.vars, s.order, taylor[-1], s.kind)
    for k in range(len(taylor) - 2, -1, -1):
        out = out * u + taylor[k]
    return out


class SeriesMatrix2:
    """A 2x2 matrix of series sharing variables and order.

    Index convention: ``entry(i, j)`` is row i, column j (0-based).  In the
    tensor notation used by the obstruction module the row is the lower index
    and the column is the upper index, so entry ``(0, 1)`` is the component
    with upper index 2 and lower index 1.
    """

    __slots__ = ("m",)

    def __init__(self, m00, m01, m10, m11):
        m00._check(m01), m00._check(m10), m00._check(m11)
        self.m = ((m00, m01), (m10, m11))

    def entry(self, i, j) -> TruncatedSeries:
        return self.m[i][j]

    @property
    def order(self):
        return self.m[0][0].order

    def __add__(self, other):
        return SeriesMatrix2(*(a + b for ra, rb in zip(self.m, other.m) for a, b in zip(ra, rb)))

    def __mul__(self, other):
        """Matrix product with another SeriesMatrix2."""
        a, b = self.m, other.m
        return SeriesMatrix2(
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        )

    def _map(self, fn):
        """The matrix of ``fn`` applied to each entry."""
        return SeriesMatrix2(*(fn(e) for row in self.m for e in row))

    def derive(self, name: str):
        return self._map(lambda e: e.derive(name))

    def truncate(self, order):
        return self._map(lambda e: e.truncate(order))

    def slice_at_zero(self, name: str):
        return self._map(lambda e: e.slice_at_zero(name))

    def max_abs(self) -> float | Fraction:
        return max(e.max_abs() for row in self.m for e in row)

