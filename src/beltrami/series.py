"""Dense truncated multivariate power series (jets).

Every chart and obstruction quantity in this package is carried by a
:class:`TruncatedSeries`: a polynomial in a fixed ordered tuple of named
variables, truncated at an ``order``.  An int order bounds the total degree.
An order pair ``(a, b)`` makes the space bigraded: the degree in the first
variable is at most ``a`` and the total degree in the others at most ``b``;
the chart series over ``(t, xi1, xi2)`` are truncated this way, since the
obstruction reads t-degrees and xi-degrees against separate bounds.  Both
kinds of truncation are quotients by an ideal, so every ring operation is
exact through the order.  Coefficients are IEEE doubles by default; exact
mode stores ``fractions.Fraction`` coefficients in an object array and keeps
every ring operation exact.

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
  product is one ``np.add.at`` over it.  In exact mode the operands enter
  the product as integer numerators over one common denominator
  (``math.lcm``), pairs with a zero factor are masked out, and a
  ``Fraction`` is rebuilt only at each nonzero output;
* per variable, the derivative and antiderivative maps ``(src, dst, k)``;
* per target space, the map that places there each monomial that space
  holds, shared by :meth:`TruncatedSeries.truncate`,
  :meth:`TruncatedSeries.slice_at_zero` and :meth:`TruncatedSeries.embed`.

Scalar products, derivatives, antiderivatives and re-placements are then one
indexed numpy operation, identical for ``Fraction`` and double entries.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetError, DomainError, SeriesMismatchError

# Largest pair table a space may build: C(order + 2 n, 2 n) pairs for n
# variables at a total-degree order, C(a + 2, 2) C(b + 2 n - 2, 2 n - 2) at an
# order pair (a, b).  Three variables reach it between total orders 24 and 25,
# where the table holds about 14 MB of index arrays.
MAX_PAIRS = 600_000


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
        self.nvars = len(names)
        self.top = sum(bounds)  # the largest total degree in the space
        self.bounds = np.array(bounds)
        # member[v, k] = 1 when the order bounds variable v in its k-th degree
        member = np.repeat(np.eye(len(blocks), dtype=np.int64), blocks, axis=0)
        grid = np.array(list(itertools.product(range(self.top + 1), repeat=self.nvars)))
        fits = (grid @ member <= self.bounds).all(axis=1)
        monos = sorted(map(tuple, grid[fits].tolist()), key=lambda m: (sum(m), m))
        self.monos = monos
        self.index = {m: i for i, m in enumerate(monos)}
        self.size = len(monos)
        self.expo = np.array(monos, dtype=np.int64).reshape(self.size, self.nvars)
        self.grades = (self.expo @ member).astype(np.int16)  # the bounded degrees
        self._maps = {}

    def var_pos(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SeriesMismatchError(f"unknown variable {name!r} in {self.names}") from None

    def _cached(self, key, build):
        """Index arrays from ``build()`` (a tuple of int lists), built once."""
        if key not in self._maps:
            self._maps[key] = tuple(np.array(col, dtype=np.int64) for col in build())
        return self._maps[key]

    def pairs(self):
        """(I, J, K) index arrays with mono[I] + mono[J] = mono[K] inside the space."""

        def build():
            fits = (self.grades[:, None] + self.grades[None] <= self.bounds).all(axis=2)
            I, J = np.nonzero(fits)
            codes = self.expo @ (self.top + 1) ** np.arange(self.nvars)  # additive keys
            rank = np.argsort(codes)
            return I, J, rank[np.searchsorted(codes[rank], codes[I] + codes[J])]

        return self._cached("pairs", build)

    def diff_map(self, pos: int):
        """(src, dst, factor) arrays implementing d/d(var pos) into the lowered space."""

        def build():
            lower = _space(self.names, _lowered(self.order, pos))
            src = [i for i, m in enumerate(self.monos) if m[pos]]
            return (src, [lower.index[_shift(self.monos[i], pos, -1)] for i in src],
                    [self.monos[i][pos] for i in src])

        return self._cached(("diff", pos), build)

    def integ_map(self, pos: int):
        """(src, dst, divisor) arrays implementing the antiderivative in var pos;
        monomials that would rise above the order are left out."""

        def build():
            src = [i for i, m in enumerate(self.monos) if _shift(m, pos, 1) in self.index]
            return (src, [self.index[_shift(self.monos[i], pos, 1)] for i in src],
                    [self.monos[i][pos] + 1 for i in src])

        return self._cached(("integ", pos), build)

    def onto_map(self, names: tuple, order):
        """(src, dst) arrays placing every monomial that the space of (``names``,
        ``order``) holds at its index there; the others are dropped."""

        def build():
            target = _space(names, order)
            src, dst = [], []
            for i, m in enumerate(self.monos):
                powers = dict(zip(self.names, m))
                key = tuple(powers.get(v, 0) for v in names)
                # equal degrees: m uses no variable outside names
                if sum(key) == sum(m) and key in target.index:
                    src.append(i)
                    dst.append(target.index[key])
            return src, dst

        return self._cached(("onto", names, order), build)


def _shift(mono: tuple, pos: int, step: int) -> tuple:
    return mono[:pos] + (mono[pos] + step,) + mono[pos + 1:]


def _integers(coeffs: np.ndarray):
    """Exact coefficients as integer numerators over one common denominator."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return np.array([c.numerator * (den // c.denominator) for c in coeffs], dtype=object), den


def _fractions(nums: np.ndarray, den: int) -> np.ndarray:
    """Integer numerators over ``den`` back to Fractions, reduced only where nonzero."""
    out = np.full(nums.size, Fraction(0), dtype=object)
    nz = np.flatnonzero(nums)
    out[nz] = [Fraction(n, den) for n in nums[nz]]
    return out


def _coerce(value, exact: bool):
    if exact:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise DomainError(f"exact mode requires rational coefficients, got {value!r}")
    return float(value)


class TruncatedSeries:
    """A polynomial in named variables truncated at a fixed order: a total
    degree, or a pair (degree in the first variable, total degree in the rest)."""

    __slots__ = ("vars", "order", "coeffs")

    def __init__(self, vars: tuple, order, coeffs: np.ndarray):
        self.vars = tuple(vars)
        self.order = order
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, vars, order, exact=False):
        size = _space(tuple(vars), order).size
        c = np.full(size, Fraction(0), dtype=object) if exact else np.zeros(size)
        return cls(tuple(vars), order, c)

    @classmethod
    def constant(cls, vars, order, value, exact=False):
        s = cls.zeros(vars, order, exact=exact)
        s.coeffs[0] = _coerce(value, exact)
        return s

    @classmethod
    def variable(cls, vars, order, name, exact=False):
        """The series of the coordinate function `name` (no constant part); it is
        0 in a space that holds no degree of `name`, as it is in the quotient."""
        sp = _space(tuple(vars), order)
        s = cls.zeros(vars, order, exact=exact)
        mono = tuple(1 if v == name else 0 for v in vars)
        if sum(mono) != 1:
            raise SeriesMismatchError(f"{name!r} is not one of {vars}")
        if mono in sp.index:
            s.coeffs[sp.index[mono]] = _coerce(1, exact)
        return s

    @classmethod
    def from_terms(cls, vars, order, terms: dict, exact=False):
        sp = _space(tuple(vars), order)
        s = cls.zeros(vars, order, exact=exact)
        for mono, value in terms.items():
            mono = tuple(mono)
            if mono not in sp.index:
                raise SeriesMismatchError(f"monomial {mono} exceeds order {order}")
            s.coeffs[sp.index[mono]] = _coerce(value, exact)
        return s

    # -- basic queries -----------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.coeffs.dtype == object

    @property
    def space(self) -> _Space:
        return _space(self.vars, self.order)

    def coeff(self, mono):
        sp = self.space
        mono = tuple(mono)
        if mono not in sp.index:
            return Fraction(0) if self.exact else 0.0
        return self.coeffs[sp.index[mono]]

    def nonzero_terms(self):
        sp = self.space
        return [(sp.monos[i], c) for i, c in enumerate(self.coeffs) if c != 0]

    def max_abs(self) -> float:
        if self.coeffs.size == 0:
            return 0.0
        return max(abs(c) for c in self.coeffs) if self.exact else float(np.max(np.abs(self.coeffs)))

    def constant_term(self):
        return self.coeffs[0]

    def copy(self):
        return TruncatedSeries(self.vars, self.order, self.coeffs.copy())

    def equals(self, other) -> bool:
        return (
            self.vars == other.vars
            and self.order == other.order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
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
        if self.exact != other.exact:
            raise SeriesMismatchError("cannot mix exact and double coefficient modes")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            out = self.copy()
            out.coeffs[0] = out.coeffs[0] + _coerce(other, self.exact)
            return out
        self._check(other)
        return TruncatedSeries(self.vars, self.order, self.coeffs + other.coeffs)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.__add__(-_coerce(other, self.exact))
        self._check(other)
        return TruncatedSeries(self.vars, self.order, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return TruncatedSeries(self.vars, self.order, -self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            out = self.coeffs.copy()
            nz = np.flatnonzero(out)
            out[nz] = out[nz] * _coerce(other, self.exact)
            return TruncatedSeries(self.vars, self.order, out)
        self._check(other)
        I, J, K = self.space.pairs()
        a, b = self.coeffs, other.coeffs
        if self.exact:
            a, da = _integers(a)
            b, db = _integers(b)
            keep = (a != 0)[I] & (b != 0)[J]
            I, J, K = I[keep], J[keep], K[keep]
        out = np.zeros(a.size, dtype=a.dtype)
        np.add.at(out, K, a[I] * b[J])
        if self.exact:
            out = _fractions(out, da * db)
        return TruncatedSeries(self.vars, self.order, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    # -- calculus ----------------------------------------------------------

    def truncate(self, order):
        """Explicitly lower the truncation order, or each bound of an order pair."""
        if order == self.order:
            return self
        if type(order) is not type(self.order) or np.any(np.array(order) > self.order):
            raise SeriesMismatchError(f"cannot truncate order {self.order} to {order}")
        return self._onto(self.vars, order)

    def derive(self, name: str):
        """Formal partial derivative; the bound on `name`'s degree drops by one."""
        sp = self.space
        pos = sp.var_pos(name)
        out = TruncatedSeries.zeros(self.vars, _lowered(self.order, pos), exact=self.exact)
        src, dst, fac = sp.diff_map(pos)
        out.coeffs[dst] = self.coeffs[src] * fac
        return out

    def integrate(self, name: str):
        """Antiderivative in `name` vanishing at 0; kept at the same order.

        Contributions that would land above the truncation order are dropped,
        so the result is exact through `order` whenever the input is exact
        one degree of `name` below it.
        """
        sp = self.space
        src, dst, div = sp.integ_map(sp.var_pos(name))
        out = TruncatedSeries.zeros(self.vars, self.order, exact=self.exact)
        out.coeffs[dst] = self.coeffs[src] / div
        return out

    def reciprocal(self):
        """Series inverse by Newton iteration; constant term must be nonzero."""
        c = self.constant_term()
        if c == 0 or (not self.exact and abs(c) < 1e-300):
            raise DomainError("reciprocal of a series with zero constant term")
        inv0 = Fraction(1) / c if self.exact else 1.0 / c
        r = TruncatedSeries.constant(self.vars, self.order, inv0, exact=self.exact)
        two = TruncatedSeries.constant(self.vars, self.order, 2, exact=self.exact)
        correct = 1
        while correct <= self.space.top:
            r = r * (two - self * r)
            correct *= 2
        return r

    def sqrt(self):
        """Series square root; constant term must be a positive (exact: perfect
        square) number.  Uses the inverse-square-root Newton iteration."""
        c = self.constant_term()
        if self.exact:
            root = _fraction_sqrt(c)
            if root is None:
                raise DomainError(
                    f"exact sqrt needs a perfect-square constant term, got {c}"
                )
            inv0 = Fraction(1) / root
        else:
            if c <= 0:
                raise DomainError("sqrt of a series with non-positive constant term")
            inv0 = 1.0 / math.sqrt(c)
        y = TruncatedSeries.constant(self.vars, self.order, inv0, exact=self.exact)
        three = TruncatedSeries.constant(self.vars, self.order, 3, exact=self.exact)
        half = Fraction(1, 2) if self.exact else 0.5
        correct = 1
        while correct <= self.space.top:
            y = (y * (three - self * (y * y))) * half
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
        if len(self.space.onto_map(vars, order)[0]) < self.coeffs.size:
            raise SeriesMismatchError(
                f"{vars} at order {order} cannot hold {self.vars} at order {self.order}")
        return self._onto(vars, order)

    def _onto(self, names: tuple, order):
        src, dst = self.space.onto_map(names, order)
        out = TruncatedSeries.zeros(names, order, exact=self.exact)
        out.coeffs[dst] = self.coeffs[src]
        return out

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
        coeffs = self.coeffs.astype(np.float64) if self.exact else self.coeffs
        vals = _design_matrix(self.space, pts) @ coeffs
        return float(vals[0]) if single else vals

    def to_json(self) -> dict:
        sp = self.space
        return {
            "vars": list(self.vars),
            "order": self.order if isinstance(self.order, int) else list(self.order),
            "coeffs": [
                {"mi": list(sp.monos[i]), "c": json_number(c, self.exact)}
                for i, c in enumerate(self.coeffs)
                if c != 0
            ],
        }

    @classmethod
    def from_json(cls, data: dict, exact=False):
        terms = {}
        for entry in data["coeffs"]:
            value = Fraction(entry["c"]) if exact else float(entry["c"])
            terms[tuple(entry["mi"])] = value
        order = data["order"]  # a JSON list for an order pair
        order = order if isinstance(order, int) else tuple(order)
        return cls.from_terms(tuple(data["vars"]), order, terms, exact=exact)


def json_number(value, exact: bool):
    """A number as a JSON value: exact values as their ``p/q`` string, so
    nothing is rounded, and doubles as floats."""
    return str(value) if exact else float(value)


def _design_matrix(space: _Space, pts: np.ndarray) -> np.ndarray:
    """Monomial values at each point; powers built by cumulative products."""
    design = np.ones((pts.shape[0], space.size), dtype=np.float64)
    for v in range(space.nvars):
        maxe = int(space.expo[:, v].max()) if space.size else 0
        pw = np.ones((pts.shape[0], maxe + 1), dtype=np.float64)
        for k in range(1, maxe + 1):
            pw[:, k] = pw[:, k - 1] * pts[:, v]
        design *= pw[:, space.expo[:, v]]
    return design


def _fraction_sqrt(value: Fraction):
    """Exact square root of a non-negative rational, or None."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def apply_univariate(s: TruncatedSeries, taylor: list):
    """Compose a univariate function with a series.

    ``taylor[k]`` must be the k-th Taylor coefficient g^(k)(c)/k! of the outer
    function at c = constant term of ``s``.  Evaluated by Horner on the
    nilpotent part, so the cost is ``len(taylor) - 1`` series multiplications;
    powers of the nilpotent part above ``s.space.top`` vanish, so no caller
    needs a longer table.
    """
    u = s.copy()
    u.coeffs[0] = Fraction(0) if s.exact else 0.0
    out = TruncatedSeries.constant(s.vars, s.order, taylor[-1], exact=s.exact)
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

    @classmethod
    def identity(cls, vars, order, exact=False):
        one = TruncatedSeries.constant(vars, order, 1, exact=exact)
        zero = TruncatedSeries.zeros(vars, order, exact=exact)
        return cls(one, zero.copy(), zero.copy(), one.copy())

    @classmethod
    def rotation_j(cls, vars, order, exact=False):
        """The constant matrix [[0, 1], [-1, 0]]."""
        one = TruncatedSeries.constant(vars, order, 1, exact=exact)
        zero = TruncatedSeries.zeros(vars, order, exact=exact)
        return cls(zero, one, -one, zero.copy())

    def entry(self, i, j) -> TruncatedSeries:
        return self.m[i][j]

    @property
    def order(self):
        return self.m[0][0].order

    @property
    def vars(self):
        return self.m[0][0].vars

    def __add__(self, other):
        return SeriesMatrix2(
            self.m[0][0] + other.m[0][0],
            self.m[0][1] + other.m[0][1],
            self.m[1][0] + other.m[1][0],
            self.m[1][1] + other.m[1][1],
        )

    def __sub__(self, other):
        return SeriesMatrix2(
            self.m[0][0] - other.m[0][0],
            self.m[0][1] - other.m[0][1],
            self.m[1][0] - other.m[1][0],
            self.m[1][1] - other.m[1][1],
        )

    def __mul__(self, other):
        """Matrix product (both operands SeriesMatrix2) or scalar/series scaling."""
        if isinstance(other, SeriesMatrix2):
            a, b = self.m, other.m
            return SeriesMatrix2(
                a[0][0] * b[0][0] + a[0][1] * b[1][0],
                a[0][0] * b[0][1] + a[0][1] * b[1][1],
                a[1][0] * b[0][0] + a[1][1] * b[1][0],
                a[1][0] * b[0][1] + a[1][1] * b[1][1],
            )
        return self._map(lambda e: e * other)

    def _map(self, fn):
        """The matrix of ``fn`` applied to each entry."""
        return SeriesMatrix2(*(fn(e) for row in self.m for e in row))

    def derive(self, name: str):
        return self._map(lambda e: e.derive(name))

    def truncate(self, order):
        return self._map(lambda e: e.truncate(order))

    def slice_at_zero(self, name: str):
        return self._map(lambda e: e.slice_at_zero(name))

    def max_abs(self) -> float:
        return max(e.max_abs() for row in self.m for e in row)

