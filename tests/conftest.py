"""Fixtures shared by the tier-1 tests."""

from collections import Counter

import pytest

from beltrami import expr as ex
from beltrami.series import TruncatedSeries, _Space


class OpCounts:
    """The series operations made while a test runs, counted where they are
    made, so that a test can pin an operation budget without timing:

    - ``products``: the products of two series, by the order of their space;
      a product with a number is a scaling and is not counted;
    - ``tables``: the entries of each pair table fetched, one per fetch;
    - ``univariate``: the univariate compositions of ``expr.compose``.

    :meth:`only_inside` narrows the counts to the calls one function makes.
    """

    def __init__(self, monkeypatch):
        self.reset()
        self._monkeypatch = monkeypatch
        self._inside = None  # the open calls of the function counted in, if any
        mul, pairs, univariate = TruncatedSeries.__mul__, _Space.pairs, ex.apply_univariate

        def counting_mul(a, b):
            if self._counting() and isinstance(b, TruncatedSeries):
                self.products[a.order] += 1
            return mul(a, b)

        def counting_pairs(space):
            if self._counting():
                self.tables.append(space.npairs)
            return pairs(space)

        def counting_univariate(s, taylor):
            if self._counting():
                self.univariate += 1
            return univariate(s, taylor)

        monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
        monkeypatch.setattr(_Space, "pairs", counting_pairs)
        monkeypatch.setattr(ex, "apply_univariate", counting_univariate)

    def reset(self):
        """Forget the operations counted so far."""
        self.products, self.tables, self.univariate = Counter(), [], 0

    def _counting(self):
        return self._inside is None or self._inside > 0

    def only_inside(self, owner, name):
        """Count only the operations made while ``owner.name`` runs."""
        fn, self._inside = getattr(owner, name), 0

        def wrapped(*args, **kwargs):
            self._inside += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._inside -= 1

        self._monkeypatch.setattr(owner, name, wrapped)
        return self


@pytest.fixture
def op_counts(monkeypatch):
    """An :class:`OpCounts` that counts from the start of the test."""
    return OpCounts(monkeypatch)
