"""Closed-form reference coefficients for the benchmark factor families.

Two families of proportionality factors have known closed-form obstruction
coefficients in the graph chart at the origin, used as ground truth by the
acceptance suite and the CLI comparison subcommands:

* cubic family      f = 1 + a*x1 + b*x1^3 + x3
  (obstruction = sum_j c_j(a, b) xi1^j + higher order; c4 is only pinned by
  its pure-b term, the mixed a*b part has no published closed form)
* quadratic family  f = 1 + x1^2 + a*x2^2 + x3
  (obstruction starts at the quadratic terms in xi; the quadratic form
  degenerates exactly at a = 1)

All values are exact rationals in the family parameters.
"""

from __future__ import annotations

from fractions import Fraction


def cubic_family_coeffs(a, b) -> tuple:
    """c0..c3 of the cubic family obstruction, exact in (a, b)."""
    a = Fraction(a)
    b = Fraction(b)
    d14 = (a * a + 1) ** 14
    d15 = (a * a + 1) ** 15
    c0 = -Fraction(5184) * a**2 * b**4 * (15 * a**4 + 14 * a**2 + 36 * a * b - 1) / d14
    c1 = -Fraction(20736) * a**2 * b**4 * (8 * a**3 - 63 * a**2 * b + 8 * a - 9 * b) / d14
    c2 = (
        Fraction(31104)
        * a
        * b**5
        * (169 * a**6 + 97 * a**4 + 468 * a**3 * b - 73 * a**2 - 36 * a * b - 1)
        / d15
    )
    c3 = (
        Fraction(124416)
        * a**2
        * b**5
        * (84 * a**4 - 771 * a**3 * b + 68 * a**2 - 15 * a * b - 16)
        / d15
    )
    return (c0, c1, c2, c3)


def cubic_family_c4_pure(b) -> Fraction:
    """The c4 coefficient at a = 0, where the unpublished mixed term drops out."""
    b = Fraction(b)
    return Fraction(46656) * b**6


def quadratic_family_form(a) -> tuple:
    """Quadratic-form coefficients (xi1^2, xi1*xi2, xi2^2) for the quadratic family."""
    a = Fraction(a)
    pref = Fraction(1024) * (a - 1) ** 2
    q20 = pref * (33 + 128 * a + 312 * a**2 + 224 * a**3 + 768 * a**4 - 256 * a**5)
    q11 = -pref * 16 * a**2 * (3 + 11 * a + 66 * a**2 - 88 * a**3 + 8 * a**4)
    q02 = pref * a**4 * (-39 - 24 * a + 760 * a**2 + 640 * a**3 - 128 * a**4)
    return (q20, q11, q02)
