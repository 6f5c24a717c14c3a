"""The benchmark's transcription of the closed forms against the program's."""

from fractions import Fraction

import closed_forms as cf
from beltrami import reference

GRID = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3, 7)]


def test_cubic_family_transcription():
    for a in GRID:
        for b in GRID[::3]:
            assert cf.cubic_coeffs(a, b) == reference.cubic_family_coeffs(a, b), (a, b)


def test_cubic_c4_transcription():
    for b in GRID:
        assert cf.cubic_c4_at_a0(b) == reference.cubic_family_c4_pure(b), b


def test_quadratic_family_transcription():
    for a in GRID:
        assert cf.quadratic_form(a) == reference.quadratic_family_form(a), a
    assert cf.quadratic_form(Fraction(1)) == (0, 0, 0)
