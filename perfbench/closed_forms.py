"""Reference values the benchmark checks the program against.

Everything here is computed apart from the program: the closed-form
obstruction coefficients of the two benchmark families are transcribed from
the paper's formulas (not imported from ``beltrami.reference``), level values
for the flow check are evaluated with plain numpy, and the final state of the
grid evolution is the closed-form solution sampled on the grid.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# -- closed-form obstruction coefficients (graph frame, base point 0) --------

def cubic_coeffs(a: Fraction, b: Fraction) -> tuple:
    """c0..c3 of P for f = 1 + a*x1 + b*x1^3 + x3, as exact rationals."""
    s = a * a + 1
    c0 = -5184 * a**2 * b**4 * (15 * a**4 + 14 * a**2 + 36 * a * b - 1) / s**14
    c1 = -20736 * a**2 * b**4 * (8 * a**3 - 63 * a**2 * b + 8 * a - 9 * b) / s**14
    c2 = (31104 * a * b**5
          * (169 * a**6 + 97 * a**4 + 468 * a**3 * b - 73 * a**2 - 36 * a * b - 1)
          / s**15)
    c3 = (124416 * a**2 * b**5
          * (84 * a**4 - 771 * a**3 * b + 68 * a**2 - 15 * a * b - 16)
          / s**15)
    return tuple(Fraction(c) for c in (c0, c1, c2, c3))


def cubic_c4_at_a0(b: Fraction) -> Fraction:
    """c4 of the cubic family at a = 0."""
    return Fraction(46656) * b**6


def quadratic_form(a: Fraction) -> tuple:
    """Coefficients of xi1^2, xi1*xi2, xi2^2 for f = 1 + x1^2 + a*x2^2 + x3."""
    pref = 1024 * (a - 1) ** 2
    q20 = pref * (33 + 128 * a + 312 * a**2 + 224 * a**3 + 768 * a**4 - 256 * a**5)
    q11 = -pref * 16 * a**2 * (3 + 11 * a + 66 * a**2 - 88 * a**3 + 8 * a**4)
    q02 = pref * a**4 * (-39 - 24 * a + 760 * a**2 + 640 * a**3 - 128 * a**4)
    return tuple(Fraction(q) for q in (q20, q11, q02))


# -- level values for the flow check -----------------------------------------

def cubic_value(a: float, b: float, x) -> float:
    """f = 1 + a*x1 + b*x1^3 + x3 at one point."""
    x = np.asarray(x, dtype=np.float64)
    return float(1.0 + a * x[0] + b * x[0] ** 3 + x[2])


# -- plane waves --------------------------------------------------------------

def plane_wave_text(c0, alpha, beta, gamma, e_sin, e_exp) -> str:
    """f = c0 + alpha*sin(e_sin.x) + beta*exp(gamma*e_exp.x).

    With e_sin == e_exp this depends on e.x alone, so in axes aligned with e
    the field u = (cos th, sin th, 0), th' = -f, solves curl u = f u and the
    obstruction must vanish.
    """
    def dot(e):
        return "+".join(f"{float(c)!r}*x{i + 1}" for i, c in enumerate(e))

    return (f"{float(c0)!r}+{float(alpha)!r}*sin({dot(e_sin)})"
            f"+{float(beta)!r}*exp({float(gamma)!r}*({dot(e_exp)}))")


def plane_wave_tolerance(c0, alpha, beta) -> float:
    """Largest |P| accepted as zero for a plane wave.

    P is a 4x4 determinant whose columns vanish for a plane wave, so any
    residue is the fourth power of the per-entry error.  Entries scale with
    the Taylor coefficients of phi, bounded by c0 + alpha + beta for
    gamma <= 1; 1e-6 relative per entry covers the stencil error of the
    finite-difference oracle and is far above rounding in the series.
    """
    return (1e-6 * (abs(c0) + abs(alpha) + abs(beta))) ** 4


# -- grid evolution for f = 1 + x3 -------------------------------------------
#
# psi = Re(rho e^{i alpha} (x1 + i x2)^5) is harmonic and theta(t) =
# -(t + t^2/2) has theta' = -f along the flow x = (xi1, xi2, t), so
# beta(t) = R(theta(t)) grad psi is the exact evolution of beta(0) = grad psi.

def _re5_grad(x1, x2):
    """Gradient of Re((x1 + i x2)^5)."""
    return (5 * x1**4 - 30 * x1**2 * x2**2 + 5 * x2**4,
            20 * x1 * x2**3 - 20 * x1**3 * x2)


def psi_gradient(rho, alpha, x1, x2):
    r1, r2 = _re5_grad(x1, x2)
    ca, sa = math.cos(alpha), math.sin(alpha)
    return rho * (ca * r1 + sa * r2), rho * (ca * r2 - sa * r1)


def psi_text(rho, alpha) -> str:
    re5 = "(x1^5-10*x1^3*x2^2+5*x1*x2^4)"
    im5 = "(5*x1^4*x2-10*x1^2*x2^3+x2^5)"
    return (f"{rho * math.cos(alpha)!r}*{re5}-({rho * math.sin(alpha)!r})*{im5}")


def field_texts(rho, alpha) -> tuple:
    """Components of u = (cos th psi_1 - sin th psi_2, sin th psi_1 + cos th psi_2, 0)."""
    ca, sa = rho * math.cos(alpha), rho * math.sin(alpha)
    r1 = "(5*x1^4-30*x1^2*x2^2+5*x2^4)"
    r2 = "(20*x1*x2^3-20*x1^3*x2)"
    p1 = f"({ca!r}*{r1}+({sa!r})*{r2})"
    p2 = f"({ca!r}*{r2}-({sa!r})*{r1})"
    th = "(-(x3+x3^2/2))"
    return (f"cos{th}*{p1}-sin{th}*{p2}", f"sin{th}*{p1}+cos{th}*{p2}", "0")


def theta(t: float) -> float:
    return -(t + t * t / 2.0)


def evolved_summary(rho, alpha, n, h, th) -> tuple:
    """(max |beta|, max closedness defect) of R(th) grad psi on an n x n grid.

    With th = theta(t) this is the exact beta(t).  The defect uses the same
    second-order central differences on interior nodes as the program's drift
    monitor, written out independently.
    """
    axis = (np.arange(n) - (n - 1) / 2.0) * h
    X1, X2 = np.meshgrid(axis, axis, indexing="ij")
    g1, g2 = psi_gradient(rho, alpha, X1, X2)
    b1 = math.cos(th) * g1 - math.sin(th) * g2
    b2 = math.sin(th) * g1 + math.cos(th) * g2
    max_beta = float(max(np.max(np.abs(b1)), np.max(np.abs(b2))))
    defect = ((b2[2:, 1:-1] - b2[:-2, 1:-1]) - (b1[1:-1, 2:] - b1[1:-1, :-2])) / (2.0 * h)
    return max_beta, float(np.max(np.abs(defect)))
