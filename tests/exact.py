"""Exact arithmetic over Gaussian rationals: the oracle that rounded results are measured against.

Every double is a rational number, so a complex double is exactly a pair
``(re, im)`` of ``Fraction`` (``pair``); sums, products and determinants
of such pairs carry no rounding.  ``components`` splits bicomplex parts
into their idempotent components exactly, ``matmul`` multiplies matrices
of pairs, ``abs2`` is the squared modulus, ``det`` is the
determinant by fraction-free (Bareiss) elimination, ``inverse`` the
inverse by Gauss-Jordan elimination, ``adjoint`` the adjoint
G^-1 A^H G under a Gram matrix G, and ``gram_defect`` the Gram residual
V^H G V - I of kets V.  Matrices are lists of rows of pairs;
``matrix`` reads one from complex doubles and ``to_complex`` rounds one
to complex doubles.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def pair(z: complex) -> tuple[Fraction, Fraction]:
    return Fraction(z.real), Fraction(z.imag)


def components(z1: np.ndarray, z2: np.ndarray) -> list[list[list[tuple]]]:
    """c1 = z1 - i1 z2 and c2 = z1 + i1 z2 of square parts, exactly."""
    stacks = []
    for sign in (-1, 1):
        rows = []
        for r1, r2 in zip(z1, z2):
            row = []
            for a, b in zip(r1, r2):
                (ar, ai), (br, bi) = pair(a), pair(b)
                # i1 (br + bi i1) = -bi + br i1
                row.append((ar - sign * bi, ai + sign * br))
            rows.append(row)
        stacks.append(rows)
    return stacks


def mul(a: tuple, b: tuple) -> tuple:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def matmul(a: list, b: list) -> list:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            re_, im_ = Fraction(0), Fraction(0)
            for k in range(n):
                p = mul(a[i][k], b[k][j])
                re_, im_ = re_ + p[0], im_ + p[1]
            row.append((re_, im_))
        out.append(row)
    return out


def abs2(c: tuple) -> Fraction:
    return c[0] * c[0] + c[1] * c[1]


def det(a: list) -> tuple[Fraction, Fraction]:
    """The determinant of a square matrix of pairs, by Bareiss elimination in Gaussian integers.

    The entries are first multiplied by the common denominator D of their
    parts, so every entry is a Gaussian integer; each Bareiss step then
    divides exactly (its quotient is a minor of D*A), and the result is
    det(D*A) / D**n.
    """
    n = len(a)
    scale = math.lcm(*(part.denominator for row in a for entry in row for part in entry))
    m = [[(int(re_ * scale), int(im_ * scale)) for re_, im_ in row] for row in a]
    sign, previous = 1, (1, 0)
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if m[i][k] != (0, 0)), None)
        if pivot is None:
            return Fraction(0), Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        # dividing by the previous pivot p: multiply by conj(p), divide by |p|^2
        conj, norm = (previous[0], -previous[1]), abs2(previous)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                (re_a, im_a), (re_b, im_b) = mul(m[i][j], m[k][k]), mul(m[i][k], m[k][j])
                re_, im_ = mul((re_a - re_b, im_a - im_b), conj)
                if re_ % norm or im_ % norm:
                    raise ArithmeticError("a Bareiss quotient is not a Gaussian integer")
                m[i][j] = (re_ // norm, im_ // norm)
        previous = m[k][k]
    re_, im_ = m[n - 1][n - 1]
    denominator = Fraction(scale) ** n
    return sign * re_ / denominator, sign * im_ / denominator


def inverse(a: list) -> list:
    """The inverse of a square matrix of pairs, by Gauss-Jordan elimination over Gaussian rationals.

    Any nonzero pivot is exact, so the first one in each column is taken; a
    singular matrix raises ZeroDivisionError.
    """
    n = len(a)
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    m = [list(row) + [one if j == i else zero for j in range(n)] for i, row in enumerate(a)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != zero), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        m[k], m[pivot] = m[pivot], m[k]
        # 1 / p = conj(p) / |p|^2
        norm = abs2(m[k][k])
        reciprocal = (m[k][k][0] / norm, -m[k][k][1] / norm)
        m[k] = [mul(entry, reciprocal) for entry in m[k]]
        for i in range(n):
            factor = m[i][k]
            if i == k or factor == zero:
                continue
            for j in range(2 * n):
                p = mul(factor, m[k][j])
                m[i][j] = (m[i][j][0] - p[0], m[i][j][1] - p[1])
    return [row[n:] for row in m]


def conj_transpose(a: list) -> list:
    return [[(re_, -im_) for re_, im_ in column] for column in zip(*a)]


def adjoint(a: list, gram: list) -> list:
    """G^-1 A^H G of square matrices of pairs, from ``inverse`` and ``matmul``."""
    return matmul(inverse(gram), matmul(conj_transpose(a), gram))


def gram_defect(v: list, gram: list) -> list:
    """V^H G V - I of square matrices of pairs: the kets are the columns of V."""
    product = matmul(conj_transpose(v), matmul(gram, v))
    return [[(re_ - (i == j), im_) for j, (re_, im_) in enumerate(row)]
            for i, row in enumerate(product)]


def matrix(a: np.ndarray) -> list:
    """A matrix of complex doubles as pairs, exactly."""
    return [[pair(z) for z in row] for row in a.tolist()]


def to_complex(a: list) -> np.ndarray:
    """A matrix of pairs as complex doubles, each part correctly rounded."""
    return np.array([[complex(float(re_), float(im_)) for re_, im_ in row] for row in a])
