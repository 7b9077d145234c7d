"""Arithmetic for bicomplex and hyperbolic numbers.

A bicomplex number is w = z1 + z2*i2, where z1 and z2 are complex over
the imaginary unit i1 and i2 is a second, commuting imaginary unit.
Their product j = i1*i2 squares to +1.  The two idempotents

    e1 = (1 + j)/2,   e2 = (1 - j)/2,   e1*e2 = 0,

split every element uniquely as w = c1*e1 + c2*e2 with complex

    c1 = z1 - z2*i1,   c2 = z1 + z2*i1.

Addition and multiplication act componentwise on (c1, c2), so the ring
behaves like two copies of the complex field glued along the reals.
Elements with exactly one vanishing idempotent component are the zero
divisors ("null cone"); everything else nonzero is invertible.

Values are stored canonically as the pair (z1, z2); the idempotent pair
is a derived view.  ``BicomplexArray`` holds the same pair for whole
arrays and is the storage of kets and matrices.  It derives the split
once, as one ``(2, ...)`` stack of the c1 and c2 arrays, so the complex
work on both components is one batched numpy call.  All values are
immutable after construction and all operations are pure, so concurrent
use is safe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "Bicomplex",
    "BicomplexArray",
    "BicomplexError",
    "Classification",
    "DimensionMismatch",
    "Hyperbolic",
    "IdempotentForm",
    "KetClassification",
    "NonFinite",
    "NotHyperbolic",
    "NotInvertible",
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "ZERO",
    "ONE",
    "I1",
    "I2",
    "J",
    "E1",
    "E2",
    "approx_eq",
    "as_bicomplex",
    "component_index",
]


class BicomplexError(Exception):
    """Base class for the domain errors raised by this package."""


class NotInvertible(BicomplexError):
    """Raised when inverting zero or a zero divisor."""

    def __init__(self, classification: "Classification"):
        super().__init__(f"element is not invertible: {classification.value}")
        self.classification = classification


class DimensionMismatch(BicomplexError):
    """Raised when operands have incompatible sizes."""


class NonFinite(BicomplexError, ValueError):
    """Raised when a value or a result has an infinite or NaN part."""


class NotHyperbolic(BicomplexError, ValueError):
    """Raised when a value expected to be hyperbolic has imaginary idempotent parts."""


@dataclass(frozen=True)
class Tolerance:
    """Floating-point thresholds for null-cone tests and approximate equality.

    ``eps_null`` is relative to the larger idempotent component;
    ``eps_eq`` is used componentwise, absolute-or-relative.
    """

    eps_null: float = 1e-12
    eps_eq: float = 1e-12

    def __post_init__(self):
        for name in ("eps_null", "eps_eq"):
            value = getattr(self, name)
            if not 0.0 < value <= 1e-6:
                raise ValueError(f"{name} must lie in (0, 1e-6], got {value!r}")


DEFAULT_TOLERANCE = Tolerance()


class Classification(Enum):
    ZERO = "zero"
    NULL_CONE_1 = "null_cone_1"
    NULL_CONE_2 = "null_cone_2"
    INVERTIBLE = "invertible"


class KetClassification(Enum):
    ZERO = "zero"
    NULL_CONE_1 = "null_cone_1"
    NULL_CONE_2 = "null_cone_2"
    REGULAR = "regular"


_isfinite = cmath.isfinite
_tuple_new = tuple.__new__


class IdempotentForm(NamedTuple):
    """Idempotent components (c1, c2) of a bicomplex number."""

    c1: complex
    c2: complex


class Bicomplex:
    """One element of the bicomplex ring, stored as (z1, z2).

    Both parts are Python complex numbers whose imaginary unit plays the
    role of i1; the stored ``z2`` multiplies i2.  Instances are treated
    as immutable.
    """

    __slots__ = ("z1", "z2")

    def __init__(self, z1: complex | float = 0.0, z2: complex | float = 0.0):
        z1 = complex(z1)
        z2 = complex(z2)
        if not (cmath.isfinite(z1) and cmath.isfinite(z2)):
            raise NonFinite(f"components must be finite, got ({z1!r}, {z2!r})")
        self.z1 = z1
        self.z2 = z2

    @classmethod
    def from_idempotent(cls, c1: complex, c2: complex) -> Bicomplex:
        """Recombine idempotent components: w = c1*e1 + c2*e2."""
        c1 = complex(c1)
        c2 = complex(c2)
        return cls(0.5 * (c1 + c2), 0.5j * (c1 - c2))

    def to_idempotent(self) -> IdempotentForm:
        """The components (c1, c2); raises NonFinite when one overflows."""
        i_z2 = 1j * self.z2
        c1 = self.z1 - i_z2
        c2 = self.z1 + i_z2
        if not (_isfinite(c1) and _isfinite(c2)):
            raise NonFinite(f"idempotent components overflow: ({c1!r}, {c2!r})")
        # tuple.__new__ skips the namedtuple's Python-level __new__ on this hot path
        return _tuple_new(IdempotentForm, (c1, c2))

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Bicomplex(self.z1 + other.z1, self.z2 + other.z2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Bicomplex(self.z1 - other.z1, self.z2 - other.z2)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Bicomplex(other.z1 - self.z1, other.z2 - self.z2)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Bicomplex(
            self.z1 * other.z1 - self.z2 * other.z2,
            self.z1 * other.z2 + self.z2 * other.z1,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return Bicomplex(self.z1 / other, self.z2 / other)
        if isinstance(other, Bicomplex):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return Bicomplex(-self.z1, -self.z2)

    def __pos__(self):
        return self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = ONE
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.z1 == other.z1 and self.z2 == other.z2

    def __hash__(self):
        return hash((self.z1, self.z2))

    def __repr__(self):
        return f"Bicomplex({self.z1!r}, {self.z2!r})"

    def __str__(self):
        # the complex "j" below is i1; i2 is spelled out
        return f"({self.z1}) + ({self.z2})*i2"

    # -- conjugations and moduli ----------------------------------------

    def conjugate(self, kind: int = 3) -> Bicomplex:
        """One of the three bicomplex conjugations.

        kind 1 conjugates z1 and z2 (bar over i1), kind 2 flips the sign
        of the i2 part, kind 3 does both.  Each is an involutive ring
        homomorphism; kind 3 is the one entering scalar products.
        """
        if kind == 1:
            return Bicomplex(self.z1.conjugate(), self.z2.conjugate())
        if kind == 2:
            return Bicomplex(self.z1, -self.z2)
        if kind == 3:
            return Bicomplex(self.z1.conjugate(), -self.z2.conjugate())
        raise ValueError(f"conjugation kind must be 1, 2 or 3, got {kind!r}")

    def modulus_squared(self, kind: str) -> Bicomplex:
        """Squared modulus w * conj(w) for the matching conjugation.

        kind "i1" gives z1**2 + z2**2 (valued in C(i1)), "i2" a value in
        C(i2), and "j" a hyperbolic value that is never negative in
        either idempotent component.  All three are multiplicative.
        """
        if kind == "i1":
            return self * self.conjugate(2)
        if kind == "i2":
            return self * self.conjugate(1)
        if kind == "j":
            return self * self.conjugate(3)
        raise ValueError(f"modulus kind must be 'i1', 'i2' or 'j', got {kind!r}")

    def euclid_norm(self) -> float:
        """Euclidean norm of the four real components."""
        return math.hypot(self.z1.real, self.z1.imag, self.z2.real, self.z2.imag)

    __abs__ = euclid_norm

    # -- null cone, inverse, roots --------------------------------------

    def classify(self, tol: Tolerance = DEFAULT_TOLERANCE) -> Classification:
        """Sort the element into zero / null cone / invertible.

        null_cone_k means the k-th idempotent component vanishes relative
        to the larger one, which makes the test scale invariant.
        """
        c1, c2 = self.to_idempotent()
        m1 = abs(c1)
        m2 = abs(c2)
        scale = max(m1, m2)
        if scale == 0.0:
            return Classification.ZERO
        if m1 <= tol.eps_null * scale:
            return Classification.NULL_CONE_1
        if m2 <= tol.eps_null * scale:
            return Classification.NULL_CONE_2
        return Classification.INVERTIBLE

    def inverse(self, tol: Tolerance = DEFAULT_TOLERANCE) -> Bicomplex:
        classification = self.classify(tol)
        if classification is not Classification.INVERTIBLE:
            raise NotInvertible(classification)
        c1, c2 = self.to_idempotent()
        return Bicomplex.from_idempotent(1.0 / c1, 1.0 / c2)

    def nth_root(self, n: int) -> Bicomplex:
        """Principal n-th root, taken independently in each component.

        Squaring/cubing the result recovers the input; any other branch
        pair would be an equally valid root.
        """
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"root order must be a positive integer, got {n!r}")
        if n == 1:
            return self
        c1, c2 = self.to_idempotent()
        return Bicomplex.from_idempotent(_principal_root(c1, n), _principal_root(c2, n))


def _principal_root(value: complex, n: int) -> complex:
    if value == 0:
        return 0j
    if n == 2:
        return cmath.sqrt(value)
    return value ** (1.0 / n)


def _coerce(value) -> Bicomplex:
    if isinstance(value, Bicomplex):
        return value
    if isinstance(value, (int, float, complex)):
        return Bicomplex(value)
    return NotImplemented


def as_bicomplex(value) -> Bicomplex:
    """Promote a real or complex scalar (an element of C(i1)) to the ring."""
    coerced = _coerce(value)
    if coerced is NotImplemented:
        raise TypeError(f"cannot interpret {type(value).__name__} as Bicomplex")
    return coerced


def approx_eq(a, b, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Componentwise absolute-or-relative equality of two ring elements."""
    a = as_bicomplex(a)
    b = as_bicomplex(b)
    eps = tol.eps_eq
    for x, y in (
        (a.z1.real, b.z1.real),
        (a.z1.imag, b.z1.imag),
        (a.z2.real, b.z2.real),
        (a.z2.imag, b.z2.imag),
    ):
        if abs(x - y) > eps * max(1.0, abs(x), abs(y)):
            return False
    return True


def stack_components(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """The (2, ...) stack (c1, c2) = (z1 - i1*z2, z1 + i1*z2) of equally shaped parts."""
    return np.stack([z1 - 1j * z2, z1 + 1j * z2])


def parts_from_components(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """The (2, ...) stack (z1, z2) of c1*e1 + c2*e2, for equally shaped c1 and c2."""
    c1 = np.asarray(c1, dtype=complex)
    c2 = np.asarray(c2, dtype=complex)
    return np.stack([0.5 * (c1 + c2), 0.5j * (c1 - c2)])


def component_index(k: int) -> int:
    """Position of idempotent component k (1 for e1, 2 for e2) along a stack's first axis."""
    if k == 1 or k == 2:
        return int(k) - 1
    raise ValueError(f"component index must be 1 or 2, got {k!r}")


class BicomplexArray:
    """A nonempty array of bicomplex entries, stored as read-only (z1, z2) parts.

    Subclasses set ``ndim`` (a 2-d array must be square), check operand
    compatibility in ``_check_compatible`` and rebuild themselves from
    new parts in ``_new``.
    """

    __slots__ = ("z1", "z2", "_components")

    def __init__(self, z1: np.ndarray, z2: np.ndarray):
        z1 = np.array(z1, dtype=complex)
        z2 = np.array(z2, dtype=complex)
        if z1.ndim != self.ndim or z1.shape[0] == 0 or len(set(z1.shape)) != 1:
            kind = "vector" if self.ndim == 1 else "square array"
            raise ValueError(f"expected a nonempty {kind}, got shape {z1.shape}")
        if z1.shape != z2.shape:
            raise ValueError(f"part shapes differ: {z1.shape} vs {z2.shape}")
        if not (np.isfinite(z1).all() and np.isfinite(z2).all()):
            raise NonFinite(f"{type(self).__name__} entries must be finite")
        z1.setflags(write=False)
        z2.setflags(write=False)
        self.z1 = z1
        self.z2 = z2

    @classmethod
    def from_components(cls, c1: np.ndarray, c2: np.ndarray, *rest):
        """Recombine c1*e1 + c2*e2; ``rest`` goes to the constructor (a ket's basis label)."""
        return cls(*parts_from_components(c1, c2), *rest)

    def _new(self, z1: np.ndarray, z2: np.ndarray):
        return type(self)(z1, z2)

    @property
    def components(self) -> np.ndarray:
        """The read-only stack (c1, c2) = (z1 - i1*z2, z1 + i1*z2), kept after first use."""
        try:
            return self._components
        except AttributeError:
            stack = stack_components(self.z1, self.z2)
            stack.setflags(write=False)
            self._components = stack
            return stack

    def component(self, k: int) -> np.ndarray:
        """The complex component array multiplying e1 (k=1) or e2 (k=2)."""
        return self.components[component_index(k)]

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_compatible(other)
        return self._new(self.z1 + other.z1, self.z2 + other.z2)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_compatible(other)
        return self._new(self.z1 - other.z1, self.z2 - other.z2)

    def __neg__(self):
        return self._new(-self.z1, -self.z2)

    def scale(self, factor):
        """Multiply every entry by a bicomplex (or scalar) factor."""
        w = as_bicomplex(factor)
        return self._new(w.z1 * self.z1 - w.z2 * self.z2, w.z1 * self.z2 + w.z2 * self.z1)

    def __mul__(self, factor):
        if isinstance(factor, (int, float, complex, Bicomplex)):
            return self.scale(factor)
        return NotImplemented

    __rmul__ = __mul__


@dataclass(frozen=True)
class Hyperbolic:
    """A hyperbolic number x1*e1 + x2*e2, stored in idempotent coordinates.

    The natural predicate on these values is positivity of both
    coordinates, which characterizes the squared moduli w * conj3(w).
    """

    x1: float
    x2: float

    def __post_init__(self):
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise NonFinite(f"coordinates must be finite, got ({self.x1!r}, {self.x2!r})")

    @classmethod
    def from_bicomplex(cls, value: Bicomplex, tol: Tolerance = DEFAULT_TOLERANCE) -> Hyperbolic:
        c1, c2 = value.to_idempotent()
        scale = max(abs(c1), abs(c2), 1.0)
        if max(abs(c1.imag), abs(c2.imag)) > tol.eps_eq * scale:
            raise NotHyperbolic(f"{value!r} is not hyperbolic within tolerance")
        return cls(c1.real, c2.real)

    def to_bicomplex(self) -> Bicomplex:
        return Bicomplex.from_idempotent(self.x1, self.x2)

    def is_positive(self, slack: float = 0.0) -> bool:
        return self.x1 >= -slack and self.x2 >= -slack


ZERO = Bicomplex(0.0, 0.0)
ONE = Bicomplex(1.0, 0.0)
I1 = Bicomplex(1j, 0.0)
I2 = Bicomplex(0.0, 1.0)
J = Bicomplex(0.0, 1j)
E1 = Bicomplex(0.5, 0.5j)
E2 = Bicomplex(0.5, -0.5j)
