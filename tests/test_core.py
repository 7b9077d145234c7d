import cmath
import importlib
import math
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bicomplex import (
    Bicomplex,
    BicomplexError,
    BicomplexMatrix,
    Classification,
    Hyperbolic,
    NonFinite,
    NotHyperbolic,
    NotInvertible,
    Ket,
    Tolerance,
    approx_eq,
)
from bicomplex import core
from bicomplex.core import (
    E1, E2, I1, I2, J, ONE, ZERO, entry_norms, parts_from_components, ratio, two_product, within,
)

from helpers import random_bicomplex

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
bicomplexes = st.builds(
    lambda a, b, c, d: Bicomplex(complex(a, b), complex(c, d)), finite, finite, finite, finite
)


class TestUnits:
    def test_unit_table(self):
        assert I1 * I1 == Bicomplex(-1)
        assert I2 * I2 == Bicomplex(-1)
        assert I1 * I2 == J
        assert J * J == ONE
        assert I1 * J == -I2
        assert I2 * J == -I1

    def test_idempotents(self):
        assert E1 * E1 == E1
        assert E2 * E2 == E2
        assert E1 * E2 == ZERO
        assert E1 + E2 == ONE
        assert E1.conjugate(3) == E1
        assert E2.conjugate(3) == E2

    def test_constructor_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Bicomplex(float("nan"), 0)
        with pytest.raises(ValueError):
            Bicomplex(0, complex(float("inf"), 0))


class TestMul:
    def test_two_plus_j_inverse_pair(self):
        # (2 + j) * (2/3 - j/3) expands to 1 using j**2 = 1
        product = (Bicomplex(2) + J) * (Bicomplex(2 / 3) - J * (1 / 3))
        assert approx_eq(product, ONE)

    def test_matches_componentwise_product(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            s = random_bicomplex(rng)
            t = random_bicomplex(rng)
            c1, c2 = (s * t).to_idempotent()
            s1, s2 = s.to_idempotent()
            t1, t2 = t.to_idempotent()
            assert abs(c1 - s1 * t1) <= 1e-12 * max(1.0, abs(s1 * t1))
            assert abs(c2 - s2 * t2) <= 1e-12 * max(1.0, abs(s2 * t2))
            a1, a2 = (s + t).to_idempotent()
            assert abs(a1 - (s1 + t1)) <= 1e-12 * max(1.0, abs(s1 + t1))
            assert abs(a2 - (s2 + t2)) <= 1e-12 * max(1.0, abs(s2 + t2))

    @given(bicomplexes, bicomplexes, bicomplexes)
    def test_ring_laws(self, a, b, c):
        assert a * b == b * a
        # distributivity residual scales with the intermediate products,
        # not the (possibly cancelled) result
        residual = (a * (b + c) - (a * b + a * c)).euclid_norm()
        scale = max(1.0, a.euclid_norm() * (b.euclid_norm() + c.euclid_norm()))
        assert residual <= 1e-12 * scale


class TestConjugations:
    def test_explicit_kind3(self):
        w = Bicomplex(complex(1, 2), complex(3, 4))
        assert w.conjugate(3) == Bicomplex(complex(1, -2), complex(-3, 4))

    def test_kind2_flips_j(self):
        assert J.conjugate(2) == -J

    @given(bicomplexes)
    def test_involutions(self, w):
        for kind in (1, 2, 3):
            assert w.conjugate(kind).conjugate(kind) == w

    @given(bicomplexes, bicomplexes)
    def test_homomorphism(self, s, t):
        scale = max(1.0, s.euclid_norm() * t.euclid_norm())
        for kind in (1, 2, 3):
            assert (s + t).conjugate(kind) == s.conjugate(kind) + t.conjugate(kind)
            residual = (
                (s * t).conjugate(kind) - s.conjugate(kind) * t.conjugate(kind)
            ).euclid_norm()
            assert residual <= 1e-12 * scale

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ONE.conjugate(4)


class TestModuli:
    def test_e1_is_zero_divisor(self):
        assert approx_eq(E1.modulus_squared("i1"), ZERO)

    def test_real_parts_pythagoras(self):
        assert approx_eq(Bicomplex(3, 4).modulus_squared("i1"), Bicomplex(25))

    def test_j_modulus_hyperbolic_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            w = random_bicomplex(rng, scale=10.0)
            squared = Hyperbolic.from_bicomplex(w.modulus_squared("j"))
            slack = 1e-12 * w.euclid_norm() ** 2
            assert squared.x1 >= -slack and squared.x2 >= -slack

    def test_multiplicative(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            s = random_bicomplex(rng)
            t = random_bicomplex(rng)
            for kind in ("i1", "i2", "j"):
                lhs = (s * t).modulus_squared(kind)
                rhs = s.modulus_squared(kind) * t.modulus_squared(kind)
                scale = max(1.0, rhs.euclid_norm())
                assert (lhs - rhs).euclid_norm() <= 1e-11 * scale


class TestEuclidNorm:
    def test_real_components(self):
        assert Bicomplex(3, 4).euclid_norm() == 5.0

    def test_e1_norm(self):
        # e1 = 1/2 + (i1/2) i2, so the four-component norm is sqrt(1/2)
        assert abs(E1.euclid_norm() - math.sqrt(0.5)) < 1e-15

    def test_matches_j_modulus_real_part(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            w = random_bicomplex(rng, scale=3.0)
            assert abs(w.euclid_norm() - math.sqrt(w.modulus_squared("j").z1.real)) < 1e-12

    def test_submultiplicative_equality_witness(self):
        lhs = (E1 * E1).euclid_norm()
        rhs = math.sqrt(2) * E1.euclid_norm() ** 2
        assert abs(lhs - rhs) <= 1e-15


class TestIdempotentForm:
    def test_two_plus_j(self):
        # z1 = 2, z2 = i1 gives components (3, 1); recombining returns 2 + j
        form = (Bicomplex(2) + J).to_idempotent()
        assert form.c1 == 3 and form.c2 == 1
        assert Bicomplex.from_idempotent(*form) == Bicomplex(2) + J

    def test_complex_scalar_collapses(self):
        w = Bicomplex(complex(3, 4))
        assert w.to_idempotent() == (complex(3, 4), complex(3, 4))

    def test_basis_elements(self):
        assert E1.to_idempotent() == (1, 0)
        assert E2.to_idempotent() == (0, 1)

    @given(bicomplexes)
    def test_round_trip(self, w):
        back = Bicomplex.from_idempotent(*w.to_idempotent())
        assert (back - w).euclid_norm() <= 2e-15 * max(1.0, w.euclid_norm())


class TestClassify:
    def test_examples(self):
        assert E1.classify() is Classification.NULL_CONE_2
        assert E2.classify() is Classification.NULL_CONE_1
        assert (Bicomplex(2) + J).classify() is Classification.INVERTIBLE
        assert ZERO.classify() is Classification.ZERO

    def test_scale_invariant(self):
        rng = np.random.default_rng(31)
        values = [E1, E2, ONE, random_bicomplex(rng), E1 * complex(0, 3)]
        for w in values:
            expected = w.classify()
            for exponent in (-6, -3, 0, 3, 6):
                assert (w * 10.0**exponent).classify() is expected

    def test_relative_threshold(self):
        nearly_null = Bicomplex.from_idempotent(1e-13, 1.0)
        assert nearly_null.classify() is Classification.NULL_CONE_1
        assert nearly_null.classify(Tolerance(eps_null=1e-14)) is Classification.INVERTIBLE


class TestInverse:
    def test_j_squares_to_one(self):
        assert approx_eq(J.inverse(), J)

    def test_two_plus_j(self):
        assert approx_eq((Bicomplex(2) + J).inverse(), Bicomplex(2 / 3) - J * (1 / 3))

    def test_null_cone_rejected(self):
        with pytest.raises(NotInvertible) as info:
            E1.inverse()
        assert info.value.classification is Classification.NULL_CONE_2
        with pytest.raises(NotInvertible):
            ZERO.inverse()

    def test_random_round_trip(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            w = random_bicomplex(rng)
            if w.classify() is not Classification.INVERTIBLE:
                continue
            assert approx_eq(w * w.inverse(), ONE, Tolerance(eps_eq=1e-10))


class TestNthRoot:
    def test_identity_cases(self):
        assert ONE.nth_root(2) == ONE
        assert ZERO.nth_root(5) == ZERO

    def test_sqrt_j_squares_back(self):
        root = J.nth_root(2)
        assert root.to_idempotent().c1 == 1
        assert root.to_idempotent().c2 == 1j
        assert approx_eq(root * root, J)

    def test_cube_root_property(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            w = random_bicomplex(rng, scale=2.0)
            root = w.nth_root(3)
            assert (root**3 - w).euclid_norm() <= 1e-12 * max(1.0, w.euclid_norm())

    def test_bad_order(self):
        with pytest.raises(ValueError):
            ONE.nth_root(0)


class TestTolerance:
    def test_bounds(self):
        with pytest.raises(ValueError):
            Tolerance(eps_null=0.0)
        with pytest.raises(ValueError):
            Tolerance(eps_eq=1e-3)

    def test_defaults(self):
        tol = Tolerance()
        assert tol.eps_null == 1e-12 and tol.eps_eq == 1e-12

    def test_value_semantics(self):
        tol = Tolerance(eps_null=1e-10)
        assert tol == Tolerance(1e-10, 1e-12) and hash(tol) == hash(Tolerance(1e-10))
        assert tol != Tolerance() and tol != (1e-10, 1e-12)
        assert repr(tol) == "Tolerance(eps_null=1e-10, eps_eq=1e-12)"
        with pytest.raises(AttributeError):
            tol.other = 1.0


def _package_classes():
    package = importlib.import_module("bicomplex")
    for info in pkgutil.iter_modules(package.__path__, "bicomplex."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("bicomplex"):
                yield value


def test_exports_resolve():
    # a stale entry fails here, not in a user's `from bicomplex.operators import *`
    for module in (core, importlib.import_module("bicomplex.operators")):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_no_dataclasses():
    # records are NamedTuples and value types slotted classes: building a
    # dataclass costs about 1 ms of every `bct` start
    names = {c.__name__ for c in _package_classes()}
    assert {"Tolerance", "CheckResult", "BctDocument", "_Evolution"} <= names
    assert [c for c in _package_classes() if hasattr(c, "__dataclass_fields__")] == []


def test_cli_import_leaves_out_the_render_kernel():
    # the .bct render kernel is imported by the first large block it prints
    # and fills its digit tables with ints: a `bct` start imports neither it
    # nor fractions nor decimal
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    names = "{'bicomplex.format17', 'decimal', 'fractions'}"
    code = f"import sys, bicomplex.cli; print(sorted({names} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def _two_product(a, b) -> tuple[np.ndarray, np.ndarray]:
    """two_product of two float64 arrays into arrays of its own: (p, e)."""
    p, e, *halves = np.empty((6, *np.shape(a)))
    two_product(np.asarray(a, dtype=float), np.asarray(b, dtype=float), p, e, *halves)
    return p, e


def test_two_product_is_exact():
    rng = np.random.default_rng(31)
    a = rng.standard_normal(2000) * 10.0 ** rng.integers(-100, 100, 2000)
    b = rng.standard_normal(2000) * 10.0 ** rng.integers(-100, 100, 2000)
    p, q = _two_product(a, b)
    assert np.array_equal(p, a * b)
    for x, y, hi, lo in zip(a.tolist(), b.tolist(), p.tolist(), q.tolist()):
        (xn, xd), (yn, yd), (hn, hd), (ln, ld) = map(float.as_integer_ratio, (x, y, hi, lo))
        # hi + lo == x * y, cross-multiplied over the four denominators
        assert (hn * ld + ln * hd) * xd * yd == xn * yn * hd * ld
    p, q = _two_product([3.0], [1.0 / 3.0])
    assert (p.tolist(), q.tolist()) == ([1.0], [-2.0**-54])


def test_two_product_reads_b_before_its_low_half():
    # the .bct writer passes b in the row of b's low half
    rng = np.random.default_rng(37)
    a, b = rng.standard_normal((2, 500)) * 10.0 ** rng.integers(-100, 100, (2, 500))
    p, q, a_hi, a_lo, b_hi, b_lo = np.empty((6, 500))
    b_lo[:] = b
    two_product(a, b_lo, p, q, a_hi, a_lo, b_hi, b_lo)
    assert all(map(np.array_equal, (p, q), _two_product(a, b)))


class TestHyperbolic:
    def test_from_bicomplex_rejects_non_hyperbolic(self):
        with pytest.raises(ValueError):
            Hyperbolic.from_bicomplex(I1)
        with pytest.raises(NotHyperbolic) as info:
            Hyperbolic.from_bicomplex(I1)
        assert isinstance(info.value, BicomplexError)

    def test_round_trip(self):
        value = Hyperbolic(1.5, -0.25)
        again = Hyperbolic.from_bicomplex(Bicomplex.from_idempotent(value.x1, value.x2))
        assert again == value


class TestNonFinite:
    def test_is_a_value_error(self):
        assert issubclass(NonFinite, ValueError)

    def test_idempotent_modulus_beyond_the_double_range(self):
        # classified on the exactly rescaled components; its norm is not a double
        w = Bicomplex(complex(1.5e308, 1.5e308), 0.0)
        assert w.classify() is Classification.INVERTIBLE
        with pytest.raises(NonFinite):
            w.euclid_norm()

    @pytest.mark.parametrize("z1, z2", [(math.inf, 0.0), (0.0, complex(0.0, math.nan))])
    def test_scalars(self, z1, z2):
        with pytest.raises(NonFinite):
            Bicomplex(z1, z2)
        with pytest.raises(NonFinite):
            Hyperbolic(abs(z1), abs(z2))

    def test_arrays(self):
        from bicomplex import BicomplexMatrix, Ket

        with pytest.raises(NonFinite):
            Ket(np.array([1.0, math.nan]), np.zeros(2))
        with pytest.raises(NonFinite):
            BicomplexMatrix(np.full((2, 2), math.inf), np.zeros((2, 2)))


# signed zeros, subnormals and parts near overflow, where the split
# c1, c2 = z1 -/+ i1*z2 can round, flip a zero's sign or overflow
edge_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def bicomplex_arrays(draw):
    cls = draw(st.sampled_from([Ket, BicomplexMatrix]))
    n = draw(st.integers(min_value=1, max_value=4))
    shape = (n,) if cls is Ket else (n, n)
    count = 4 * math.prod(shape)
    parts = np.array(draw(st.lists(edge_parts, min_size=count, max_size=count)))
    z1, z2 = parts.view(complex).reshape((2,) + shape)
    return cls(z1, z2)


def _bits(*arrays):
    return [np.asarray(a).view(np.uint64) for a in arrays]


def _rebuilt_bits(cls, c1, c2):
    """The (z1, z2) bit patterns of cls.from_components(c1, c2), or the error it raises."""
    try:
        rebuilt = cls.from_components(c1, c2)
    except NonFinite:
        return "NonFinite"
    return _bits(rebuilt.z1, rebuilt.z2)


class TestComponentStack:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(bicomplex_arrays())
    def test_stack_is_the_split_bit_for_bit(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.stack([x.z1 - 1j * x.z2, x.z1 + 1j * x.z2])
        if not np.isfinite(expected).all():
            # a component beyond the double range is an error, as for a scalar
            with pytest.raises(NonFinite):
                x.components
            return
        with np.errstate(over="ignore", invalid="ignore"):
            stack = x.components
            assert stack is x.components and not stack.flags.writeable
            assert stack.shape == expected.shape
            assert np.array_equal(*_bits(stack, expected))
            for k in (1, 2):
                assert np.array_equal(*_bits(x.component(k), expected[k - 1]))
            cls = type(x)
            got = _rebuilt_bits(cls, *stack)
            want = _rebuilt_bits(cls, *expected)
        if want == "NonFinite":
            assert got == want
        else:
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("k", [0, 3, -1])
    def test_component_rejects_bad_index(self, k):
        with pytest.raises(ValueError, match="component index must be 1 or 2"):
            Ket.from_coeffs([1, I1]).component(k)


class TestRecombination:
    """c1*e1 + c2*e2 halves before adding only where the sum overflows."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(bicomplex_arrays())
    def test_plain_formula_wherever_it_is_finite(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            # the split, also where it overflows (x.components raises there)
            c1, c2 = x.z1 - 1j * x.z2, x.z1 + 1j * x.z2
            plain = np.stack([0.5 * (c1 + c2), 0.5j * (c1 - c2)])
            halved = np.stack([0.5 * c1 + 0.5 * c2, 0.5j * c1 - 0.5j * c2])
        got = parts_from_components(c1, c2)
        finite = np.isfinite(plain)
        assert np.array_equal(*_bits(got[finite], plain[finite]))
        assert np.array_equal(*_bits(got[~finite], halved[~finite]))
        # the scalar recombination: its own plain formula's bits where finite, the
        # same values as the array route (up to the sign of a zero) where not
        rows = zip(c1.ravel().tolist(), c2.ravel().tolist(), got.reshape(2, -1).T.tolist())
        for a, b, parts in rows:
            if not (cmath.isfinite(a) and cmath.isfinite(b)):
                continue
            w = Bicomplex.from_idempotent(a, b)
            for got_part, part in zip((w.z1, w.z2), (0.5 * (a + b), 0.5j * (a - b))):
                if cmath.isfinite(part):
                    assert np.array_equal(*_bits([got_part], [part]))
            assert [w.z1, w.z2] == parts

    @pytest.mark.parametrize("c1, c2, z1, z2", [
        (1.5e308, 1.5e308, 1.5e308, 0.0),
        (1.5e308, -1.5e308, 0.0, 1.5e308j),
        (1.5e308j, 1.5e308j, 1.5e308j, 0.0),
    ])
    def test_overflowing_sums(self, c1, c2, z1, z2):
        w = Bicomplex.from_idempotent(c1, c2)
        assert (w.z1, w.z2) == (z1, z2)
        assert tuple(w.to_idempotent()) == (c1, c2)
        parts = parts_from_components(np.array([c1]), np.array([c2]))
        assert parts.tolist() == [[z1], [z2]]

    def test_finite_components_give_finite_parts(self):
        # each part is at most the larger component in modulus, per real coordinate
        huge = np.finfo(float).max
        values = [complex(x, y) for x in (huge, -huge, 0.0) for y in (huge, -huge, 0.0)]
        c1, c2 = np.array([(a, b) for a in values for b in values]).T
        assert np.isfinite(parts_from_components(c1, c2)).all()
        for a, b in zip(c1, c2):
            Bicomplex.from_idempotent(a, b)


class TestEntryNorms:
    def test_the_squared_formula_at_unit_scale(self):
        rng = np.random.default_rng(12)
        z1, z2 = rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50))
        old = np.sqrt(np.abs(z1) ** 2 + np.abs(z2) ** 2)
        assert np.allclose(entry_norms(z1, z2), old, rtol=4e-16, atol=0.0)
        # sqrt((|c1|^2 + |c2|^2) / 2) in the idempotent components
        c1, c2 = z1 - 1j * z2, z1 + 1j * z2
        assert np.allclose(entry_norms(z1, z2), np.sqrt((abs(c1) ** 2 + abs(c2) ** 2) / 2))

    @pytest.mark.parametrize("k", [-1060, -600, 600, 1020])
    def test_no_square_over_or_underflows(self, k):
        z1, z2 = np.array([3.0, 1.0 + 1.0j]), np.array([4.0j, -1.0 + 1.0j])
        z1, z2 = (np.ldexp(z.view(float), k).view(complex) for z in (z1, z2))
        with np.errstate(over="raise", invalid="raise"):
            norms = entry_norms(z1, z2)
        assert np.allclose(np.ldexp(norms, -k), [5.0, 2.0], rtol=1e-15 if k > -1000 else 1e-3)

    def test_max_norm_of_kets_and_matrices(self):
        psi = Ket(np.array([3e300, 0.0]), np.array([4e300j, 1.0]))
        assert psi.max_norm() == pytest.approx(5e300, rel=1e-15)
        matrix = BicomplexMatrix(np.diag([3e300, 1.0]), np.diag([4e300, 0.0]))
        assert matrix.max_norm() == pytest.approx(5e300, rel=1e-15)

    def test_max_norm_beyond_the_double_range(self, recwarn):
        huge = 1.7976931348623157e308
        matrix = BicomplexMatrix(np.zeros((2, 2)), np.array([[0.0, huge + huge * 1j], [0.0, 0.0]]))
        assert matrix.max_norm() == math.inf and list(recwarn) == []


class TestRelativeScale:
    def test_the_plain_quotient_while_the_product_is_finite(self):
        assert ratio(6.0, 2.0, 3.0, floor=1.0) == 1.0
        assert ratio(6.0, 0.5, 0.5, floor=1.0) == 6.0
        assert ratio(6.0, 0.5, 0.5) == 24.0
        assert ratio(6.0) == 6.0
        assert ratio(0.3, 1e100, 1e100, floor=1.0) == 0.3 / (1e100 * 1e100)
        assert ratio(1.0, 3.0, floor=7.0) == 1.0 / 7.0

    def test_an_overflowing_product_is_divided_out(self):
        assert ratio(1e300, 1e200, 1e200) == pytest.approx(1e-100, rel=1e-14)
        assert ratio(1.0, *[1e120] * 3) == 0.0
        assert ratio(1e300, *[1e120] * 3) == pytest.approx(1e-60, rel=1e-14)
        assert ratio(1e300, 1e-300) == math.inf
        assert math.isnan(ratio(math.nan, 1e200, 1e200))
        assert ratio(math.inf, 2.0) == math.inf

    def test_bits_of_the_plain_quotient(self):
        rng = np.random.default_rng(41)
        values = np.ldexp(rng.random((500, 4)), rng.integers(-300, 300, (500, 4)))
        for residual, a, b, floor in values:
            plain = residual / max(floor, a * b)
            assert ratio(residual, a, b, floor=floor) == plain

    def test_zero_scale(self):
        assert ratio(0.0, 0.0) == 0.0 and within(0.0, 0.0, 0.0)
        assert ratio(1e-300, 0.0) == math.inf and not within(1e-300, 1.0, 0.0)

    def test_a_zero_residual_under_a_scale_below_the_range(self):
        # the product of the scale lies below 2^-1024: zero over it is zero, not inf
        assert ratio(0.0, 2e-310) == 0.0
        assert ratio(0.0, 1e-200, 1e-200) == 0.0
        assert math.copysign(1.0, ratio(-0.0, 2e-310)) == -1.0
        assert within(0.0, 1e-9, 2e-310) and within(0.0, 0.0, 1e-200, 1e-200)
        assert core._ldexp(0.0, 2000) == 0.0 and core._ldexp(1.0, 2000) == math.inf

    def test_nothing_infinite_passes(self):
        # the inf <= inf trap: an infinite scale or bound once passed any residual
        assert not within(1.0, 1e-12, math.inf)
        assert not within(math.inf, math.inf)
        assert not within(0.0, math.inf)
        assert not within(0.0, 1.0, 1.0, floor=math.nan)
        assert not within(math.nan, 1.0)
        assert within(1e300, 1e-12, 1e200, 1e200)
        assert not within(1e300, 1e-12, 1e150, 1e150)


# -- the max norm kept, and the scalar null-cone test -----------------------------

DEFAULT = Tolerance()


def _old_max_norm(array) -> float:
    """BicomplexArray.max_norm as it was before it was kept."""
    (z1, z2), exponent = core.scaled_down((array.z1, array.z2))
    return core._ldexp(float(entry_norms(z1, z2).max()), exponent)


def _old_classify(w: Bicomplex, tol: Tolerance) -> Classification:
    """Bicomplex.classify as it was while it took the plain moduli where they do not overflow."""
    c1, c2 = w.to_idempotent()
    try:
        moduli = abs(c1), abs(c2)
    except OverflowError:
        moduli = np.abs(core.scaled_down((c1, c2))[0])
    return tuple(Classification)[core.null_cone_codes(moduli, tol.eps_null)]


class TestKeptMaxNorm:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(bicomplex_arrays())
    def test_same_value_as_before(self, array):
        assert array.max_norm() == _old_max_norm(array)
        assert array.max_norm() == _old_max_norm(array)

    def test_parts_scaled_once_per_array(self, monkeypatch):
        calls = []
        scaled_down = core.scaled_down
        monkeypatch.setattr(
            core, "scaled_down", lambda *args: calls.append(1) or scaled_down(*args)
        )
        matrix = BicomplexMatrix(np.eye(3) * 2.0, np.ones((3, 3)) * 1j)
        assert [matrix.max_norm() for _ in range(3)] == [math.sqrt(5.0)] * 3
        assert calls == [1]


class TestScalarNullCone:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(edge_parts, edge_parts, edge_parts, edge_parts)
    def test_classify_as_before(self, a, b, c, d):
        try:
            w = Bicomplex(complex(a, b), complex(c, d))
            w.to_idempotent()
        except NonFinite:
            return
        for tol in (DEFAULT, Tolerance(eps_null=1e-6)):
            with np.errstate(over="ignore"):
                assert w.classify(tol) is _old_classify(w, tol)

    def test_overflowing_moduli_as_before(self):
        # |c1| beyond the double range: the rescaled route in both
        huge = 1.5e308
        values = [
            Bicomplex(complex(huge, huge), 0.0),
            Bicomplex(complex(huge, huge), complex(0, 1e-300)),
            Bicomplex.from_idempotent(complex(huge, huge), complex(huge * 1e-12, 0.0)),
        ]
        for w in values:
            with pytest.raises(OverflowError):
                abs(w.to_idempotent().c1)
            assert w.classify() is _old_classify(w, DEFAULT)
