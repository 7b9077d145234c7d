import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bicomplex import (
    Bicomplex,
    Classification,
    Hyperbolic,
    NonFinite,
    NotInvertible,
    Tolerance,
    approx_eq,
)
from bicomplex.core import E1, E2, I1, I2, J, ONE, ZERO

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
            assert squared.is_positive(slack=1e-12 * w.euclid_norm() ** 2)

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


class TestHyperbolic:
    def test_positive_quadrant(self):
        assert Hyperbolic(0.0, 2.0).is_positive()
        assert not Hyperbolic(-1e-9, 2.0).is_positive()
        assert Hyperbolic(-1e-9, 2.0).is_positive(slack=1e-8)

    def test_from_bicomplex_rejects_non_hyperbolic(self):
        with pytest.raises(ValueError):
            Hyperbolic.from_bicomplex(I1)

    def test_round_trip(self):
        value = Hyperbolic(1.5, -0.25)
        again = Hyperbolic.from_bicomplex(value.to_bicomplex())
        assert again == value


class TestNonFinite:
    def test_is_a_value_error(self):
        assert issubclass(NonFinite, ValueError)

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
