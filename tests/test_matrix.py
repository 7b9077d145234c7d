import math

import numpy as np
import pytest

from bicomplex import (
    Bicomplex,
    BicomplexMatrix,
    Classification,
    DimensionMismatch,
    SingularMatrix,
    Tolerance,
    approx_eq,
)
from bicomplex.core import E1, J, ONE
from bicomplex.reference import det_cofactor, gauss_jordan_inverse, matmul_entrywise

import exact
from helpers import random_matrix, random_well_conditioned

# c of the forward-error bound c*n*u*kappa_2(A_k) on each idempotent component
# of det(), u the unit roundoff.  The computed determinant is det(A + dA) times
# the rounding of the product of the pivots, dA the backward error of LU with
# partial pivoting (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
# ed., SIAM 2002, ch. 9, and the determinant from LU, ch. 14); d det A =
# det A * tr(A^-1 dA) moves det(A) by at most n*kappa_2(A)*|dA|_2/|A|_2 relative.
# Higham observes that backward error to be a small multiple of u when the growth
# factor is small, as partial pivoting gives on Gaussian matrices; c = 4 is that
# multiple plus the rounding of the pivots' product and of the recombination
# into (z1, z2) parts.
DET_FORWARD_C = 4.0
# c of the bound c*n*u*kappa_2(A_k) on the relative 2-norm forward error of each
# idempotent component of inverse().  Each column of the computed inverse solves
# (A + dA_j) x_j = e_j, dA_j the backward error of LU with partial pivoting, so
# |x_j - A^-1 e_j| / |A^-1 e_j| is at most kappa_2(A) |dA_j|_2 / |A|_2 to first order
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002,
# ch. 14, inversion by solving AX = I); c = 4 takes that backward error as a small
# multiple of n*u, as for det(), plus the rounding into (z1, z2) parts.
INV_FORWARD_C = 4.0
UNIT_ROUNDOFF = np.finfo(float).eps / 2


class TestComponentView:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        a = random_matrix(rng, 4)
        back = BicomplexMatrix.from_components(a.component(1), a.component(2))
        assert (back - a).max_norm() <= 4e-16 * max(1.0, a.max_norm())

    def test_entry_accessor(self):
        m = BicomplexMatrix.diagonal([E1, ONE])
        assert m.entry(0, 0) == E1
        assert m.entry(0, 1) == Bicomplex(0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BicomplexMatrix(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            BicomplexMatrix.from_entries([[ONE, ONE], [ONE]])


class TestDet:
    def test_identity(self):
        assert approx_eq(BicomplexMatrix.identity(4).det(), ONE)

    def test_diagonal_null_cone(self):
        det = BicomplexMatrix.diagonal([E1, ONE]).det()
        assert approx_eq(det, E1)
        assert det.classify() is Classification.NULL_CONE_2

    def test_product_law(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_matrix(rng, 4)
            b = random_matrix(rng, 4)
            lhs = (a @ b).det()
            rhs = a.det() * b.det()
            assert (lhs - rhs).euclid_norm() <= 1e-10 * max(1.0, rhs.euclid_norm())

    def test_transpose_law(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = random_matrix(rng, 4)
            det = a.det()
            assert (a.transpose().det() - det).euclid_norm() <= 1e-10 * max(
                1.0, det.euclid_norm()
            )

    @pytest.mark.parametrize("order", [4, 8])
    @pytest.mark.parametrize("seed", range(10))
    def test_forward_error_against_exact(self, seed, order):
        matrix = random_matrix(np.random.default_rng(seed), order)
        det = matrix.det()
        computed = exact.components(np.array([[det.z1]]), np.array([[det.z2]]))
        for k, (a_k, ((got,),)) in enumerate(zip(exact.components(matrix.z1, matrix.z2), computed), 1):
            want = exact.det(a_k)
            error = math.sqrt(exact.abs2((got[0] - want[0], got[1] - want[1])) / exact.abs2(want))
            bound = DET_FORWARD_C * order * UNIT_ROUNDOFF * np.linalg.cond(matrix.component(k))
            assert error <= bound, (k, error / bound)

    def test_cofactor_oracle(self):
        rng = np.random.default_rng(19)
        for n in (2, 3, 4):
            for _ in range(10):
                a = random_matrix(rng, n)
                fast = a.det()
                reference = det_cofactor(a)
                assert (fast - reference).euclid_norm() <= 1e-9 * max(
                    1.0, reference.euclid_norm()
                )


class TestSingular:
    def test_identity_not_singular(self):
        assert not BicomplexMatrix.identity(3).is_singular()

    def test_null_cone_det(self):
        diag = BicomplexMatrix.diagonal([E1, ONE])
        assert diag.is_singular()
        with pytest.raises(SingularMatrix) as info:
            diag.inverse()
        assert info.value.components == (2,)

    def test_zero_row(self):
        m = BicomplexMatrix.from_entries([[ONE, J], [Bicomplex(0), Bicomplex(0)]])
        assert m.is_singular()

    def test_one_singular_component(self):
        rng = np.random.default_rng(29)
        c1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c1[2, :] = 0.0
        c2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = BicomplexMatrix.from_components(c1, c2)
        assert m.det().classify() is Classification.NULL_CONE_1
        with pytest.raises(SingularMatrix) as info:
            m.inverse()
        assert info.value.components == (1,)


class TestDeterminantUnderflow:
    def test_small_identity_is_regular(self):
        m = BicomplexMatrix.identity(8).scale(1e-50)
        # both component determinants underflow: 1e-400 is not a double
        assert m.det() == Bicomplex(0)
        assert not m.is_singular()
        inverse = m.inverse().matrix
        assert np.allclose(inverse.z1, 1e50 * np.eye(8), rtol=1e-15, atol=0)
        assert not inverse.z2.any()

    def test_exactly_singular_components_still_vanish(self):
        tiny = 1e-50 * np.eye(8)
        cut = tiny.copy()
        cut[3, 3] = 0.0
        for c1, c2, vanishing in ((cut, tiny, (1,)), (tiny, cut, (2,)), (cut, cut, (1, 2))):
            with pytest.raises(SingularMatrix) as info:
                BicomplexMatrix.from_components(c1, c2).inverse()
            assert info.value.components == vanishing
        assert BicomplexMatrix.zeros(8).is_singular()

    def test_relative_test_on_log_moduli(self):
        # component 2 is 1e-20 times component 1 in determinant: null cone 2
        tiny = 1e-50 * np.eye(8)
        smaller = tiny.copy()
        smaller[0, 0] *= 1e-20
        m = BicomplexMatrix.from_components(tiny, smaller)
        assert m._classify_det() is Classification.NULL_CONE_2

    def test_normal_determinants_classify_as_det(self):
        rng = np.random.default_rng(31)
        for n in range(1, 7):
            for scale in (1e-30, 1e-3, 1.0, 1e3, 1e30):
                for shrink in (1.0, 1e-5, 1e-11, 1e-13):
                    c1, c2 = (random_matrix(rng, n, scale).components)
                    c2 = c2 * shrink ** (1.0 / n)
                    m = BicomplexMatrix.from_components(c1, c2)
                    assert m._classify_det() is m.det().classify()


class TestInverse:
    def test_identity(self):
        inv = BicomplexMatrix.identity(3).inverse()
        assert (inv.matrix - BicomplexMatrix.identity(3)).max_norm() == 0.0

    def test_diagonal_scalar(self):
        inv = BicomplexMatrix.diagonal([Bicomplex(2) + J]).inverse()
        assert approx_eq(inv.matrix.entry(0, 0), Bicomplex(2 / 3) - J * (1 / 3))

    def test_random_round_trip(self):
        rng = np.random.default_rng(31)
        identity = BicomplexMatrix.identity(5)
        for _ in range(20):
            a = random_well_conditioned(rng, 5)
            inv = a.inverse()
            assert (a @ inv.matrix - identity).max_norm() <= 1e-10
            assert (inv.matrix @ a - a @ inv.matrix).max_norm() <= 1e-10

    @pytest.mark.parametrize("order", [4, 8])
    @pytest.mark.parametrize("seed", range(10))
    def test_forward_error_against_exact(self, seed, order):
        matrix = random_matrix(np.random.default_rng(seed), order)
        inverse = matrix.inverse().matrix
        pairs = zip(exact.components(matrix.z1, matrix.z2), exact.components(inverse.z1, inverse.z2))
        for k, (a_k, got) in enumerate(pairs, 1):
            want = exact.inverse(a_k)
            # the difference is exact; rounding it to doubles moves its norm by O(u)
            error = [[(g[0] - w[0], g[1] - w[1]) for g, w in zip(*rows)] for rows in zip(got, want)]
            relative = np.linalg.norm(exact.to_complex(error), 2) / np.linalg.norm(
                exact.to_complex(want), 2
            )
            bound = INV_FORWARD_C * order * UNIT_ROUNDOFF * np.linalg.cond(matrix.component(k))
            assert relative <= bound, (k, relative / bound)

    def test_gauss_jordan_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            a = random_well_conditioned(rng, 4)
            direct = gauss_jordan_inverse(a)
            fast = a.inverse().matrix
            assert (direct - fast).max_norm() <= 1e-9


class TestKeptResults:
    """Determinants, inverse and transpose are computed once per matrix and kept."""

    def test_repeated_calls_return_the_kept_objects(self):
        a = random_well_conditioned(np.random.default_rng(53), 8)
        dets, inverse, transposed = a._component_dets(), a.inverse(), a.transpose()
        assert a._component_dets() is dets
        assert a.inverse() is inverse
        assert a.transpose() is transposed
        for array in (dets, inverse.matrix.z1, inverse.matrix.z2, transposed.z1, transposed.z2):
            assert not array.flags.writeable

    def test_transpose_of_transpose_is_a_new_copy(self):
        a = random_matrix(np.random.default_rng(59), 4)
        back = a.transpose().transpose()
        assert back is not a
        assert back == a
        assert not np.shares_memory(back.z1, a.z1)

    def test_tolerance_applies_after_a_kept_inverse(self):
        # det = 1e-8 e1 + 1 e2: invertible at eps_null 1e-12, null cone at 1e-6
        a = BicomplexMatrix.diagonal([Bicomplex.from_idempotent(1e-8, 1.0), ONE])
        kept = a.inverse()
        coarse = Tolerance(eps_null=1e-6)
        with pytest.raises(SingularMatrix) as info:
            a.inverse(coarse)
        assert info.value.components == (1,)
        assert a.is_singular(coarse)
        assert a._classify_det(coarse) is Classification.NULL_CONE_1
        assert a.inverse() is kept


class TestProductAndTranspose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(41)
        a = random_matrix(rng, 4)
        assert (a @ BicomplexMatrix.identity(4) - a).max_norm() == 0.0

    def test_component_law(self):
        rng = np.random.default_rng(43)
        a = random_matrix(rng, 4)
        b = random_matrix(rng, 4)
        product = a @ b
        for k in (1, 2):
            direct = a.component(k) @ b.component(k)
            assert np.abs(product.component(k) - direct).max() <= 1e-12 * max(
                1.0, float(np.abs(direct).max())
            )

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(47)
        a = random_matrix(rng, 3)
        b = random_matrix(rng, 3)
        assert ((a @ b) - matmul_entrywise(a, b)).max_norm() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            BicomplexMatrix.identity(2) @ BicomplexMatrix.identity(3)

    def test_scale_by_bicomplex(self):
        m = BicomplexMatrix.identity(2).scale(J)
        assert m.entry(0, 0) == J
        assert m.entry(1, 0) == Bicomplex(0)
