import itertools
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bicomplex import (
    Basis,
    BasisMismatch,
    Bicomplex,
    Classification,
    DimensionMismatch,
    Hyperbolic,
    Ket,
    KetClassification,
    KetColumns,
    NotABasis,
    NotHyperbolic,
    NullConeKet,
    NullConePivot,
    ScalarProductSpec,
    Tolerance,
    approx_eq,
    gram_schmidt,
    mix_orthogonal_bases,
    normalize,
    riesz_representation,
    scalar_product,
)
from bicomplex import BicomplexMatrix, bct
from bicomplex.checks import verify_gram_schmidt
from bicomplex.core import E1, E2, J, ONE, ZERO
from bicomplex.hilbert import coefficient_matrix, ket_norms, row_kets
from bicomplex.reference import scalar_product_direct

from helpers import (
    oracle_gram_schmidt,
    random_basis_kets,
    random_ket,
    random_matrix,
    random_spec,
    random_well_conditioned,
)
from oracles import gram_schmidt_ring

GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestScalarProduct:
    def test_standard_basis_unit(self):
        spec = ScalarProductSpec.identity(3)
        e0 = Ket.standard(3, 0)
        assert approx_eq(scalar_product(spec, e0, e0), ONE)

    def test_idempotent_weighted_self_product(self):
        # coefficients (2 e1, 3 e2) give component products 4 and 9
        spec = ScalarProductSpec.identity(2)
        psi = Ket.from_coeffs([E1 * 2, E2 * 3])
        assert approx_eq(scalar_product(spec, psi, psi), Bicomplex.from_idempotent(4, 9))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        spec = random_spec(rng, 4)
        for _ in range(50):
            psi = random_ket(rng, 4)
            phi = random_ket(rng, 4)
            lhs = scalar_product(spec, psi, phi)
            rhs = scalar_product(spec, phi, psi).conjugate(3)
            assert (lhs - rhs).euclid_norm() <= 1e-12 * max(1.0, lhs.euclid_norm())

    def test_second_slot_linear_first_slot_antilinear(self):
        rng = np.random.default_rng(5)
        spec = random_spec(rng, 3)
        psi, phi = random_ket(rng, 3), random_ket(rng, 3)
        alpha = Bicomplex(complex(0.3, -1.2), complex(0.7, 0.1))
        lhs = scalar_product(spec, psi, phi.scale(alpha))
        assert (lhs - alpha * scalar_product(spec, psi, phi)).euclid_norm() <= 1e-10
        lhs = scalar_product(spec, psi.scale(alpha), phi)
        rhs = alpha.conjugate(3) * scalar_product(spec, psi, phi)
        assert (lhs - rhs).euclid_norm() <= 1e-10

    def test_decomposition_matches_direct_oracle(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            spec = random_spec(rng, n)
            for _ in range(10):
                psi = random_ket(rng, n)
                phi = random_ket(rng, n)
                fast = scalar_product(spec, psi, phi)
                direct = scalar_product_direct(spec, psi, phi)
                assert (fast - direct).euclid_norm() <= 1e-12 * max(1.0, fast.euclid_norm())

    def test_hyperbolic_positive(self):
        rng = np.random.default_rng(11)
        spec = random_spec(rng, 4)
        for _ in range(100):
            psi = random_ket(rng, 4)
            form = scalar_product(spec, psi, psi).to_idempotent()
            floor = -1e-12 * max(1.0, psi.max_norm() ** 2)
            assert form.c1.real >= floor and form.c2.real >= floor

    def test_basis_mismatch(self):
        spec = ScalarProductSpec.identity(2)
        with pytest.raises(BasisMismatch):
            scalar_product(spec, Ket.standard(2, 0, "a"), Ket.standard(2, 0, "b"))

    def test_dimension_mismatch(self):
        spec = ScalarProductSpec.identity(3)
        with pytest.raises(DimensionMismatch):
            scalar_product(spec, Ket.standard(2, 0), Ket.standard(2, 0))


class TestKetClassify:
    def test_null_cone_component(self):
        psi = Ket.from_coeffs([E1, E1 * complex(2, 1)])
        assert psi.classify() is KetClassification.NULL_CONE_2

    def test_regular(self):
        assert Ket.from_coeffs([ONE, J]).classify() is KetClassification.REGULAR

    def test_zero(self):
        assert Ket.zero(3).classify() is KetClassification.ZERO

    def test_agrees_with_self_product_classification(self):
        rng = np.random.default_rng(13)
        spec = ScalarProductSpec.identity(3)
        kets = [random_ket(rng, 3) for _ in range(5000)]
        kets += [random_ket(rng, 3).scale(E1) for _ in range(2500)]
        kets += [random_ket(rng, 3).scale(E2) for _ in range(2500)]
        for psi in kets:
            ket_class = psi.classify()
            product_class = scalar_product(spec, psi, psi).classify()
            assert ket_class.value == product_class.value or (
                ket_class is KetClassification.REGULAR
                and product_class is Classification.INVERTIBLE
            )


class TestSpec:
    def test_rejects_non_hermitian(self):
        g = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            ScalarProductSpec(g, np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            ScalarProductSpec(np.diag([1.0, -1.0]), np.eye(2))

    def test_closed_under_reference(self):
        assert ScalarProductSpec.identity(2).is_closed_under_reference()
        g = np.diag([2.0, 1.0]).astype(complex)
        assert not ScalarProductSpec(g, np.eye(2)).is_closed_under_reference()


class TestNormalize:
    def test_scale_factor_from_components(self):
        # self-product 4 e1 + 9 e2 must be undone by e1/2 + e2/3
        spec = ScalarProductSpec.identity(2)
        psi = Ket.from_coeffs([E1 * 2, E2 * 3])
        unit = normalize(spec, psi)
        assert approx_eq(scalar_product(spec, unit, unit), ONE)
        factor = Bicomplex.from_idempotent(0.5, 1 / 3)
        assert (unit - psi.scale(factor)).max_norm() <= 1e-12

    def test_already_unit(self):
        spec = ScalarProductSpec.identity(2)
        psi = Ket.standard(2, 1)
        assert (normalize(spec, psi) - psi).max_norm() <= 1e-12

    def test_random(self):
        rng = np.random.default_rng(17)
        spec = random_spec(rng, 4)
        for _ in range(50):
            psi = random_ket(rng, 4)
            unit = normalize(spec, psi)
            assert (scalar_product(spec, unit, unit) - ONE).euclid_norm() <= 1e-10

    def test_null_cone_rejected(self):
        spec = ScalarProductSpec.identity(2)
        with pytest.raises(NullConeKet):
            normalize(spec, Ket.from_coeffs([E1, E1]))

    def test_norm_value(self):
        spec = ScalarProductSpec.identity(2)
        psi = Ket.from_coeffs([E1 * 2, E2 * 3])
        x1, x2 = ket_norms(spec, psi.z1[None], psi.z2[None])
        assert x1[0] == pytest.approx(4.0) and x2[0] == pytest.approx(9.0)

    def test_norms_are_component_gram_norms(self):
        rng = np.random.default_rng(19)
        spec = random_spec(rng, 3)
        for _ in range(20):
            psi = random_ket(rng, 3)
            norms = ket_norms(spec, psi.z1[None], psi.z2[None])
            for k in (1, 2):
                component = psi.components[k - 1]
                direct = float(np.real(np.vdot(component, spec.grams[k - 1] @ component)))
                assert norms[k - 1][0] == pytest.approx(direct, rel=1e-10)


    def test_ket_norms_match_scalar_path_bit_for_bit(self):
        rng = np.random.default_rng(23)
        spec = random_spec(rng, 16)
        kets = [random_ket(rng, 16) for _ in range(12)] + [Ket.zero(16), Ket.standard(16, 2)]
        # rows of a transposed array: strided rows must round like contiguous ones
        z1 = np.array([k.z1 for k in kets]).T.copy().T
        z2 = np.array([k.z2 for k in kets]).T.copy().T
        x1, x2 = ket_norms(spec, z1, z2)
        for ket, a, b in zip(kets, x1.tolist(), x2.tolist()):
            norm = Hyperbolic.from_bicomplex(scalar_product(spec, ket, ket))
            assert (repr(a), repr(b)) == (repr(norm.x1), repr(norm.x2))

    def test_ket_norms_rejects_like_scalar_path(self):
        rng = np.random.default_rng(29)
        spec = random_spec(rng, 4)
        psi = random_ket(rng, 4)
        tol = Tolerance(eps_eq=1e-300)
        with pytest.raises(NotHyperbolic) as scalar:
            Hyperbolic.from_bicomplex(scalar_product(spec, psi, psi), tol)
        with pytest.raises(NotHyperbolic) as batched:
            ket_norms(spec, psi.z1[None], psi.z2[None], tol)
        assert str(batched.value) == str(scalar.value)


class TestGramSchmidt:
    def test_orthonormal_input_unchanged(self):
        spec = ScalarProductSpec.identity(3)
        kets = [Ket.standard(3, i) for i in range(3)]
        out = gram_schmidt(spec, kets)
        for got, expected in zip(out, kets):
            assert (got - expected).max_norm() <= 1e-12

    def test_hand_worked_two_dim(self):
        # {(1,0), (1,1)} orthogonalizes to {(1,0), (0,1)}
        spec = ScalarProductSpec.identity(2)
        out = gram_schmidt(spec, [Ket.from_coeffs([1, 0]), Ket.from_coeffs([1, 1])])
        assert (out[0] - Ket.standard(2, 0)).max_norm() <= 1e-12
        assert (out[1] - Ket.standard(2, 1)).max_norm() <= 1e-12

    def test_random_bases(self):
        rng = np.random.default_rng(23)
        for n in (2, 4, 6):
            spec = random_spec(rng, n)
            kets = random_basis_kets(rng, n)
            out = gram_schmidt(spec, kets)
            for i in range(n):
                assert out[i].classify() is KetClassification.REGULAR
                for j in range(i, n):
                    product = scalar_product(spec, out[i], out[j])
                    target = ONE if i == j else Bicomplex(0)
                    assert (product - target).euclid_norm() <= 1e-10

    def test_output_spans_input(self):
        rng = np.random.default_rng(29)
        spec = ScalarProductSpec.identity(3)
        kets = random_basis_kets(rng, 3)
        out = gram_schmidt(spec, kets)
        # the change of basis between input and output must be nonsingular
        mixed = coefficient_matrix(kets).inverse().matrix @ coefficient_matrix(out)
        assert not mixed.is_singular()

    def test_not_a_basis(self):
        spec = ScalarProductSpec.identity(2)
        kets = [Ket.from_coeffs([1, 1]), Ket.from_coeffs([2, 2])]
        with pytest.raises(NotABasis):
            gram_schmidt(spec, kets)

    def test_null_cone_pivot(self):
        # component-1 rows nearly parallel: passes the singularity gate,
        # dies at the pivot classification
        spec = ScalarProductSpec.identity(2)
        first = Ket.from_components(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        second = Ket.from_components(np.array([1.0, 1e-7]), np.array([0.0, 1.0]))
        with pytest.raises(NullConePivot) as info:
            gram_schmidt(spec, [first, second])
        assert info.value.index == 1


class TestOverflowingPivots:
    """Rows near 1e150 under G1 = G2 = 1e100 I: every |R_ii|^2 is near 1e400."""

    @staticmethod
    def big_spec(n: int) -> ScalarProductSpec:
        gram = 1e100 * np.eye(n)
        return ScalarProductSpec(gram, gram)

    def test_orthonormalized_as_the_scaled_problem(self):
        rows = random_well_conditioned(np.random.default_rng(3), 3)
        spec = self.big_spec(3)
        out = gram_schmidt(spec, row_kets(rows.scale(1e150)))
        assert all(result.passed for result in verify_gram_schmidt(spec, out, Tolerance()))
        # the same kets as for unit rows under the unit spec, times 1e-50
        small = gram_schmidt(ScalarProductSpec.identity(3), row_kets(rows))
        got = coefficient_matrix(out).components * 1e50
        assert np.allclose(got, coefficient_matrix(small).components, rtol=0, atol=1e-14)

    def test_null_cone_pivot_still_rejected(self):
        rows = bct.load(GOLDEN / "counter_nullcone_pivot_n2.bct").value
        with pytest.raises(NullConePivot) as info:
            gram_schmidt(self.big_spec(2), row_kets(rows.scale(1e150)))
        assert info.value.index == 1


class TestGramSchmidtOracle:
    """The QR route against the ring-arithmetic recursion it replaced."""

    def test_matches_ring_recursion(self):
        rng = np.random.default_rng(43)
        for n in range(2, 9):
            spec = random_spec(rng, n)
            kets = random_basis_kets(rng, n)
            fast = gram_schmidt(spec, kets)
            oracle = gram_schmidt_ring(spec, kets)
            assert [k.basis_id for k in fast] == [k.basis_id for k in oracle]
            assert max((a - b).max_norm() for a, b in zip(fast, oracle)) <= 1e-12

    def test_both_raise_null_cone_pivot_on_golden_rows(self):
        matrix = bct.load(GOLDEN / "counter_nullcone_pivot_n2.bct").value
        rows = [Ket(matrix.z1[i, :], matrix.z2[i, :], "input-rows") for i in range(2)]
        spec = ScalarProductSpec.identity(2)
        stacked = row_kets(matrix, "input-rows")
        routes = ((gram_schmidt, rows), (gram_schmidt, stacked), (gram_schmidt_ring, rows))
        for route, kets in routes:
            with pytest.raises(NullConePivot) as info:
                route(spec, kets)
            assert info.value.index == 1


def _bits(kets) -> np.ndarray:
    """The (z1, z2) parts of the kets, column by column, as raw 64-bit words."""
    return np.stack([np.stack([k.z1, k.z2]) for k in kets], axis=-1).view(np.uint64)


class TestStackedGramSchmidt:
    """The stacked route against the one it replaced (a Ket per column, a scalar test per pivot)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 32])
    def test_bit_identical_to_per_ket_route(self, n):
        rng = np.random.default_rng(700 + n)
        spec = random_spec(rng, n)
        kets = random_basis_kets(rng, n, "b")
        oracle = _bits(oracle_gram_schmidt(spec, kets))
        out = gram_schmidt(spec, kets)
        assert isinstance(out, KetColumns) and out.basis_id == "b"
        assert np.array_equal(_bits(out), oracle)
        assert np.array_equal(np.stack([out.matrix.z1, out.matrix.z2]).view(np.uint64), oracle)
        # the same kets handed over as the rows of one matrix
        rows = row_kets(coefficient_matrix(kets).transpose(), "b")
        assert np.array_equal(_bits(gram_schmidt(spec, rows)), oracle)

    @pytest.mark.parametrize("name", ["matrix_identity_n2.bct", "matrix_random_n3.bct"])
    def test_golden_rows_bit_identical(self, name):
        matrix = bct.load(GOLDEN / name).value
        spec = ScalarProductSpec.identity(matrix.order)
        rows = row_kets(matrix, "input-rows")
        oracle = oracle_gram_schmidt(spec, list(rows))
        assert np.array_equal(_bits(gram_schmidt(spec, rows)), _bits(oracle))

    def test_row_kets_leaves_the_rows_in_place(self):
        matrix = random_matrix(np.random.default_rng(61), 4)
        rows = row_kets(matrix, "r")
        assert coefficient_matrix(rows) is rows.matrix
        assert rows.matrix.z1.flags.c_contiguous
        assert np.array_equal(rows.matrix.transpose().z1, matrix.z1)

    def test_ket_columns_sequence(self):
        matrix = random_matrix(np.random.default_rng(67), 3)
        columns = KetColumns(matrix, "cols")
        expected = [Ket(matrix.z1[:, i], matrix.z2[:, i], "cols") for i in range(3)]
        assert len(columns) == 3 and columns.basis_id == "cols"
        assert list(columns) == expected
        assert [columns[i] for i in range(-3, 3)] == expected + expected
        assert columns[1:] == expected[1:] and columns[::-2] == expected[::-2]
        assert columns[5:] == []
        for index in (3, -4):
            with pytest.raises(IndexError):
                columns[index]
        assert all(ket.basis_id == "cols" for ket in columns)
        assert expected[2] in columns and columns.index(expected[1]) == 1

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        k=st.sampled_from([0, 1]),
        exponent=st.floats(-14.0, -1.0),
        eps_null=st.sampled_from([1e-14, 1e-12, 1e-9, 1e-6]),
        stacked=st.booleans(),
    )
    def test_pivot_test_near_the_null_cone(self, seed, n, k, exponent, eps_null, stacked):
        # component k of ket j lies within 10**exponent of the span of the kets before it
        rng = np.random.default_rng(seed)
        parts = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        j = int(rng.integers(1, n))
        mix = rng.standard_normal(j) + 1j * rng.standard_normal(j)
        parts[k][:, j] = parts[k][:, :j] @ mix + 10.0**exponent * parts[k][:, j]
        kets = KetColumns(BicomplexMatrix.from_components(*parts), "b")
        if not stacked:
            kets = list(kets)
        spec = random_spec(rng, n)
        tol = Tolerance(eps_null=eps_null)
        outcomes = []
        for route in (gram_schmidt, oracle_gram_schmidt):
            try:
                outcomes.append(_bits(route(spec, kets, tol)).tobytes())
            except (NullConePivot, NotABasis) as exc:
                outcomes.append((type(exc), getattr(exc, "index", None)))
        assert outcomes[0] == outcomes[1]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        exponents=st.lists(st.floats(-16.0, 0.0) | st.just(-np.inf), min_size=12, max_size=12),
        eps_null=st.sampled_from([1e-14, 1e-12, 1e-9, 1e-6]),
    )
    def test_null_cone_count_near_the_null_cone(self, seed, n, exponents, eps_null):
        # ket i has its component 1 scaled by 10**exponents[2i], component 2 by 10**exponents[2i+1]
        rng = np.random.default_rng(seed)
        parts = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        parts *= 10.0 ** np.reshape(exponents[: 2 * n], (n, 2)).T[:, None, :]
        kets = KetColumns(BicomplexMatrix.from_components(*parts), "b")
        tol = Tolerance(eps_null=eps_null)
        per_ket = sum(ket.classify(tol) is not KetClassification.REGULAR for ket in kets)
        spec = ScalarProductSpec.identity(n)
        for route in (kets, list(kets)):
            count = {r.name: r.residual for r in verify_gram_schmidt(spec, route, tol)}
            assert count["null-cone-outputs"] == per_ket


def _gram_schmidt_outcome(spec, kets, tol=Tolerance()):
    """The bits of the orthonormalized kets, or the error raised and its pivot index."""
    try:
        return _bits(gram_schmidt(spec, kets, tol)).tobytes()
    except (NullConePivot, NotABasis) as exc:
        return type(exc), getattr(exc, "index", None)


class TestStandardSpec:
    """One kept standard spec per order, and Gram-Schmidt under it on the kept QR."""

    def test_one_kept_read_only_spec_per_order(self):
        spec = ScalarProductSpec.identity(4)
        assert ScalarProductSpec.identity(4) is spec and spec.standard
        assert ScalarProductSpec.identity(5) is not spec
        assert not spec.grams.flags.writeable and not spec.chols.flags.writeable
        assert np.array_equal(spec.grams, np.stack([np.eye(4)] * 2))
        assert not ScalarProductSpec(np.eye(4), np.eye(4)).standard

    @pytest.mark.parametrize("n", range(2, 33))
    def test_bit_identical_to_a_fresh_identity_spec(self, n):
        matrix = random_matrix(np.random.default_rng(900 + n), n)
        fresh = ScalarProductSpec(np.eye(n), np.eye(n))
        kept = ScalarProductSpec.identity(n)
        for kets in (row_kets(matrix, "r"), KetColumns(matrix, "c"), list(KetColumns(matrix, "c"))):
            assert _gram_schmidt_outcome(kept, kets) == _gram_schmidt_outcome(fresh, kets)

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in GOLDEN.glob("*.bct")
                       if not p.name.startswith(("scalar_", "ket_", "spec_")))
    )
    def test_golden_matrices_bit_identical_to_a_fresh_identity_spec(self, name):
        doc = bct.load(GOLDEN / name)
        matrix = doc.value.matrix if doc.kind == "operator" else doc.value
        n = matrix.order
        fresh = ScalarProductSpec(np.eye(n), np.eye(n))
        for kets in (row_kets(matrix, "r"), KetColumns(matrix, "c")):
            expected = _gram_schmidt_outcome(fresh, kets)
            assert _gram_schmidt_outcome(ScalarProductSpec.identity(n), kets) == expected

    def test_kept_qr_is_shared_and_read_only(self, monkeypatch):
        matrix = random_matrix(np.random.default_rng(71), 5)
        calls = []
        original = np.linalg.qr

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        spec = ScalarProductSpec.identity(5)
        first = gram_schmidt(spec, row_kets(matrix, "r"))
        second = gram_schmidt(spec, row_kets(matrix, "r"))
        assert len(calls) == 1 and np.array_equal(_bits(first), _bits(second))
        kept = matrix.transpose().qr()
        assert matrix.transpose().qr() is kept
        # the factors of the ket-scaled stack: the components' Q, and each column of
        # their R divided by a power of two of its own
        q, r = original(matrix.transpose().components)
        shifts = np.subtract(*(np.frexp(np.abs(x).max(axis=(0, 1)))[1] for x in (r, kept[1])))
        for factor, fresh in zip(kept, (q, np.ldexp(r.view(float), -np.repeat(shifts, 2)))):
            assert not factor.flags.writeable
            assert np.array_equal(factor.view(np.uint64), fresh.view(np.uint64))
        with pytest.raises(ValueError):
            kept[1][0, 0, 0] = 0.0
        # another spec keeps its own route: product by L^H, a fresh QR, a solve
        gram_schmidt(random_spec(np.random.default_rng(73), 5), row_kets(matrix, "r"))
        assert len(calls) == 2

    @pytest.mark.parametrize("fine_first", [True, False])
    def test_pivot_test_follows_each_calls_tolerance(self, fine_first):
        # pivot squares about 1e-14 against 1: regular under eps_null 1e-16, null cone under 1e-12
        matrix = bct.load(GOLDEN / "counter_nullcone_pivot_n2.bct").value
        rows = BicomplexMatrix(matrix.z1, matrix.z2)
        spec = ScalarProductSpec.identity(2)
        fine, coarse = Tolerance(eps_null=1e-16), Tolerance(eps_null=1e-12)
        for tol in (fine, coarse) if fine_first else (coarse, fine):
            if tol is fine:
                assert gram_schmidt(spec, row_kets(rows, "r"), tol)[1].classify(tol) is (
                    KetClassification.REGULAR
                )
            else:
                with pytest.raises(NullConePivot) as info:
                    gram_schmidt(spec, row_kets(rows, "r"), tol)
                assert info.value.index == 1
        assert rows.transpose().qr() is rows.transpose().qr()


class TestMixedBases:
    def test_identity_permutation(self):
        rng = np.random.default_rng(31)
        spec = ScalarProductSpec.identity(3)
        ortho = gram_schmidt(spec, random_basis_kets(rng, 3))
        mixed = mix_orthogonal_bases(spec, ortho, [0, 1, 2])
        for got, expected in zip(mixed.vectors, ortho):
            assert (got - expected).max_norm() <= 1e-12

    def test_swap_still_orthogonal(self):
        rng = np.random.default_rng(37)
        spec = random_spec(rng, 2)
        ortho = gram_schmidt(spec, random_basis_kets(rng, 2))
        mixed = mix_orthogonal_bases(spec, ortho, [1, 0])
        cross = scalar_product(spec, mixed.vectors[0], mixed.vectors[1])
        assert cross.euclid_norm() <= 1e-10

    def test_all_permutations_distinct_and_orthogonal(self):
        rng = np.random.default_rng(41)
        spec = ScalarProductSpec.identity(3)
        ortho = gram_schmidt(spec, random_basis_kets(rng, 3))
        bases = [
            mix_orthogonal_bases(spec, ortho, sigma)
            for sigma in itertools.permutations(range(3))
        ]
        assert len(bases) == 6
        for a, b in itertools.combinations(bases, 2):
            distance = max(
                (x - y).max_norm() for x, y in zip(a.vectors, b.vectors)
            )
            assert distance > 1e-6

    def test_rejects_non_orthogonal_input(self):
        spec = ScalarProductSpec.identity(2)
        kets = [Ket.from_coeffs([1, 1]), Ket.from_coeffs([1, 0])]
        with pytest.raises(NotABasis):
            mix_orthogonal_bases(spec, kets, [1, 0])

    def test_rejects_overflowing_cross_product(self, recwarn):
        # (phi_0, phi_1) = 1e400 is infinite, and so is the bound 1e-10 * 1e200^2
        spec = ScalarProductSpec.identity(2)
        kets = [Ket.from_coeffs([1e200, 0]), Ket.from_coeffs([1e200, 1])]
        with pytest.raises(NotABasis):
            mix_orthogonal_bases(spec, kets, [0, 1])
        assert list(recwarn) == []

    def test_rejects_bad_permutation(self):
        spec = ScalarProductSpec.identity(2)
        kets = [Ket.standard(2, 0), Ket.standard(2, 1)]
        with pytest.raises(ValueError):
            mix_orthogonal_bases(spec, kets, [0, 0])


class TestRiesz:
    def test_identity_spec_unit_functional(self):
        spec = ScalarProductSpec.identity(3)
        psi = riesz_representation(spec, [ONE, ZERO, ZERO])
        assert (psi - Ket.standard(3, 0)).max_norm() <= 1e-12

    def test_zero_functional(self):
        spec = ScalarProductSpec.identity(2)
        assert riesz_representation(spec, [ZERO, ZERO]).max_norm() == 0.0

    def test_random_reconstruction(self):
        rng = np.random.default_rng(43)
        for n in (2, 4):
            spec = random_spec(rng, n)
            for _ in range(20):
                values = [
                    Bicomplex(
                        complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
                    )
                    for _ in range(n)
                ]
                psi = riesz_representation(spec, values)
                for l in range(n):
                    got = scalar_product(spec, psi, Ket.standard(n, l))
                    assert (got - values[l]).euclid_norm() <= 1e-10 * max(
                        1.0, values[l].euclid_norm()
                    )


class TestBasisAndProjections:
    def test_basis_validation(self):
        kets = [Ket.standard(2, 0), Ket.standard(2, 1)]
        basis = Basis("b", kets)
        assert basis.dim == 2
        assert basis.vectors == tuple(kets)
        # equality compares the label and the kets, not the tolerance
        assert basis == Basis("b", tuple(kets), Tolerance(eps_null=1e-10))
        assert basis != Basis("c", tuple(kets))

    def test_null_cone_member_rejected(self):
        kets = [Ket.from_coeffs([E1, ZERO]), Ket.standard(2, 1)]
        with pytest.raises(NotABasis):
            Basis("b", tuple(kets))

    def test_dependent_members_rejected(self):
        kets = [Ket.from_coeffs([1, 1]), Ket.from_coeffs([2, 2])]
        with pytest.raises(NotABasis):
            Basis("b", tuple(kets))

    def test_projections_have_full_rank(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            basis = Basis("b", tuple(random_basis_kets(rng, 4)))
            for k in (1, 2):
                vectors = [ket.components[k - 1] for ket in basis.vectors]
                assert np.linalg.matrix_rank(np.column_stack(vectors)) == 4
