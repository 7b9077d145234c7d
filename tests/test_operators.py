import cmath
import math

import numpy as np
import pytest

from bicomplex import (
    BasisMismatch,
    Bicomplex,
    BicomplexMatrix,
    Classification,
    EigenPair,
    EvolutionConfig,
    InvalidXi,
    Ket,
    KetClassification,
    NotSelfAdjoint,
    NotUnitary,
    Operator,
    Eigensystem,
    ScalarProductSpec,
    SeriesDivergence,
    adjoint,
    approx_eq,
    compose,
    conjugate_by_basis,
    eigendecompose_self_adjoint,
    eigendecompose_unitary,
    eigenket_orthogonality_check,
    evolution_operator,
    evolve_series,
    gram_schmidt,
    is_self_adjoint,
    is_unitary,
    op_exp,
    op_exp_spectral,
    op_function,
    outer_product,
    scalar_product,
    schrodinger_residual,
    spectral_reconstruct,
)
from bicomplex.checks import check_operator, orthonormal_defect
from bicomplex.core import DEFAULT_TOLERANCE, E1, I1, I2, J, ONE, ZERO, NonFinite
from bicomplex.operators import (
    NORMAL_MIX,
    _cholesky_reduce,
    _component_unitary_eig,
    _hermitian_eigh,
)

from helpers import (
    oracle_pairs,
    oracle_reconstruct,
    random_basis_kets,
    random_ket,
    random_matrix,
    random_self_adjoint,
    random_spec,
    random_well_conditioned,
)


def random_operator(rng, n, basis_id="canonical"):
    return Operator(random_matrix(rng, n), basis_id)


def spec_self_adjoint(rng, spec, basis_id="canonical"):
    """Random operator self-adjoint under an arbitrary spec: G^-1 M^H G = M."""
    parts = []
    for k in (1, 2):
        h = rng.standard_normal((spec.dim, spec.dim)) + 1j * rng.standard_normal(
            (spec.dim, spec.dim)
        )
        gram = spec.gram(k)
        # inv(G) @ S with S Hermitian is G-self-adjoint
        parts.append(np.linalg.solve(gram, 0.5 * (h + h.conj().T)))
    return Operator(BicomplexMatrix.from_components(parts[0], parts[1]), basis_id)


def spec_operator_with_spectrum(rng, spec, values1, values2, basis_id="canonical"):
    """L^-H W diag(v_k) W^H L^H per component: G-normal with eigenvalues v_k."""
    n = spec.dim
    parts = []
    for k, values in ((1, values1), (2, values2)):
        w, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        chol_h = spec.cholesky(k).conj().T
        normal = w @ np.diag(np.asarray(values, dtype=complex)) @ w.conj().T
        parts.append(np.linalg.solve(chol_h, normal @ chol_h))
    return Operator(BicomplexMatrix.from_components(parts[0], parts[1]), basis_id)


class TestComposeAndProject:
    def test_identity_neutral(self):
        rng = np.random.default_rng(3)
        a = random_operator(rng, 4)
        assert (compose(a, Operator.identity(4)).matrix - a.matrix).max_norm() == 0.0

    def test_projection_commutes_with_composition(self):
        rng = np.random.default_rng(5)
        a = random_operator(rng, 5)
        b = random_operator(rng, 5)
        product = compose(a, b)
        for k in (1, 2):
            direct = a.matrix.component(k) @ b.matrix.component(k)
            assert np.abs(product.matrix.component(k) - direct).max() <= 1e-11 * max(
                1.0, float(np.abs(direct).max())
            )

    def test_projection_additive(self):
        rng = np.random.default_rng(7)
        a = random_operator(rng, 5)
        b = random_operator(rng, 5)
        for k in (1, 2):
            lhs = (a + b).matrix.component(k)
            rhs = a.matrix.component(k) + b.matrix.component(k)
            assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, float(np.abs(rhs).max()))

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatch):
            compose(Operator.identity(2, "a"), Operator.identity(2, "b"))

    def test_null_component_stays_null_in_every_basis(self):
        rng = np.random.default_rng(11)
        zero = np.zeros((3, 3), dtype=complex)
        live = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        op = Operator(BicomplexMatrix.from_components(zero, live))
        transform = random_well_conditioned(rng, 3)
        moved = conjugate_by_basis(op, transform)
        assert float(np.abs(moved.matrix.component(1)).max()) <= 1e-12 * moved.matrix.max_norm()


class TestConjugateByBasis:
    def test_identity_transform(self):
        rng = np.random.default_rng(13)
        a = random_operator(rng, 3)
        moved = conjugate_by_basis(a, BicomplexMatrix.identity(3))
        assert (moved.matrix - a.matrix).max_norm() <= 1e-14

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        a = random_operator(rng, 4)
        transform = random_well_conditioned(rng, 4)
        there = conjugate_by_basis(a, transform)
        back = conjugate_by_basis(there, transform.inverse().matrix)
        assert (back.matrix - a.matrix).max_norm() <= 1e-10 * max(1.0, a.matrix.max_norm())

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(19)
        spec = ScalarProductSpec.identity(4)
        h = random_self_adjoint(rng, 4)
        values = sorted(
            (p.value.to_idempotent().c1.real, p.value.to_idempotent().c2.real)
            for p in eigendecompose_self_adjoint(spec, h)
        )
        transform = random_well_conditioned(rng, 4, cond_cap=20)
        moved = conjugate_by_basis(h, transform)
        moved_components = [np.linalg.eigvals(moved.matrix.component(k)) for k in (1, 2)]
        for index, k in ((0, 0), (1, 1)):
            got = np.sort_complex(moved_components[k])
            expected = np.array(sorted(v[index] for v in values))
            assert np.abs(got - expected).max() <= 1e-8 * max(1.0, np.abs(expected).max())


class TestAdjoint:
    def test_one_by_one_i2(self):
        spec = ScalarProductSpec.identity(1)
        op = Operator(BicomplexMatrix.from_entries([[I2]]))
        assert approx_eq(adjoint(spec, op).matrix.entry(0, 0), -I2)

    def test_involution(self):
        rng = np.random.default_rng(23)
        spec = random_spec(rng, 4)
        a = random_operator(rng, 4)
        twice = adjoint(spec, adjoint(spec, a))
        assert (twice.matrix - a.matrix).max_norm() <= 1e-10 * max(1.0, a.matrix.max_norm())

    def test_defining_relation(self):
        rng = np.random.default_rng(29)
        spec = random_spec(rng, 4)
        a = random_operator(rng, 4)
        star = adjoint(spec, a)
        for _ in range(20):
            psi, phi = random_ket(rng, 4), random_ket(rng, 4)
            lhs = scalar_product(spec, psi, a.apply(phi))
            rhs = scalar_product(spec, star.apply(psi), phi)
            assert (lhs - rhs).euclid_norm() <= 1e-10 * max(1.0, lhs.euclid_norm())

    def test_product_reversal_and_scalar_conjugation(self):
        rng = np.random.default_rng(31)
        spec = random_spec(rng, 3)
        a, b = random_operator(rng, 3), random_operator(rng, 3)
        lhs = adjoint(spec, compose(a, b))
        rhs = compose(adjoint(spec, b), adjoint(spec, a))
        assert (lhs.matrix - rhs.matrix).max_norm() <= 1e-10 * max(1.0, lhs.matrix.max_norm())

        s = Bicomplex(complex(0.5, 1.0), complex(-0.25, 2.0))
        t = Bicomplex(complex(-1.5, 0.25), complex(0.75, -0.5))
        lhs = adjoint(spec, a.scale(s) + b.scale(t))
        rhs = adjoint(spec, a).scale(s.conjugate(3)) + adjoint(spec, b).scale(t.conjugate(3))
        assert (lhs.matrix - rhs.matrix).max_norm() <= 1e-10 * max(1.0, lhs.matrix.max_norm())

    def test_projection_compatible(self):
        rng = np.random.default_rng(37)
        spec = random_spec(rng, 3)
        a = random_operator(rng, 3)
        star = adjoint(spec, a)
        for k in (1, 2):
            gram = spec.gram(k)
            direct = np.linalg.solve(gram, a.matrix.component(k).conj().T @ gram)
            assert np.abs(star.matrix.component(k) - direct).max() <= 1e-11


class TestOuterProduct:
    def test_action_matches_definition(self):
        rng = np.random.default_rng(41)
        spec = random_spec(rng, 3)
        phi, psi = random_ket(rng, 3), random_ket(rng, 3)
        op = outer_product(spec, phi, psi)
        for _ in range(10):
            chi = random_ket(rng, 3)
            lhs = op.apply(chi)
            rhs = phi.scale(scalar_product(spec, psi, chi))
            assert (lhs - rhs).sup_norm() <= 1e-12 * max(1.0, rhs.sup_norm())

    def test_projector_squares_to_itself(self):
        spec = ScalarProductSpec.identity(2)
        u = Ket.standard(2, 0)
        projector = outer_product(spec, u, u)
        assert (compose(projector, projector).matrix - projector.matrix).max_norm() <= 1e-14

    def test_completeness_over_orthonormal_basis(self):
        rng = np.random.default_rng(43)
        spec = random_spec(rng, 4)
        basis = gram_schmidt(spec, random_basis_kets(rng, 4))
        total = outer_product(spec, basis[0], basis[0])
        for ket in basis[1:]:
            total = total + outer_product(spec, ket, ket)
        assert (total.matrix - BicomplexMatrix.identity(4)).max_norm() <= 1e-10


class TestPredicates:
    def test_j_scalar_self_adjoint(self):
        spec = ScalarProductSpec.identity(1)
        assert is_self_adjoint(spec, Operator(BicomplexMatrix.from_entries([[J]])))

    def test_phase_unitary(self):
        spec = ScalarProductSpec.identity(1)
        phase = Bicomplex(cmath.exp(0.7j))
        assert is_unitary(spec, Operator(BicomplexMatrix.from_entries([[phase]])))

    def test_null_cone_operator_never_unitary(self):
        rng = np.random.default_rng(47)
        spec = ScalarProductSpec.identity(3)
        live = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        null_cone_op = Operator(
            BicomplexMatrix.from_components(np.zeros((3, 3), dtype=complex), live)
        )
        assert not is_unitary(spec, null_cone_op)

    def test_unitary_preserves_scalar_products(self):
        rng = np.random.default_rng(53)
        spec = ScalarProductSpec.identity(3)
        u = op_exp(random_self_adjoint(rng, 3).scale(I1))
        for _ in range(10):
            psi, phi = random_ket(rng, 3), random_ket(rng, 3)
            lhs = scalar_product(spec, u.apply(psi), u.apply(phi))
            rhs = scalar_product(spec, psi, phi)
            assert (lhs - rhs).euclid_norm() <= 1e-10 * max(1.0, rhs.euclid_norm())


class TestEigendecomposeSelfAdjoint:
    def test_real_diagonal(self):
        spec = ScalarProductSpec.identity(3)
        h = Operator(BicomplexMatrix.diagonal([Bicomplex(-1.0), Bicomplex(0.5), Bicomplex(2.0)]))
        pairs = eigendecompose_self_adjoint(spec, h)
        values = [p.value for p in pairs]
        assert approx_eq(values[0], Bicomplex(-1.0))
        assert approx_eq(values[1], Bicomplex(0.5))
        assert approx_eq(values[2], Bicomplex(2.0))
        for index, pair in enumerate(pairs):
            assert pair.ket.classify() is KetClassification.REGULAR
            residual = (h.apply(pair.ket) - pair.ket.scale(pair.value)).sup_norm()
            assert residual <= 1e-12

    def test_j_operator(self):
        # component problems are 1x1 with values 1 and -1, so lambda = j
        spec = ScalarProductSpec.identity(1)
        pairs = eigendecompose_self_adjoint(spec, Operator(BicomplexMatrix.from_entries([[J]])))
        assert approx_eq(pairs[0].value, J)
        assert pairs[0].ket.classify() is KetClassification.REGULAR

    def test_reconstruction_random(self):
        rng = np.random.default_rng(59)
        for n in (2, 5, 8):
            spec = ScalarProductSpec.identity(n)
            h = random_self_adjoint(rng, n)
            pairs = eigendecompose_self_adjoint(spec, h)
            rebuilt = spectral_reconstruct(spec, pairs)
            assert (rebuilt.matrix - h.matrix).max_norm() <= 1e-9

    def test_general_spec(self):
        rng = np.random.default_rng(61)
        spec = random_spec(rng, 4)
        h = spec_self_adjoint(rng, spec)
        assert is_self_adjoint(spec, h)
        pairs = eigendecompose_self_adjoint(spec, h)
        for i in range(4):
            for j in range(i, 4):
                product = scalar_product(spec, pairs[i].ket, pairs[j].ket)
                target = ONE if i == j else Bicomplex(0)
                assert (product - target).euclid_norm() <= 1e-10
        rebuilt = spectral_reconstruct(spec, pairs)
        assert (rebuilt.matrix - h.matrix).max_norm() <= 1e-9 * max(1.0, h.matrix.max_norm())

    def test_eigenvalues_hyperbolic(self):
        rng = np.random.default_rng(67)
        spec = ScalarProductSpec.identity(5)
        pairs = eigendecompose_self_adjoint(spec, random_self_adjoint(rng, 5))
        for pair in pairs:
            form = pair.value.to_idempotent()
            assert abs(form.c1.imag) <= 1e-10 and abs(form.c2.imag) <= 1e-10

    def test_degenerate_spectrum(self):
        spec = ScalarProductSpec.identity(3)
        h = Operator(BicomplexMatrix.diagonal([Bicomplex(2.0), Bicomplex(2.0), Bicomplex(5.0)]))
        pairs = eigendecompose_self_adjoint(spec, h)
        for i in range(3):
            for j in range(i + 1, 3):
                cross = scalar_product(spec, pairs[i].ket, pairs[j].ket)
                assert cross.euclid_norm() <= 1e-12

    def test_repeated_cluster_general_spec(self):
        # an exactly repeated eigenvalue leaves the eigenbasis of its
        # cluster free; the eigensolver must still return it orthonormal
        rng = np.random.default_rng(173)
        spec = random_spec(rng, 6)
        values1 = [-3.0, 1.5, 1.5, 1.5, 2.0, 4.0]
        values2 = [0.5, 0.5, 0.5, 0.5, -1.0, 7.0]
        h = spec_operator_with_spectrum(rng, spec, values1, values2)
        assert is_self_adjoint(spec, h)
        pairs = eigendecompose_self_adjoint(spec, h)
        assert orthonormal_defect(spec, [pair.ket for pair in pairs]) <= 1e-10
        for k, expected in ((1, values1), (2, values2)):
            got = [pair.value.to_idempotent()[k - 1] for pair in pairs]
            assert np.abs(np.array(got) - np.sort(expected)).max() <= 1e-12
        rebuilt = spectral_reconstruct(spec, pairs)
        assert (rebuilt.matrix - h.matrix).max_norm() <= 1e-9 * max(1.0, h.matrix.max_norm())

    def test_rejects_non_self_adjoint(self):
        spec = ScalarProductSpec.identity(2)
        skew = Operator(BicomplexMatrix.from_entries([[ZERO, ONE], [-ONE, ZERO]]))
        with pytest.raises(NotSelfAdjoint):
            eigendecompose_self_adjoint(spec, skew)


class TestSpectralReconstruct:
    def test_single_projector(self):
        spec = ScalarProductSpec.identity(2)
        u = Ket.standard(2, 0)
        from bicomplex import EigenPair

        op = spectral_reconstruct(spec, [EigenPair(ONE, u)])
        assert (op.matrix - outer_product(spec, u, u).matrix).max_norm() == 0.0

    def test_zero_eigenvalue_gives_null_or_zero_det(self):
        spec = ScalarProductSpec.identity(2)
        from bicomplex import EigenPair

        pairs = [EigenPair(ZERO, Ket.standard(2, 0)), EigenPair(ONE, Ket.standard(2, 1))]
        op = spectral_reconstruct(spec, pairs)
        assert op.matrix.det().classify() in (
            Classification.ZERO,
            Classification.NULL_CONE_1,
            Classification.NULL_CONE_2,
        )


def _spectrum(kind, spec_kind, n=5, seed=181):
    """(spec, eigensystem, the raw (2, m) and (2, n, m) component stacks) of a random operator."""
    rng = np.random.default_rng(seed)
    spec = ScalarProductSpec.identity(n) if spec_kind == "identity" else random_spec(rng, n)
    if kind == "self-adjoint":
        h = spec_self_adjoint(rng, spec)
        return spec, eigendecompose_self_adjoint(spec, h), _hermitian_eigh(spec, h.matrix)
    phases = [np.exp(1j * rng.uniform(-3.0, 3.0, n)) for _ in range(2)]
    u = spec_operator_with_spectrum(rng, spec, *phases)
    stacks = zip(*map(_component_unitary_eig, *_cholesky_reduce(spec, u.matrix)))
    return spec, eigendecompose_unitary(spec, u), tuple(map(np.stack, stacks))


def _bits(pair: EigenPair) -> tuple:
    """Every bit of a pair: eigenvalue parts, eigenket parts, basis label."""
    value = np.array([pair.value.z1, pair.value.z2]).view(np.uint64)
    ket = np.concatenate([pair.ket.z1, pair.ket.z2]).view(np.uint64)
    return value.tolist(), ket.tolist(), pair.ket.basis_id


SPECTRA = [(kind, spec) for kind in ("self-adjoint", "unitary") for spec in ("identity", "random")]


class TestEigensystem:
    @pytest.mark.parametrize("kind, spec_kind", SPECTRA)
    def test_reconstruct_matches_pairwise_oracle(self, kind, spec_kind):
        spec, system, _ = _spectrum(kind, spec_kind)
        pairs = list(system)
        for count in range(1, len(system) + 1):
            expected = oracle_reconstruct(spec, pairs[:count]).matrix
            scale = max(1.0, expected.max_norm())
            for head in (system[:count], pairs[:count]):
                rebuilt = spectral_reconstruct(spec, head)
                assert (rebuilt.matrix - expected).max_norm() <= 1e-12 * scale

    @pytest.mark.parametrize("kind, spec_kind", SPECTRA)
    def test_sequence_view_bit_identical_to_pairwise_join(self, kind, spec_kind):
        _, system, (values, vectors) = _spectrum(kind, spec_kind)
        expected = [_bits(pair) for pair in oracle_pairs(values, vectors, "canonical")]
        n = len(expected)
        assert len(system) == n
        assert [_bits(pair) for pair in system] == expected
        for index in range(-n, n):
            assert _bits(system[index]) == expected[index]
        assert [_bits(pair) for pair in system[1:-1]] == expected[1:-1]
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                system[index]

    def test_stacks_any_pair_sequence_once(self):
        _, system, _ = _spectrum("self-adjoint", "random")
        again = Eigensystem.of(list(system))
        assert Eigensystem.of(system) is system
        assert np.array_equal(again.values, system.values)
        assert np.array_equal(again.kets, system.kets)

    def test_rejects_mixed_bases_and_empty(self):
        spec = ScalarProductSpec.identity(2)
        pairs = [EigenPair(ONE, Ket.standard(2, 0)), EigenPair(ONE, Ket.standard(2, 1, "other"))]
        with pytest.raises(BasisMismatch):
            spectral_reconstruct(spec, pairs)
        with pytest.raises(ValueError):
            spectral_reconstruct(spec, [])


class TestOrthogonalityCheck:
    def test_distinct_eigenvalues_constrained(self):
        rng = np.random.default_rng(71)
        spec = ScalarProductSpec.identity(4)
        pairs = eigendecompose_self_adjoint(spec, random_self_adjoint(rng, 4))
        report = eigenket_orthogonality_check(spec, pairs)
        assert report.passed
        assert report.max_constrained_residual <= 1e-10

    def test_null_cone_gap_reported_unconstrained(self):
        from bicomplex import EigenPair

        spec = ScalarProductSpec.identity(2)
        # eigenvalue difference c*e1 sits in the null cone: no constraint
        pairs = [
            EigenPair(Bicomplex.from_idempotent(1.0, 2.0), Ket.standard(2, 0)),
            EigenPair(Bicomplex.from_idempotent(3.0, 2.0), Ket.standard(2, 0)),
        ]
        report = eigenket_orthogonality_check(spec, pairs)
        assert report.unconstrained_pairs == [(0, 1)]
        assert report.passed

    def test_unitary_eigenkets(self):
        rng = np.random.default_rng(73)
        spec = ScalarProductSpec.identity(4)
        u = op_exp(random_self_adjoint(rng, 4).scale(I1))
        pairs = eigendecompose_unitary(spec, u)
        report = eigenket_orthogonality_check(spec, pairs)
        assert report.passed


class TestOpFunction:
    def test_zero_series(self):
        rng = np.random.default_rng(79)
        a = random_operator(rng, 3)
        result = op_function(a, iter(lambda: ZERO, None))
        assert result.matrix.max_norm() == 0.0

    def test_geometric_series_matches_inverse(self):
        rng = np.random.default_rng(83)
        a = random_operator(rng, 3).scale(0.05)
        series = op_function(a, (ONE for _ in range(10**6)))
        identity = BicomplexMatrix.identity(3)
        direct = (identity - a.matrix).inverse().matrix
        assert (series.matrix - direct).max_norm() <= 1e-8

    def test_component_identity(self):
        rng = np.random.default_rng(89)
        a = random_operator(rng, 3).scale(0.1)
        coeffs = [
            Bicomplex(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
            for _ in range(8)
        ]
        result = op_function(a, coeffs)
        for k in (1, 2):
            expected = np.zeros((3, 3), dtype=complex)
            power = np.eye(3, dtype=complex)
            for index, c in enumerate(coeffs):
                if index > 0:
                    power = power @ a.matrix.component(k)
                expected += c.to_idempotent()[k - 1] * power
            assert np.abs(result.matrix.component(k) - expected).max() <= 1e-12

    def test_divergence_detected(self):
        rng = np.random.default_rng(97)
        a = random_operator(rng, 2).scale(3.0)
        with pytest.raises(SeriesDivergence):
            op_function(a, (ONE for _ in range(10**6)), max_terms=50)


class TestOpExp:
    def test_exp_zero(self):
        zero = Operator(BicomplexMatrix.zeros(3))
        assert (op_exp(zero).matrix - BicomplexMatrix.identity(3)).max_norm() == 0.0

    def test_additivity_on_commuting(self):
        rng = np.random.default_rng(101)
        a = random_operator(rng, 3)
        double = op_exp(a.scale(2.0))
        squared = compose(op_exp(a), op_exp(a))
        assert (double.matrix - squared.matrix).max_norm() <= 1e-9 * max(
            1.0, double.matrix.max_norm()
        )

    def test_exp_i1_h_unitary(self):
        rng = np.random.default_rng(103)
        spec = ScalarProductSpec.identity(4)
        for _ in range(10):
            u = op_exp(random_self_adjoint(rng, 4).scale(I1))
            defect = compose(adjoint(spec, u), u).matrix - BicomplexMatrix.identity(4)
            assert defect.max_norm() <= 1e-9

    def test_derivative_matches_generator(self):
        rng = np.random.default_rng(107)
        a = random_operator(rng, 3)
        t, step = 0.3, 1e-5
        plus = op_exp(a.scale(t + step)).matrix
        minus = op_exp(a.scale(t - step)).matrix
        derivative = (plus - minus).scale(1.0 / (2 * step))
        direct = a.matrix @ op_exp(a.scale(t)).matrix
        assert (derivative - direct).max_norm() <= 1e-6 * max(1.0, direct.max_norm())

    def test_matches_series(self):
        rng = np.random.default_rng(109)
        a = random_operator(rng, 3).scale(0.2)
        factorial_coeffs = (Bicomplex(1 / math.factorial(k)) for k in range(60))
        series = op_function(a, factorial_coeffs)
        assert (series.matrix - op_exp(a).matrix).max_norm() <= 1e-12

    def test_norm_past_two_to_the_1023(self):
        # strictly upper triangular, so exp(N) = I + N; the 1-norm 1.2e308
        # needs 1025 squarings, past the largest power of two a float holds
        nilpotent = np.zeros((3, 3), dtype=complex)
        nilpotent[:2, 2] = 6e307
        a = Operator(BicomplexMatrix(nilpotent, np.zeros((3, 3))))
        expected = BicomplexMatrix.identity(3) + a.matrix
        assert op_exp(a).matrix == expected

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_component_raises(self):
        # component 1 = z1 - i1*z2 overflows to inf
        big = np.full((2, 2), 1e308, dtype=complex)
        a = Operator(BicomplexMatrix(big, -1j * big))
        with pytest.raises(NonFinite):
            op_exp(a)

    def test_spectral_path_agrees(self):
        rng = np.random.default_rng(113)
        spec = ScalarProductSpec.identity(4)
        h = random_self_adjoint(rng, 4)
        fast = op_exp(h)
        spectral = op_exp_spectral(spec, h)
        assert (fast.matrix - spectral.matrix).max_norm() <= 1e-9 * max(
            1.0, fast.matrix.max_norm()
        )


class TestEigendecomposeUnitary:
    def test_unit_modulus_eigenvalues(self):
        rng = np.random.default_rng(127)
        spec = ScalarProductSpec.identity(4)
        u = op_exp(random_self_adjoint(rng, 4).scale(I1))
        pairs = eigendecompose_unitary(spec, u)
        for pair in pairs:
            assert (pair.value.conjugate(3) * pair.value - ONE).euclid_norm() <= 1e-9
            residual = (u.apply(pair.ket) - pair.ket.scale(pair.value)).sup_norm()
            assert residual <= 1e-9

    def test_adjoint_action_on_eigenkets(self):
        rng = np.random.default_rng(131)
        spec = ScalarProductSpec.identity(3)
        u = op_exp(random_self_adjoint(rng, 3).scale(I1))
        star = adjoint(spec, u)
        for pair in eigendecompose_unitary(spec, u):
            lhs = star.apply(pair.ket)
            rhs = pair.ket.scale(pair.value.conjugate(3))
            assert (lhs - rhs).sup_norm() <= 1e-9

    def test_degenerate_hermitian_part_general_spec(self):
        # e^{+-ia} share a Hermitian part, and e^{ic} repeats: only the
        # skew part separates the first pairs, and nothing the last one
        rng = np.random.default_rng(179)
        spec = random_spec(rng, 6)
        phases1 = [0.7, -0.7, 1.9, -1.9, 2.6, 2.6]
        phases2 = [-2.2, 2.2, 0.3, -0.3, 1.1, 1.1]
        u = spec_operator_with_spectrum(
            rng, spec, np.exp(1j * np.array(phases1)), np.exp(1j * np.array(phases2))
        )
        pairs = eigendecompose_unitary(spec, u)
        assert orthonormal_defect(spec, [pair.ket for pair in pairs]) <= 1e-10
        for k, expected in ((1, phases1), (2, phases2)):
            got = [cmath.phase(pair.value.to_idempotent()[k - 1]) for pair in pairs]
            assert np.abs(np.array(got) - np.sort(expected)).max() <= 1e-12
        results, notes = check_operator(u, spec, DEFAULT_TOLERANCE)
        assert "spectral-class: unitary" in notes
        assert [r.name for r in results if not r.passed] == []

    @pytest.mark.parametrize("general", [False, True])
    def test_mirrored_about_mix_direction(self, general):
        # e^{i(atan(m) +- 0.5)} have one value under herm + m*skew; the
        # Hermitian part must split that cluster
        rng = np.random.default_rng(181)
        spec = random_spec(rng, 3) if general else ScalarProductSpec.identity(3)
        phases = [math.atan(NORMAL_MIX) + 0.5, math.atan(NORMAL_MIX) - 0.5, 2.0]
        values = np.exp(1j * np.array(phases))
        u = spec_operator_with_spectrum(rng, spec, values, values[::-1])
        pairs = eigendecompose_unitary(spec, u)
        assert orthonormal_defect(spec, [pair.ket for pair in pairs]) <= 1e-10
        for k in (1, 2):
            got = [cmath.phase(pair.value.to_idempotent()[k - 1]) for pair in pairs]
            assert np.abs(np.array(got) - np.sort(phases)).max() <= 1e-12
        for pair in pairs:
            residual = (u.apply(pair.ket) - pair.ket.scale(pair.value)).sup_norm()
            assert residual <= 1e-10 * max(1.0, u.matrix.max_norm())
        results, notes = check_operator(u, spec, DEFAULT_TOLERANCE)
        assert "spectral-class: unitary" in notes
        assert [r.name for r in results if not r.passed] == []

    def test_rejects_non_unitary(self):
        spec = ScalarProductSpec.identity(2)
        with pytest.raises(NotUnitary):
            eigendecompose_unitary(spec, Operator(BicomplexMatrix.diagonal([ONE, ONE * 2])))


class TestEvolution:
    def test_frozen_time_is_identity(self):
        rng = np.random.default_rng(137)
        h = random_self_adjoint(rng, 3)
        cfg = EvolutionConfig(hbar=1.0, t0=0.5, t1=0.5, steps=3)
        u = evolution_operator(cfg, h)
        assert (u.matrix - BicomplexMatrix.identity(3)).max_norm() == 0.0

    def test_scalar_pi_rotation(self):
        # 1x1 Hamiltonian [[1]] over a pi interval: exp(-i1 pi) = -1
        h = Operator(BicomplexMatrix.from_entries([[ONE]]))
        cfg = EvolutionConfig(hbar=1.0, t0=0.0, t1=math.pi, steps=2)
        u = evolution_operator(cfg, h)
        assert (u.matrix.entry(0, 0) - Bicomplex(-1)).euclid_norm() <= 1e-12

    def test_norm_conserved_along_samples(self):
        rng = np.random.default_rng(139)
        spec = ScalarProductSpec.identity(4)
        h = random_self_adjoint(rng, 4)
        psi = random_ket(rng, 4)
        cfg = EvolutionConfig(hbar=0.7, t0=-1.0, t1=2.0, steps=50)
        base = scalar_product(spec, psi, psi).to_idempotent()
        for _, ket in evolve_series(cfg, h, psi):
            now = scalar_product(spec, ket, ket).to_idempotent()
            scale = max(1.0, abs(base.c1), abs(base.c2))
            assert abs(now.c1 - base.c1) <= 1e-9 * scale
            assert abs(now.c2 - base.c2) <= 1e-9 * scale

    def test_semigroup_property(self):
        rng = np.random.default_rng(149)
        h = random_self_adjoint(rng, 4)
        t0, t1, t2 = 0.0, 0.8, 1.7
        first = evolution_operator(EvolutionConfig(1.0, t0, t1, 2), h)
        second = evolution_operator(EvolutionConfig(1.0, t1, t2, 2), h)
        direct = evolution_operator(EvolutionConfig(1.0, t0, t2, 2), h)
        assert (compose(second, first).matrix - direct.matrix).max_norm() <= 1e-9

    def test_unitary_eigenvalues_of_propagator(self):
        rng = np.random.default_rng(151)
        spec = ScalarProductSpec.identity(4)
        h = random_self_adjoint(rng, 4)
        u = evolution_operator(EvolutionConfig(1.0, 0.0, 1.3, 2), h)
        for pair in eigendecompose_unitary(spec, u):
            assert (pair.value.conjugate(3) * pair.value - ONE).euclid_norm() <= 1e-9

    def test_xi_folding_matches_direct(self):
        rng = np.random.default_rng(157)
        h = random_self_adjoint(rng, 3)
        xi = Bicomplex.from_idempotent(2.0, 0.5)
        folded = evolution_operator(EvolutionConfig(1.0, 0.0, 1.0, 2, xi=xi), h)
        direct = evolution_operator(EvolutionConfig(1.0, 0.0, 1.0, 2), h.scale(xi.inverse()))
        assert (folded.matrix - direct.matrix).max_norm() <= 1e-10

    def test_invalid_xi(self):
        with pytest.raises(InvalidXi):
            EvolutionConfig(1.0, 0.0, 1.0, 2, xi=I2)  # not kind-3 symmetric
        with pytest.raises(InvalidXi):
            EvolutionConfig(1.0, 0.0, 1.0, 2, xi=E1)  # null cone

    def test_non_self_adjoint_rejected(self):
        rng = np.random.default_rng(163)
        cfg = EvolutionConfig(1.0, 0.0, 1.0, 2)
        with pytest.raises(NotSelfAdjoint):
            evolution_operator(cfg, random_operator(rng, 3))

    def test_schrodinger_residual_small(self):
        rng = np.random.default_rng(167)
        h = random_self_adjoint(rng, 3)
        psi = random_ket(rng, 3)
        cfg = EvolutionConfig(hbar=1.3, t0=0.0, t1=1.5, steps=7)
        assert schrodinger_residual(cfg, h, psi) <= 1e-5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(hbar=0.0, t0=0.0, t1=1.0, steps=2)
        with pytest.raises(ValueError):
            EvolutionConfig(hbar=1.0, t0=0.0, t1=1.0, steps=0)


def _ket_relative(got: Ket, expected: Ket) -> float:
    return (got - expected).sup_norm() / max(expected.sup_norm(), 1e-300)


def _oracle_propagator(h_eff: Operator, hbar: float, elapsed: float) -> Operator:
    """exp(-i1 (t - t0) H' / hbar) by scaling and squaring."""
    return op_exp(h_eff.scale(Bicomplex(complex(0.0, -elapsed / hbar))))


class TestSpectralPropagator:
    """The eigenbasis propagator against the scaling-and-squaring oracle."""

    XI = Bicomplex.from_idempotent(1.6, 0.7)

    def problem(self, seed, xi):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, 4)
        h = spec_self_adjoint(rng, spec)
        h_eff = h if xi is None else h.scale(xi.inverse())
        return spec, h, h_eff, random_ket(rng, 4)

    @pytest.mark.parametrize("xi", [None, XI])
    def test_series_matches_oracle(self, xi):
        spec, h, h_eff, psi = self.problem(191, xi)
        cfg = EvolutionConfig(hbar=0.8, t0=-1.0, t1=2.0, steps=13, xi=xi)
        for t, ket in evolve_series(cfg, h, psi, spec):
            expected = _oracle_propagator(h_eff, cfg.hbar, t - cfg.t0).apply(psi)
            assert _ket_relative(ket, expected) <= 1e-9

    @pytest.mark.parametrize("xi", [None, XI])
    @pytest.mark.parametrize("t1", [-3.0, 0.4, 3.0])
    def test_operator_matches_oracle(self, xi, t1):
        spec, h, h_eff, _ = self.problem(193, xi)
        cfg = EvolutionConfig(hbar=1.3, t0=0.0, t1=t1, steps=2, xi=xi)
        got = evolution_operator(cfg, h, spec).matrix
        expected = _oracle_propagator(h_eff, cfg.hbar, t1).matrix
        assert (got - expected).max_norm() <= 1e-9 * expected.max_norm()

    @pytest.mark.parametrize("xi", [None, XI])
    def test_residual_routes_agree(self, xi):
        spec, h, h_eff, psi = self.problem(197, xi)
        cfg = EvolutionConfig(hbar=0.9, t0=0.5, t1=3.5, steps=9, xi=xi)
        step = 1e-5
        oracle = 0.0
        for t in cfg.sample_times():
            elapsed = t - cfg.t0
            ahead = _oracle_propagator(h_eff, cfg.hbar, elapsed + step).apply(psi)
            behind = _oracle_propagator(h_eff, cfg.hbar, elapsed - step).apply(psi)
            rhs = h_eff.apply(_oracle_propagator(h_eff, cfg.hbar, elapsed).apply(psi))
            lhs = (ahead - behind).scale(Bicomplex(complex(0.0, cfg.hbar / (2.0 * step))))
            oracle = max(oracle, _ket_relative(lhs, rhs))
        assert oracle <= 1e-5
        assert schrodinger_residual(cfg, h, psi, spec, step=step) <= 1e-5

    def test_long_window_stays_unitary(self):
        # the scaling-and-squaring propagator drifts off unitarity roughly
        # in proportion to t; the eigenbasis one does not
        spec, h, _, psi = self.problem(199, self.XI)
        cfg = EvolutionConfig(hbar=1.0, t0=0.0, t1=1e6, steps=100, xi=self.XI)
        base = scalar_product(spec, psi, psi).to_idempotent()
        scale = max(1.0, abs(base.c1), abs(base.c2))
        for _, ket in evolve_series(cfg, h, psi, spec):
            now = scalar_product(spec, ket, ket).to_idempotent()
            assert max(abs(now.c1 - base.c1), abs(now.c2 - base.c2)) <= 1e-9 * scale
        assert schrodinger_residual(cfg, h, psi, spec) <= 1e-5
        u = evolution_operator(cfg, h, spec)
        assert is_unitary(spec, u)

    def test_frozen_sample_is_input(self):
        spec, h, _, psi = self.problem(211, None)
        cfg = EvolutionConfig(hbar=1.0, t0=0.25, t1=0.25, steps=3)
        for t, ket in evolve_series(cfg, h, psi, spec):
            assert t == 0.25
            assert np.array_equal(ket.z1, psi.z1) and np.array_equal(ket.z2, psi.z2)
