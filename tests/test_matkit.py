import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ldfeedback.errors import PreconditionError
from ldfeedback.matkit import (
    Rng,
    complex_gaussian_matrix,
    format_complex,
    haar_unitary,
    hermitian_eig,
    matrix_from_lines,
    matrix_to_lines,
    parse_complex,
)


def random_hermitian(n, rng):
    a = rng.gen.standard_normal((n, n)) + 1j * rng.gen.standard_normal((n, n))
    return (a + a.conj().T) / 2


def reconstruct(es):
    """V diag(w) V^H for every matrix of the stack."""
    return (es.vectors * es.values[..., None, :]) @ np.swapaxes(es.vectors.conj(), -1, -2)


class TestHermitianEig:
    def test_identity(self):
        es = hermitian_eig(np.eye(3, dtype=complex))
        assert np.allclose(es.values, [1.0, 1.0, 1.0])

    def test_two_by_two_hand_derived(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 -> l in {3, 1}
        es = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex))
        assert np.allclose(es.values, [3.0, 1.0], atol=1e-12)
        assert np.allclose(es.vectors[:, 0], np.array([1.0, 1.0]) / math.sqrt(2), atol=1e-12)
        assert np.allclose(es.vectors[:, 1], np.array([1.0, -1.0]) / math.sqrt(2), atol=1e-12)

    def test_diagonal_reordered_descending(self):
        es = hermitian_eig(np.diag([0.5, 2.0]).astype(complex))
        assert np.allclose(es.values, [2.0, 0.5])
        assert np.allclose(es.vectors[:, 0], [0.0, 1.0])
        assert np.allclose(es.vectors[:, 1], [1.0, 0.0])

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_reconstruction_residual(self, n):
        for stream in range(20):
            m = random_hermitian(n, Rng(101, stream))
            es = hermitian_eig(m)
            assert np.linalg.norm(m - reconstruct(es)) <= 1e-10 * np.linalg.norm(m)
            # unitary eigenvectors
            v = es.vectors
            assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-12
            # non-increasing values
            assert (np.diff(es.values) <= 1e-12).all()

    def test_refactoring_keeps_eigenvalues(self):
        m = random_hermitian(5, Rng(7, 0))
        es = hermitian_eig(m)
        again = hermitian_eig(reconstruct(es))
        assert np.allclose(es.values, again.values, atol=1e-9)

    def test_rotation_invariance(self):
        m = random_hermitian(4, Rng(8, 0))
        u = haar_unitary(4, Rng(8, 1))
        rotated = hermitian_eig(u @ m @ u.conj().T)
        assert np.allclose(rotated.values, hermitian_eig(m).values, atol=1e-9)

    def test_phase_convention(self):
        for stream in range(10):
            es = hermitian_eig(random_hermitian(4, Rng(9, stream)))
            for j in range(4):
                col = es.vectors[:, j]
                idx = int(np.argmax(np.abs(col)))
                assert abs(col[idx].imag) <= 1e-12
                assert col[idx].real >= 0

    def test_rejects_non_square(self):
        with pytest.raises(PreconditionError):
            hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(PreconditionError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_reconstructs_each_matrix(self):
        ms = np.stack([random_hermitian(4, Rng(102, stream)) for stream in range(6)])
        es = hermitian_eig(ms)
        assert es.values.shape == (6, 4) and es.vectors.shape == (6, 4, 4)
        for m, back in zip(ms, reconstruct(es)):
            assert np.linalg.norm(m - back) <= 1e-10 * np.linalg.norm(m)

    def test_stack_rejects_one_non_hermitian_matrix(self):
        ms = np.stack([random_hermitian(3, Rng(103, stream)) for stream in range(4)])
        ms[2, 0, 1] += 1.0
        with pytest.raises(PreconditionError):
            hermitian_eig(ms)


class TestHaarUnitary:
    def test_unitarity(self):
        for n in (1, 2, 4, 6):
            u = haar_unitary(n, Rng(1, n))
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-12

    def test_scalar_case_unit_modulus(self):
        u = haar_unitary(1, Rng(2, 0))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_rejects_zero_dimension(self):
        with pytest.raises(PreconditionError):
            haar_unitary(0, Rng(1, 0))

    def test_haar_moment(self):
        # E|U(0,0)|^2 = 1/n for Haar; |U00|^2 ~ Beta(1, n-1) so var = (n-1)/(n^2(n+1))
        n, draws = 4, 100_000
        rng = Rng(42, 0)
        vals = np.empty(draws)
        for i in range(draws):
            vals[i] = abs(haar_unitary(n, rng)[0, 0]) ** 2
        se = math.sqrt((n - 1) / (n**2 * (n + 1)) / draws)
        assert abs(vals.mean() - 1.0 / n) <= 3 * se


class TestComplexGaussian:
    def test_zero_variance_exact_zero(self):
        assert np.array_equal(complex_gaussian_matrix(Rng(1, 0), np.zeros((2, 3))), np.zeros((2, 3)))

    def test_rejects_negative_variance(self):
        with pytest.raises(PreconditionError):
            complex_gaussian_matrix(Rng(1, 0), np.array([[1.0, -1.0]]))

    def test_moments(self):
        draws = 100_000
        z = complex_gaussian_matrix(Rng(5, 0), np.ones(draws))
        power = np.abs(z) ** 2
        assert abs(power.mean() - 1.0) <= 3 * power.std(ddof=1) / math.sqrt(draws)
        se_component = math.sqrt(0.5 / draws)
        assert abs(z.real.mean()) <= 3 * se_component
        assert abs(z.imag.mean()) <= 3 * se_component

    def test_matrix_zero_mask_entries(self):
        vmask = np.array([[1.0, 0.0], [0.0, 2.0]])
        m = complex_gaussian_matrix(Rng(3, 0), vmask)
        assert m[0, 1] == 0 and m[1, 0] == 0
        assert m[0, 0] != 0 and m[1, 1] != 0


class TestRng:
    def test_same_stream_bit_identical(self):
        a = Rng(1234, 7).gen.standard_normal(100)
        b = Rng(1234, 7).gen.standard_normal(100)
        assert np.array_equal(a, b)

    def test_order_independence_across_workers(self):
        # draw the same substreams in two different interleavings
        serial = {i: Rng(99, i).gen.standard_normal(16) for i in range(8)}
        shuffled = {i: Rng(99, i).gen.standard_normal(16) for i in reversed(range(8))}
        for i in range(8):
            assert np.array_equal(serial[i], shuffled[i])

    def test_streams_differ(self):
        assert not np.array_equal(
            Rng(1, 0).gen.standard_normal(8), Rng(1, 1).gen.standard_normal(8)
        )


class TestComplexTextFormat:
    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
    @settings(max_examples=300)
    def test_round_trip_bit_exact(self, re, im):
        z = complex(re, im)
        back = parse_complex(format_complex(z))
        assert back.real == z.real or (math.isnan(back.real) and math.isnan(z.real))
        assert back.imag == z.imag

    def test_matrix_lines_round_trip(self):
        m = (Rng(11, 0).gen.standard_normal((3, 4)) + 1j * Rng(11, 1).gen.standard_normal((3, 4)))
        back = matrix_from_lines(matrix_to_lines(m), 3, 4)
        assert np.array_equal(m, back)

    def test_rejects_bad_token(self):
        with pytest.raises(ValueError):
            parse_complex("1+2j")
