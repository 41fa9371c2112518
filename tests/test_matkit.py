import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ldfeedback.dispersion import format_complex, matrix_to_lines
from ldfeedback.errors import PreconditionError
from ldfeedback.matkit import KEY_LIMIT, Rng, check_unitary, haar_unitaries, hermitian_eig, substream_normals


def parse_complex(token):
    """Read back one a+bi entry of the dispersion-set text format."""
    return complex(token[:-1] + "j")


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
        u = haar_unitaries(1, 4, Rng(8, 1))[0]
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

    @pytest.mark.parametrize("scale, asymmetry, accepted", [(1e6, 1e-6, True), (1e-6, 1e-12, False)],
                             ids=["large-accepted", "small-rejected"])
    def test_hermitian_tolerance_is_relative_to_scale(self, scale, asymmetry, accepted):
        # the residual ||M - M^H|| is held to 1e-9 * ||M||: an asymmetry 1e-12 of the
        # scale passes at any scale, and one of 1e-6 of it fails at any scale
        m = scale * random_hermitian(3, Rng(104, 0))
        m[0, 1] += asymmetry
        if accepted:
            hermitian_eig(m)
        else:
            with pytest.raises(PreconditionError):
                hermitian_eig(m)


def successive_haar_draws(count, n, rng):
    """count Haar unitaries drawn one matrix at a time: the reference for the stacked draw."""
    out = []
    for _ in range(count):
        z = (rng.gen.standard_normal((n, n)) + 1j * rng.gen.standard_normal((n, n))) / math.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        out.append(q * (d / np.abs(d)))
    return np.array(out)


class TestHaarUnitary:
    def test_unitarity(self):
        for n in (1, 2, 4, 6):
            us = haar_unitaries(3, n, Rng(1, n))
            assert us.shape == (3, n, n)
            for u in us:
                assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-12

    def test_scalar_case_unit_modulus(self):
        u = haar_unitaries(1, 1, Rng(2, 0))[0]
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_rejects_zero_dimension(self):
        with pytest.raises(PreconditionError):
            haar_unitaries(1, 0, Rng(1, 0))

    def test_empty_stack(self):
        # the check that every stack passes on its way out holds vacuously for none
        assert haar_unitaries(0, 3, Rng(1, 0)).shape == (0, 3, 3)

    def test_rejects_non_unitary(self, monkeypatch):
        # the family is checked where it is made; a NaN matrix has a NaN residual,
        # which must not pass the tolerance test
        qr = np.linalg.qr
        for bad in (np.ones((4, 4), dtype=complex), np.full((4, 4), np.nan + 0j)):
            monkeypatch.setattr(np.linalg, "qr", lambda a: (np.broadcast_to(bad, a.shape), qr(a)[1]))
            with pytest.raises(PreconditionError, match="Haar unitaries is not unitary"):
                haar_unitaries(2, 4, Rng(1, 0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("count", [1, 6, 2000])
    def test_stack_equals_successive_draws(self, n, count):
        # bit for bit, and the generator is left where the single draws leave it
        stacked_rng, single_rng = Rng(11, n), Rng(11, n)
        stacked = haar_unitaries(count, n, stacked_rng)
        assert np.array_equal(stacked, successive_haar_draws(count, n, single_rng))
        assert stacked_rng.gen.standard_normal(3).tobytes() == single_rng.gen.standard_normal(3).tobytes()

    def test_haar_moment(self):
        # E|U(0,0)|^2 = 1/n for Haar; |U00|^2 ~ Beta(1, n-1) so var = (n-1)/(n^2(n+1))
        n, draws = 4, 100_000
        vals = np.abs(haar_unitaries(draws, n, Rng(42, 0))[:, 0, 0]) ** 2
        se = math.sqrt((n - 1) / (n**2 * (n + 1)) / draws)
        assert abs(vals.mean() - 1.0 / n) <= 3 * se


class TestCheckUnitary:
    def test_accepts_haar_unitary(self):
        check_unitary(haar_unitaries(1, 4, Rng(3, 0))[0], 4, "u")

    @pytest.mark.parametrize("u, message", [
        (np.eye(3), "u must be 4 x 4, got shape \\(3, 3\\)"),
        (2 * np.eye(4), "u is not unitary \\(residual 6.000e\\+00\\)"),
        (np.full((4, 4), np.nan), "u is not unitary \\(residual nan\\)"),
    ], ids=["shape", "scaled", "nan"])
    def test_rejects(self, u, message):
        with pytest.raises(PreconditionError, match=message):
            check_unitary(u, 4, "u")

    def test_accepts_haar_stack_rejects_wrong_shape(self):
        check_unitary(haar_unitaries(4, 4, Rng(3, 1)), 4, "u")
        with pytest.raises(PreconditionError, match="u must be 4 x 4, got shape \\(4, 3, 3\\)"):
            check_unitary(np.zeros((4, 3, 3)), 4, "u")

    @pytest.mark.parametrize("bad, message", [
        (2 * np.eye(4), "u is not unitary \\(residual 6.000e\\+00\\)"),
        (np.full((4, 4), np.nan), "u is not unitary \\(residual nan\\)"),
    ], ids=["scaled", "nan"])
    def test_rejects_one_bad_matrix_in_a_stack(self, bad, message):
        # one call checks all four matrices and names the largest residual
        stack = haar_unitaries(4, 4, Rng(3, 1))
        stack[2] = bad
        with pytest.raises(PreconditionError, match=message):
            check_unitary(stack, 4, "u")


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


class TestSubstreamNormals:
    """The re-keyed generator against the per-substream Rng it replaces, bit for bit."""

    @pytest.mark.parametrize("shape", [(2, 1, 1), (2, 2, 2), (2, 3, 2), (2, 4, 4)])
    @given(
        seed=st.integers(0, KEY_LIMIT - 1),
        # windows anywhere in the stream namespace, and windows that wrap past 2**64 - 1
        first_stream=st.one_of(st.integers(0, KEY_LIMIT - 1), st.integers(KEY_LIMIT - 20, KEY_LIMIT - 1)),
        n=st.integers(0, 20),
    )
    @example(seed=5, first_stream=KEY_LIMIT - 1, n=2)
    @example(seed=5, first_stream=0, n=0)
    @settings(deadline=None)
    def test_rows_equal_rng_draws(self, shape, seed, first_stream, n):
        z = substream_normals(seed, first_stream, n, shape)
        assert z.shape == (n,) + shape
        for i in range(n):
            assert np.array_equal(z[i], Rng(seed, first_stream + i).gen.standard_normal(shape))


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
        back = np.array([[parse_complex(t) for t in line.split()] for line in matrix_to_lines(m)])
        assert np.array_equal(m, back)
