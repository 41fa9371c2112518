import hashlib
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


def eigen_residual(m, value, vector):
    """||M v - lambda v|| of each matrix of the stack."""
    return np.linalg.norm((m @ vector[..., None])[..., 0] - value[..., None] * vector, axis=-1)


def reconstruct(m, value, vector):
    """lambda v v^H plus numpy's other n - 1 eigenpairs of each matrix: m again iff (lambda, v) is its top pair."""
    w, u = np.linalg.eigh(m)
    rest = (u[..., :-1] * w[..., None, :-1]) @ np.swapaxes(u[..., :-1].conj(), -1, -2)
    return value[..., None, None] * (vector[..., :, None] * vector[..., None, :].conj()) + rest


def top_pair_cases():
    """The stacks the top-pair digests were recorded on: 50 random Gram matrices for each n."""
    for n in range(1, 9):
        z = Rng(40, n).gen.standard_normal((2, 50, n, n))
        h = z[0] + 1j * z[1]
        yield f"gram{n}", np.swapaxes(h.conj(), -1, -2) @ h
    yield "identity", np.eye(4, dtype=complex)
    yield "zero", np.zeros((4, 4), dtype=complex)


# sha256 of the values and of the vectors bytes, recorded from values[..., 0] and
# vectors[..., :, 0] of the full sorted, phase-fixed eigendecomposition this
# function returned before it was trimmed to the top pair
TOP_PAIR_DIGESTS = {
    "gram1": ("8bb2e2be38c84afcb77033da84733cd15000d5101f033b654a7512a66055d8cc",
              "35eb412b9455d5cb9ac7a28edb1e9c04d742c16211305b3230891cdb4abd4960"),
    "gram2": ("8a8c5460ebd942fd85a4356bdd5ad839dc2e888692d5bd8f2ee4160d1945ad46",
              "5a55b3ffd4f9a48c59ad077929e279d74b19483ddbfd2a926d11dd57ef9d45f8"),
    "gram3": ("40150c5cb9a31461fe3d4acc4fa76046a4caebb8c7910fc254bca585a7af23d0",
              "7d5206f40cd9b154f97e244d7509539a50cee732bcac0adc1957664cac07842d"),
    "gram4": ("a25f444ad1b5a186d6fbce457eea1f5b9d3ce8406057f9f4fbce9fa3fa663669",
              "c59557d79e8584634013732a9b5b55511f6ae80f8408b755df413505a90d09be"),
    "gram5": ("145fb9e8ee4d26b3b2b89c02d5e3b200fd0fd26f9d0d5c243d7f68b1c5df4136",
              "e311562f568a164c26ccb4e83b2624c723329aee1721f00ed3ab729863c3d7d5"),
    "gram6": ("b4059d7917d57717368c1c6dc637be813b58facf8fc77653bd0702f0315e20e3",
              "76c98c913a96aa4ba81e1f20642fa74a78a9e76f527a505f85e566913cee2dc5"),
    "gram7": ("fd6a4bae6dca5ef037f53fe5447306a87fcd5924ba7e07770631f6fc260f7589",
              "0a2f29a7f592733d3abea7703e942f1c300e2ec7d9bb73486e748d97b4eb84e6"),
    "gram8": ("43e58ad85116e236aff07169dc4a8a3e850947fe916217bc430cf3288c0bae4b",
              "9fda82017744458a588c3a0a17a3ad1936890ee0f4a8159679bb96391dce8fcb"),
    "identity": ("6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
                 "28ba660c178fe7dbd80cc90c4c1efc32ae4ea1f145d0d5e6cfe26b37e59c7c06"),
    "zero": ("af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
             "28ba660c178fe7dbd80cc90c4c1efc32ae4ea1f145d0d5e6cfe26b37e59c7c06"),
}


class TestHermitianEig:
    def test_identity(self):
        value, vector = hermitian_eig(np.eye(3, dtype=complex))
        assert value.shape == () and vector.shape == (3,)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two_hand_derived(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 -> l in {3, 1}
        value, vector = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex))
        assert value == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(vector, np.array([1.0, 1.0]) / math.sqrt(2), atol=1e-12)

    def test_diagonal_reordered_descending(self):
        # the top pair is the larger entry, though it comes second
        value, vector = hermitian_eig(np.diag([0.5, 2.0]).astype(complex))
        assert value == pytest.approx(2.0)
        assert np.allclose(vector, [0.0, 1.0])

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_reconstruction_residual(self, n):
        for stream in range(20):
            m = random_hermitian(n, Rng(101, stream))
            value, vector = hermitian_eig(m)
            assert np.linalg.norm(m - reconstruct(m, value, vector)) <= 1e-10 * np.linalg.norm(m)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_eigen_equation_residual(self, n):
        for stream in range(20):
            m = random_hermitian(n, Rng(105, stream))
            value, vector = hermitian_eig(m)
            assert eigen_residual(m, value, vector) <= 1e-10 * np.linalg.norm(m)
            assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12
            assert abs(value - np.linalg.eigvalsh(m)[-1]) <= 1e-12 * np.linalg.norm(m)

    def test_refactoring_keeps_eigenvalues(self):
        # lambda v v^H has the top pair (lambda, v) again
        m = random_hermitian(5, Rng(7, 0)) + 10.0 * np.eye(5)
        value, vector = hermitian_eig(m)
        again, again_vector = hermitian_eig(value * np.outer(vector, vector.conj()))
        assert again == pytest.approx(value, abs=1e-9)
        assert np.allclose(again_vector, vector, atol=1e-9)

    def test_rotation_invariance(self):
        m = random_hermitian(4, Rng(8, 0))
        u = haar_unitaries(1, 4, Rng(8, 1))[0]
        value, vector = hermitian_eig(m)
        rotated, rotated_vector = hermitian_eig(u @ m @ u.conj().T)
        assert rotated == pytest.approx(value, abs=1e-9)
        # the top eigenvector rotates with the matrix, up to its phase
        assert abs(np.vdot(rotated_vector, u @ vector)) == pytest.approx(1.0, abs=1e-9)

    def test_phase_convention(self):
        for stream in range(10):
            _, vector = hermitian_eig(random_hermitian(4, Rng(9, stream)))
            idx = int(np.argmax(np.abs(vector)))
            assert abs(vector[idx].imag) <= 1e-12
            assert vector[idx].real >= 0

    def test_rejects_non_square(self):
        with pytest.raises(PreconditionError):
            hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(PreconditionError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_reconstructs_each_matrix(self):
        ms = np.stack([random_hermitian(4, Rng(102, stream)) for stream in range(6)])
        values, vectors = hermitian_eig(ms)
        assert values.shape == (6,) and vectors.shape == (6, 4)
        for m, back in zip(ms, reconstruct(ms, values, vectors)):
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

    @pytest.mark.parametrize("name", list(TOP_PAIR_DIGESTS))
    def test_top_pair_keeps_its_bits(self, name):
        m = dict(top_pair_cases())[name]
        values, vectors = hermitian_eig(m)
        assert values.shape == m.shape[:-2] and vectors.shape == m.shape[:-1]
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (values, vectors))
        assert got == TOP_PAIR_DIGESTS[name]


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
