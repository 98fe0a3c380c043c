"""The ``out=``-capable hot-loop operations of the NumPy backend.

The workspace engines route every per-iteration temporary into leased
buffers through ``matmul``/``soft_threshold`` and the
dense-algebra trio ``gemm``/``gram_cholesky``/``solve_lower`` — these
tests pin the contract that makes that safe: the ``out=`` form of each
op is bit-identical to its expression form (signed zeros included),
writes into exactly the passed buffer (which may be the input itself for
``solve_lower``), and leaves its inputs untouched otherwise.
"""

import numpy as np
import pytest

from repro.backend import HOST


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestMatmul:
    def test_out_form_matches_operator_form(self, rng):
        a = rng.standard_normal((12, 8))
        b = rng.standard_normal((8, 5))
        out = np.empty((12, 5))
        result = HOST.matmul(a, b, out=out)
        assert result is out
        assert np.array_equal(out, a @ b)

    def test_none_form_matches_operator_form(self, rng):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 3))
        assert np.array_equal(HOST.matmul(a, b), a @ b)

    def test_inputs_untouched(self, rng):
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        a0, b0 = a.copy(), b.copy()
        HOST.matmul(a, b, out=np.empty((5, 5)))
        assert np.array_equal(a, a0)
        assert np.array_equal(b, b0)


class TestSoftThreshold:
    def _reference(self, v, threshold):
        return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)

    def test_out_form_bit_identical(self, rng):
        v = rng.standard_normal((64, 5)) * 2.0
        out = np.empty_like(v)
        result = HOST.soft_threshold(v, 0.3, out=out)
        assert result is out
        assert np.array_equal(out, self._reference(v, 0.3))

    def test_none_form_matches_reference(self, rng):
        v = rng.standard_normal(32)
        assert np.array_equal(
            HOST.soft_threshold(v, 0.1), self._reference(v, 0.1)
        )

    def test_signed_zeros_match_expression_form(self):
        # Shrunk-to-zero entries keep the sign of the input — the
        # expression form's sign(v) * 0.0 convention.
        v = np.array([0.2, -0.2, 0.0, -0.0, 1.0, -1.0])
        out = np.empty_like(v)
        HOST.soft_threshold(v, 0.5, out=out)
        expected = self._reference(v, 0.5)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))

    def test_input_untouched(self, rng):
        v = rng.standard_normal(16)
        v0 = v.copy()
        HOST.soft_threshold(v, 0.2, out=np.empty_like(v))
        assert np.array_equal(v, v0)


class TestCholeskyOverwrite:
    def test_overwrite_b_values_identical(self, rng):
        n = 8
        g = rng.standard_normal((n, n))
        spd = g @ g.T + n * np.eye(n)
        factor = HOST.cho_factor(spd)
        b = rng.standard_normal((n, 3))
        reference = HOST.cho_solve(factor, b.copy())
        clobbered = HOST.cho_solve(factor, b, overwrite_b=True)
        assert np.array_equal(clobbered, reference)


class TestGemm:
    def test_matches_matmul(self, rng):
        a = rng.standard_normal((9, 4))
        b = rng.standard_normal((4, 6))
        assert np.allclose(HOST.gemm(a, b), a @ b, rtol=1e-13, atol=1e-14)

    def test_out_form_bit_identical_and_in_buffer(self, rng):
        a = rng.standard_normal((9, 4))
        b = rng.standard_normal((4, 6))
        out = np.full((9, 6), np.nan)
        assert HOST.gemm(a, b, out=out) is out
        assert np.array_equal(out, HOST.gemm(a, b))

    def test_transposed_operands_and_float32(self, rng):
        a = rng.standard_normal((4, 9)).T
        b = rng.standard_normal((6, 4)).T.astype(np.float32)
        result = HOST.gemm(a, b)
        assert result.dtype == np.float64
        assert np.allclose(result, a @ b, rtol=1e-6)
        c = HOST.gemm(a.astype(np.float32), b)
        assert c.dtype == np.float32

    def test_wrong_out_rejected(self, rng):
        a = rng.standard_normal((3, 3))
        with pytest.raises(ValueError, match="C-contiguous"):
            HOST.gemm(a, a, out=np.empty((3, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="C-contiguous"):
            HOST.gemm(a, a, out=np.empty((3, 3), order="F"))


class TestGramCholesky:
    def _stack(self, rng, batch=3, m=7, n=9):
        return rng.standard_normal((batch, m, n))

    def _reference(self, x, shift):
        gram = x @ np.swapaxes(x, -1, -2) + shift * np.eye(x.shape[-2])
        return np.linalg.cholesky(gram)

    def test_matches_numpy_factor(self, rng):
        x = self._stack(rng)
        factor = HOST.gram_cholesky(x, 0.5)
        assert np.allclose(factor, self._reference(x, 0.5), rtol=1e-12, atol=1e-13)
        assert np.array_equal(np.triu(factor, 1), np.zeros_like(factor))

    def test_out_form_bit_identical_over_dirty_buffer(self, rng):
        # The workspace hands back buffers holding stale values; the
        # factor must not read them.
        x = self._stack(rng)
        out = np.full((3, 7, 7), np.nan)
        assert HOST.gram_cholesky(x, 0.5, out=out) is out
        assert np.array_equal(out, HOST.gram_cholesky(x, 0.5))

    def test_wide_and_tall_inputs_and_2d(self, rng):
        for shape in ((6, 3), (3, 6)):
            x = rng.standard_normal(shape)
            x0 = x.copy()
            factor = HOST.gram_cholesky(x, 1e-3)
            assert np.array_equal(x, x0)
            assert np.allclose(factor @ factor.T, x @ x.T + 1e-3 * np.eye(shape[0]))

    def test_not_positive_definite_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            HOST.gram_cholesky(np.zeros((1, 3, 2)), -1.0)


class TestSolveLower:
    def _system(self, rng, batch=3, n=6, p=5):
        g = rng.standard_normal((batch, n, n + 2))
        lower = np.linalg.cholesky(g @ np.swapaxes(g, -1, -2))
        return lower, rng.standard_normal((batch, n, p))

    def test_matches_general_solve(self, rng):
        lower, b = self._system(rng)
        reference = np.linalg.solve(lower, b)
        assert np.allclose(HOST.solve_lower(lower, b), reference, rtol=1e-12)

    def test_out_form_bit_identical_and_in_place(self, rng):
        lower, b = self._system(rng)
        fresh = HOST.solve_lower(lower, b)
        out = np.full_like(b, np.nan)
        assert HOST.solve_lower(lower, b, out=out) is out
        assert np.array_equal(out, fresh)
        inplace = b.copy()
        assert HOST.solve_lower(lower, inplace, out=inplace) is inplace
        assert np.array_equal(inplace, fresh)

    def test_vector_rhs_and_inputs_untouched(self, rng):
        lower, b = self._system(rng, p=1)
        l0, b0 = lower.copy(), b.copy()
        x = HOST.solve_lower(lower, b)
        assert np.array_equal(lower, l0)
        assert np.array_equal(b, b0)
        assert np.allclose(lower @ x, b, rtol=1e-12)

    def test_mixed_dtypes_follow_the_right_hand_side(self, rng):
        # A float64 factor against a float32 stack must still substitute
        # in place (a dtype mismatch would make BLAS work on a copy).
        lower, b = self._system(rng)
        x = HOST.solve_lower(lower, b.astype(np.float32))
        assert x.dtype == np.float32
        assert np.allclose(x, np.linalg.solve(lower, b), rtol=1e-3, atol=1e-4)

    def test_non_contiguous_out_rejected(self, rng):
        lower, b = self._system(rng)
        out = np.empty((3, 5, 6)).transpose(0, 2, 1)
        with pytest.raises(ValueError, match="C-contiguous"):
            HOST.solve_lower(lower, b, out=out)
