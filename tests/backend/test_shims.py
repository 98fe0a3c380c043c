"""The NumPy backend's shims against their scipy/numpy references."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.signal as sps

from repro.backend import HOST, Generator, default_rng, ndarray


class TestDtypePolicy:
    def test_dtype_lookup(self):
        assert HOST.dtype("float64") is np.float64
        assert HOST.dtype("float32") is np.float32

    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError):
            HOST.dtype("float16")

    def test_host_reexports(self):
        assert ndarray is np.ndarray
        assert Generator is np.random.Generator
        assert isinstance(default_rng(0), Generator)


class TestArrays:
    def test_asarray_and_to_numpy_are_host_noops(self):
        arr = np.arange(4.0)
        assert HOST.asarray(arr) is arr
        assert HOST.to_numpy(arr) is arr

    def test_asarray_casts(self):
        assert HOST.asarray([1, 2], dtype=np.float32).dtype == np.float32


class TestCholesky:
    def test_matches_scipy_bitwise(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        spd = np.eye(6) + a @ a.T
        b = rng.standard_normal((6, 3))
        factor = HOST.cho_factor(spd)
        ref = sla.cho_factor(spd)
        assert np.array_equal(factor[0], ref[0])
        assert np.array_equal(
            HOST.cho_solve(factor, b), sla.cho_solve(ref, b)
        )

    def test_solves_the_system(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        spd = np.eye(5) + a @ a.T
        rhs = rng.standard_normal(5)
        x = HOST.cho_solve(HOST.cho_factor(spd), rhs)
        assert x.shape == (5,)
        assert np.allclose(spd @ x, rhs)


class TestFirstOrderIir:
    def test_matches_lfilter_bitwise(self):
        """The exact path must equal the pre-seam lfilter call bit for
        bit — this equality is what keeps ECGSYN outputs unchanged."""
        rng = np.random.default_rng(2)
        u = rng.standard_normal(256)
        gain, decay = 0.3, 0.92
        out = HOST.first_order_iir(gain, decay, u)
        ref = sps.lfilter([gain], [1.0, -decay], u)
        assert np.array_equal(out, ref)

    def test_float32_stays_float32(self):
        u = np.linspace(0, 1, 64, dtype=np.float32)
        out = HOST.first_order_iir(0.5, 0.9, u)
        assert out.dtype == np.float32

