"""The fused Eq. 1 kernel against the generic PDHG engine.

``solve_hybrid`` and ``solve_bpdn`` run :func:`repro.recovery.pdhg.solve_eq1`;
the reference is :func:`solve_l1_constrained` over ``ball_block`` (+
``box_block`` with the dense Ψ), the path both solvers took before the
kernel.  Without a box the two run the same arithmetic, so ``alpha`` must
match bit for bit; with a box the kernel applies Ψ in CSR form, whose
summation order differs, so the hybrid results agree to 1e-8.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.core.frontend import HybridFrontEnd
from repro.core.receiver import HybridReceiver
from repro.perf import profiling
from repro.recovery.bpdn import ball_block, solve_bpdn
from repro.recovery.hybrid import box_block, solve_hybrid
from repro.recovery.pdhg import solve_eq1, solve_l1_constrained
from repro.recovery.problem import CsProblem
from repro.wavelets.operators import DctBasis, IdentityBasis, WaveletBasis

TOL = 1e-8


def _oracle(window, box, alpha0):
    prob = window.problem
    blocks = [ball_block(prob, window.y, window.sigma)]
    if box:
        lower, upper = window.bounds
        blocks.append(box_block(prob.basis, lower, upper, psi=prob.psi))
        if alpha0 is None:
            alpha0 = prob.basis.analyze((lower + upper) / 2.0)
    return solve_l1_constrained(
        prob.n,
        blocks,
        settings=window.settings,
        synthesize=prob.basis.synthesize,
        alpha0=alpha0,
    )


def _hybrid(window, alpha0):
    prob = window.problem
    return solve_hybrid(
        prob.phi,
        prob.basis,
        window.y,
        window.sigma,
        *window.bounds,
        settings=window.settings,
        problem=prob,
        alpha0=alpha0,
    )


def _normal(window, alpha0):
    prob = window.problem
    return solve_bpdn(
        prob.phi,
        prob.basis,
        window.y,
        window.sigma,
        settings=window.settings,
        problem=prob,
        alpha0=alpha0,
    )


def _true_residual(window, alpha):
    return float(np.linalg.norm(window.problem.forward(alpha) - window.y))


def _assert_same_run(new, ref):
    assert new.iterations == ref.iterations
    assert new.converged == ref.converged
    for key in ("tau", "sigma", "lipschitz_sq"):
        assert new.info[key] == ref.info[key]


class TestAgainstGenericEngine:
    def test_hybrid(self, eq1_case):
        window = eq1_case.window
        alpha0 = eq1_case.alpha0(box=True)
        new = _hybrid(window, alpha0)
        ref = _oracle(window, True, alpha0)
        _assert_same_run(new, ref)
        assert np.max(np.abs(new.alpha - ref.alpha)) <= TOL
        assert np.max(np.abs(new.x - ref.x)) <= TOL
        for key in ("violation_0", "violation_1"):
            assert abs(new.info[key] - ref.info[key]) <= TOL
        assert new.residual_norm == pytest.approx(
            _true_residual(window, ref.alpha), abs=TOL
        )

    def test_normal(self, eq1_case):
        window = eq1_case.window
        alpha0 = eq1_case.alpha0(box=False)
        new = _normal(window, alpha0)
        ref = _oracle(window, False, alpha0)
        _assert_same_run(new, ref)
        assert np.max(np.abs(new.alpha - ref.alpha)) == 0.0
        assert np.max(np.abs(new.x - ref.x)) <= TOL
        assert new.info["violation_0"] == ref.info["violation_0"]
        assert new.residual_norm == _true_residual(window, ref.alpha)

    @pytest.mark.parametrize("box", [True, False], ids=["hybrid", "normal"])
    def test_dense_psi_basis(self, eq1_windows, box):
        """A DCT basis keeps Ψ dense: the kernel's other operator form."""
        base = eq1_windows[50][0]
        basis = DctBasis(base.problem.n)
        window = type(base)(
            problem=CsProblem(base.problem.phi, basis),
            y=base.y,
            sigma=base.sigma,
            bounds=base.bounds,
            settings=base.settings,
        )
        assert isinstance(basis.operators[0], np.ndarray)
        new = (_hybrid if box else _normal)(window, None)
        ref = _oracle(window, box, None)
        _assert_same_run(new, ref)
        assert np.max(np.abs(new.alpha - ref.alpha)) <= (TOL if box else 0.0)
        assert np.max(np.abs(new.x - ref.x)) <= TOL


class TestPsiForm:
    def test_compact_atoms_are_csr(self):
        for basis in (WaveletBasis(128, "db4"), IdentityBasis(128)):
            psi, psi_t = basis.operators
            assert sparse.issparse(psi) and psi.format == "csr"
            assert np.array_equal(psi.toarray(), basis.matrix)
            assert np.array_equal(psi_t.toarray(), basis.matrix.T)

    def test_built_once_per_basis(self, basis_128):
        assert basis_128.operators is basis_128.operators
        assert basis_128.matrix is basis_128.matrix


class TestValidation:
    def test_alpha0_shape_rejected(self, eq1_windows):
        window = eq1_windows[50][0]
        with pytest.raises(ValueError, match="alpha0"):
            solve_eq1(window.problem, window.y, window.sigma, alpha0=np.zeros(3))

    def test_alpha0_not_modified(self, eq1_windows):
        window = eq1_windows[50][0]
        alpha0 = np.ones(window.problem.n)
        solve_eq1(window.problem, window.y, window.sigma, window.bounds, alpha0=alpha0)
        assert np.array_equal(alpha0, np.ones(window.problem.n))


class TestProfiled:
    def test_one_span_per_receiver_solve(self, fast_config, codebook_7bit, record_100):
        window = next(record_100.windows(fast_config.window_len))
        packet = HybridFrontEnd(fast_config, codebook_7bit).process_window(window)
        receiver = HybridReceiver(fast_config, codebook_7bit)
        with profiling() as prof:
            receiver.reconstruct(packet)
        stat = prof.get("recovery.pdhg")
        assert stat is not None
        assert stat.calls == 1
