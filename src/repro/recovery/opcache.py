"""Process-wide operator cache for CS recovery problems.

Every sweep point, bench cell and streaming session that shares a
``(sensing spec, m, n, basis)`` configuration solves against the *same*
composed operator ``A = Φ Ψ`` — and, through :class:`CsProblem`, the same
Gram matrix, operator norm and factorizations.  Building that state per
window (or even per receiver) is the dominant fixed cost of a sweep:
Φ construction, the dense ``n x n`` Ψ, the ``m x n`` composition and the
``O(n^3)`` ADMM factorization.

:class:`ProblemCache` amortizes all of it: a bounded process-wide LRU of
:class:`CsProblem` instances keyed by :class:`ProblemKey` (sensing spec ×
measurement count × window length × basis), with a second-level basis
memo so two cache cells at different compression ratios still share one
dense Ψ.  Construction is deterministic, so a cached problem is
bit-identical to a freshly built one — callers opt in for speed, never
for different numerics (the differential test suite pins this).

Cache **keying**: the full :class:`ProblemKey` tuple; two configs that
differ in any keyed field never share state.  **Invalidation**: entries
are evicted least-recently-used beyond ``maxsize``; there is no dirty
state to invalidate because problems are immutable once built (their lazy
factorizations are pure functions of the key).  ``clear()`` exists for
tests and long-lived processes that change workload shape.

Since the array-backend seam (:mod:`repro.backend`) the cache also holds
**operator sets**: the precision-specific copy of ``A`` and its ADMM
factorization for one ``(problem, precision)`` pair, keyed by both — a
float32 solve and a float64 solve of the same problem never share a
factorization.  The exact float64 set is a pure
delegate to the problem's own lazily cached state, so the bit-identity
contract is untouched.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.backend import BackendSettings, HOST
from repro.recovery.bsbl import BsblSettings
from repro.recovery.problem import CsProblem
from repro.sensing.matrices import SensingSpec
from repro.wavelets.operators import SynthesisBasis, make_basis

__all__ = [
    "ProblemKey",
    "ProblemCache",
    "OperatorSet",
    "RecoveryEngineSettings",
    "PROBLEM_CACHE",
    "problem_for_config",
    "operators_for",
]


@dataclass(frozen=True)
class ProblemKey:
    """Identity of one composed operator: everything that determines A.

    Hashable and cheap, so it can key a process-wide cache and travel in
    benchmark artifacts.  ``m`` varies with the compression ratio while
    ``n``/``basis_spec`` usually stay fixed across a sweep — which is why
    the cache shares the dense Ψ across keys at the basis level.
    """

    sensing: SensingSpec
    m: int
    n: int
    basis_spec: str

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.n:
            raise ValueError("problem key needs 1 <= m <= n")

    @classmethod
    def from_config(cls, config) -> "ProblemKey":
        """The key for a front-end config (duck-typed to avoid an import
        cycle with :mod:`repro.core.config`)."""
        return cls(
            sensing=config.sensing,
            m=config.n_measurements,
            n=config.window_len,
            basis_spec=config.basis_spec,
        )


class OperatorSet:
    """Operator state for one ``(problem, precision)`` pair.

    The batched solvers consume this instead of touching ``problem.a`` /
    ``problem.admm_factor()`` directly.  On the exact float64 path
    every accessor *delegates* to the problem's own lazily cached state —
    same objects, same numerics, so factor sharing and bit-identity are
    preserved.  On a fast path the set owns a converted copy of ``A`` and
    a factorization of ``I + AᵀA`` computed natively in the target
    precision (a float32 solve uses a float32
    Cholesky, not a demoted float64 one).
    """

    def __init__(self, problem: CsProblem, settings: BackendSettings) -> None:
        self.problem = problem
        self.settings = settings
        self.backend = HOST
        self.dtype = self.backend.dtype(settings.precision)
        self._a = None
        self._gram = None
        self._admm_factor = None

    @property
    def a(self):
        """The composed operator ``A = Φ Ψ`` at this precision;
        shape ``(m, n)``."""
        if self.settings.is_exact:
            return self.problem.a
        if self._a is None:
            self._a = self.backend.asarray(self.problem.a, dtype=self.dtype)
        return self._a

    def opnorm_sq(self) -> float:
        """``||A||_2^2`` (scalar step sizes stay host floats everywhere)."""
        return self.problem.opnorm_sq()

    def gram(self):
        """The Gram matrix ``AᵀA`` at this precision; ``(n, n)``.

        The batched ADMM factorization is built from it, so it is
        memoized per operator set — exactly once per ``(problem,
        precision)``.  The exact path delegates to the
        problem's own cached Gram, so the scalar and batched paths share
        one bit-identical matrix.
        """
        if self.settings.is_exact:
            return self.problem.gram()
        if self._gram is None:
            a = self.a
            self._gram = a.T @ a
        return self._gram

    def admm_factor(self):
        """Cholesky factor of ``I + AᵀA`` at this precision."""
        if self.settings.is_exact:
            return self.problem.admm_factor()
        if self._admm_factor is None:
            xp = self.backend.xp
            a = self.a
            self._admm_factor = self.backend.cho_factor(
                xp.eye(a.shape[1], dtype=self.dtype) + self.gram()
            )
        return self._admm_factor

    def cho_solve(self, rhs, overwrite_b: bool = False):
        """Solve ``(I + AᵀA) x = rhs`` through the cached factorization;
        ``rhs`` may be an ``(n, k)`` stack.  ``overwrite_b=True`` lets
        the backend use ``rhs`` as scratch (identical solution values;
        pass it only for right-hand sides you are done reading)."""
        return self.backend.cho_solve(
            self.admm_factor(), rhs, overwrite_b=overwrite_b
        )


class ProblemCache:
    """Bounded LRU of :class:`CsProblem` instances, with hit accounting.

    Parameters
    ----------
    maxsize:
        Maximum retained problems.  A full paper sweep touches
        ``len(PAPER_CR_VALUES)`` distinct keys per basis, so the default
        comfortably holds an entire grid.

    Notes
    -----
    The cache is *not* thread-safe by design: the runtime fans work out
    over processes, and each worker process owns one cache instance (the
    same pattern as :func:`repro.runtime.stages.link_for`).
    """

    def __init__(self, maxsize: int = 32) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        self._problems: "OrderedDict[ProblemKey, CsProblem]" = OrderedDict()
        self._bases: Dict[Tuple[int, str], SynthesisBasis] = {}
        # Operator sets keyed by (problem identity, precision).
        # The OperatorSet holds a strong reference to its problem, so the
        # id() stays valid for exactly as long as the entry lives (the
        # same identity-keyed pattern as the runtime's inline link memo).
        self._operators: "OrderedDict[Tuple[int, str], OperatorSet]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.operator_hits = 0
        self.operator_misses = 0

    def __len__(self) -> int:
        return len(self._problems)

    def basis_for(self, n: int, basis_spec: str) -> SynthesisBasis:
        """The shared synthesis basis for ``(n, basis_spec)``.

        Second-level memo: different compression ratios (different ``m``)
        are distinct problem keys but share one basis, which memoizes its
        dense Ψ, so sweeping the CR axis builds Ψ exactly once.
        """
        bkey = (int(n), str(basis_spec))
        basis = self._bases.get(bkey)
        if basis is None:
            basis = make_basis(n, basis_spec)
            self._bases[bkey] = basis
        return basis

    def get(self, key: ProblemKey) -> CsProblem:
        """The cached problem for ``key``, building it on first use."""
        hit = self._problems.get(key)
        if hit is not None:
            self.hits += 1
            self._problems.move_to_end(key)
            return hit
        self.misses += 1
        phi = key.sensing.build(key.m, key.n)
        problem = CsProblem(phi, self.basis_for(key.n, key.basis_spec))
        self._problems[key] = problem
        while len(self._problems) > self.maxsize:
            self._problems.popitem(last=False)
        return problem

    def operators(self, problem: CsProblem, settings: BackendSettings) -> OperatorSet:
        """The cached :class:`OperatorSet` for a problem at given settings.

        Keyed by ``(problem, precision)``, so switching dtype never
        reuses a factorization computed at the other precision.
        """
        okey = (id(problem), settings.precision)
        hit = self._operators.get(okey)
        if hit is not None:
            self.operator_hits += 1
            self._operators.move_to_end(okey)
            return hit
        self.operator_misses += 1
        ops = OperatorSet(problem, settings)
        self._operators[okey] = ops
        while len(self._operators) > self.maxsize:
            self._operators.popitem(last=False)
        return ops

    def stats(self) -> Dict[str, float]:
        """Hit/miss accounting (reported by ``repro bench``)."""
        total = self.hits + self.misses
        op_total = self.operator_hits + self.operator_misses
        return {
            "size": len(self._problems),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / total) if total else 0.0,
            "operator_sets": len(self._operators),
            "operator_hits": self.operator_hits,
            "operator_misses": self.operator_misses,
            "operator_hit_rate": (
                (self.operator_hits / op_total) if op_total else 0.0
            ),
        }

    def resize(self, maxsize: int) -> None:
        """Change the LRU bound, evicting least-recently-used overflow.

        Serves the ``--cache-size`` bench knob: shrinking below the live
        population evicts immediately (problems and operator sets both),
        so hit-rate experiments see the new bound without a restart.
        Counters are kept — resizing is an observation change, not a
        reset.
        """
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        while len(self._problems) > self.maxsize:
            self._problems.popitem(last=False)
        while len(self._operators) > self.maxsize:
            self._operators.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the counters (test isolation)."""
        self._problems.clear()
        self._bases.clear()
        self._operators.clear()
        self.hits = 0
        self.misses = 0
        self.operator_hits = 0
        self.operator_misses = 0


@dataclass(frozen=True)
class RecoveryEngineSettings:
    """Config flags for the batched/cached recovery layer.

    Hashable so it can live inside :class:`repro.core.config.FrontEndConfig`.

    Attributes
    ----------
    cache_problems:
        Pull the receiver's :class:`CsProblem` from the process-wide
        :data:`PROBLEM_CACHE` instead of building a private one.  Exact:
        problem construction is deterministic, so results are
        bit-identical either way.  Default on.
    warm_start_streams:
        Streaming sessions seed each window's solve from the previous
        window's recovered coefficients when that solution has already
        been applied (see ``docs/recovery.md`` for the determinism
        contract).  Default on.
    batch_size:
        Windows per stack in the batched solver engine
        (:mod:`repro.recovery.batched`).
    bsbl:
        EM knobs for the Bayesian recovery family
        (:mod:`repro.recovery.bsbl`); ignored by the convex methods.
    """

    cache_problems: bool = True
    warm_start_streams: bool = True
    batch_size: int = 32
    bsbl: BsblSettings = field(default_factory=BsblSettings)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


#: The per-process operator cache (one per worker, like the link cache).
PROBLEM_CACHE = ProblemCache()


def problem_for_config(config, cache: Optional[ProblemCache] = None) -> CsProblem:
    """The (usually cached) recovery problem for a front-end config.

    Honors ``config.recovery.cache_problems``: when the flag is off a
    fresh private :class:`CsProblem` is built, which is what the flag's
    bit-identity guarantee is tested against.
    """
    key = ProblemKey.from_config(config)
    settings = getattr(config, "recovery", None)
    if settings is not None and not settings.cache_problems:
        return CsProblem(
            key.sensing.build(key.m, key.n), make_basis(key.n, key.basis_spec)
        )
    # Explicit None test: an *empty* cache is falsy (it has __len__), and
    # `cache or PROBLEM_CACHE` would silently redirect it to the singleton.
    return (PROBLEM_CACHE if cache is None else cache).get(key)


def operators_for(
    problem: CsProblem,
    settings: Optional[BackendSettings] = None,
    cache: Optional[ProblemCache] = None,
) -> OperatorSet:
    """The (cached) operator set for a problem at given backend settings.

    ``None`` settings mean the exact float64 default.  Every call goes
    through the operator store, so repeated solves at the same precision
    reuse one converted operator and one factorization, while the other
    precision gets a distinct set.
    """
    if settings is None:
        settings = BackendSettings()
    store = PROBLEM_CACHE if cache is None else cache
    return store.operators(problem, settings)
