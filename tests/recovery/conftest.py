"""Real receiver windows for the Eq. 1 solver tests.

Each case is one window of record 100 through the default front end and
receiver at a paper compression ratio: the decoded measurements, the
fidelity radius and the low-resolution box, exactly as
``HybridReceiver.reconstruct`` hands them to the solver.  A ``warm`` case
is the record's second window, which the tests warm-start from the
first window's solution, as a stream session does.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.core.codebooks import CodebookKey, build_codebook
from repro.core.config import DEFAULT_CONFIG
from repro.core.frontend import HybridFrontEnd
from repro.core.receiver import HybridReceiver
from repro.recovery.pdhg import PdhgSettings, solve_eq1
from repro.recovery.problem import CsProblem
from repro.sensing.quantizers import lowres_bounds
from repro.signals.database import load_record

EQ1_CRS = (25, 50, 75)


@dataclass(frozen=True)
class Eq1Window:
    """One decoded window: what the receiver passes to its solver."""

    problem: CsProblem
    y: np.ndarray
    sigma: float
    bounds: Tuple[np.ndarray, np.ndarray]
    settings: PdhgSettings


@dataclass(frozen=True)
class Eq1Case:
    """A window to solve, and the window whose solution warm-starts it
    (``None`` for a cold start)."""

    window: Eq1Window
    previous: Optional[Eq1Window]

    def alpha0(self, box: bool) -> Optional[np.ndarray]:
        """The warm start: the previous window's hybrid (``box``) or
        normal solution, or ``None`` for a cold start."""
        prev = self.previous
        if prev is None:
            return None
        return solve_eq1(
            prev.problem,
            prev.y,
            prev.sigma,
            prev.bounds if box else None,
            settings=prev.settings,
        ).alpha


def _decoded_windows(cr):
    cfg = DEFAULT_CONFIG.for_cr(cr)
    codebook = build_codebook(
        CodebookKey(lowres_bits=cfg.lowres_bits, acquisition_bits=cfg.acquisition_bits)
    )
    rx = HybridReceiver(cfg, codebook)
    packets = HybridFrontEnd(cfg, codebook).process_record(
        load_record("100", duration_s=4.0), max_windows=2
    )
    windows = []
    for packet in packets:
        lower, upper = lowres_bounds(
            rx.decode_lowres(packet), cfg.acquisition_bits, cfg.lowres_bits
        )
        windows.append(
            Eq1Window(
                problem=rx.problem,
                y=rx.decode_measurements(packet),
                sigma=rx.sigma(),
                bounds=(lower - rx.center, upper - rx.center),
                settings=cfg.solver,
            )
        )
    return windows


@pytest.fixture(scope="session")
def eq1_windows():
    """``{cr: [window 0, window 1]}`` at every CR in ``EQ1_CRS``."""
    return {cr: _decoded_windows(cr) for cr in EQ1_CRS}


@pytest.fixture(
    params=[(cr, start) for cr in EQ1_CRS for start in ("cold", "warm")],
    ids=lambda p: f"CR{p[0]}-{p[1]}",
)
def eq1_case(request, eq1_windows):
    """Every CR in ``EQ1_CRS`` x {cold, warm start}."""
    cr, start = request.param
    first, second = eq1_windows[cr]
    if start == "cold":
        return Eq1Case(first, None)
    return Eq1Case(second, first)
