"""The whole-program rule family (RL100–RL105).

Where RL001–RL007 audit one file at a time, these rules audit the
invariants the parallel runtime actually depends on, which span files:

* the layering that keeps solvers importable without the runtime
  (RL100) and the import graph acyclic (RL101);
* the ProcessPool boundary — everything shipped through
  ``Executor.run_tasks`` / ``pool.submit`` must survive pickling
  (RL102) — because a payload that pickles by accident today is a
  ``PicklingError`` (or worse, a silently re-imported stale singleton)
  after the next refactor;
* process-wide singletons like
  :data:`repro.recovery.opcache.PROBLEM_CACHE`: mutated from another
  module, per-worker caches silently diverge between the serial and
  parallel executors, which is exactly the hidden-state hazard the
  bit-identity tests cannot see (RL103);
* drift between runtime shape contracts and docstrings (RL104) — a
  function that *enforces* a shape with ``contracts.check_shape`` but
  does not *document* one invites callers to learn the contract by
  crashing;
* the array-backend seam (RL105) — a module that declares
  ``__backend_seam__ = True`` promises all its array work goes through
  :mod:`repro.backend`, so a direct ``import numpy`` there silently
  pins one code path to the host and breaks the per-backend
  differential accounting.

Each subclass implements ``check_program(project)`` over the
:class:`~repro.devtools.reprolint.project.ProjectModel`; suppression
comments work exactly as for file rules (the summaries carry the
disable tables).
"""

from __future__ import annotations

from typing import Iterator

from repro.devtools.reprolint.core import Finding, Rule, register
from repro.devtools.reprolint.graph import (
    LayerConfig,
    build_import_graph,
    find_cycles,
    first_import_line,
)
from repro.devtools.reprolint.project import ModuleSummary, ProjectModel

__all__ = [
    "ProgramRule",
    "ImportLayeringRule",
    "ImportCycleRule",
    "ExecutorPayloadRule",
    "SharedStateMutationRule",
    "ContractDocRule",
    "BackendSeamImportRule",
]


class ProgramRule(Rule):
    """Base class for rules that need the whole project model."""

    scope = "program"

    def check(self, ctx) -> Iterator[Finding]:
        """Program rules do not run per file."""
        return iter(())

    def check_program(self, project: ProjectModel) -> Iterator[Finding]:
        """Yield findings over the whole project (override)."""
        raise NotImplementedError

    def program_finding(
        self,
        summary: ModuleSummary,
        line: int,
        col: int,
        message: str,
    ) -> Finding:
        """Build a finding anchored in ``summary``'s file."""
        return Finding(
            path=summary.path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            message=message,
        )


@register
class ImportLayeringRule(ProgramRule):
    """RL100: imports must respect the declared layer order."""

    rule_id = "RL100"
    title = "import-layering violation"
    rationale = (
        "The solvers must stay importable without the runtime and the "
        "runtime without the serving surfaces; an upward import couples "
        "worker processes to state they must not share and widens what "
        "a ProcessPool worker re-imports on spawn."
    )

    def check_program(self, project: ProjectModel) -> Iterator[Finding]:
        layers: LayerConfig = project.layers
        for summary in project.ordered():
            from_layer = layers.layer_of(summary.module)
            if from_layer is None:
                continue
            seen = set()
            for rec in sorted(summary.imports, key=lambda r: (r.line, r.col)):
                for target in project.import_targets(rec):
                    to_layer = layers.layer_of(target)
                    if to_layer is None or to_layer <= from_layer:
                        continue
                    key = (rec.line, target)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.program_finding(
                        summary,
                        rec.line,
                        rec.col,
                        f"{summary.module} (layer "
                        f"'{layers.layer_name(from_layer)}') imports "
                        f"{target} (layer "
                        f"'{layers.layer_name(to_layer)}'); lower layers "
                        "must not import higher ones",
                    )


@register
class ImportCycleRule(ProgramRule):
    """RL101: the module import graph must be acyclic."""

    rule_id = "RL101"
    title = "import cycle"
    rationale = (
        "Cyclic imports make module initialization order-dependent: "
        "which half-initialized module a worker sees depends on the "
        "entry point, so serial and ProcessPool runs can genuinely "
        "import different state."
    )

    def check_program(self, project: ProjectModel) -> Iterator[Finding]:
        graph = build_import_graph(project, toplevel_only=True)
        for cycle in find_cycles(graph):
            anchor = project.summaries[cycle[0]]
            nxt = cycle[1] if len(cycle) > 1 else cycle[0]
            line, col = first_import_line(anchor, nxt, project)
            path = " -> ".join(cycle + [cycle[0]])
            yield self.program_finding(
                anchor,
                line,
                col,
                f"import cycle: {path}; break it by moving shared state "
                "down a layer or deferring one import into the function "
                "that needs it",
            )


@register
class ExecutorPayloadRule(ProgramRule):
    """RL102: executor payloads must be picklable."""

    rule_id = "RL102"
    title = "non-picklable executor payload"
    rationale = (
        "Tasks and task functions cross the ProcessPool boundary by "
        "pickle; lambdas, closures and locally-defined classes either "
        "fail to pickle outright or smuggle unpicklable state into "
        "workers, breaking the pure-function determinism contract of "
        "Executor.run_tasks."
    )

    def check_program(self, project: ProjectModel) -> Iterator[Finding]:
        for summary in project.ordered():
            for suspect in summary.payload_suspects:
                yield self.program_finding(
                    summary, suspect.line, suspect.col, suspect.detail
                )


@register
class SharedStateMutationRule(ProgramRule):
    """RL103: module-level mutable state has one owning module."""

    rule_id = "RL103"
    title = "cross-module mutation of module-level state"
    rationale = (
        "Process-wide singletons (PROBLEM_CACHE, the link memos) exist "
        "per worker process; mutating one from another module bypasses "
        "the owner's accessor discipline, so serial and parallel runs "
        "silently diverge in what their caches hold."
    )

    def check_program(self, project: ProjectModel) -> Iterator[Finding]:
        for summary in project.ordered():
            for site in summary.mutations:
                resolved = project.resolve_chain(summary, site.chain)
                if resolved is None:
                    continue
                owner_name, global_name = resolved
                if owner_name == summary.module:
                    continue
                owner = project.summaries.get(owner_name)
                if owner is None or global_name not in owner.mutable_globals:
                    continue
                yield self.program_finding(
                    summary,
                    site.line,
                    site.col,
                    f"{site.verb} mutates module-level state "
                    f"{owner_name}.{global_name} from outside its defining "
                    "module; route the change through an accessor in "
                    f"{owner_name}",
                )


@register
class ContractDocRule(ProgramRule):
    """RL104: shape contracts and docstrings must agree."""

    rule_id = "RL104"
    title = "shape contract without documented shape"
    rationale = (
        "A public function that enforces an array shape at runtime via "
        "contracts.check_shape but documents none leaves callers to "
        "discover the contract by ContractError; the docstring is the "
        "half of the contract RL007 audits, so the two must not drift."
    )

    @staticmethod
    def _is_contract_call(
        project: ProjectModel,
        summary: ModuleSummary,
        chain,
    ) -> bool:
        resolved = project.resolve_chain(summary, chain)
        if resolved is None:
            # A bare `check_shape(...)` defined in this very module (the
            # contracts module itself) is not a cross-checkable call.
            return False
        module, name = resolved
        return name == "check_shape" and (
            module.endswith(".contracts") or module == "contracts"
        )

    def check_program(self, project: ProjectModel) -> Iterator[Finding]:
        for summary in project.ordered():
            for func in summary.functions:
                if not func.public:
                    continue
                if not any(
                    self._is_contract_call(project, summary, chain)
                    for chain in func.check_shape_chains
                ):
                    continue
                if func.doc_has_shape:
                    continue
                what = (
                    "has no docstring"
                    if not func.has_doc
                    else "has a docstring that documents no shape"
                )
                yield self.program_finding(
                    summary,
                    func.line,
                    func.col,
                    f"{func.name}() enforces an array shape via "
                    f"contracts.check_shape but {what}; document the "
                    "expected shape so the runtime contract and the API "
                    "docs cannot drift",
                )


@register
class BackendSeamImportRule(ProgramRule):
    """RL105: seam-declared modules must not import array libraries."""

    rule_id = "RL105"
    title = "direct array-library import in a backend-seam module"
    rationale = (
        "A module that declares __backend_seam__ = True promises that "
        "all its array operations flow through repro.backend, where the "
        "precision policy (float64 exact, float32 fast) and its dtype "
        "dispatch live; a direct numpy/scipy import there is a side "
        "channel that ignores the selected precision, which the "
        "float32-vs-float64 differential verification never sees."
    )

    #: Import roots a seam module must obtain via :mod:`repro.backend`.
    ARRAY_LIBRARIES = frozenset({"numpy", "scipy"})

    @staticmethod
    def _is_backend_module(module: str) -> bool:
        """Whether the module lives in a ``backend`` (sub)package.

        The backend package itself is the one place allowed to touch the
        array libraries directly — that is its whole job.
        """
        return "backend" in module.split(".")

    def check_program(self, project: ProjectModel) -> Iterator[Finding]:
        for summary in project.ordered():
            if not summary.backend_seam:
                continue
            if self._is_backend_module(summary.module):
                continue
            for rec in sorted(summary.imports, key=lambda r: (r.line, r.col)):
                root = rec.module.split(".")[0]
                if root not in self.ARRAY_LIBRARIES:
                    continue
                yield self.program_finding(
                    summary,
                    rec.line,
                    rec.col,
                    f"{summary.module} declares __backend_seam__ but "
                    f"imports {rec.module} directly; route array "
                    "operations through repro.backend so the "
                    "precision policy applies",
                )
