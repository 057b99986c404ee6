"""Per-rule configuration: which rules run, and on which modules.

Each rule carries a *scope* — a tuple of path fragments; the rule runs
on a module when any fragment occurs in the module's POSIX-normalised
path (``"*"`` matches every module).  The defaults below encode this
project's contracts: determinism is a property of the ranking/mining
kernels, dtype discipline of the store codecs, exception hygiene of
everything.  Tests (and future rules) override scopes by constructing
an :class:`AnalysisConfig` directly.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

#: The byte-identical ranking/mining kernel modules: everything on the
#: mine → score → serve path whose output the differential harnesses
#: pin against the reference implementation.
KERNEL_SCOPE: Tuple[str, ...] = (
    "repro/columnar/",
    "repro/search/topk.py",
    "repro/temporal/",
    "repro/spatial/",
    "repro/store/",
    "repro/faults/",
)

#: Modules bound by the typed-escalation failure contract: everything
#: that touches store bytes or serves from them.  An ``except OSError``
#: in this scope must escalate (typed ReproError) or quarantine.
ESCALATION_SCOPE: Tuple[str, ...] = (
    "repro/store/",
    "repro/live/",
    "repro/search/",
    "repro/faults/",
)

#: Modules that touch (or receive) memory-mapped segment arrays.
MMAP_SCOPE: Tuple[str, ...] = (
    "repro/store/",
    "repro/columnar/",
    "repro/search/",
    "repro/live/",
)

#: The single module allowed to call a raw array loader — the read
#: boundary where segment arrays are frozen ``writeable=False``.
MMAP_BOUNDARY: Tuple[str, ...] = ("repro/store/format.py",)

#: Classes holding versioned, cache-backed indexed state.
INVALIDATION_SCOPE: Tuple[str, ...] = (
    "repro/streams/",
    "repro/live/",
    "repro/search/",
    "repro/store/",
)

#: Public entry-point modules bound by the typed-error contract: a
#: public function here may only let ``ReproError`` subtypes (or the
#: deliberate ``InjectedCrash``) escape, however deep the raise sits.
ERROR_CONTRACT_SCOPE: Tuple[str, ...] = (
    "repro/cli.py",
    "repro/search/",
    "repro/store/",
    "repro/live/",
)

#: Exception types a public entry point may let escape besides
#: ``ReproError`` subtypes: the fault-injection crash (a deliberate
#: ``BaseException`` so ``except Exception`` cannot eat it) and the
#: control-flow builtins that are protocol, not failure.
ERROR_CONTRACT_ALLOWED: Tuple[str, ...] = (
    "repro.errors.ReproError",
    "repro.faults.io.InjectedCrash",
    "SystemExit",
    "KeyboardInterrupt",
    "GeneratorExit",
    "StopIteration",
    "StopAsyncIteration",
    "NotImplementedError",
)

DEFAULT_SCOPES: Dict[str, Tuple[str, ...]] = {
    "determinism": KERNEL_SCOPE,
    "mmap-safety": MMAP_SCOPE,
    "dtype-discipline": ("repro/store/", "repro/columnar/postings.py"),
    "exception-hygiene": ("*",),
    "error-escalation": ESCALATION_SCOPE,
    "picklability": ("*",),
    "cache-invalidation": INVALIDATION_SCOPE,
    # program (whole-project) rules
    "error-contract": ERROR_CONTRACT_SCOPE,
    "mmap-escape": ("repro/store/",),
    "invalidation-reachability": INVALIDATION_SCOPE,
    "blocking-in-async": ("*",),
}


@dataclasses.dataclass(frozen=True)
class AnalysisConfig:
    """Which rules run where.

    Attributes:
        scopes: rule name → path fragments the rule applies to
            (``"*"`` = everywhere).  A registered rule missing from the
            map never runs.
        options: rule name → free-form rule settings (e.g. the
            mmap-safety boundary module list).
        select: when given, only these rules run.
        ignore: these rules never run (applied after ``select``).
    """

    scopes: Mapping[str, Tuple[str, ...]]
    options: Mapping[str, Mapping[str, object]] = dataclasses.field(
        default_factory=dict
    )
    select: Optional[FrozenSet[str]] = None
    ignore: FrozenSet[str] = frozenset()

    def enabled(self, rule_name: str) -> bool:
        if rule_name in self.ignore:
            return False
        if self.select is not None and rule_name not in self.select:
            return False
        return rule_name in self.scopes

    def applies(self, rule_name: str, path: str) -> bool:
        """True when ``rule_name`` should run on the module at ``path``."""
        if not self.enabled(rule_name):
            return False
        posix = path.replace("\\", "/")
        return any(
            fragment == "*" or fragment in posix
            for fragment in self.scopes[rule_name]
        )

    def option(self, rule_name: str, key: str, default: object) -> object:
        return self.options.get(rule_name, {}).get(key, default)


def default_config(
    select: Optional[FrozenSet[str]] = None,
    ignore: FrozenSet[str] = frozenset(),
) -> AnalysisConfig:
    """The project configuration: every rule, project-contract scopes.

    Raises:
        ConfigurationError: when ``select`` or ``ignore`` names a rule
            that is not registered — a typo in ``--select`` must fail
            loudly (exit 2), not pass silently as "no findings".
    """
    from repro.analysis.registry import all_rule_names  # import cycle

    known = all_rule_names()
    for name in sorted((select or frozenset()) | ignore):
        if name not in known:
            raise ConfigurationError(
                f"unknown rule {name!r}; registered rules: "
                f"{', '.join(known)}"
            )
    return AnalysisConfig(
        scopes=dict(DEFAULT_SCOPES),
        options={
            "mmap-safety": {"boundary": MMAP_BOUNDARY},
            "error-contract": {"allowed": ERROR_CONTRACT_ALLOWED},
            "mmap-escape": {"origin": ("repro/store/",)},
        },
        select=select,
        ignore=ignore,
    )
