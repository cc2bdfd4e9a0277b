"""``repro lint`` — AST-based enforcement of the repo's contracts.

The reproduction rests on invariants that runtime tests can only check
*after the fact*: serial/pooled/distributed execution must replay
byte-identically, simulation code must never read the wall clock,
every publish to the shared-mount queue/cache/banks tree must be
atomic and fsync'd, and the frozen reference implementations must
never drift from the goldens pinned against them.  This package turns
each of those contracts into a machine-checked rule that runs in
milliseconds — cheap checks before expensive runs — so a violation is
a lint error at review time, not a flaky byte-identity failure three
PRs later.

Public surface:

* :func:`repro.lint.engine.run_lint` — run the rules over a source
  tree and return :class:`~repro.lint.findings.Finding` objects with
  suppression comments (``# repro-lint: ignore[rule] <why>``) already
  honoured — a suppression that gives its reason is the one waiver;
* :mod:`repro.lint.rules` — one module per rule; importing the package
  registers them all.

The CLI front door is ``repro lint`` (see :mod:`repro.cli`).
"""

from repro.lint.engine import LintError, LintTree, run_lint
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules, register

__all__ = [
    "Finding",
    "LintError",
    "LintTree",
    "Rule",
    "all_rules",
    "register",
    "run_lint",
]
