"""``no-absolute-deadline``: no ``time.time() + delta`` in ``distrib/``.

The PR 7 bug class, as a rule.  The distributed queue spans machines
whose wall clocks disagree by minutes; an *absolute* deadline computed
as ``time.time() + delay`` and persisted into a task or lease field is
read on another host with the full cross-host skew added in — a retry
parks far past its backoff, or releases instantly.  The fix shipped in
PR 7 (and enforced here) is to persist *relative* durations
(``defer_for``) anchored to the mount's own mtime stamps, the one
clock domain every fleet member shares.

The rule flags every ``time.time() + <expr>`` (either operand order)
in ``src/repro/sweep/distrib/``, ``src/repro/serve/`` and
``src/repro/obs/``.  In-memory timeouts belong on ``time.monotonic()``
— which this rule deliberately does not flag — so inside those
packages there is no legitimate use of a wall-clock sum, and no line
there waives the rule.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.asthelpers import ImportMap, resolve_dotted
from repro.lint.registry import Rule, register

#: ``serve/`` rides along: stream/wait timeouts there must be relative
#: (monotonic) too — an HTTP tail can outlive any wall-clock
#: assumption a deadline would bake in.  ``obs/`` likewise: snapshot
#: publish cadence and span durations must never become wall-clock
#: deadlines read on another host.
SCOPE = ("src/repro/sweep/distrib/", "src/repro/serve/", "src/repro/obs/")


def _is_walltime_call(node: ast.expr, imports: ImportMap) -> bool:
    return (
        isinstance(node, ast.Call)
        and resolve_dotted(node.func, imports) == "time.time"
    )


@register
class AbsoluteDeadlineRule(Rule):
    name = "no-absolute-deadline"
    description = (
        "distrib/ code must persist relative durations anchored to "
        "mount mtimes, never time.time() + delta deadlines"
    )

    def check(self, tree) -> Iterator:
        for rel in tree.py_files():
            if not rel.startswith(SCOPE):
                continue
            module = tree.tree(rel)
            imports = ImportMap(module)
            for node in ast.walk(module):
                if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
                    continue
                if _is_walltime_call(node.left, imports) or _is_walltime_call(
                    node.right, imports
                ):
                    yield self.finding(
                        rel,
                        node.lineno,
                        "time.time() + delta builds an absolute wall-clock "
                        "deadline; persisted on the queue it inherits full "
                        "cross-host skew — store a relative duration "
                        "anchored to the task file's mtime instead "
                        "(see Lease.retry's defer_for)",
                    )
