"""``durable-publish``: shared-mount writes go through the atomic helpers.

Everything under the cache root — cell summaries, the task queue,
bank artifacts, market snapshots — is read concurrently by other
processes and other machines, so a publish must be (a) atomic (write a
private temp, then one rename) and (b) durable (fsync the file, then
the parent directory) before it counts as written.  PR 6 retrofitted
exactly this onto writes that had shipped bare, and PR 7's clock-skew
fixes leaned on the same guarantees; this rule keeps the next
transport backend from regressing them.

The protocol lives once, in :mod:`repro.sweep.cache`:
:func:`atomic_publish` for a file, :func:`atomic_publish_dir` for a
directory artifact (its ``fill`` callback writes the files into the
private temp directory).  In ``sweep/cache.py``, ``sweep/banks.py``,
``market/snapshot.py``, ``sweep/distrib/*``, ``serve/*`` and ``obs/*``
any direct write — ``open(..., "w"/"wb"/append)``, ``json.dump``,
``Path.write_text``/``write_bytes`` — is a finding unless it sits
inside :func:`fsync_write_text`, the one function whose body is
necessarily a bare ``open`` (both helpers write through it).  Writes
that are *legitimately* non-durable (an empty lock file, a clock
probe, pre-publish private state) carry an in-line suppression stating
why.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.asthelpers import (
    ImportMap,
    call_mode,
    resolve_dotted,
    walk_with_function,
)
from repro.lint.registry import Rule, register

#: Files whose writes land in (or next to) the shared cache tree.
#: ``serve/`` is in: its job registry lives under the cache root and
#: is read by restarted servers and concurrent tenants.  ``obs/`` is
#: in: worker metric snapshots publish into the queue directory and
#: are read by the coordinator and ``repro top`` mid-crash.
#: ``market/snapshot.py`` is in: every worker memory-maps the market
#: snapshots it publishes under the cache root.
SCOPES = ("src/repro/sweep/distrib/", "src/repro/serve/", "src/repro/obs/")
SCOPE_FILES = (
    "src/repro/sweep/cache.py",
    "src/repro/sweep/banks.py",
    "src/repro/market/snapshot.py",
)

#: Functions that *are* the atomic-publish machinery; their bodies are
#: the one sanctioned place a bare write may live.
SANCTIONED_FUNCTIONS = {"fsync_write_text"}

_WRITE_MODES = set("wax+")
_WRITE_METHODS = {"write_text", "write_bytes"}

_REMEDY = (
    "publish via repro.sweep.cache.atomic_publish (a file) or "
    "atomic_publish_dir (a directory) so a crash can never surface a "
    "published-but-empty file on the shared mount"
)


@register
class DurablePublishRule(Rule):
    name = "durable-publish"
    description = (
        "cache/queue/banks writes must use the atomic "
        "tmp+rename+fsync publish path, never a bare write"
    )

    def _in_scope(self, rel: str) -> bool:
        return rel.startswith(SCOPES) or rel in SCOPE_FILES

    def check(self, tree) -> Iterator:
        for rel in tree.py_files():
            if not self._in_scope(rel):
                continue
            module = tree.tree(rel)
            imports = ImportMap(module)
            for node, function in walk_with_function(module):
                if not isinstance(node, ast.Call):
                    continue
                if function in SANCTIONED_FUNCTIONS:
                    continue
                # Bare builtin open() in a writing mode.
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "open"
                    and imports.origin("open") is None
                ):
                    mode = call_mode(node)
                    if mode is None or _WRITE_MODES & set(mode):
                        yield self.finding(
                            rel,
                            node.lineno,
                            f"direct open(..., {mode!r}) in the publish "
                            f"tree; {_REMEDY}",
                        )
                    continue
                # json.dump straight onto a handle.
                if resolve_dotted(node.func, imports) == "json.dump":
                    yield self.finding(
                        rel,
                        node.lineno,
                        f"json.dump writes straight to a handle; {_REMEDY}",
                    )
                    continue
                # Path.write_text / write_bytes on anything.
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _WRITE_METHODS
                ):
                    yield self.finding(
                        rel,
                        node.lineno,
                        f".{node.func.attr}(...) bypasses the atomic "
                        f"publish path; {_REMEDY}",
                    )
