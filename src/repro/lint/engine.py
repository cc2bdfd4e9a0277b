"""Lint driver: file discovery, parse cache, suppressions, rule runs.

A :class:`LintTree` wraps one source root (normally the repository
checkout; the fixture tests point it at miniature trees) and caches
sources and parsed ASTs so every rule shares one parse per file.
:func:`run_lint` runs the selected rules and filters findings through
the suppression comments, returning the rest sorted by location.

Suppression syntax — a comment on the offending line, or alone on the
line directly above it::

    handle = open(probe, "w")  # repro-lint: ignore[durable-publish] why...
    # repro-lint: ignore[rule-a,rule-b] shared justification
    offending_line()

The bracket list names the rules being waived; a bare
``# repro-lint: ignore`` waives every rule for that line.  Trailing
text is the expected place for the justification — suppressions in
this repo should say *why* the invariant does not apply.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.lint.findings import Finding
from repro.lint.registry import all_rules

#: Where lintable sources live, relative to the root.  The lint scope
#: is deliberately the shipped package — tests exercise the invariants
#: the rules encode (wall clocks, unseeded RNGs) on purpose.
SOURCE_PREFIX = "src/repro"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\- ]+)\])?"
)


class LintError(RuntimeError):
    """The lint run itself cannot proceed (bad root, unparseable file,
    unknown rule) — distinct from findings, which are exit-code-1
    results, this is an exit-code-2 configuration error."""


class LintTree:
    """One source tree under lint, with per-file parse caching."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).resolve()
        self._sources: Dict[str, str] = {}
        self._trees: Dict[str, ast.Module] = {}
        self._suppressions: Dict[str, Dict[int, Optional[frozenset]]] = {}
        if not (self.root / SOURCE_PREFIX).is_dir():
            raise LintError(
                f"{self.root} does not look like a repro checkout "
                f"(no {SOURCE_PREFIX}/ directory)"
            )

    # ------------------------------------------------------------------
    # Discovery / access
    # ------------------------------------------------------------------
    def py_files(self) -> List[str]:
        """Root-relative POSIX paths of every lintable source file,
        sorted so runs are deterministic."""
        base = self.root / SOURCE_PREFIX
        return sorted(
            path.relative_to(self.root).as_posix()
            for path in base.rglob("*.py")
        )

    def exists(self, rel: str) -> bool:
        return (self.root / rel).is_file()

    def read_bytes(self, rel: str) -> bytes:
        return (self.root / rel).read_bytes()

    def source(self, rel: str) -> str:
        if rel not in self._sources:
            self._sources[rel] = (self.root / rel).read_text(encoding="utf-8")
        return self._sources[rel]

    def tree(self, rel: str) -> ast.Module:
        if rel not in self._trees:
            try:
                self._trees[rel] = ast.parse(self.source(rel), filename=rel)
            except SyntaxError as error:
                raise LintError(f"cannot parse {rel}: {error}") from error
        return self._trees[rel]

    # ------------------------------------------------------------------
    # Suppressions
    # ------------------------------------------------------------------
    def _suppressed_lines(self, rel: str) -> Dict[int, Optional[frozenset]]:
        """Line → waived rule names (``None`` means every rule)."""
        if rel not in self._suppressions:
            table: Dict[int, Optional[frozenset]] = {}
            for number, text in enumerate(self.source(rel).splitlines(), start=1):
                match = _SUPPRESS_RE.search(text)
                if match is None:
                    continue
                names = match.group("rules")
                rules = (
                    None
                    if names is None
                    else frozenset(
                        name.strip() for name in names.split(",") if name.strip()
                    )
                )
                table[number] = rules
                # A standalone suppression comment covers the next
                # line, so long statements can keep their own line.
                if text.lstrip().startswith("#"):
                    table.setdefault(number + 1, rules)
            self._suppressions[rel] = table
        return self._suppressions[rel]

    def is_suppressed(self, finding: Finding) -> bool:
        try:
            table = self._suppressed_lines(finding.path)
        except OSError:
            return False
        rules = table.get(finding.line, frozenset())
        if rules is None:
            return True
        return finding.rule in rules


def run_lint(
    root: str | Path, rule_names: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Run the (selected) rules over ``root``; suppressions applied,
    findings sorted by location.  Raises :class:`LintError` for an
    unusable root or an unknown rule name."""
    tree = LintTree(root)
    available = all_rules()
    if rule_names:
        unknown = sorted(set(rule_names) - set(available))
        if unknown:
            raise LintError(
                f"unknown rule(s) {', '.join(unknown)}; "
                f"available: {', '.join(sorted(available))}"
            )
        rules = [available[name] for name in sorted(set(rule_names))]
    else:
        rules = list(available.values())
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(tree))
    return sorted(f for f in findings if not tree.is_suppressed(f))
