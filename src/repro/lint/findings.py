"""The unit of lint output: one rule violation at one source location."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation: where it is and what contract it breaks."""

    #: Path relative to the linted root, POSIX separators — stable
    #: across machines, so JSON output is portable.
    path: str
    #: 1-based source line of the offending node.
    line: int
    #: Registered rule name (``no-wallclock-in-sim``, ...).
    rule: str
    #: Human-oriented statement of the violation and the fix.
    message: str

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }

    def render(self) -> str:
        """The one-line text form: ``path:line: [rule] message``."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"
