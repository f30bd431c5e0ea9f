"""Check results and reports shared by the checkers and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .spans import FinMap, first_difference


@dataclass(frozen=True)
class CheckResult:
    """One verdict, decided by its witness: the line fails exactly when it
    carries one (any value but None) and passes when it carries none.
    `skip` builds the only lines whose `passed` is None.  A bool witness is
    refused, since it can only be a pass/fail flag.  A line is frozen, so
    a memoised verdict cannot be rewritten through a report that holds it."""

    name: str
    witness: Any = None
    detail: str = ""
    skipped: bool = field(default=False, init=False)

    def __post_init__(self):
        if isinstance(self.witness, bool):
            raise TypeError(f"{self.name}: a witness is a failing element, not a pass/fail flag")

    @classmethod
    def skip(cls, name: str, detail: str) -> "CheckResult":
        result = cls(name, detail=detail)
        object.__setattr__(result, "skipped", True)
        return result

    @property
    def passed(self) -> Optional[bool]:
        return None if self.skipped else self.witness is None

    @property
    def status(self) -> str:
        return "skipped" if self.skipped else "pass" if self.witness is None else "FAIL"

    def line(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        if self.witness is not None:
            extra += f" witness={self.witness!r}"
        return f"[{self.status}] {self.name}{extra}"


@dataclass
class Report:
    results: list[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> "Report":
        self.results.append(result)
        return self

    def equal(self, name: str, lhs: FinMap, rhs: FinMap) -> "Report":
        """Add the check that two maps agree, witnessed on failure by the
        first element where they differ."""
        return self.add(CheckResult(name, first_difference(lhs.table, rhs.table)))

    def extend(self, other: "Report") -> "Report":
        self.results.extend(other.results)
        return self

    @property
    def ok(self) -> bool:
        return all(r.witness is None for r in self.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.witness is not None]

    def require(self, error: type[Exception], prefix: str) -> "Report":
        """This report when every line holds; otherwise raise `error`,
        its message `prefix` and the name of the first failing line."""
        if not self.ok:
            raise error(prefix + self.failures[0].name)
        return self

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]

    def __str__(self) -> str:
        return "\n".join(self.lines())
