"""Check results and reports shared by the checkers and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .spans import FinMap, first_difference


@dataclass
class CheckResult:
    """One verdict.  `passed` is None for skipped checks; every failure
    carries a concrete witness."""

    name: str
    passed: Optional[bool]
    witness: Any = None
    detail: str = ""

    @property
    def status(self) -> str:
        if self.passed is None:
            return "skipped"
        return "pass" if self.passed else "FAIL"

    def line(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        if self.passed is False and self.witness is not None:
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
        witness = first_difference(lhs.table, rhs.table)
        return self.add(CheckResult(name, witness is None, witness=witness))

    def extend(self, other: "Report") -> "Report":
        self.results.extend(other.results)
        return self

    @property
    def ok(self) -> bool:
        return all(r.passed is not False for r in self.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.passed is False]

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]

    def __str__(self) -> str:
        return "\n".join(self.lines())
