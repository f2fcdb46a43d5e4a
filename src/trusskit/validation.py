"""Uniform pass/fail reports for exhaustive axiom checks.

Validators never raise on a failed law; they record the first counterexample
(in lexicographic scan order) and carry on, so a report always covers every
axiom family it promises.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """Outcome of one axiom family over its stated domain."""

    law: str
    passed: bool
    exhaustive: bool
    checked: int
    counterexample: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ValidationReport:
    subject: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exhaustive(self) -> bool:
        return all(c.exhaustive for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def check(self, law: str) -> Check:
        for c in self.checks:
            if c.law == law:
                return c
        raise KeyError(law)

    def law_passed(self, *laws: str) -> bool:
        return all(self.check(law).passed for law in laws)

    def __str__(self) -> str:
        lines = [f"validation of {self.subject}:"]
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            mode = "exhaustive" if c.exhaustive else "sampled"
            line = f"  [{status}] {c.law} ({mode}, {c.checked} cases)"
            if c.counterexample is not None:
                line += f" counterexample={c.counterexample}"
            lines.append(line)
        return "\n".join(lines)
