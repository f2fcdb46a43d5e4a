"""The one result type: every validator and every CLI command reports a
`ValidationReport` of `Check`s.

A check is either a law (passed True or False, with the first counterexample
in lexicographic scan order when it fails) or an informational finding
(passed None, with a value). Validators never raise on a failed law; they
record the counterexample and carry on, so a report always covers every law
it promises.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass(frozen=True)
class Check:
    """Outcome of one law over its stated domain, or one finding (passed None)."""

    law: str
    passed: bool | None
    exhaustive: bool = True
    checked: int | None = None
    counterexample: tuple[int, ...] | None = None
    value: Any = None

    @property
    def shown_value(self) -> Any:
        """What the reports print: the counterexample if there is one."""
        return self.value if self.counterexample is None else f"counterexample {self.counterexample}"


def first(bad: np.ndarray, prefix: tuple[int, ...] = ()) -> tuple[int, ...]:
    """`prefix` followed by the index of the first True cell of `bad`."""
    return prefix + tuple(int(x) for x in np.argwhere(bad)[0])


def law_check(law: str, bad: np.ndarray, checked: int | None = None) -> Check:
    """An exhaustive check over the cells of `bad` (or `checked` cases),
    failing at its first True cell."""
    ok = not bad.any()
    return Check(law, ok, True, bad.size if checked is None else checked, None if ok else first(bad))


def report_once(subject, validate, max_enum: int | None = None) -> ValidationReport:
    """`validate(subject, max_enum)`, run once per subject and kept on it
    (a frozen dataclass with one validator, such as a ring or a module), so
    a construction that validates and a command that reports the same
    object share one run."""
    report = subject.__dict__.get("_report")
    if report is None:
        report = subject.__dict__["_report"] = validate(subject, max_enum)
    return report


@dataclass(frozen=True)
class ValidationReport:
    """Checks about one subject; the CLI uses the command name as subject.
    `document`, when set, is printed for --json in place of the standard
    schema."""

    subject: str
    checks: tuple[Check, ...]
    inputs: dict | None = None
    witnesses: dict | None = None
    document: dict | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    @property
    def exhaustive(self) -> bool:
        return all(c.exhaustive for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if c.passed is False)

    def check(self, law: str) -> Check:
        for c in self.checks:
            if c.law == law:
                return c
        raise KeyError(law)

    def raise_on_failure(self, context: str) -> None:
        """Raise ValueError naming the first failed law, after `context`."""
        if not self.passed:
            c = self.failures()[0]
            raise ValueError(f"{context}: {self.subject} fails {c.law} at {c.counterexample}")

    def to_json_dict(self) -> dict:
        if self.document is not None:
            return self.document
        return {
            "command": self.subject,
            "inputs": self.inputs,
            "results": [
                {"name": c.law, "passed": c.passed, "value": c.shown_value, "exhaustive": c.exhaustive}
                for c in self.checks
            ],
            "witnesses": self.witnesses,
        }

    def human(self, elapsed: float) -> str:
        lines = [f"trusskit {self.subject}"]
        for key, val in (self.inputs or {}).items():
            lines.append(f"  input {key} = {val}")
        for c in self.checks:
            status = "INFO" if c.passed is None else "PASS" if c.passed else "FAIL"
            mode = "exhaustive" if c.exhaustive else "not exhaustive"
            value = "" if c.shown_value is None else f" = {c.shown_value}"
            lines.append(f"  [{status}] {c.law}{value} ({mode})")
        for key, val in (self.witnesses or {}).items():
            lines.append(f"  witness {key} = {json.dumps(val)}")
        lines.append(f"elapsed: {elapsed:.3f}s")
        return "\n".join(lines)
