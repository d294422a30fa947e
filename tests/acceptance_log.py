"""Acceptance criteria outcomes, one summary line each.

Kept out of conftest.py so test modules can import it by a name no other
test directory's conftest.py shadows.
"""

_ACCEPTANCE: list[tuple[int, str, str, str]] = []


def record_acceptance(number: int, name: str, passed: bool | None, detail: str = "") -> None:
    """Record a criterion outcome; passed=None means skipped."""
    status = "SKIP" if passed is None else ("PASS" if passed else "FAIL")
    _ACCEPTANCE.append((number, name, status, detail))
