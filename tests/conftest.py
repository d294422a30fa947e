"""Shared test plumbing: acceptance criteria get one summary line each."""

from acceptance_log import _ACCEPTANCE


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, status, detail in sorted(_ACCEPTANCE):
        line = f"ACCEPTANCE {number} [{status}] {name}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
