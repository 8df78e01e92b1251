from hypothesis import settings

# Property tests replay the same examples on every run and machine: no
# random example generation, no example database, no wall-clock deadline.
settings.register_profile("levylab", derandomize=True, deadline=None, database=None)
settings.load_profile("levylab")

_ACCEPTANCE_LINES = []


def record_acceptance(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    _ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
