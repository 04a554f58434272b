"""pytest plugin: the lines of src/hermcalc that a test run never executes.

    PYTHONPATH=src:tools python -m pytest -p line_trace

It needs the standard library alone (sys.settrace, and threading.settrace
for threads the tests start), so it runs where coverage is not installed.
A line counts as executable if the compiled module attributes bytecode to
it, and as run once any frame reports a line event on it. Each code object
is traced until all of its lines have run, which keeps the overhead of the
later calls to a function down to one call event. The terminal summary
ends with one line per module that has lines not run, and a total.
"""

import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hermcalc"
_PREFIX = str(SRC) + "/"
# code file name -> the lines its frames reported
_seen = {}
# code object -> its lines not yet reported (empty for code outside SRC)
_left = {}


def _own_lines(code):
    """Lines code attributes bytecode to, without a function's def line,
    which its frame never reports (the enclosing code runs that line)."""
    lines = {line for *_, line in code.co_lines() if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    return lines


def _tracer(frame, event, arg):
    code = frame.f_code
    left = _left.get(code)
    if left is None:
        own = os.path.realpath(code.co_filename).startswith(_PREFIX)
        left = _left[code] = _own_lines(code) if own else set()
    if not left:
        return None
    seen = _seen.setdefault(code.co_filename, set())

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
            left.discard(frame.f_lineno)
        return local

    return local


def _executable(path):
    """Every line that some code object of the module at path covers."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines |= {line for *_, line in code.co_lines() if line}
        todo += [c for c in code.co_consts if isinstance(c, type(code))]
    return lines


def _spans(lines):
    """Sorted line numbers as 'a-b' runs of consecutive lines."""
    spans = []
    for line in sorted(lines):
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def pytest_configure(config):
    sys.settrace(_tracer)
    threading.settrace(_tracer)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    write = terminalreporter.write_line
    terminalreporter.section("lines of src/hermcalc not run")
    seen, total, missed = {}, 0, 0
    for name, lines in _seen.items():
        seen.setdefault(os.path.realpath(name), set()).update(lines)
    for path in sorted(SRC.glob("*.py")):
        lines = _executable(path)
        left = lines - seen.get(str(path), set())
        total, missed = total + len(lines), missed + len(left)
        if left:
            write(f"{path.relative_to(SRC.parent.parent)}: {len(left)} of {len(lines)}: {_spans(left)}")
    write(f"total: {missed} of {total} executable lines not run")
