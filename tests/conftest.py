"""Shared pytest plumbing: collect acceptance-criterion verdicts and print
them in the terminal summary, where output capture cannot swallow them;
measure a call's peak allocation and what its result holds; give a child
interpreter this package."""

import os
import tracemalloc
from pathlib import Path

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _traced_bytes(fn):
    """tracemalloc's peak during ``fn()`` and what it still traces once
    ``fn()`` has returned, both above what was traced at its start, and the
    call's result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base, held - base, result


def peak_bytes(fn):
    """tracemalloc's peak during ``fn()`` above what was traced at its start,
    and the call's result."""
    peak, _, result = _traced_bytes(fn)
    return peak, result


def held_bytes(fn):
    """What ``fn()``'s result holds: the bytes tracemalloc still traces once
    it has returned, above what was traced at its start; and the result."""
    _, held, result = _traced_bytes(fn)
    return held, result


def child_env():
    """The environment of a child interpreter that runs in any directory on
    the package these tests imported: a relative ``PYTHONPATH`` entry such as
    ``src`` names nothing elsewhere, so the package's own directory goes first."""
    import plugplay_qkd  # here, so a broken package fails its tests, not this plugin

    package_root = str(Path(plugplay_qkd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
