"""Shared pytest plumbing: collect acceptance-criterion verdicts and print
them in the terminal summary, where output capture cannot swallow them;
measure a call's peak allocation and what its result holds; list the
bit generators and generators a test builds; give a child interpreter this
package."""

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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


@pytest.fixture
def pcg64_builds(monkeypatch):
    """The seed of every ``np.random.PCG64`` built while the test runs, in
    the order they were built."""
    seeds = []
    pcg64 = np.random.PCG64

    def counted(seed=None):
        seeds.append(seed)
        return pcg64(seed)

    monkeypatch.setattr(np.random, "PCG64", counted)
    return seeds


@pytest.fixture
def generator_builds(monkeypatch):
    """The bit generator of every ``np.random.Generator`` built while the test
    runs, in the order they were built."""
    bit_generators = []
    generator = np.random.Generator

    def counted(bit_generator):
        bit_generators.append(bit_generator)
        return generator(bit_generator)

    monkeypatch.setattr(np.random, "Generator", counted)
    return bit_generators


def child_env():
    """The environment of a child interpreter that runs in any directory on
    the package these tests imported: a relative ``PYTHONPATH`` entry such as
    ``src`` names nothing elsewhere, so the package's own directory goes first."""
    import plugplay_qkd  # here, so a broken package fails its tests, not this plugin

    package_root = str(Path(plugplay_qkd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
