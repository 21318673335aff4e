"""Smoke tests of the public surface: every narrative script under
``demos/`` runs to completion, and every exported name resolves."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

import plugplay_qkd

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # demos write their CSVs to the working directory, so the child runs in
    # a scratch one, on the package this test imported
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_exported_names_resolve():
    # a star import raises on a listed name the package does not define
    namespace = {}
    exec("from plugplay_qkd import *", namespace)
    assert set(plugplay_qkd.__all__) <= set(namespace)
