"""Smoke tests of the public surface: every narrative script under
``demos/`` runs to completion, every exported name resolves, and each one
is used by the command line, a demo or the acceptance suite."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

import plugplay_qkd

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_every_exported_name_is_used():
    # the public API is what the command line, the demos and the acceptance
    # suite import; the types its functions return need no import
    users = [ROOT / "src" / "plugplay_qkd" / "cli.py", *DEMOS, ROOT / "tests" / "test_acceptance.py"]
    imported = {
        alias.name
        for path in users
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "plugplay_qkd")
        for alias in node.names
    }
    unused = set(plugplay_qkd.__all__) - imported - {"DetectionRecords", "QberEstimate", "DelayScanResult", "__version__"}
    assert not unused
