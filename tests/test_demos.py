"""Smoke tests of the public surface: every narrative script under
``demos/`` runs to completion, and every exported name resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import plugplay_qkd

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # same recipe as test_module_entry_point: the child runs in a scratch
    # directory (demos write their CSVs to the working directory) with the
    # directory of the imported package first on an absolute PYTHONPATH
    package_root = str(Path(plugplay_qkd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_exported_names_resolve():
    # a star import raises on a listed name the package does not define
    namespace = {}
    exec("from plugplay_qkd import *", namespace)
    assert set(plugplay_qkd.__all__) <= set(namespace)
