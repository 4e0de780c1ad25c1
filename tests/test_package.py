"""The package surface: every exported name is bound and star-importable."""

import os
import subprocess
import sys

import collidesim


def test_every_exported_name_is_bound():
    missing = [name for name in collidesim.__all__ if not hasattr(collidesim, name)]
    assert missing == []
    assert len(set(collidesim.__all__)) == len(collidesim.__all__)


def test_star_import_in_a_fresh_interpreter():
    code = "from collidesim import *; import collidesim; print(len(collidesim.__all__))"
    src = os.path.dirname(os.path.dirname(collidesim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
        timeout=120,
    )
    assert int(out.stdout) == len(collidesim.__all__)
