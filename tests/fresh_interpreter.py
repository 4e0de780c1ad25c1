"""Run a snippet in a fresh interpreter that imports the collidesim under test.

The snippet may call `peak_mib()`, the child's own peak resident memory, and
`scipy_modules()`, the scipy modules it has loaded. The peak is VmHWM from
/proc/self/status, which belongs to the child's own address space: Linux
carries the parent's ru_maxrss into a child across exec, so a child of a
large test process would report the parent's peak there.
"""

import os
import subprocess
import sys

import collidesim

_PRELUDE = """\
import sys


def peak_mib():
    with open('/proc/self/status') as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:')) / 1024


def scipy_modules():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')


"""


def run_child(code, *args, timeout=120):
    """stdout of `python -c code args...`, with the package's source first on
    the path."""
    root = os.path.dirname(os.path.dirname(collidesim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([root, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _PRELUDE + code, *map(str, args)],
        env=env, capture_output=True, text=True, check=True, timeout=timeout,
    )
    return out.stdout
