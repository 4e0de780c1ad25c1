"""The package surface: every exported name is bound, star-importable, and
called, every name the benchmark binds resolves, and the package imports
numpy and the standard library alone."""

import ast
import importlib
import io
import os
import re
import subprocess
import sys
import tokenize
from collections import namedtuple

import pytest

import collidesim

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src", "collidesim")
_PERFBENCH = os.path.join(_ROOT, "perfbench")


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


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _code_lines(text):
    """The lines of a source text with every comment and string literal
    blanked, so that only code can mention a name."""
    lines = [list(line) for line in text.split("\n")]
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.COMMENT, tokenize.STRING):
            (first, start), (last, end) = tok.start, tok.end
            for row in range(first, last + 1):
                line = lines[row - 1]
                lo, hi = start if row == first else 0, end if row == last else len(line)
                line[lo:hi] = " " * (hi - lo)
    return ["".join(line) for line in lines]


_SOURCES = {
    name: _read(os.path.join(_SRC, name))
    for name in sorted(os.listdir(_SRC))
    if name.endswith(".py") and name != "__init__.py"
}
_CODE = {name: _code_lines(text) for name, text in _SOURCES.items()}


def _outside_words():
    """Words of perfbench/*.py and of the README's code spans and blocks."""
    words = set()
    for name in sorted(os.listdir(_PERFBENCH)):
        if name.endswith(".py"):
            words |= set(re.findall(r"\w+", _read(os.path.join(_PERFBENCH, name))))
    readme = _read(os.path.join(_ROOT, "README.md"))
    for code in re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.S):
        words |= set(re.findall(r"\w+", code))
    return words


_Definition = namedtuple("_Definition", "module qualified name first last is_function")


def _definitions():
    """Every top-level def, class and assignment and every method in src/
    but __init__.py; lines are 1-based and include decorators."""
    out = []
    for module, text in _SOURCES.items():
        for node in ast.parse(text).body:
            members = [("", node)]
            if isinstance(node, ast.ClassDef):
                members += [(node.name + ".", d) for d in node.body if isinstance(d, ast.FunctionDef)]
            for owner, d in members:
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                    names = [d.name]
                elif isinstance(d, ast.Assign):
                    names = [t.id for t in d.targets if isinstance(t, ast.Name)]
                else:
                    continue
                first = min([d.lineno] + [x.lineno for x in getattr(d, "decorator_list", [])])
                is_function = isinstance(d, ast.FunctionDef)
                out += [
                    _Definition(module, owner + name, name, first, d.end_lineno, is_function)
                    for name in names
                ]
    return out


def _uncalled(defs):
    """module:qualified name of each definition whose name no code of a src/
    line outside the definition mentions (a def or class statement of the
    same name, a comment and a string literal are not mentions) and no word
    outside src/ is."""
    outside = _outside_words()
    missing = []
    for d in defs:
        word = re.compile(rf"\b{d.name}\b")
        header = re.compile(rf"\s*(?:def|class)\s+{d.name}\b")
        found = d.name in outside or any(
            word.search(line) and not header.match(line)
            for module, lines in _CODE.items()
            for no, line in enumerate(lines, 1)
            if not (module == d.module and d.first <= no <= d.last)
        )
        if not found:
            missing.append(f"{d.module}:{d.qualified}")
    return sorted(missing)


def test_every_exported_name_has_a_caller():
    # an alias export, with no definition of its own, is looked for on every line
    top = {d.name: d for d in _definitions() if d.qualified == d.name}
    exports = [top.get(name, _Definition("", name, name, 0, 0, False)) for name in collidesim.__all__]
    assert _uncalled(exports) == []


def test_every_public_function_and_method_has_a_caller():
    assert _uncalled(d for d in _definitions() if d.is_function and not d.name.startswith("_")) == []


def _perfbench_tuple(module, name):
    """The literal tuple a perfbench module assigns to `name` (the literal
    left operand where the value is `literal + ...`), read without importing."""
    for node in ast.parse(_read(os.path.join(_PERFBENCH, module))).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and name in targets:
            value = node.value.left if isinstance(node.value, ast.BinOp) else node.value
            return ast.literal_eval(value)
    raise AssertionError(f"perfbench/{module} assigns no {name}")


def test_every_name_the_benchmark_binds_resolves():
    # perfbench/tracer.py wraps each SPANS attribute, kernel_sweep.py times
    # each KERNELS kernel, and every benchmark run records active_kernels
    missing = []
    for module, attr, _ in _perfbench_tuple("tracer.py", "SPANS"):
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}:{attr}")
    for kernel in _perfbench_tuple("kernel_sweep.py", "KERNELS"):
        if not callable(getattr(collidesim._kernels, kernel, None)):
            missing.append(f"collidesim._kernels:{kernel}")
    assert missing == []
    assert isinstance(collidesim.active_kernels, str) and collidesim.active_kernels


def _imported_modules(text):
    """Top-level name of every module a source text imports, at any depth
    (imports inside functions included); a relative import is the package."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add("collidesim" if node.level else node.module.split(".")[0])
    return names


def test_the_package_needs_numpy_alone():
    sources = {**_SOURCES, "__init__.py": _read(os.path.join(_SRC, "__init__.py"))}
    allowed = set(sys.stdlib_module_names) | {"numpy", "collidesim"}
    outside = {
        (module, name)
        for module, text in sources.items()
        for name in _imported_modules(text)
        if name not in allowed
    }
    assert outside == set()
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(_ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [re.match(r"[\w-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]
