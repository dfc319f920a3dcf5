"""The public surface: every name ``dunklkg`` exports is reached from the package.

A name counts as reached when some module of the package other than
``__init__`` loads it outside its own definition (a recursive call does not
count).  The few exports without such a caller are listed with the reason
they stay.
"""

import ast
import re
from pathlib import Path

import numpy as np

import dunklkg

PKG = Path(dunklkg.__file__).parent

ALLOWED_UNREACHED = {
    "dunkl_apply": "the paper's Dunkl operator; to be reached by a verify check",
    "symmetric_grid": "the Dunkl operator's grid; to be reached by a verify check",
    "ode_residual": "the tests' single-n ODE oracle; timed by the benchmark tracer",
}


def _exported():
    tree = ast.parse((PKG / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _loaded(node, skip=None):
    """Names read (as a bare name or an attribute) anywhere under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    out.discard(skip)
    return out


def _reached():
    out = set()
    for path in PKG.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)  # a def or class is not its own caller
            out |= _loaded(stmt, skip=own)
    return out


def test_every_export_is_reached_from_the_package():
    unreached = _exported() - _reached() - set(ALLOWED_UNREACHED)
    assert not unreached, f"exported but never used inside dunklkg: {sorted(unreached)}"


def test_allow_list_names_only_unreached_exports():
    stale = set(ALLOWED_UNREACHED) - (_exported() - _reached())
    assert not stale, f"allow-listed but exported-and-reached or gone: {sorted(stale)}"


def test_readme_library_example_runs():
    # the README's Library block, run as written, so it follows the API
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Library\n\n```python\n(.*?)^```$", readme, re.M | re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    profile = namespace["profile"]
    assert abs(np.trapezoid(profile.values, profile.points) - 1.0) < 1e-12
