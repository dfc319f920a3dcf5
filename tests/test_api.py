"""The public surface: every name ``dunklkg`` exports is reached from the package.

A name counts as reached when some module of the package other than
``__init__`` loads it outside its own definition (a recursive call does not
count).  The few exports without such a caller are listed with the reason
they stay.

Start-up, each in a new interpreter: the exports load their module on first
access, so ``import dunklkg`` loads no numpy; ``import dunklkg.cli`` puts
every module the benchmark tracer reads in sys.modules, the array modules
as lazy ones, one object per module whichever is imported first; only the
commands that compute on arrays load numpy; and the CLI, when it is the
first to load numpy, pins OpenBLAS to one thread unless the environment
already sets a count.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import dunklkg

PKG = Path(dunklkg.__file__).parent

ALLOWED_UNREACHED = {
    "ode_residual": "the tests' single-n ODE oracle; timed by the benchmark tracer",
    "laguerre_sequence": "the tests' table oracle; wrapped by the benchmark tracer",
    "ladder_apply": "the stencils' ladder pair, which the tests read; wrapped by the benchmark "
                    "tracer",
}


def _exported():
    return set(dunklkg._EXPORTS)


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


def _own_definitions(module):
    """The functions and classes ``module`` defines, the methods of its
    classes, and the callbacks of its click commands."""
    for obj in vars(module).values():
        obj = getattr(obj, "callback", obj)  # a click command's function
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                if inspect.isfunction(member):
                    yield member


def test_every_type_hint_resolves():
    # a hint naming a symbol its module does not import raises NameError here
    unresolved = []
    for name in ["dunklkg"] + sorted(f"dunklkg.{p.stem}" for p in PKG.glob("[!_]*.py")):
        module = importlib.import_module(name)
        for obj in _own_definitions(module):
            try:
                typing.get_type_hints(obj)
            except NameError as exc:
                unresolved.append(f"{name}.{obj.__qualname__}: {exc}")
    assert not unresolved


def test_readme_library_example_runs():
    # the README's Library block, run as written, so it follows the API
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Library\n\n```python\n(.*?)^```$", readme, re.M | re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    profile = namespace["profile"]
    assert abs(np.trapezoid(profile.density, profile.x) - 1.0) < 1e-12


# --- start-up ---------------------------------------------------------------

# every name the package exported when its __init__ imported each module
EXPORTED_BY_MODULE = {
    "coherent": ["CoherentParams", "PhaseConvention", "ProfileData", "build_profile",
                 "coherent_closed_form", "coherent_evolved", "coherent_series",
                 "profiles_to_json", "suggested_series_terms"],
    "complexfn": ["gamma", "laguerre_rows", "laguerre_sequence", "log_gamma", "principal_log",
                  "principal_pow", "principal_sqrt"],
    "eigenfunctions": ["eigenfunction_r", "eigenfunction_rows", "eigenfunction_x",
                       "normalization", "ode_residual"],
    "errors": ["DegenerateError", "DomainError", "DunklKGError", "GridError",
               "NormalizationError"],
    "gridops": ["GridFunction", "derivative_4th", "ladder_apply", "positive_grid",
                "second_derivative_4th", "z3_apply"],
    "model": ["CurvatureCase", "bargmann_index", "parse_alpha", "parse_complex",
              "radial_coupling", "scale_factor", "sigma_index"],
    "refdata": ["compare_reference"],
    "spectrum": ["EnergyPair", "SpectrumTable", "energy_pair", "energy_shifts",
                 "self_consistency_residual", "spectrum_table", "table_to_csv", "table_to_json"],
    "verify": ["run_verification"],
}
# the modules bench/tracer.py takes from sys.modules after importing dunklkg.cli
TRACED_MODULES = ("complexfn", "eigenfunctions", "gridops", "coherent", "spectrum", "refdata",
                  "verify")


def _fresh(code, *args, **env_vars):
    """stdout of ``code`` as JSON, run in a new interpreter that imports this
    dunklkg, with OPENBLAS_NUM_THREADS unset unless ``env_vars`` sets it."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PKG.parent), env.get("PYTHONPATH")]))
    env.update(env_vars)
    child = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                           text=True, check=True)
    return json.loads(child.stdout)


def test_import_dunklkg_loads_no_numpy():
    assert "numpy" not in _fresh("import json, sys, dunklkg; print(json.dumps(list(sys.modules)))")


def test_import_verify_loads_no_numpy():
    # its array checks import numpy and the array modules when they run
    loaded = _fresh("import json, sys, dunklkg.verify; print(json.dumps(list(sys.modules)))")
    assert "numpy" not in loaded


def test_cli_import_loads_every_module_the_tracer_reads():
    loaded = _fresh("import json, sys, dunklkg.cli; print(json.dumps(sorted(sys.modules)))")
    assert {f"dunklkg.{name}" for name in TRACED_MODULES} <= set(loaded)


def test_every_name_the_tracer_wraps_resolves():
    # read from the tracer's own tables, so deleting a traced name fails here
    spec = importlib.util.spec_from_file_location("tracer", PKG.parents[1] / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(mod, None, name) for mod, name, *_ in tracer.FUNCTIONS]
    names += [(mod, cls, name) for mod, cls, name, *_ in tracer.METHODS]
    missing = []
    for mod, cls, name in names:
        owner = importlib.import_module(f"dunklkg.{mod}")
        if cls is not None:
            owner = getattr(owner, cls, None)
        if owner is None or name not in vars(owner):
            missing.append(".".join(filter(None, (mod, cls, name))))
    assert names and not missing, f"bench/tracer.py wraps names that are gone: {missing}"


# the modules dunklkg.cli registers lazily
LAZY_MODULES = ("gridops", "eigenfunctions", "coherent", "verify")

_IMPORTS = """
import json, sys
seen = {}
for statement in sys.argv[2:]:
    exec(statement)
    for name, module in list(sys.modules.items()):
        if name.startswith("dunklkg"):
            seen.setdefault(name, module)  # the first object under each name
import dunklkg, dunklkg.cli
same = [getattr(dunklkg, name) is sys.modules[f"dunklkg.{name}"]
        for name in json.loads(sys.argv[1])]
same += [dunklkg.cli.coherent is dunklkg.coherent, dunklkg.cli.verify is dunklkg.verify,
         dunklkg.coherent.require_memory is dunklkg.gridops.require_memory,
         all(sys.modules[name] is module for name, module in seen.items())]
print(json.dumps(same))
"""


@pytest.mark.parametrize("imports", [
    ["import dunklkg.cli"],
    ["import dunklkg.gridops", "import dunklkg.cli"],
    ["import dunklkg.coherent", "import dunklkg.cli"],
    ["import dunklkg.cli", "import dunklkg.gridops"],
    ["import dunklkg.cli", "from dunklkg.coherent import build_profile"],
])
def test_each_lazy_module_is_one_object_reached_from_the_package(imports):
    # a second module object would let a test patch a copy the CLI never calls
    assert _fresh(_IMPORTS, json.dumps(LAZY_MODULES), *imports) == [True] * 8


_RESOLVE = """
import importlib, json, sys
import dunklkg
listed, wrong = set(dir(dunklkg)), []
for module, names in json.loads(sys.argv[1]).items():
    for name in names:
        exec(f"from dunklkg import {name} as value")
        if name not in listed or value is not getattr(
                importlib.import_module(f"dunklkg.{module}"), name):
            wrong.append(name)
print(json.dumps(wrong))
"""


def test_every_former_export_resolves_lazily():
    assert _fresh(_RESOLVE, json.dumps(EXPORTED_BY_MODULE)) == []
    assert sorted(dunklkg.__all__) == sorted(sum(EXPORTED_BY_MODULE.values(), []))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'dunklkg' has no attribute 'no_such_name'"):
        dunklkg.no_such_name
    with pytest.raises(ImportError):
        from dunklkg import no_such_name


_CLI_IMPORT = """
import json, os, sys
{first}
before = dict(os.environ)
from dunklkg import cli
cli.coherent.build_profile  # numpy loads on the CLI's own path, as in density
tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
changed = sorted(k for k in set(before) | set(os.environ) if before.get(k) != os.environ.get(k))
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), tasks, changed, "numpy" in sys.modules]))
"""


def test_cli_pins_openblas_to_one_thread():
    threads, tasks, changed, numpy_loaded = _fresh(_CLI_IMPORT.format(first=""))
    assert threads == "1" and changed == ["OPENBLAS_NUM_THREADS"] and numpy_loaded
    if tasks is not None:  # /proc/self/task lists the threads on Linux only
        assert tasks == 1


def test_cli_keeps_a_preset_thread_count():
    assert _fresh(_CLI_IMPORT.format(first=""), OPENBLAS_NUM_THREADS="2")[::2] == ["2", []]


def test_cli_leaves_the_environment_of_a_host_that_loaded_numpy():
    assert _fresh(_CLI_IMPORT.format(first="import numpy"))[::2] == [None, []]


_CLI_RUN = """
import contextlib, io, json, os, sys
from dunklkg.cli import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(sys.argv[1:], prog_name="dunklkg")
    except SystemExit as exc:
        code = exc.code
tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
print(json.dumps([code, "numpy" in sys.modules, tasks]))
"""


@pytest.mark.parametrize("args, loads_numpy", [
    ("spectrum --alpha 1/2", False),
    ("table --reproduce table1", False),
    ("--help", False),
    ("density --alpha 1/2 --xi 0.3 --points 20", True),
    # the scalar verify suites; the random-sample and grid suites load numpy
    ("verify --suite casimir", False),
    ("verify --suite sigma", False),
    ("verify --suite table", False),
    ("verify --suite self_consistency", False),
    ("verify --suite gamma", True),
    ("verify --suite z3", True),
])
def test_only_the_array_commands_load_numpy(args, loads_numpy):
    code, numpy_loaded, tasks = _fresh(_CLI_RUN, *args.split())
    assert code == 0 and numpy_loaded == loads_numpy
    if tasks is not None:  # one thread, with numpy loaded or without
        assert tasks == 1
