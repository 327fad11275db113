"""What an import loads: package re-exports resolve on first access, so a
process pays only for the submodules it uses (``docs/PERFORMANCE.md``,
"Import only what runs")."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Every package whose ``__init__`` re-exports lazily (all but
#: ``repro.experiments``, whose import is the run path itself).
LAZY_PACKAGES = (
    "baselines",
    "core",
    "grid",
    "metrics",
    "net",
    "obs",
    "overlay",
    "runtime",
    "scheduling",
    "sim",
    "workload",
)

#: What the live wire must not drag in: the simulator, the protocol agent,
#: the overlay, the schedulers and the coordinators.
SIMULATOR = {
    "repro.experiments",
    "repro.core.protocol",
    "repro.overlay",
    "repro.scheduling",
    "repro.runtime.proc",
    "repro.runtime.serve",
    "repro.runtime.telemetry",
}


def loaded_after(code):
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            code + "\nimport sys; print(' '.join(m for m in sys.modules"
            " if m.startswith('repro')))",
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_the_live_wire_loads_no_simulator():
    """A live endpoint — the imports of ``bench/worker.py``'s ``run_live``
    plus ``WallClock`` and ``LiveTransport`` — loads no simulator code."""
    loaded = loaded_after(
        "import repro.runtime, repro.net.reliability, repro.core.messages, "
        "repro.grid.profiles, repro.workload.jobs\n"
        "repro.runtime.LiveTransport, repro.runtime.WallClock"
    )
    assert "repro.runtime.transport" in loaded
    assert not loaded & SIMULATOR, sorted(loaded & SIMULATOR)
    for module in ("repro.runtime.codec", "repro.core.messages"):
        assert "repro.core.protocol" not in loaded_after(f"import {module}"), module


def defining_module(package, name):
    """The submodule of ``package`` that binds ``name`` at top level
    other than by importing it."""
    homes = []
    for path in sorted((PACKAGE / package).glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                bound = {node.name}
            elif isinstance(node, ast.Assign):
                bound = {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                bound = {node.target.id}
            else:
                continue
            if name in bound:
                homes.append(f"repro.{package}.{path.stem}")
    assert len(homes) == 1, (name, homes)
    return homes[0]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves(package):
    """Importing the package loads none of its submodules, yet ``dir``
    lists every export.  Each export is listed under the submodule that
    defines it, resolves to the very object that submodule holds, is then
    a plain attribute, and is bound by ``import *``; any other name is an
    ``AttributeError``."""
    module = importlib.import_module(f"repro.{package}")
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    loaded = loaded_after(
        f"import repro.{package} as p\n"
        "missing = set(p.__all__) - set(dir(p))\n"
        "assert not missing, sorted(missing)"
    )
    assert loaded == {"repro", "repro._exports", f"repro.{package}"}, loaded
    (call,) = [
        node.value
        for node in ast.parse((PACKAGE / package / "__init__.py").read_text()).body
        if isinstance(node, ast.Assign)
    ]
    keys = [key.value for key in call.args[1].keys]
    assert len(keys) == len(set(keys)), keys
    table = ast.literal_eval(call.args[1])
    for name in module.__all__:
        value = getattr(module, name)
        home = defining_module(package, name)
        (listed,) = [sub for sub, names in table.items() if name in names]
        assert f"repro.{package}{listed}" == home, (name, listed)
        assert value is getattr(importlib.import_module(home), name), name
        assert vars(module)[name] is value, name
    with pytest.raises(AttributeError, match=f"repro.{package}"):
        getattr(module, "no_such_export")
    namespace = {}
    exec(f"from repro.{package} import *", namespace)
    assert set(module.__all__) <= set(namespace), package
