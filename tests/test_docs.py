"""Documentation consistency checks."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def read(name):
    return (ROOT / name).read_text()


def test_required_documents_exist():
    for name in (
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "docs/PROTOCOL.md",
        "docs/SIMULATION.md",
        "docs/API.md",
        "docs/PERFORMANCE.md",
    ):
        assert (ROOT / name).exists(), name


def test_readme_architecture_modules_exist():
    text = read("README.md")
    for module in re.findall(r"^repro\.(\w+)", text, flags=re.MULTILINE):
        importlib.import_module(f"repro.{module}")


def test_design_lists_every_figure_benchmark():
    text = read("DESIGN.md")
    bench_dir = ROOT / "benchmarks"
    for fig in range(1, 11):
        assert f"fig{fig}" in text
    for bench in bench_dir.glob("bench_fig*.py"):
        assert bench.name in text, bench.name


def test_experiments_covers_every_figure():
    text = read("EXPERIMENTS.md")
    for fig in range(1, 11):
        assert f"Figure {fig}" in text, f"Figure {fig} missing"


def test_examples_documented_in_readme():
    text = read("README.md")
    for example in (ROOT / "examples").glob("*.py"):
        assert example.name in text, example.name


def test_scenarios_in_design_match_catalog():
    from repro.experiments import SCENARIOS

    design = read("DESIGN.md")
    # The per-experiment index must reference the headline scenarios.
    for name in ("iMixed", "iDeadline", "iExpanding", "iInform1"):
        assert name in design
    assert len(SCENARIOS) == 26


def test_the_grid_recipe_is_written_once():
    """Sim, live and --procs run the same grid because they share one
    assembler (``repro.experiments.assembly``), not because copies agree."""
    sources = {
        path.relative_to(ROOT / "src" / "repro").as_posix(): path.read_text()
        for path in (ROOT / "src" / "repro").rglob("*.py")
    }
    for call in (
        r"\bAriaAgent\(",
        r"(?<!def )\brandom_node_profile\(",
        r"\bRunResult\(",  # not BaselineRunResult( / ProcRunResult(
    ):
        sites = [
            name for name, text in sources.items() if re.search(call, text)
        ]
        assert sites == ["experiments/assembly.py"], (call, sites)


def test_the_cost_fold_is_written_once():
    """Every policy quotes through ``costs.ettc`` / ``costs.nal`` over an
    order ``execution_order`` produced: no cache beside the fold, no
    second spelling of it (``docs/PERFORMANCE.md`` says when one may
    return)."""
    sources = {
        path.name: path.read_text()
        for path in (ROOT / "src" / "repro" / "scheduling").glob("*.py")
    }
    for name, text in sources.items():
        for gone in (
            "_version", "probe_mode", "_prefix_fold", "_probe_index", "sort_value"
        ):
            assert gone not in text, (gone, name)
    for fold in ("def ettc", "def nal"):
        sites = [
            path.relative_to(ROOT / "src" / "repro").as_posix()
            for path in (ROOT / "src" / "repro").rglob("*.py")
            if fold in path.read_text()
        ]
        assert sites == ["scheduling/costs.py"], (fold, sites)


def test_the_hosting_rule_is_written_once():
    """Which node may hold which job is ``GridNode.can_host``, computed
    per call (``docs/PERFORMANCE.md``, "The hosting rule, computed"): no
    memo beside it, no older partial copy, and outside the schedulers
    only the node reads whether a policy honours reservations."""
    package = ROOT / "src" / "repro"
    for path in package.rglob("*.py"):
        text = path.read_text()
        name = path.relative_to(package).as_posix()
        for gone in (
            "_match_cache",
            "_MATCH_CACHE_LIMIT",
            "can_execute",
            "_hosts_family",
            "_static_match",
        ):
            assert gone not in text, (gone, name)
        if not name.startswith("scheduling/") and name != "grid/node.py":
            assert "supports_reservations" not in text, name


def test_each_export_is_written_once():
    """A package re-exports through one ``lazy_exports`` table, with
    ``__all__`` derived from it (``docs/PERFORMANCE.md``, "Import only
    what runs"): no ``from .x import`` block beside a hand-kept list.
    ``repro.experiments`` stays eager — importing it is the run path."""
    package = ROOT / "src" / "repro"
    for path in sorted(package.glob("*/__init__.py")):
        if path.parent.name == "experiments":
            continue
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), path
        body = tree.body
        imports = [
            ast.unparse(node)
            for node in body
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert imports == ["from .._exports import lazy_exports"], path
        (table,) = [node for node in body if isinstance(node, ast.Assign)]
        assert [t.id for t in table.targets[0].elts] == [
            "__getattr__", "__dir__", "__all__",
        ], path
        assert table.value.func.id == "lazy_exports", path
        assert len(body) == 3, path


def test_the_hot_path_is_written_once():
    """One delivery door (plus its ack sibling), one fault verdict, one
    agent-side emitter and no traced twin of the dispatch loop —
    ``docs/PERFORMANCE.md``, "One of each stage"."""
    package = ROOT / "src" / "repro"
    sources = {
        path.relative_to(package).as_posix(): path.read_text()
        for path in package.rglob("*.py")
    }

    def sites(needle):
        return {
            name: text.count(needle)
            for name, text in sources.items()
            if needle in text
        }

    for gone in (
        "_deliver_tagged", "_deliver_stamped", "_on_ack_stamped",
        "_run_until_traced",
    ):
        assert sites(gone) == {}, gone
    assert sites("faults.judge(") == {"net/transport.py": 1}
    doors = {
        name: re.findall(r"def (_deliver\w*)\(", text)
        for name, text in sources.items()
        if "def _deliver" in text
    }
    assert doors == {
        "net/transport.py": ["_deliver", "_deliver_ack"],
        "baselines/multirequest.py": ["_deliver_copy"],  # of jobs, unrelated
    }
    protocol = sources["core/protocol.py"]
    assert protocol.count("_trace.emit(") == 1
    emitter = protocol.index("def _emit(")
    assert (
        emitter
        < protocol.index("_trace.emit(")
        < protocol.index("def ", emitter + 1)
    )


def test_the_overlay_is_held_once():
    """One neighbour list per node is the only adjacency — no view cache,
    no versioned CSR copy — and an ordered window is a plain dict unless
    it reorders in the middle (``docs/PERFORMANCE.md``, "The overlay,
    held once", says when a CSR may return)."""
    package = ROOT / "src" / "repro"
    for path in (package / "overlay").glob("*.py"):
        text = path.read_text()
        for gone in ("neighbor_slab", "_slab", "_views", "_version"):
            assert gone not in text, (gone, path.name)
    importers = sorted(
        path.relative_to(package).as_posix()
        for path in package.rglob("*.py")
        if re.search(r"^\s*(from|import) .*\bOrderedDict\b", path.read_text(), re.M)
    )
    # The overlay cache calls move_to_end; the ack window was measured (PR 19).
    assert importers == ["experiments/assembly.py", "net/reliability.py"]


def test_the_overlay_searches_are_written_once():
    """One breadth-first search and one pairwise distance, both level by
    level over plain lists (``docs/PERFORMANCE.md``, "The overlay,
    converged with less search"): no second BFS beside them, no deque."""
    package = ROOT / "src" / "repro"
    for search in ("def bfs_distances(", "def hop_distance("):
        sites = {
            path.relative_to(package).as_posix(): path.read_text().count(search)
            for path in package.rglob("*.py")
            if search in path.read_text()
        }
        assert sites == {"overlay/metrics.py": 1}, (search, sites)
    for path in (package / "overlay").glob("*.py"):
        assert "deque(" not in path.read_text(), path.name


def test_the_wire_is_written_once():
    """One framer cuts messages out of the bytes in either direction, one
    call opens a connection, and the message path schedules no task and
    no ``wait_for`` per message: a task only opens a connection
    (``docs/RUNTIME.md``, "Connections"), and the transport's sends take
    the pooled exchange."""
    package = ROOT / "src" / "repro"
    sources = {
        path.relative_to(package).as_posix(): path.read_text()
        for path in package.rglob("*.py")
    }
    for needle, count in (
        ("class _Framer", 1),
        ("create_connection(", 1),
        ("def _read_message", 0),
        ("def _exchange(", 0),
        ("_post_http", 0),
    ):
        found = {
            name: text.count(needle)
            for name, text in sources.items()
            if needle in text
        }
        assert found == ({"runtime/http.py": count} if count else {}), needle
    for name, text in sources.items():
        if name.startswith("runtime/"):
            for streams in ("readuntil(", "StreamReader", "open_connection("):
                assert streams not in text, (name, streams)

    def callers(name, attribute):
        """The functions of ``name`` that call ``*.attribute(...)``."""
        return sorted(
            function.name
            for function in ast.walk(ast.parse(sources[name]))
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attribute
        )

    assert callers("runtime/transport.py", "wait_for") == []
    assert callers("runtime/http.py", "wait_for") == ["http_request"]
    assert callers("runtime/transport.py", "create_task") == []
    assert callers("runtime/http.py", "create_task") == ["open"]
    assert callers("runtime/http.py", "_connect_and_use") == ["open"]
    transport = sources["runtime/transport.py"]
    assert "self._pool.exchange" in transport
    assert "http_post_json" not in transport and "http_request" not in transport


def test_the_ack_rides_the_response():
    """A reliable live send settles on its own exchange: no ``ack``
    envelope kind, a message POST only from ``send`` / ``send_tagged``,
    and one ``send_ack`` per transport (``docs/RUNTIME.md``, "The
    transport abstraction")."""
    package = ROOT / "src" / "repro"
    sources = {
        path.relative_to(package).as_posix(): path.read_text()
        for path in package.rglob("*.py")
    }
    for name, text in sources.items():
        if not name.startswith("runtime/"):
            continue
        for kinds in re.findall(r'[(\[{](?:\s*"\w+"\s*,?)+[)\]}]', text):
            if '"send"' in kinds or '"tagged"' in kinds:
                assert '"ack"' not in kinds, (name, kinds)
    assert [name for name, text in sources.items() if "_post_envelope(" in text] == [
        "runtime/transport.py"
    ]
    callers = sorted(
        function.name
        for function in ast.walk(ast.parse(sources["runtime/transport.py"]))
        if isinstance(function, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_post_envelope"
            for node in ast.walk(function)
        )
    )
    assert callers == ["send", "send_tagged"]
    send_acks = {
        cls.name: [
            node.name for node in cls.body if isinstance(node, ast.FunctionDef)
        ].count("send_ack")
        for text in sources.values()
        for cls in ast.walk(ast.parse(text))
        if isinstance(cls, ast.ClassDef) and cls.name.endswith("Transport")
    }
    assert send_acks == {"Transport": 1, "SimTransport": 1, "LiveTransport": 1}


def test_the_batch_workers_are_written_once():
    """``run_batch`` drives its own worker processes, one unit each
    (``docs/ENGINE.md``, "Misbehaving workers"): no executor pool, and
    no reaching into one's private process table."""
    package = ROOT / "src" / "repro" / "experiments"
    for path in package.rglob("*.py"):
        text = path.read_text()
        for gone in (
            "ProcessPoolExecutor",
            "concurrent.futures",
            "BrokenExecutor",
            "._processes",
        ):
            assert gone not in text, (gone, path.name)


@pytest.mark.parametrize(
    "module,absent",
    [
        ("repro.experiments", ("numpy", "asyncio", "repro.runtime")),
        ("repro.runtime", ("numpy",)),
    ],
)
def test_import_graph_stays_lean(module, absent):
    """A simulator process pays for no event loop and no live runtime,
    and no process of this package imports numpy (a fresh interpreter:
    this one has long since imported everything)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import {module}, sys; "
            f"print([m for m in {absent!r} if m in sys.modules])",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert loaded.stdout.strip() == "[]"
