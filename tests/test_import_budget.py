"""Import budget: a process loads the modules its work uses.

Every package lists its exports as ``name -> submodule`` and loads a
submodule the first time one of its names is read
(``repro._lazy_exports``), so ``import repro`` runs no submodule.  These
tests start fresh interpreters and pin what each entry point leaves in
``sys.modules``, and check that every exported name still resolves to
the object its defining module holds.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))
WORKLOADS = os.path.join(os.path.dirname(SRC), "perfbench", "workloads.py")


def fresh(code: str):
    """Run ``code`` in a new interpreter; the JSON its last line prints."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def loaded_after(code: str) -> list[str]:
    """The ``repro`` modules a new interpreter holds after ``code``."""
    return fresh(code + "\nimport json, sys\nprint(json.dumps(sorted("
                 "m for m in sys.modules if m.split('.')[0] == 'repro')))")


def within(modules: list[str], *prefixes: str) -> list[str]:
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_importing_repro_runs_no_submodule():
    assert loaded_after("import repro") == ["repro"]


def test_perfbench_import_line_leaves_serving_and_observers_out():
    # The benchmark's own import statements, as it runs them.
    tree = ast.parse(open(WORKLOADS).read())
    line = "\n".join(ast.unparse(node) for node in tree.body
                     if isinstance(node, ast.ImportFrom)
                     and (node.module or "").startswith("repro"))
    assert "from repro.serve import" in line
    modules = loaded_after(line)
    assert within(modules, "repro.engine.dataflow", "repro.serve.scenarios")
    assert within(modules, "repro.serve.server", "repro.serve.telemetry",
                  "repro.serve.dashboard", "repro.analysis",
                  "repro.cloud", "repro.scheduler.scheduler",
                  "repro.relational.sql", "repro.sim.chrometrace",
                  "repro.experiments", "repro.bench", "repro.cli") == []


def test_cli_sites_loads_no_serving_analysis_or_harness():
    modules = loaded_after("from repro.cli import main\n"
                           "assert main(['sites']) == 0")
    assert "repro.cli" in modules
    assert within(modules, "repro.serve", "repro.analysis",
                  "repro.experiments", "repro.bench") == []


def test_bare_serving_loads_no_observer():
    modules = loaded_after(
        "from repro.serve import ServeConfig, run_scenario\n"
        "run_scenario('two_tenant_bursty', queries=40, verify=True,\n"
        "             config=ServeConfig(telemetry=False,\n"
        "                                observatory=False))")
    assert "repro.serve.server" in modules
    assert within(modules, "repro.analysis.critical_path",
                  "repro.analysis.observatory", "repro.analysis.slo",
                  "repro.serve.telemetry") == []


#: In a fresh interpreter: every package's exports, each resolved as
#: ``from repro import *`` and attribute access see it, and where its
#: table says it is defined.
RESOLVE = """
import importlib, json, pkgutil
import repro
from repro import *
star = dict(globals())
problems, tables = [], 0
packages = ["repro"] + [info.name for info in pkgutil.walk_packages(
    repro.__path__, "repro.") if info.ispkg]
for name in packages:
    package = importlib.import_module(name)
    table = vars(package).get("_EXPORTS")
    if table is None:
        continue
    tables += 1
    listed = list(dir(package))
    problems += [f"{name}.{e}: in __all__, not in its table"
                 for e in package.__all__ if e not in table]
    problems += [f"{name}.{e}: missing from dir()"
                 for e in package.__all__ if e not in listed]
    for export in package.__all__:
        home = importlib.import_module(f"{name}.{table.get(export)}")
        if getattr(package, export) is not getattr(home, export):
            problems.append(f"{name}.{export} is not {home.__name__}'s")
problems += [f"from repro import *: {e}" for e in repro.__all__
             if star.get(e) is not getattr(repro, e)]
print(json.dumps([tables, problems]))
"""


def test_every_export_resolves_to_its_defining_object():
    tables, problems = fresh(RESOLVE)
    assert problems == []
    # repro and its packages but ``experiments``, which exports helpers
    # it defines itself.
    assert tables == 11


def test_moved_names_stay_importable_where_they_were():
    from repro.serve import ServeConfig, server, tenants
    assert server.ServeConfig is tenants.ServeConfig is ServeConfig


def test_unknown_names_are_attribute_errors():
    for name in ["repro"] + [info.name for info in pkgutil.walk_packages(
            repro.__path__, "repro.") if info.ispkg]:
        package = importlib.import_module(name)
        assert not hasattr(package, "no_such_export"), name
