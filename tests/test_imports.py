"""Import hygiene: importing the command-line front end loads numpy and
kronval and no other third-party package.  Every CLI call pays its imports
before it does any work, so scipy and networkx must stay off this path, and
no kronval module imports scipy at all.  And every name a library module
imports is used there, or marked as bound for outside readers, and only such
a name is marked, so that the marks list exactly the names kept for those
readers.  And the stratified sampler's class and rank logic has one copy:
one call site each draws the gaps and unranks the pairs, and no module but
kronval.generate names the sampler core.  And one trial loop,
harness._trial_rows, samples every validate trial.  And one builder,
SampledGraph.from_blocks, makes every graph.  And one assembler,
harness.run_experiment, makes every validation report."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import kronval

# Prints the modules that importing kronval.cli adds and that come from a
# file (Cython's runtime registers file-less helper modules as well).
PROBE = """
import json, sys
before = set(sys.modules)
import kronval.cli
added = set(sys.modules) - before
print(json.dumps(sorted(m for m in added if getattr(sys.modules[m], "__file__", None))))
"""


def test_cli_import_loads_only_numpy_and_kronval():
    src = str(Path(kronval.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    loaded = json.loads(child.stdout)
    for heavy in ("scipy.optimize", "scipy.sparse", "networkx"):
        assert heavy not in loaded
    top_level = {name.split(".")[0] for name in loaded}
    third_party = top_level - set(sys.stdlib_module_names)
    assert third_party <= {"numpy", "kronval"}, sorted(third_party)


def _import_faults(path: Path) -> list:
    """(line, name) of each name the module imports and never reads, unless
    its line carries ``# noqa: F401``, and of each name it reads although
    its line carries that mark."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if (name in used) == ("# noqa: F401" in lines[alias.lineno - 1]):
                    faults.append((alias.lineno, name))
    return faults


def test_every_import_is_used():
    modules = sorted(Path(kronval.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    faults = {
        path.name: found
        for path in modules
        if path.name != "__init__.py" and (found := _import_faults(path))
    }
    assert faults == {}


def test_a_marked_name_that_is_read_is_a_fault(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from os import path, sep  # noqa: F401\n"
        "from sys import argv  # noqa: F401\n"
        "import json\n"
        "print(sep, json)\n"
    )
    assert _import_faults(module) == [(1, "sep")]


def _scipy_import_sites(path: Path) -> list:
    """``module.function`` of each import of scipy or one of its submodules
    in the file, by the innermost function or class around it."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            if any(module.split(".")[0] == "scipy" for module in modules):
                sites.append(".".join([path.stem, *scope]))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return sites


def test_no_kronval_module_imports_scipy():
    # The counting kernels run on numpy alone, so scipy is a test extra.
    modules = sorted(Path(kronval.__file__).parent.glob("*.py"))
    assert [site for path in modules for site in _scipy_import_sites(path)] == []


# Counts the three kernel shapes on a small graph and prints the counts and
# the scipy modules loaded by then.
COUNT_PROBE = """
import json, sys
from kronval import KroneckerParams, SeedSpec, count_labeled_copies, cycle, generate_stratified, path
graph = generate_stratified(KroneckerParams(0.7, 0.5, 0.7, 8), seed=SeedSpec(1))
counts = [count_labeled_copies(graph, pattern) for pattern in (cycle(3), cycle(4), path(3))]
print(json.dumps([counts, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_counting_kernels_load_no_scipy():
    src = str(Path(kronval.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-c", COUNT_PROBE], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    counts, loaded = json.loads(child.stdout)
    assert min(counts) > 0
    assert loaded == []


def test_scipy_import_sites_name_their_scope(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import scipy.special\n"
        "def outer():\n"
        "    if True:\n"
        "        from scipy import sparse\n"
        "    def inner():\n"
        "        import scipy as sp, json\n"
        "class Holder:\n"
        "    def method(self):\n"
        "        from scipy.optimize import brentq\n"
        "        from scipyx import thing\n"
    )
    assert _scipy_import_sites(module) == [
        "module", "module.outer", "module.outer.inner", "module.Holder.method"
    ]


def _call_sites(path: Path, names) -> list:
    """(``module.function``, name) of each call in the file of a function
    or method of one of the names, by the innermost function or class
    around it."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    sites.append((".".join([path.stem, *scope]), name))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return sites


def test_the_gaps_and_the_unranking_have_one_call_site_each():
    # Both consumers of the stratified sampler, the graph and the degree
    # arrays, read _draw_ranks and _unranked, so neither keeps a second
    # copy of the rank draws or of the unranking pass.
    modules = sorted(Path(kronval.__file__).parent.glob("*.py"))
    names = ("standard_exponential", "_unrank_pairs")
    sites = [site for path in modules for site in _call_sites(path, names)]
    assert sorted(sites) == [
        ("generate._draw_ranks", "standard_exponential"),
        ("generate._unranked", "_unrank_pairs"),
    ]


def test_every_sampled_trial_comes_from_one_trial_loop():
    # Every sampled validate kind, thresholds sweeps included, reads its
    # trials through harness._trial_rows, so no second loop samples graphs
    # or batches the sampler core; the generate command samples its one graph.
    modules = sorted(Path(kronval.__file__).parent.glob("*.py"))
    names = ("generate_graph", "batch_trials")
    sites = [site for path in modules for site in _call_sites(path, names)]
    assert sorted(sites) == [
        ("cli._cmd_generate", "generate_graph"),
        ("harness._trial_rows", "batch_trials"),
        ("harness._trial_rows", "generate_graph"),
    ]


def test_every_graph_is_built_by_one_builder():
    # SampledGraph is constructed, and its keys canonicalized, only inside
    # SampledGraph.from_blocks, which every generator and the edge-list
    # reader feed; in kronval.model a SampledGraph method constructs
    # through cls.
    modules = sorted(Path(kronval.__file__).parent.glob("*.py"))
    sites = [
        site
        for path in modules
        for site in _call_sites(path, ("SampledGraph", "_canonical_by_key", "cls"))
        if site[1] != "cls" or site[0].startswith("model.SampledGraph.")
    ]
    assert sorted(sites) == [
        ("model.SampledGraph.from_blocks", "_canonical_by_key"),
        ("model.SampledGraph.from_blocks", "cls"),
    ]


def test_every_report_is_assembled_in_one_place():
    # Each validate kind's runner returns the report's parts, and only
    # harness.run_experiment makes the ValidationReport, stating its kind
    # and config once for every kind.
    modules = sorted(Path(kronval.__file__).parent.glob("*.py"))
    sites = [site for path in modules for site in _call_sites(path, ("ValidationReport",))]
    assert sites == [("harness.run_experiment", "ValidationReport")]


def test_every_regime_verdict_is_built_in_one_place():
    # classify_regime sets each case's case_id and vanishing (and case 3's
    # subcase, c1 and c2) and derives the other fields in one construction.
    modules = sorted(Path(kronval.__file__).parent.glob("*.py"))
    sites = [site for path in modules for site in _call_sites(path, ("RegimeVerdict",))]
    assert sites == [("predict.classify_regime", "RegimeVerdict")]


def test_call_sites_name_their_scope(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "rng.standard_exponential(3)\n"
        "def outer():\n"
        "    if True:\n"
        "        _unrank_pairs(n, a, b, ranks)\n"
        "    def inner():\n"
        "        return [g.standard_exponential(size=k) for g in rngs]\n"
        "class Holder:\n"
        "    def method(self):\n"
        "        self.standard_exponential\n"
        "        _unrank_pairs_oracle(1)\n"
        "        f(standard_exponential)\n"
    )
    assert _call_sites(module, ("standard_exponential", "_unrank_pairs")) == [
        ("module", "standard_exponential"),
        ("module.outer", "_unrank_pairs"),
        ("module.outer.inner", "standard_exponential"),
    ]


# The stratified sampler's core, reached from outside kronval.generate only
# through its consumers: generate_stratified, stratified_degrees and
# stratified_distances.
CORE_NAMES = ("_draw_ranks", "_unranked", "_unrank_pairs")


def _named(path: Path, names) -> list:
    """The names among ``names`` that the file reads, binds, imports,
    defines or reaches as an attribute, once per occurrence."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        else:
            continue
        if name in names:
            found.append(name)
    return found


def test_only_the_generator_module_names_the_sampler_core():
    modules = sorted(Path(kronval.__file__).parent.glob("*.py"))
    named = {path.stem: sorted(set(_named(path, CORE_NAMES))) for path in modules}
    assert named.pop("generate") == sorted(CORE_NAMES)
    assert named == {path.stem: [] for path in modules if path.stem != "generate"}


def test_core_names_are_found_in_any_form(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from .generate import _draw_ranks as draw\n"
        "import kronval.generate._unranked\n"
        "def f(gen):\n"
        "    return gen._unrank_pairs, _draw_ranks_oracle, draw\n"
    )
    assert sorted(_named(module, CORE_NAMES)) == ["_draw_ranks", "_unrank_pairs", "_unranked"]
