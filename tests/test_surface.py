"""Every public function and class of biomm has a caller outside the tests,
and so has every setting of a public function.

A name counts as used when the package or the benchmark names it as
module.name, anywhere other than its own definition: as an attribute of the
module or of its import alias (`pca_mod.project`), as a name imported from
the module (`from .pca import Subspace`), as a bare name inside the module
that defines it, or as a "module.function" string such as the benchmark's
traced list. A method call of the same name (`line.split`) is not a use.
Each name on the benchmark tracer's traced list must also exist, since the
tracer looks every one of them up when a traced run starts.

A setting, a defaulted parameter of a public module-level function, counts
as used when a call in the package, the benchmark or the tools passes it,
by position or by keyword.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "biomm"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
TOOLS = sorted((ROOT / "tools").glob("*.py"))

# The loaders a command-line front end reads its manifests and samples
# with; they are kept for it although nothing in the package calls them yet.
AWAITING_CALLER = {
    "ingest.load_manifest",
    "ingest.load_pgm",
    "ingest.load_wav",
}

# Settings that no caller passes yet, each with the reason it is kept
# (the numbers are ROADMAP items).
KEPT_SETTINGS = {
    "synth.synth_utterance.duration_s": "the probe lengths of items 12 and 22",
    "synth.synth_utterance.snr_db": "the noisy voice probes of items 12 and 15",
    "synth.make_enrollment_data.sample_rate":
        "every rate in VALID_SAMPLE_RATES is an input the system accepts",
    "pipeline.enroll_and_fit.w_face": "the fusion weight items 4 and 18 set",
    "svm.train_binary.tol": "item 3 deletes the SVM",
}


def _public_nodes():
    """("module.name", node) of every public module-level function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{path.stem}.{node.name}", node


def _public_definitions():
    return [qualified for qualified, _ in _public_nodes()]


def _biomm_module(node: ast.ImportFrom) -> list:
    """The biomm module path an import names, [] for the package itself,
    or None for an import from elsewhere."""
    if node.level:
        return [part for part in (node.module or "").split(".") if part]
    parts = (node.module or "").split(".")
    return parts[1:] if parts[0] == "biomm" else None


def _bindings(tree):
    """(modules, imported): the local names the imports bind to biomm
    modules, each to its module, and to names of a biomm module, each to
    its "module.name"."""
    modules, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (path := _biomm_module(node)) is not None:
            for alias in node.names:
                if path:
                    imported[alias.asname or alias.name] = f"{path[0]}.{alias.name}"
                else:
                    modules[alias.asname or alias.name] = alias.name
    return modules, imported


def _named(sources):
    """Every "module.name" that the (module, source text) pairs name."""
    names = set()
    for module, text in sources:
        tree = ast.parse(text)
        aliases, imported = _bindings(tree)
        names.update(imported.values())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(f"{module}.{node.id}")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    names.add(f"{aliases[node.value.id]}.{node.attr}")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                owner, dot, name = node.value.partition(".")
                if dot and owner.isidentifier() and name.isidentifier():
                    names.add(node.value)
    return names


def test_every_public_name_has_a_caller():
    named = _named((path.stem, path.read_text()) for path in SOURCES)
    unused = [
        qualified for qualified in _public_definitions()
        if qualified not in named and qualified not in AWAITING_CALLER
    ]
    assert unused == []


def _settings():
    """{"module.function.parameter": its position, or None if keyword-only}
    for every defaulted parameter of a public module-level function."""
    settings = {}
    for function, node in _public_nodes():
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                settings[f"{function}.{arg.arg}"] = i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    settings[f"{function}.{arg.arg}"] = None
    return settings


def _passed(sources):
    """{"module.function": (positions, keywords)} over the calls in the
    (module, source text) pairs: the most arguments any call passes by
    position before a starred one, and every keyword any call passes."""
    passed = {}
    for module, text in sources:
        tree = ast.parse(text)
        modules, imported = _bindings(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                callee = imported.get(func.id, f"{module}.{func.id}")
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in modules:
                callee = f"{modules[func.value.id]}.{func.attr}"
            else:
                continue
            count = next((i for i, arg in enumerate(node.args) if isinstance(arg, ast.Starred)),
                         len(node.args))
            positions, keywords = passed.get(callee, (0, set()))
            passed[callee] = (max(positions, count),
                              keywords | {kw.arg for kw in node.keywords if kw.arg})
    return passed


def test_every_setting_has_a_caller():
    passed = _passed((path.stem, path.read_text()) for path in SOURCES + TOOLS)
    unpassed = []
    for qualified, position in _settings().items():
        function, _, name = qualified.rpartition(".")
        positions, keywords = passed.get(function, (0, set()))
        if name not in keywords and (position is None or position >= positions):
            unpassed.append(qualified)
    assert sorted(unpassed) == sorted(KEPT_SETTINGS)


def test_settings_pass_by_position_or_keyword():
    passed = _passed([
        ("synth", "def make(n, seed=1, rate=8000): ...\nmake(3, 4)"),
        ("harness", "from biomm import synth as s\ns.make(1, rate=16000)\ns.make(*args)"),
    ])
    assert passed == {"synth.make": (2, {"rate"})}


def test_codecs_awaiting_a_caller_exist():
    assert AWAITING_CALLER <= set(_public_definitions())


def test_names_resolve_through_import_aliases():
    named = _named([
        ("pca", "def project(s, x): ...\ndef fit_pca(ds): return project(ds, ds)"),
        ("lda", "from . import pca as pca_mod\nfrom .pca import Subspace\npca_mod.fit_pca"),
        ("harness", "from biomm import lda\nlda.fit_lda"),
        ("tracer", "TRACED = ('svm.kernel_matrix',)"),
    ])
    assert {"pca.project", "pca.fit_pca", "pca.Subspace", "lda.fit_lda",
            "svm.kernel_matrix"} <= named


def test_method_call_is_not_a_use_of_a_function_of_that_name():
    named = _named([
        ("ingest", "def split(ds): ...\ndef load_manifest(line): return line.split()"),
        ("harness", "from biomm import ingest\nfields = '1 2'.split()\ningest.load_manifest"),
    ])
    assert "ingest.load_manifest" in named
    assert "ingest.split" not in named


def test_every_traced_name_resolves():
    # the benchmark's tracer looks up each TRACED name on its biomm module
    # when a traced run starts, so a renamed or deleted function breaks every
    # traced run; no test runs one
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name in tracer.TRACED:
        module, attr = name.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(f"biomm.{module}"), attr, None)):
            missing.append(name)
    assert tracer.TRACED and missing == []
