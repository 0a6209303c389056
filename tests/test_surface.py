"""Every public function and class of biomm has a caller outside the tests.

A name counts as used when the package or the benchmark names it as
module.name, anywhere other than its own definition: as an attribute of the
module or of its import alias (`pca_mod.project`), as a name imported from
the module (`from .pca import Subspace`), as a bare name inside the module
that defines it, or as a "module.function" string such as the benchmark's
traced list. A method call of the same name (`line.split`) is not a use.
Each name on the benchmark tracer's traced list must also exist, since the
tracer looks every one of them up when a traced run starts.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "biomm"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# The file codecs a command-line front end reads its manifests and samples
# with; they are kept for it although nothing in the package calls them yet.
AWAITING_CALLER = {
    "ingest.load_manifest",
    "ingest.manifest_class_ids",
    "ingest.load_pgm",
    "ingest.write_pgm",
    "ingest.load_wav",
    "ingest.write_wav",
}


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{path.stem}.{node.name}"


def _biomm_module(node: ast.ImportFrom) -> list:
    """The biomm module path an import names, [] for the package itself,
    or None for an import from elsewhere."""
    if node.level:
        return [part for part in (node.module or "").split(".") if part]
    parts = (node.module or "").split(".")
    return parts[1:] if parts[0] == "biomm" else None


def _named(sources):
    """Every "module.name" that the (module, source text) pairs name."""
    names = set()
    for module, text in sources:
        tree = ast.parse(text)
        aliases = {}  # local name -> biomm module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (path := _biomm_module(node)) is not None:
                for alias in node.names:
                    if path:
                        names.add(f"{path[0]}.{alias.name}")
                    else:
                        aliases[alias.asname or alias.name] = alias.name
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
