"""Every public function and class of biomm has a caller outside the tests.

A name counts as used when the package or the benchmark names it anywhere
other than its own definition: as a bare name, an attribute, an imported
name, or a "module.function" string such as the benchmark's traced list.
"""

import ast
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


def _named():
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                module, dot, name = node.value.partition(".")
                if dot and module.isidentifier() and name.isidentifier():
                    names.add(name)
    return names


def test_every_public_name_has_a_caller():
    named = _named()
    unused = [
        qualified for qualified in _public_definitions()
        if qualified.partition(".")[2] not in named and qualified not in AWAITING_CALLER
    ]
    assert unused == []


def test_codecs_awaiting_a_caller_exist():
    assert AWAITING_CALLER <= set(_public_definitions())
