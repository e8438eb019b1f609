"""The prose docs name only things that exist.

Covers README.md, DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` except
``docs/performance.md`` (a campaign log): every backticked dotted
``repro.`` name imports or resolves as an attribute (schema ids such
as ``repro.bench/v3`` are names of formats, not of code), every
backticked ``*.py`` path is a file in the repository, and every
``REPRO_*`` environment name is one the package reads.
"""

import importlib
import re
from pathlib import Path

import pytest

from .test_determinism import ENV_SWITCHES

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
DOCS += [path for path in sorted((ROOT / "docs").glob("*.md"))
         if path.name != "performance.md"]

REPRO_NAME = re.compile(r"\brepro(?:\.\w+)+(?!\w|/v\d)")
PY_PATH = re.compile(r"(?<![\w*./-])[\w./-]+\.py\b")


def spans(doc: Path) -> list[str]:
    """The backticked spans of ``doc``."""
    return re.findall(r"`([^`\n]+)`", doc.read_text())


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` is a module, or an attribute of the longest
    module prefix it names."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def repo_files() -> set[str]:
    return {path.relative_to(ROOT).as_posix()
            for top in ("src", "tests", "benchmarks", "examples", "perfbench")
            for path in (ROOT / top).rglob("*.py")}


def exists(path: str, files: set[str]) -> bool:
    """A path from the repo root, or the tail of one (``flow/credits.py``
    in a section about the package)."""
    return path in files or any(f.endswith("/" + path) for f in files)


@pytest.mark.parametrize("doc", DOCS, ids=lambda doc: doc.name)
def test_doc_names_only_what_exists(doc):
    files = repo_files()
    missing = sorted(
        {name for span in spans(doc) for name in REPRO_NAME.findall(span)
         if not resolves(name)}
        | {path for span in spans(doc) for path in PY_PATH.findall(span)
           if not exists(path, files)}
        | set(re.findall(r"REPRO_[A-Z_]+", doc.read_text())) - ENV_SWITCHES)
    assert not missing, f"{doc.name} names what does not exist: {missing}"
