"""Cross-link integrity for the repo's documentation.

Every relative markdown link in the user-facing docs (README, DESIGN,
EXPERIMENTS, ROADMAP, ``docs/*.md``) must resolve to a real file or
directory, and every backticked dotted ``repro.…`` name in them must
import as a module or resolve as an attribute of one, so the docs never
silently rot as modules move or code is deleted. External links
(``http(s)://``) and in-page anchors (``#...``) are out of scope.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The user-facing documentation set. Working notes (ISSUE, CHANGES,
#: SNIPPETS, PAPERS) are scratch space and exempt.
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md",
     REPO_ROOT / "EXPERIMENTS.md", REPO_ROOT / "ROADMAP.md"]
    + list((REPO_ROOT / "docs").glob("*.md"))
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def iter_relative_links(path: Path):
    """Yield (line_number, target) for each relative link in ``path``."""
    for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        for target in _LINK.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.partition("#")[0]
            if not target:  # pure in-page anchor
                continue
            yield number, target


def test_doc_set_is_nonempty():
    assert len(DOC_FILES) >= 10
    assert all(path.is_file() for path in DOC_FILES)


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[str(p.relative_to(REPO_ROOT))
                           for p in DOC_FILES])
def test_relative_links_resolve(doc):
    broken = [
        f"{doc.relative_to(REPO_ROOT)}:{number}: ({target})"
        for number, target in iter_relative_links(doc)
        if not (doc.parent / target).exists()
    ]
    assert not broken, "dead links:\n" + "\n".join(broken)


#: A fenced code block (its names are example code, not references).
_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
#: An inline code span; it may wrap onto the next line.
_SPAN = re.compile(r"`([^`]+)`")
#: A dotted ``repro`` name inside a span (not part of a path).
_NAME = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")


def iter_code_references(path: Path):
    """Yield (line_number, name) for each dotted ``repro.…`` name in an
    inline code span of ``path``."""
    text = _FENCE.sub(lambda m: "\n" * m.group(0).count("\n"),
                      path.read_text(encoding="utf-8"))
    for span in _SPAN.finditer(text):
        number = text.count("\n", 0, span.start()) + 1
        # A name wrapped after a dot reads as one name.
        body = re.sub(r"\.\s*\n\s*", ".", span.group(1))
        for name in _NAME.findall(body):
            yield number, name


def resolves(name: str) -> bool:
    """True if ``name`` imports as a module, or is an attribute chain
    on the longest importable module prefix."""
    parts = name.split(".")
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


def test_code_reference_scan_finds_references():
    refs = [name for doc in DOC_FILES
            for _number, name in iter_code_references(doc)]
    assert len(refs) >= 100
    assert "repro.core.costs.COST_MODEL_VERSION" in refs
    assert not resolves("repro.sim.engine.NoSuchThing")
    assert not resolves("repro.no_such_module")


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[str(p.relative_to(REPO_ROOT))
                           for p in DOC_FILES])
def test_code_references_resolve(doc):
    stale = [
        f"{doc.relative_to(REPO_ROOT)}:{number}: `{name}`"
        for number, name in iter_code_references(doc)
        if not resolves(name)
    ]
    assert not stale, "stale code references:\n" + "\n".join(stale)
