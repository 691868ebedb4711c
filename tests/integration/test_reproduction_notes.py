"""Every citation of a reproduction note resolves to the README, and
every name and path the README cites resolves to the tree.

The README's "Reproduction notes" section numbers the places where the
reproduction departs from the paper, and each note names the test that
shows it.  Code, tests, examples and benchmarks cite a note as "README.md,
Reproduction note N".  This test fails when a file cites a design
document the repository does not have, or a note number the README does
not define, or when a note names no test file that exists — and when the
README cites a dotted ``repro.`` name or a ``dir/file.py`` path that the
tree no longer has.
"""

from __future__ import annotations

import pkgutil
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Where citations live (the maintained documents ROADMAP.md and
#: CHANGES.md record history and are not scanned).
SCANNED = ("src", "tests", "examples", "scripts", "benchmarks")
CITATION = re.compile(
    r"reproduction notes?\s+(\d+(?:\s*(?:,|/|and|&)\s*\d+)*)", re.IGNORECASE
)
MISSING_DOCUMENT = "DESIGN" + ".md"


def _sources() -> list[Path]:
    files = [ROOT / "README.md"]
    for top in SCANNED:
        files += sorted((ROOT / top).rglob("*.py"))
    return [path for path in files if path != Path(__file__).resolve()]


def _notes() -> dict[int, str]:
    """The README's notes, by number: each ``N. **...**`` item's text."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Reproduction notes\n", 1)[1].split("\n## ")[0]
    items = re.split(r"^(\d+)\. ", section, flags=re.MULTILINE)
    return {int(n): body for n, body in zip(items[1::2], items[2::2])}


def test_the_readme_defines_the_notes_in_order():
    assert list(_notes()) == [1, 2, 3, 4, 5]


def test_every_note_names_a_test_that_exists():
    for number, body in _notes().items():
        named = re.findall(r"tests/[\w/]+\.py", body)
        assert named, f"note {number} names no test"
        for path in named:
            assert (ROOT / path).is_file(), f"note {number}: {path}"


def test_no_file_cites_a_missing_document():
    citing = [
        str(path.relative_to(ROOT))
        for path in _sources()
        if MISSING_DOCUMENT in path.read_text(encoding="utf-8")
    ]
    assert citing == []


def test_every_cited_note_is_defined():
    defined = set(_notes())
    undefined = []
    for path in _sources():
        for match in CITATION.finditer(path.read_text(encoding="utf-8")):
            for number in re.findall(r"\d+", match.group(1)):
                if int(number) not in defined:
                    undefined.append((str(path.relative_to(ROOT)), number))
    assert undefined == []
    # The scan sees the citations it is meant to police.
    assert sum(
        len(CITATION.findall(path.read_text(encoding="utf-8")))
        for path in _sources()
    ) >= 10


def test_every_name_and_path_the_readme_cites_resolves():
    """A dotted ``repro.`` name must import (``pkgutil.resolve_name``), a
    ``dir/file.py`` path be a file under the root, ``src/`` or
    ``src/repro/``: a module that leaves ``src/`` leaves the README too."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"\brepro(?:\.\w+)+", text))
    paths = set(re.findall(r"(?<![\w/.])[\w.-]+(?:/[\w.-]+)+\.py\b", text))
    bases = (ROOT, ROOT / "src", ROOT / "src" / "repro")
    missing = [p for p in paths if not any((b / p).is_file() for b in bases)]
    for name in names:
        try:
            pkgutil.resolve_name(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert sorted(missing) == []
    assert len(names) >= 20 and len(paths) >= 60  # the scan sees them
