"""Every counter name the code emits is catalogued in docs/observability.md.

The scan is static: literal ``.incr("…")`` names (the text before any
``{`` placeholder) and the prefixes of ``Counters("<prefix>", …)``.
Undotted ``.incr`` names are ``Counters``-local — they reach the trace
as ``<prefix>.<name>`` and ``Counters`` rejects undeclared ones — so
only their prefix is checked here.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
DOC = REPO / "docs" / "observability.md"

_INCR = re.compile(r"""\.incr\(\s*f?["']([^"']+)["']""")
_COUNTERS = re.compile(r"""\bCounters\(\s*["']([^"']+)["']""")


def _emitted_prefixes():
    """``{first dotted segment: {module, ...}}`` over ``src/repro``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        names = [
            name.split("{", 1)[0]
            for name in _INCR.findall(text)
            if "." in name.split("{", 1)[0]
        ]
        names += _COUNTERS.findall(text)
        for name in names:
            prefix = name.split(".", 1)[0]
            if prefix:
                found.setdefault(prefix, set()).add(str(path.relative_to(SRC)))
    return found


def _catalogued_prefixes():
    """First dotted segment of every backticked name in the table's
    first column."""
    prefixes = set()
    for line in DOC.read_text().splitlines():
        cells = line.split("|")
        if not line.startswith("|") or len(cells) < 3:
            continue
        for token in re.findall(r"`([^`]+)`", cells[1]):
            prefixes.add(token.split(".", 1)[0])
    return prefixes


def test_scan_finds_the_known_emitters():
    emitted = _emitted_prefixes()
    # Sanity: the scan sees dotted literals, f-string heads and
    # Counters prefixes alike.
    assert {"qrcp", "certify", "incr", "serve", "cache"} <= set(emitted)


def test_every_emitted_prefix_is_catalogued():
    catalogued = _catalogued_prefixes()
    missing = {
        prefix: sorted(modules)
        for prefix, modules in _emitted_prefixes().items()
        if prefix not in catalogued
    }
    assert not missing, (
        f"counter prefixes emitted but missing from {DOC.name}: {missing}"
    )
