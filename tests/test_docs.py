import os
import re

from tempomine import cli

DOCS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "docs")


def _header_table() -> dict[str, list[str]]:
    """The header-key table of file-formats.md: subcommand -> listed keys."""
    with open(os.path.join(DOCS, "file-formats.md"), encoding="utf-8") as fh:
        text = fh.read()
    rows = text.split("| subcommand | header keys besides `seed` |\n|---|---|\n", 1)[1]
    table = {}
    for row in rows.splitlines():
        if not row.startswith("|"):
            break
        names, keys = row.strip("|").split("|")
        for name in re.findall(r"`([^`]+)`", names):
            assert name not in table, f"{name} listed twice"
            table[name] = re.findall(r"`([^`]+)`", keys)
    return table


def test_header_table_matches_reads():
    # grad-check writes no file, so it has no header to document.
    want = {name: sorted(fields) for name, fields in cli.READS.items() if name != "grad-check"}
    assert _header_table() == want
