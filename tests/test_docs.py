import argparse
import glob
import importlib
import os
import pkgutil
import re

import tempomine
from tempomine import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = os.path.join(ROOT, "docs")


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


def test_readme_cli_table_matches_the_parser():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    rows = text.split("| subcommand | role |\n|---|---|\n", 1)[1]
    listed = []
    for row in rows.splitlines():
        if not row.startswith("|"):
            break
        listed += re.findall(r"`([^`]+)`", row.strip("|").split("|")[0])
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert listed == list(subparsers)


def test_module_references_resolve():
    # Every backticked `module.attr` naming a tempomine module (not a file
    # such as `model.py`) must name something that module still has.
    modules = {info.name for info in pkgutil.iter_modules(tempomine.__path__)}
    checked = set()
    for path in sorted(glob.glob(os.path.join(DOCS, "*.md"))) + [os.path.join(ROOT, "README.md")]:
        with open(path, encoding="utf-8") as fh:
            text = re.sub(r"```.*?```", "", fh.read(), flags=re.S)
        for span in re.findall(r"`([^`]+)`", text):
            ref = re.fullmatch(r"(\w+)\.([\w.]+)", span)
            if ref is None or ref[1] not in modules or span.endswith(".py"):
                continue
            obj = importlib.import_module(f"tempomine.{ref[1]}")
            for attr in ref[2].split("."):
                assert hasattr(obj, attr), f"{os.path.basename(path)}: `{span}` does not resolve"
                obj = getattr(obj, attr)
            checked.add(span)
    assert "cli.READS" in checked  # the scan reaches the references
