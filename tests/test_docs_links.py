"""Internal links in the maintained documentation must resolve.

Scans README.md and docs/ for ``[text](relative/path)`` links and asserts
every non-external target exists relative to the file containing it.  CI
runs this, so a renamed file or example breaks the build instead of
silently breaking the docs.  (PAPERS.md / SNIPPETS.md are retrieved
reference material, not maintained docs, and are not checked.)

The counter table in docs/observability.md is checked the same way
against the declarations in ``repro.runtime.metrics``, so a counter
declared without a docs row (or a stale row) breaks the build too.
"""

from __future__ import annotations

import os
import re

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _docs_dir_markdown():
    docs = os.path.join(_ROOT, "docs")
    if not os.path.isdir(docs):
        return []
    return [os.path.join(docs, name) for name in os.listdir(docs) if name.endswith(".md")]


#: Markdown files whose internal links are checked.
_DOCUMENTS = sorted(
    [os.path.join(_ROOT, "README.md"), os.path.join(_ROOT, "ROADMAP.md")]
    + _docs_dir_markdown()
)

#: ``[text](target)`` — good enough for our docs; images share the syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

_EXTERNAL = ("http://", "https://", "mailto:")


def _internal_links(path: str):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        yield target


def test_documents_are_scanned():
    names = {os.path.basename(path) for path in _DOCUMENTS}
    assert "README.md" in names
    assert "architecture.md" in names
    assert "observability.md" in names


@pytest.mark.parametrize("document", _DOCUMENTS, ids=lambda p: os.path.relpath(p, _ROOT))
def test_internal_links_resolve(document):
    broken = []
    for target in _internal_links(document):
        resolved = os.path.normpath(
            os.path.join(os.path.dirname(document), target.partition("#")[0])
        )
        if not os.path.exists(resolved):
            broken.append(target)
    assert not broken, f"broken links in {os.path.relpath(document, _ROOT)}: {broken}"


def _declared_table_rows():
    """The observability.md counter table, as the declarations render it."""
    from repro.runtime.metrics import COUNTER, RouterMetrics, WorkerMetrics, declared

    rows = []
    for cls in (WorkerMetrics, RouterMetrics):
        for metric in declared(cls):
            if metric.kind == COUNTER:
                window = f"`{metric.field}_delta`"
            else:
                window = f"`{metric.field}`"
            rows.append(
                f"| `{metric.row_key}` | {window} | `repro_{metric.family}` "
                f"| {metric.kind} | {metric.source} | {metric.help} |"
            )
    return rows


def test_the_counter_table_matches_the_declarations():
    """docs/observability.md lists every declared counter and gauge, one
    row each, exactly as ``repro.runtime.metrics`` declares them."""
    path = os.path.join(_ROOT, "docs", "observability.md")
    with open(path, encoding="utf-8") as handle:
        documented = [
            line for line in handle.read().splitlines() if "| `repro_" in line
        ]
    assert documented == _declared_table_rows()
