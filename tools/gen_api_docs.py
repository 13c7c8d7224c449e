#!/usr/bin/env python3
"""Generate docs/API.md from the public API's docstrings.

Walks every ``repro`` subpackage's ``__all__``, collecting each public
name's kind and first docstring line into a markdown reference.  The test
``tests/docs/test_api_reference.py`` regenerates the document and compares
it with the checked-in copy, so the reference cannot go stale.

Run:  python tools/gen_api_docs.py [output_path]   (default docs/API.md)
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys

PACKAGES = [
    "repro.kernel",
    "repro.parallel",
    "repro.bus",
    "repro.cpu",
    "repro.core",
    "repro.tech",
    "repro.apps",
    "repro.apps.accelerators",
    "repro.dse",
    "repro.analysis",
    "repro.faults",
]

#: Methods of public classes that extension code calls directly, listed
#: after the packages (dotted ``package.Class.method`` paths).
METHODS = [
    "repro.kernel.Simulator.quiet_until_fs",
    "repro.bus.Bus.publish_master",
    "repro.bus.BusMasterIf.read_train",
    "repro.bus.Bus.read_train",
    "repro.bus.BusSlaveIf.read_timing",
    "repro.bus.Memory.read_timing",
]


def _kind(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj):
        return "function"
    if isinstance(obj, type(lambda: None)):
        return "function"
    return "constant"


def _first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    line = doc.strip().splitlines()[0].strip()
    return line.rstrip(".") + "." if line else "(undocumented)"


def generate() -> str:
    """Build the full API.md text."""
    lines = [
        "# API reference",
        "",
        "Auto-generated from docstrings by `tools/gen_api_docs.py`; checked",
        "for freshness by `tests/docs/test_api_reference.py`.  One row per",
        "public name (each package's `__all__`).",
        "",
    ]
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        doc = inspect.getdoc(module) or ""
        summary = doc.strip().splitlines()[0] if doc else ""
        lines.append(f"## `{package_name}`")
        if summary:
            lines.append("")
            lines.append(summary)
        lines.append("")
        lines.append("| name | kind | summary |")
        lines.append("|---|---|---|")
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            kind = _kind(obj)
            summary = _first_line(obj) if kind != "constant" else "constant value."
            summary = summary.replace("|", "\\|")
            lines.append(f"| `{name}` | {kind} | {summary} |")
        lines.append("")
    lines.append("## Selected methods")
    lines.append("")
    lines.append("| method | signature | summary |")
    lines.append("|---|---|---|")
    for path in METHODS:
        package_name, class_name, method_name = path.rsplit(".", 2)
        cls = getattr(importlib.import_module(package_name), class_name)
        method = getattr(cls, method_name)
        signature = str(inspect.signature(method)).replace("'", "").replace("|", "\\|")
        summary = _first_line(method).replace("|", "\\|")
        lines.append(f"| `{class_name}.{method_name}` | `{signature}` | {summary} |")
    lines.append("")
    return "\n".join(lines) + ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Generate the API reference from the public docstrings."
    )
    parser.add_argument(
        "output", nargs="?", default="docs/API.md",
        help="file to write (default: docs/API.md)",
    )
    output = parser.parse_args(argv).output
    text = generate()
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {output} ({text.count(chr(10)) + 1} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
