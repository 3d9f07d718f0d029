#!/usr/bin/env python
"""Generate docs/API.md from the package/module/class docstrings.

The reference is *derived*, never hand-edited: every ``repro`` package
and module contributes its docstring, every public class/function
its signature plus the first paragraph of its docstring, and every
experiment id its :class:`~repro.experiments.paper.Figure` (a study
module's ``run``, or an entry of the paper's table).  Output is
deterministic (alphabetical within each package, stable signatures), so
CI can verify the committed file is in sync::

    PYTHONPATH=src python tools/gen_api_docs.py           # rewrite docs/API.md
    PYTHONPATH=src python tools/gen_api_docs.py --check   # exit 1 if stale

Keeping the reference generated means the docstring pass IS the API
documentation pass — paper section/figure anchors live next to the code
they describe and show up here automatically.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

ROOT_PACKAGE = "repro"
OUTPUT = Path(__file__).resolve().parent.parent / "docs" / "API.md"

HEADER = """\
# API reference

Generated from docstrings by `tools/gen_api_docs.py` — do not edit by
hand; run `PYTHONPATH=src python tools/gen_api_docs.py` after changing
docstrings (CI's docs job fails if this file is stale).

Paper anchors (`Sec.`, `Fig.`, `eq.`, `Algorithm`) refer to *LEOTP: An
Information-Centric Transport Layer Protocol for LEO Satellite Networks*
(ICDCS 2023); see [PAPER.md](../PAPER.md) and
[EXPERIMENTS.md](../EXPERIMENTS.md).
"""


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "*(undocumented)*"
    paragraph: list[str] = []
    for line in inspect.cleandoc(doc).splitlines():
        if not line.strip():
            break
        paragraph.append(line.strip())
    return " ".join(paragraph)


def iter_modules(pkg_name: str):
    """(name, module) for the package and its non-package submodules."""
    pkg = importlib.import_module(pkg_name)
    yield pkg_name, pkg
    for info in sorted(pkgutil.iter_modules(pkg.__path__, pkg_name + "."),
                       key=lambda i: i.name):
        if not info.ispkg:
            yield info.name, importlib.import_module(info.name)


def public_members(module):
    """Public classes/functions *defined in* the module, in source order."""
    members = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        try:
            line = inspect.getsourcelines(obj)[1]
        except (OSError, TypeError):
            line = 0
        members.append((line, name, obj))
    return [(name, obj) for _, name, obj in sorted(members)]


def experiment_lines(module) -> list[str]:
    """One line per experiment id ``module`` defines: its ``run``, or each
    entry of the paper's table that is no module's ``run``."""
    from repro.experiments.paper import ALL_EXPERIMENTS, Figure

    figures = {name: ALL_EXPERIMENTS[name] for name in ALL_EXPERIMENTS}
    found = [(name, obj) for name, obj in vars(module).items()
             if not name.startswith("_") and isinstance(obj, Figure)]
    if module.__name__ == ALL_EXPERIMENTS.__module__:
        runs = {id(getattr(mod, "run", None)) for name, mod in sys.modules.items()
                if name.startswith(f"{ROOT_PACKAGE}.experiments.")}
        found += [(f'ALL_EXPERIMENTS["{name}"]', fig)
                  for name, fig in figures.items() if id(fig) not in runs]
    ids = {id(fig): name for name, fig in figures.items()}
    lines = []
    for label, fig in found:
        caption = f": {fig.caption}" if isinstance(fig.caption, str) else ""
        lines.append(f"- **`{label}`** — experiment `{ids[id(fig)]}`, "
                     f"{fig.name}{caption}")
    return lines


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"


def discover_packages() -> list[str]:
    root = importlib.import_module(ROOT_PACKAGE)
    names = [ROOT_PACKAGE]
    for info in sorted(pkgutil.walk_packages(root.__path__, ROOT_PACKAGE + "."),
                       key=lambda i: i.name):
        if info.ispkg:
            names.append(info.name)
    return names


def render() -> str:
    lines = [HEADER]
    for pkg_name in discover_packages():
        lines.append(f"\n## `{pkg_name}`\n")
        for mod_name, module in iter_modules(pkg_name):
            if mod_name != pkg_name:
                lines.append(f"### `{mod_name}`\n")
            lines.append(first_paragraph(module.__doc__) + "\n")
            members = public_members(module)
            for name, obj in members:
                kind = "class" if inspect.isclass(obj) else "def"
                sig = "" if inspect.isclass(obj) else signature_of(obj)
                lines.append(f"- **`{kind} {name}{sig}`** — "
                             f"{first_paragraph(obj.__doc__)}")
            experiments = experiment_lines(module)
            lines.extend(experiments)
            if members or experiments:
                lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if docs/API.md is out of date")
    args = parser.parse_args(argv)

    text = render()
    if args.check:
        on_disk = OUTPUT.read_text() if OUTPUT.exists() else ""
        if on_disk != text:
            sys.stderr.write(
                "docs/API.md is stale — run "
                "`PYTHONPATH=src python tools/gen_api_docs.py`\n"
            )
            return 1
        print("docs/API.md is up to date")
        return 0
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(text)
    print(f"wrote {OUTPUT} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
