"""The import layering, checked in a fresh interpreter.

``repro.sim`` is the substrate and imports nothing above it;
``repro.obs`` sits just above the engine; ``repro.cpu`` and
``repro.gpu`` are sibling device models the scheduler composes, so
neither may hard-wire the other; ``repro.bench`` is a tool only the
CLI loads.  Each check imports every module of a
package (found on disk, not by walking packages, which would import
them) in a new interpreter and reads which ``repro`` modules
``sys.modules`` then holds — a lazy or indirect import counts as much
as a top-level one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"
#: Packages outside the library proper: the CLI's tools.
TOOLS = ("repro.bench",)


def modules_under(directory: Path) -> list[str]:
    """Dotted names of every module in ``directory``, from the file tree."""
    names = []
    for path in sorted(directory.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def loaded_after_importing(modules: list[str]) -> set[str]:
    """``repro`` modules loaded by a fresh interpreter importing ``modules``."""
    code = ("import importlib, json, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module(name)\n"
            "print(json.dumps([m for m in sys.modules\n"
            "                  if m.split('.')[0] == 'repro']))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         stdout=subprocess.PIPE, text=True, check=True)
    return set(json.loads(out.stdout))


def inside(module: str, packages: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


@pytest.mark.parametrize("package, allowed", [
    ("sim", ("repro.errors", "repro.sim")),
    ("obs", ("repro.errors", "repro.sim", "repro.obs")),
], ids=["sim", "obs"])
def test_substrate_loads_nothing_above_it(package, allowed):
    loaded = loaded_after_importing(modules_under(PACKAGE / package))
    assert {m for m in loaded
            if m != "repro" and not inside(m, allowed)} == set()


@pytest.mark.parametrize("package, sibling", [("cpu", "repro.gpu"),
                                              ("gpu", "repro.cpu")],
                         ids=["cpu", "gpu"])
def test_device_models_never_load_each_other(package, sibling):
    loaded = loaded_after_importing(modules_under(PACKAGE / package))
    assert {m for m in loaded if inside(m, (sibling,))} == set()


def test_library_never_loads_the_tools():
    library = [m for m in modules_under(PACKAGE)
               if not inside(m, TOOLS + ("repro.cli", "repro.__main__"))]
    assert len(library) > 50
    loaded = loaded_after_importing(library)
    assert {m for m in loaded if inside(m, TOOLS)} == set()
