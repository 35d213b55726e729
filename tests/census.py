"""The execution census: the ``src/repro`` functions no entry point enters.

``tests/test_src_reach.py`` checks that something outside the tests
*names* each definition, and a name is not a call: a local variable
``ok`` keeps a property ``ok`` "reached".  This census runs the
program's entry points, each in its own process, and records every
``src/repro`` function any of them enters:

* ``repro evaluate`` on a copy of EXPERIMENTS.md;
* ``e2ebench run`` and ``e2ebench trace`` on all seven workloads;
* every example;
* each CLI command: ``run`` in all four modes, in descriptor and
  ``--payload`` mode, with ``--trace`` and with ``--tenants`` under both
  policies; ``trace`` in all three formats; ``calibrate``; ``bench``;
  ``codec`` with both codecs.

The functions none of them entered must equal :data:`KEPT`, one reason
per entry.  An unentered function that is not there fails, and so does
an entry that was entered or names no function.  Dunders are exempt, as
in ``test_src_reach``: the language calls them.

The hook is a call-only ``sys.settrace`` function: it records the
frame's code object and returns ``None``, so no line events follow.
``sys.setprofile`` would not do: ``e2ebench trace``'s count pass runs
``cProfile``, which installs its own profile function over ours.
Helpers forked by :mod:`repro.host` inherit the hook but leave by
``os._exit``, so what only a helper runs is never recorded; those
functions are KEPT as helper-only.  Each entry point is shown at least
two usable CPUs, so the helpers are forked, and the verdict is the
same under ``taskset -c 0`` as on more CPUs.

``python -m tests.census`` runs every entry point (4 minutes on two
vCPUs with ``--jobs 2``, 8 on one) and exits 1 naming each unexpected
and each stale entry, or an entry point that failed; ``--entry NAME``
runs only the named ones (as printed) and skips the comparison.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
WORKLOADS = ("desc_fit", "desc_steady", "payload_cpu", "payload_gpu",
             "tenant_mix", "volume_read", "volume_write")
MODES = ("cpu_only", "gpu_dedup", "gpu_comp", "gpu_both")


class Entry(NamedTuple):
    name: str
    #: ``"module"`` runs ``python -m target``, ``"script"`` a file.
    kind: str
    target: str
    #: ``{tmp}`` stands for the run's scratch directory.
    args: tuple[str, ...] = ()


def _entries() -> tuple[Entry, ...]:
    entries = [Entry("evaluate", "module", "repro",
                     ("evaluate", "{tmp}/EXPERIMENTS.md"))]
    for workload in WORKLOADS:
        entries += [
            Entry(f"e2ebench-run-{workload}", "module", "e2ebench",
                  ("run", "--workload", workload, "--reps", "1")),
            Entry(f"e2ebench-trace-{workload}", "module", "e2ebench",
                  ("trace", "--workload", workload))]
    entries += [Entry(f"example-{path.stem}", "script", str(path))
                for path in sorted((ROOT / "examples").glob("*.py"))]
    for mode in MODES:
        entries += [
            Entry(f"run-{mode}", "module", "repro",
                  ("run", "--mode", mode, "--chunks", "2048")),
            Entry(f"run-{mode}-payload", "module", "repro",
                  ("run", "--mode", mode, "--chunks", "1024",
                   "--payload"))]
    mix = str(ROOT / "examples" / "tenant_mix.json")
    entries += [
        Entry("run-trace", "module", "repro",
              ("run", "--mode", "gpu_both", "--chunks", "1024", "--payload",
               "--trace", "{tmp}/run.json")),
        Entry("run-tenants-shared_lru", "module", "repro",
              ("run", "--tenants", mix, "--chunks", "2048",
               "--tenancy-cache", "96", "--tenancy-policy", "shared_lru")),
        Entry("run-tenants-prioritized", "module", "repro",
              ("run", "--tenants", mix, "--chunks", "2048",
               "--tenancy-cache", "96", "--tenancy-policy", "prioritized",
               "--trace", "{tmp}/tenants.json")),
        *(Entry(f"trace-{form}", "module", "repro",
                ("trace", "--quick", "--format", form,
                 "--out", "{tmp}/trace.json"))
          for form in ("chrome", "summary", "json")),
        Entry("calibrate", "module", "repro",
              ("calibrate", "--chunks", "1024")),
        Entry("bench-list", "module", "repro", ("bench", "list")),
        Entry("bench-a7", "module", "repro", ("bench", "a7")),
        *(Entry(f"codec-{codec}", "module", "repro",
                ("codec", "--codec", codec, "--limit", "16384",
                 str(ROOT / "README.md")))
          for codec in ("lzss", "quicklz"))]
    return tuple(entries)


ENTRIES = _entries()

# -- KEPT: the unentered functions, each with its reason -------------------

ERROR_PATH = ("An error or validation path: it runs only on bad input "
              "or a failed helper, and tests drive it.")
ABSTRACT = ("An abstract method or a base no-op hook: the subclasses' "
            "overrides run instead.")
HELPER_ONLY = ("Runs only in a helper forked by repro.host, which leaves "
               "by os._exit before the hook's record is written.")
AT_EXIT = ("An interpreter exit handler: it runs after the hook's record "
           "is written.")
GPU_RESTART = ("Restart of an engine that has GPU bins: no entry point "
               "restarts one, the volume (which restarts) has no GPU.")
WRITE_TAIL = ("write() needs it for a length that is not a chunk "
              "multiple; the committed volume workloads write whole "
              "chunks.")
HELD_ITEM_3 = ("Held for ROADMAP item 3, which removes the volume's read "
               "cache and delta path in one re-pin of the volume "
               "benchmark, whose pins name their keys.")
HELD_ITEM_4 = ("Held for ROADMAP item 4: e2ebench's ledger names it as "
               "the workload layer's target.")

#: (path, qualname) -> reason: every ``src/repro`` function no entry
#: point enters.
KEPT: dict[tuple[str, str], str] = {
    ("src/repro/compression/delta.py", "DeltaCodec.decode"): HELD_ITEM_3,
    ("src/repro/compression/postprocess.py", "_raise_tiling_error"):
        ERROR_PATH,
    ("src/repro/core/cache.py", "ChunkCache.fill"): HELD_ITEM_3,
    ("src/repro/core/cache.py", "ChunkCache.hit_rate"): HELD_ITEM_3,
    ("src/repro/core/cache.py", "ChunkCache.lookup"): HELD_ITEM_3,
    ("src/repro/dedup/gpu_index.py", "GpuBinIndex.clear"): GPU_RESTART,
    ("src/repro/dedup/index_base.py", "check_fingerprint"): ERROR_PATH,
    ("src/repro/dedup/replacement.py", "ReplacementPolicy.choose_victim"):
        ABSTRACT,
    ("src/repro/dedup/replacement.py", "ReplacementPolicy.on_hit"):
        ABSTRACT,
    ("src/repro/gpu/kernel.py", "Kernel.bytes_in"): ABSTRACT,
    ("src/repro/gpu/kernel.py", "Kernel.bytes_out"): ABSTRACT,
    ("src/repro/gpu/kernel.py", "Kernel.cost"): ABSTRACT,
    ("src/repro/gpu/kernel.py", "Kernel.execute"): ABSTRACT,
    ("src/repro/gpu/memory.py", "DeviceBuffer.free"): GPU_RESTART,
    ("src/repro/gpu/memory.py", "DeviceMemory._release"): GPU_RESTART,
    ("src/repro/host.py", "_Queue.release"): AT_EXIT,
    ("src/repro/host.py", "_Queue.retire"): ERROR_PATH,
    ("src/repro/host.py", "_serve"): HELPER_ONLY,
    ("src/repro/obs/export.py", "validate_chrome_trace.<locals>.note"):
        ERROR_PATH,
    ("src/repro/sim/resources.py", "Request.cancel"): ERROR_PATH,
    ("src/repro/storage/metadata.py", "MetadataStore._drop_delta_ref"):
        HELD_ITEM_3,
    ("src/repro/storage/metadata.py", "MetadataStore._revive"):
        HELD_ITEM_3,
    ("src/repro/storage/metadata.py", "MetadataStore.attach_delta"):
        HELD_ITEM_3,
    ("src/repro/storage/metadata.py", "_unaligned"): ERROR_PATH,
    ("src/repro/storage/volume.py", "ReducedVolume._keep_old_tail"):
        WRITE_TAIL,
    ("src/repro/workload/vdbench.py", "VdbenchStream.next_chunk"):
        HELD_ITEM_4,
}


# -- the hook, inside one entry point's process ------------------------------

def _child(out: str, kind: str, target: str, args: list[str]) -> int:
    """Run one entry point under the hook; write the code it entered."""
    entered: dict[int, object] = {}

    def hook(frame, event, arg):
        code = frame.f_code
        entered[id(code)] = code

    sys.argv = [target, *args]
    status = 0
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        # The helper plumbing runs only where a second CPU is usable:
        # every entry point is shown at least two, so the verdict is
        # the same on any host (on one CPU the helpers share it).
        import repro.host
        usable_cpus = repro.host.usable_cpus
        repro.host.usable_cpus = lambda: max(2, usable_cpus())
        if kind == "module":
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else \
            int(exc.code is not None)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    sites = set()
    for code in entered.values():
        path = Path(code.co_filename).resolve()
        if path.is_relative_to(SRC):
            sites.add(f"{path.relative_to(ROOT).as_posix()}:"
                      f"{code.co_firstlineno}")
    Path(out).write_text(json.dumps(sorted(sites)))
    return status


# -- what is defined, what was entered, and the comparison ------------------

def definitions() -> dict[tuple[str, str], int]:
    """``(path, qualname) -> first line`` of every function in src/repro.

    The first line is the code object's: that of the first decorator,
    if any.  Qualnames are Python's, ``outer.<locals>.inner`` included.
    """
    found = {}

    def walk(node, rel: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                found[(rel, qualname)] = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list])
                walk(child, rel, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, rel, prefix + child.name + ".")
            else:
                walk(child, rel, prefix)

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        walk(ast.parse(path.read_text(), filename=str(path)), rel, "")
    return found


def _exempt(qualname: str) -> bool:
    name = qualname.rsplit(".", 1)[-1]
    return name.startswith("__") and name.endswith("__")


def report(defined: dict[tuple[str, str], int], entered: set[str],
           kept: dict[tuple[str, str], str]) -> list[str]:
    """One line per unentered function not in ``kept``, and one per
    ``kept`` entry that was entered or names no function.

    ``entered`` holds ``path:first_line`` sites, as the hook writes them.
    """
    lines = []
    for (path, qualname), first in sorted(
            defined.items(), key=lambda item: (item[0][0], item[1])):
        site = (path, qualname)
        if f"{path}:{first}" in entered:
            if site in kept:
                lines.append(f"{path}:{first} {qualname}: kept, but "
                             f"entered (stale)")
        elif site not in kept and not _exempt(qualname):
            lines.append(f"{path}:{first} {qualname}: never entered "
                         f"(delete it, or keep it with a reason)")
    lines += [f"{path} {qualname}: kept, but no such function (stale)"
              for path, qualname in sorted(set(kept) - set(defined))]
    return lines


# -- the driver ---------------------------------------------------------------

def _run(entry: Entry, scratch: Path) -> tuple[Entry, int, float, list, str]:
    tmp = scratch / entry.name
    tmp.mkdir()
    shutil.copy(ROOT / "EXPERIMENTS.md", tmp / "EXPERIMENTS.md")
    out = tmp / "entered.json"
    args = [arg.replace("{tmp}", str(tmp)) for arg in entry.args]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "tests.census", "--child", str(out),
         entry.kind, entry.target, *args],
        cwd=tmp, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    sites = json.loads(out.read_text()) if out.exists() else []
    return entry, done.returncode, wall, sites, done.stderr


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        out, kind, target, *args = argv[1:]
        return _child(out, kind, target, args)
    parser = argparse.ArgumentParser(
        prog="python -m tests.census",
        description="Run every entry point under a call hook and compare "
                    "the src/repro functions none entered with KEPT.")
    parser.add_argument("--entry", action="append", dest="names",
                        metavar="NAME", help="run only this entry point "
                        "(repeatable; skips the comparison)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="entry points run at once (default 1)")
    args = parser.parse_args(argv)
    known = {entry.name for entry in ENTRIES}
    unknown = sorted(set(args.names or ()) - known)
    if unknown:
        parser.error(f"unknown entry point(s): {', '.join(unknown)}")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    entries = [entry for entry in ENTRIES
               if args.names is None or entry.name in args.names]
    entered: set[str] = set()
    failed = []
    with tempfile.TemporaryDirectory(prefix="census-") as scratch, \
            ThreadPoolExecutor(args.jobs) as pool:
        runs = pool.map(lambda entry: _run(entry, Path(scratch)), entries)
        for entry, status, wall, sites, stderr in runs:
            print(f"{'ok' if status == 0 else 'FAILED':<6} {entry.name}  "
                  f"({wall:.1f} s, {len(sites)} sites)", flush=True)
            if status != 0:
                print(stderr[-2000:], flush=True)
                failed.append(entry.name)
            entered.update(sites)
    if failed:
        print("entry points that failed: " + ", ".join(failed))
        return 1
    if args.names is not None:
        return 0
    lines = report(definitions(), entered, KEPT)
    if lines:
        print("\n".join(lines))
        return 1
    print(f"{len(definitions())} functions, {len(KEPT)} unentered, "
          f"each KEPT:")
    for reason, n in Counter(KEPT.values()).most_common():
        print(f"  {n:>3}  {reason}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
