"""Source contracts of ``src/repro``, checked on its syntax trees.

Tests see an invariant only on the paths they run; these rules see it
everywhere in scope.  DESIGN.md §8 maps each rule to the invariant it
guards:

* REP101 wall-clock reads, REP102 ambient or unseeded randomness and
  REP103 defaulted seeds of RNG-owning classes (run-to-run identity);
* REP201 non-event yields in process generators and REP203 the engine's
  private scheduling API outside ``repro.sim`` (the engine protocol);
* REP501 ``==``/``!=`` on simulated time (float-time hygiene);
* REP502 per-byte match-extension loops and REP504 per-chunk loops in
  the window-batched modules (the batched data and functional planes);
* REP601 ``env.now`` subtraction outside the engine and the tracer.

Each finding is keyed ``(rule, path, "Qualname:detail")``, which does
not move when unrelated edits shift lines.  The tree's findings must
equal :data:`ALLOWED` exactly: a new site fails, and so does an allowed
site that is gone.  The fixtures under ``tests/lint_fixtures/`` pin
each rule's positive and negative cases to ``(rule, line)`` pairs, and
:data:`PROBES` appends one violating snippet per rule to a real module
inside its scope and to one outside it.
"""

from __future__ import annotations

import ast
import importlib.util
from collections import Counter
from pathlib import Path
from typing import Optional

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "lint_fixtures"

#: Packages whose behaviour feeds simulated schedules and reports
#: (REP101-REP103).
DETERMINISM_SCOPE = (
    "repro.sim", "repro.core", "repro.dedup", "repro.compression",
    "repro.cpu", "repro.gpu", "repro.storage", "repro.workload",
    "repro.obs", "repro.cluster", "repro.tenancy",
)
#: Packages whose generator functions are simulation processes (REP201).
PROCESS_SCOPE = ("repro.sim", "repro.core", "repro.cpu", "repro.gpu",
                 "repro.storage")
#: The one package that may call the engine's private API (REP203).
ENGINE_PRIVATE_SCOPE = ("repro.sim",)
#: Scheduler and pipeline modules (REP501).
FLOAT_TIME_SCOPE = ("repro.sim", "repro.core.pipeline",
                    "repro.core.scheduler", "repro.core.batcher")
#: Packages whose inner loops touch payload bytes (REP502).
BYTE_LOOP_SCOPE = ("repro.compression", "repro.gpu.kernels")
#: Modules whose functional work is window-batched (REP504).
BATCHED_SCOPE = ("repro.core.pipeline", "repro.chunkbatch",
                 "repro.dedup.hashing", "repro.workload.vdbench",
                 "repro.cluster.router")
#: Packages where ``env.now`` subtraction is flagged (REP601); the
#: engine and the tracer own the clock and are out of scope.
NOW_ARITH_SCOPE = (
    "repro.core", "repro.cpu", "repro.gpu", "repro.storage",
    "repro.dedup", "repro.compression", "repro.workload",
    "repro.bench", "repro.cluster", "repro.tenancy",
)

WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.today",
    "datetime.datetime.utcnow", "datetime.date.today",
})
#: Module-level draws from the shared, OS-seeded generator...
MODULE_RNG_PREFIXES = ("random.", "numpy.random.", "secrets.")
#: ...except constructors and non-drawing API.
MODULE_RNG_EXEMPT = frozenset({
    "random.Random", "numpy.random.Generator",
    "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.SeedSequence",
})
#: RNG constructors that must receive an explicit, reproducible seed.
RNG_CONSTRUCTORS = frozenset({
    "random.Random", "numpy.random.default_rng", "numpy.random.RandomState",
})
ENTROPY_SEEDS = WALL_CLOCK | {"os.urandom", "os.getrandom"}
SEED_PARAMS = frozenset({"seed", "rng_seed"})
PRIVATE_ENGINE_CALLS = frozenset({"_schedule", "_trigger_now"})
TIME_NAMES = frozenset({"now", "_now", "deadline", "_deadline",
                        "next_admission"})
CHUNKSEQ_NAMES = frozenset({"chunks", "window", "batch", "chunk_window"})
NOW_NAMES = ("now", "_now")


def in_scope(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


#: rule -> whether it patrols a module of that dotted name.
APPLIES = {
    "REP101": lambda module: in_scope(module, DETERMINISM_SCOPE),
    "REP102": lambda module: in_scope(module, DETERMINISM_SCOPE),
    "REP103": lambda module: in_scope(module, DETERMINISM_SCOPE),
    "REP201": lambda module: in_scope(module, PROCESS_SCOPE),
    "REP203": lambda module: not in_scope(module, ENGINE_PRIVATE_SCOPE),
    "REP501": lambda module: in_scope(module, FLOAT_TIME_SCOPE),
    "REP502": lambda module: in_scope(module, BYTE_LOOP_SCOPE),
    "REP504": lambda module: in_scope(module, BATCHED_SCOPE),
    "REP601": lambda module: in_scope(module, NOW_ARITH_SCOPE),
}

#: (rule, path, key) -> (sites, reason): every finding the tree may have.
ALLOWED = {
    ("REP501", "src/repro/sim/engine.py", "Environment.step:self._now"): (
        2, "Exact tie check is sound: run-queue entries carry the very "
           "`now` the heap timestamps are compared against."),
    ("REP502", "src/repro/compression/lz_common.py",
     "common_prefix_length:data[a + length] == data[b + length]"): (
        1, "The audited per-byte exception REP502 points everyone else "
           "at: bounded to 8 bytes, it beats slice setup for the short "
           "prefixes that dominate fizzled hash candidates."),
    ("REP502", "src/repro/compression/lz_common.py",
     "common_prefix_length_pair:abuf[a + length] == bbuf[b + length]"): (
        1, "The same audited per-byte head scan as "
           "common_prefix_length."),
    ("REP502", "src/repro/compression/delta.py",
     "DeltaCodec.encode:reference[match_pos - back - 1] == "
     "literals[-1 - back]"): (
        1, "This stays a per-byte walk: it compares *reversed* suffixes "
           "against a mutable bytearray, and the pending-literal run it "
           "can absorb is short; an integer XOR buys nothing here."),
    ("REP504", "src/repro/core/pipeline.py",
     "ReductionPipeline._feeder:for-loop-window"): (
        1, "Admission, not functional work: per-chunk event pacing is the "
           "timed contract (byte-identical reports), so each chunk of a "
           "pre-batched window still enters the calendar one at a time."),
    ("REP504", "src/repro/dedup/hashing.py",
     "fingerprint_window:for-loop-chunks"): (
        1, "The batched fingerprint implementation: the single per-chunk "
           "traversal that assigns digests across the window; it IS the "
           "window helper."),
    ("REP601", "src/repro/core/pipeline.py",
     "ReductionPipeline._chunk_worker:admitted"): (
        1, "The latency histogram's per-chunk sample is the report's "
           "primary metric and must exist with tracing disabled; the "
           "tracer's chunk-envelope span records the identical interval "
           "when tracing is on."),
    ("REP601", "src/repro/core/pipeline.py",
     "ReductionPipeline._feeder:next_admission"): (
        1, "Admission pacing, not measurement: the subtraction computes "
           "the timeout delay to the next arrival slot. It feeds the "
           "calendar, never a statistic."),
    ("REP601", "src/repro/core/readpath.py",
     "ReadPipeline._read_worker:admitted"): (
        1, "The read path's latency accumulator predates the tracer and "
           "must keep reporting with tracing disabled; migrating it onto "
           "the chunk-envelope span is follow-up work."),
    ("REP103", "src/repro/storage/ssd.py", "SsdModel.__init__:seed"): (
        1, "Device-model RNG only drives optional read-error injection "
           "(SsdSpec.read_retry_probability defaults to 0.0); the "
           "default-constructed model draws nothing. Threading a required "
           "seed through every device construction is tracked follow-up "
           "work."),
}

#: fixture -> (module name it is checked as, expected (rule, line) pairs).
FIXTURE_CASES = {
    "clean.py": ("repro.sim.fakeclean", []),
    "rep101_wallclock.py": ("repro.sim.fakeclock",
                            [("REP101", 9), ("REP101", 13)]),
    "rep102_unseeded.py": ("repro.obs.fakerng",
                           [("REP102", 9), ("REP102", 13),
                            ("REP102", 21), ("REP102", 26)]),
    "rep103_default_seed.py": ("repro.dedup.fakepolicy", [("REP103", 8)]),
    "rep201_yield_literal.py": ("repro.core.fakeproc",
                                [("REP201", 6), ("REP201", 7)]),
    "rep203_private_api.py": ("repro.core.fakesched",
                              [("REP203", 6), ("REP203", 10)]),
    "rep501_float_eq.py": ("repro.core.pipeline.fixture",
                           [("REP501", 6), ("REP501", 8)]),
    "rep502_byte_loop.py": ("repro.compression.fixture",
                            [("REP502", 7), ("REP502", 14)]),
    "rep504_chunk_loop.py": ("repro.core.pipeline.fixture",
                             [("REP504", 6), ("REP504", 11)]),
    "rep601_now_arith.py": ("repro.core.pipeline.fixture",
                            [("REP601", 6), ("REP601", 7)]),
}


def dotted_name(node: ast.AST) -> Optional[str]:
    """Syntactic dotted form of a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def imports_of(tree: ast.Module, module: str) -> dict[str, str]:
    """Every imported alias in ``tree`` -> the dotted name it binds."""
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``; ``import a.b as c`` binds c.
                imports[alias.asname or alias.name.split(".")[0]] = \
                    alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module
            else:
                parts = module.split(".")
                if len(parts) < node.level:
                    continue
                parts = parts[:-node.level] + (
                    node.module.split(".") if node.module else [])
                base = ".".join(parts) if parts else None
            if base is None:
                continue
            for alias in node.names:
                if alias.name != "*":
                    imports[alias.asname or alias.name] = \
                        f"{base}.{alias.name}"
    return imports


def own_statements(func):
    """The function's body, excluding nested function/class bodies."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def is_literal(node: ast.AST) -> bool:
    """True for expressions that are certainly not Event instances."""
    if isinstance(node, (ast.Constant, ast.JoinedStr, ast.Tuple, ast.List,
                         ast.Dict, ast.Set, ast.ListComp, ast.SetComp,
                         ast.DictComp, ast.GeneratorExp, ast.Lambda,
                         ast.Compare, ast.BoolOp)):
        return True
    if isinstance(node, ast.BinOp):
        return is_literal(node.left) and is_literal(node.right)
    return False


def is_time_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in TIME_NAMES
    if isinstance(node, ast.Name):
        return node.id in TIME_NAMES
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Attribute) \
            and node.func.attr == "peek"
    if isinstance(node, ast.BinOp):
        return is_time_expr(node.left) or is_time_expr(node.right)
    return False


def pairs(node: ast.Compare):
    """``(op, left, right)`` of each link of a comparison chain."""
    sides = [node.left] + node.comparators
    return zip(node.ops, sides, sides[1:])


def defaulted_seed(init: ast.FunctionDef) -> Optional[str]:
    args = init.args
    positional = args.posonlyargs + args.args
    defaulted = list(zip(positional[len(positional) - len(args.defaults):],
                         args.defaults))
    defaulted += zip(args.kwonlyargs, args.kw_defaults)
    return next((arg.arg for arg, default in defaulted
                 if arg.arg in SEED_PARAMS and default is not None), None)


class SourceRules(ast.NodeVisitor):
    """One pass over a module: ``findings`` is ``[(rule, line, key)]``."""

    def __init__(self, tree: ast.Module, module: str):
        self.imports = imports_of(tree, module)
        self.rules = {rule for rule, applies in APPLIES.items()
                      if applies(module)}
        self.names: list[str] = []
        self.findings: list[tuple[str, int, str]] = []
        self.visit(tree)

    def flag(self, rule: str, node: ast.AST, detail: str) -> None:
        if rule in self.rules:
            qualname = ".".join(self.names) or "<module>"
            self.findings.append((rule, node.lineno, f"{qualname}:{detail}"))

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Import-aware dotted name; None for chains rooted in locals."""
        head, _, rest = (dotted_name(node) or "").partition(".")
        target = self.imports.get(head)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # REP103 keys on the class name alone, not the enclosing scopes.
        init = next((item for item in node.body
                     if isinstance(item, ast.FunctionDef)
                     and item.name == "__init__"), None)
        if "REP103" in self.rules and init is not None and any(
                isinstance(sub, ast.Call)
                and self.resolve(sub.func) in RNG_CONSTRUCTORS
                for sub in ast.walk(node)):
            param = defaulted_seed(init)
            if param is not None:
                self.findings.append(
                    ("REP103", init.lineno, f"{node.name}.__init__:{param}"))
        self.names.append(node.name)
        self.generic_visit(node)
        self.names.pop()

    def visit_FunctionDef(self, node) -> None:
        self.names.append(node.name)
        body = list(own_statements(node))
        if any(isinstance(sub, (ast.Yield, ast.YieldFrom)) for sub in body):
            for sub in body:
                if isinstance(sub, ast.Yield):
                    if sub.value is None:
                        self.flag("REP201", sub, "bare-yield")
                    elif is_literal(sub.value):
                        self.flag("REP201", sub, "literal-yield")
        self.generic_visit(node)
        self.names.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.resolve(node.func)
        if resolved in WALL_CLOCK:
            self.flag("REP101", node, resolved)
        if resolved == "random.SystemRandom" or (
                resolved in RNG_CONSTRUCTORS and (
                    not (node.args or node.keywords) or any(
                        isinstance(sub, ast.Call)
                        and self.resolve(sub.func) in ENTROPY_SEEDS
                        for sub in ast.walk(node)))):
            self.flag("REP102", node, resolved)
        elif resolved is not None and resolved not in MODULE_RNG_EXEMPT \
                and resolved.startswith(MODULE_RNG_PREFIXES):
            self.flag("REP102", node, resolved)
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in PRIVATE_ENGINE_CALLS:
            self.flag("REP203", node, node.func.attr)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        for op, left, right in pairs(node):
            timeish = next((side for side in (left, right)
                            if is_time_expr(side)), None)
            if isinstance(op, (ast.Eq, ast.NotEq)) and timeish is not None:
                self.flag("REP501", node, dotted_name(timeish)
                          or type(timeish).__name__)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        # Both operands subscripts: ``ids[order[i]] == bid`` is a value
        # scan, not a match extension.
        compare = next((sub for sub in ast.walk(node.test)
                        if isinstance(sub, ast.Compare) and any(
                            isinstance(op, ast.Eq)
                            and isinstance(left, ast.Subscript)
                            and isinstance(right, ast.Subscript)
                            for op, left, right in pairs(sub))), None)
        if compare is not None:
            self.flag("REP502", node, ast.unparse(compare))
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if isinstance(node.iter, ast.Name) and node.iter.id in CHUNKSEQ_NAMES:
            self.flag("REP504", node, f"for-loop-{node.iter.id}")
        self.generic_visit(node)

    def visit_ListComp(self, node) -> None:
        for gen in node.generators:
            if isinstance(gen.iter, ast.Name) \
                    and gen.iter.id in CHUNKSEQ_NAMES:
                self.flag("REP504", node, f"comprehension-{gen.iter.id}")
        self.generic_visit(node)

    visit_SetComp = visit_DictComp = visit_GeneratorExp = visit_ListComp

    def visit_BinOp(self, node: ast.BinOp) -> None:
        def now_read(side: ast.AST) -> bool:
            return isinstance(side, ast.Attribute) and side.attr in NOW_NAMES

        if isinstance(node.op, ast.Sub) \
                and (now_read(node.left) or now_read(node.right)):
            other = node.right if now_read(node.left) else node.left
            self.flag("REP601", node,
                      dotted_name(other) or type(other).__name__)
        self.generic_visit(node)


def check_source(source: str, module: str) -> list[tuple[str, int, str]]:
    return SourceRules(ast.parse(source), module).findings


def check(path: Path, module: str) -> list[tuple[str, int, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return SourceRules(tree, module).findings


def module_of(path: Path) -> str:
    """Dotted module name of a file under ``src/``."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def tree_findings() -> list[tuple[str, str, int, str]]:
    """``(rule, path, line, key)`` of every finding in ``src/repro``."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        found += [(rule, rel, line, key)
                  for rule, line, key in check(path, module_of(path))]
    return found


def report(found, allowed) -> list[str]:
    """``path:line RULE key`` per unexpected site, one line per stale entry."""
    counts = Counter((rule, path, key) for rule, path, _, key in found)
    allowed = Counter({site: n for site, (n, _) in allowed.items()})
    unexpected = counts - allowed
    stale = allowed - counts
    lines = [f"{path}:{line} {rule} {key}"
             for rule, path, line, key in sorted(
                 found, key=lambda f: (f[1], f[2]))
             if (rule, path, key) in unexpected]
    lines += [f"{path} {rule} {key}: {n} allowed site(s) no longer found"
              for (rule, path, key), n in sorted(stale.items())]
    return lines


def test_tree_findings_are_exactly_the_allowed_sites():
    lines = report(tree_findings(), ALLOWED)
    assert not lines, "\n  " + "\n  ".join(lines)
    assert all(reason for _, reason in ALLOWED.values())


def test_report_names_unexpected_and_stale_sites():
    found = [("REP101", "src/repro/core/stats.py", 89, "_stamp:time.time"),
             ("REP501", "src/repro/sim/engine.py", 40,
              "Environment.step:self._now")]
    allowed = {("REP501", "src/repro/sim/engine.py",
                "Environment.step:self._now"): (2, "Exact tie check.")}
    assert report(found, allowed) == [
        "src/repro/core/stats.py:89 REP101 _stamp:time.time",
        "src/repro/sim/engine.py REP501 Environment.step:self._now: "
        "1 allowed site(s) no longer found",
    ]


def test_module_names_resolve_to_their_files():
    for path in sorted((SRC / "repro").rglob("*.py")):
        spec = importlib.util.find_spec(module_of(path))
        assert spec is not None and Path(spec.origin) == path, path


#: rule -> (violating code, a real module it patrols, a real module it
#: leaves alone, the key the code is reported under).
PROBES = {
    "REP101": ("def _stamp():\n    import time\n    return time.time()\n",
               "core/stats.py", "cli.py", "_stamp:time.time"),
    "REP102": ("def _jitter():\n    import random\n"
               "    return random.random()\n",
               "dedup/replacement.py", "bench/reporting.py",
               "_jitter:random.random"),
    "REP103": ("class _Loose:\n    def __init__(self, seed=0):\n"
               "        import random\n"
               "        self._rng = random.Random(seed)\n",
               "dedup/replacement.py", "cli.py", "_Loose.__init__:seed"),
    "REP201": ("def _proc(env):\n    yield 42\n",
               "core/scheduler.py", "dedup/replacement.py",
               "_proc:literal-yield"),
    "REP203": ("def _poke(env, event):\n"
               "    env._schedule(event, 1, 0.0)\n",
               "core/batcher.py", "sim/engine.py", "_poke:_schedule"),
    "REP501": ("def _due(env, deadline):\n"
               "    return env.now == deadline\n",
               "core/scheduler.py", "storage/ssd.py", "_due:env.now"),
    "REP502": ("def _extend(data, a, b):\n    i = 0\n"
               "    while data[a + i] == data[b + i]:\n"
               "        i += 1\n    return i\n",
               "compression/quicklz.py", "dedup/hashing.py",
               "_extend:data[a + i] == data[b + i]"),
    "REP504": ("def _sizes(chunks):\n"
               "    return [chunk.size for chunk in chunks]\n",
               "dedup/hashing.py", "core/scheduler.py",
               "_sizes:comprehension-chunks"),
    "REP601": ("def _age(env, t0):\n    return env.now - t0\n",
               "storage/ssd.py", "sim/engine.py", "_age:t0"),
}


def appended_findings(rel: str, code: str) -> Counter:
    """Findings that appending ``code`` adds to ``src/repro/<rel>``."""
    path = SRC / "repro" / rel
    source = path.read_text()
    before = Counter(check_source(source, module_of(path)))
    after = Counter(check_source(source + "\n\n" + code, module_of(path)))
    assert not before - after
    return after - before


@pytest.mark.parametrize("rule", sorted(PROBES))
def test_rule_reports_a_new_site_in_a_module_it_patrols(rule):
    code, patrolled, _, key = PROBES[rule]
    added = appended_findings(patrolled, code)
    lines = (SRC / "repro" / patrolled).read_text().count("\n")
    assert [(r, k) for r, _, k in added] == [(rule, key)]
    assert all(line > lines for _, line, _ in added)


@pytest.mark.parametrize("rule", sorted(PROBES))
def test_rule_leaves_modules_outside_its_scope_alone(rule):
    code, _, outside, _ = PROBES[rule]
    assert not APPLIES[rule](module_of(SRC / "repro" / outside))
    assert not appended_findings(outside, code)


def test_comments_suppress_nothing():
    module, expected = FIXTURE_CASES["rep101_wallclock.py"]
    lines = (FIXTURES / "rep101_wallclock.py").read_text().splitlines()
    for rule, line in expected:
        lines[line - 1] += f"  # repro-lint: disable={rule}"
    found = [(rule, line) for rule, line, _ in
             check_source("\n".join(lines) + "\n", module)]
    assert sorted(found) == sorted(expected)


@pytest.mark.parametrize("fixture", sorted(FIXTURE_CASES))
def test_fixture_findings(fixture):
    module, expected = FIXTURE_CASES[fixture]
    found = sorted((rule, line)
                   for rule, line, _ in check(FIXTURES / fixture, module))
    assert found == sorted(expected)


def test_every_rule_has_a_positive_fixture():
    covered = {rule for _, expected in FIXTURE_CASES.values()
               for rule, _ in expected}
    assert covered == set(APPLIES)
