"""Determinism rules (REP101–REP104).

The whole reproduction rests on one promise: given a seed, two runs
produce byte-identical reports and trace-identical schedules
(``tests/test_engine_determinism.py``).  Anything that injects
ambient entropy — wall-clock reads, unseeded RNGs, hash-order
iteration — breaks that promise in ways golden-field tests only catch
after the fact.  These rules catch the *source* at review time.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.visitors import Checker, ScopeTracker

#: Wall-clock reads: values differ between runs by construction.
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.today",
    "datetime.datetime.utcnow", "datetime.date.today",
})

#: Module-level ``random`` functions drawing from the shared, ambient
#: (possibly OS-seeded) generator.
_MODULE_RNG_PREFIXES = ("random.", "numpy.random.", "secrets.")
#: Module-level names that are fine: constructors and non-drawing API.
_MODULE_RNG_EXEMPT = frozenset({
    "random.Random", "numpy.random.Generator",
    "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.SeedSequence",
})
#: RNG constructors that must receive an explicit seed argument.
_RNG_CONSTRUCTORS = frozenset({
    "random.Random", "numpy.random.default_rng",
    "numpy.random.RandomState",
})

#: Seed material that differs between runs by construction.
_ENTROPY_SEEDS = _WALL_CLOCK | {"os.urandom", "os.getrandom"}

#: Call wrappers that realize iteration order (``sorted`` is exempt:
#: it imposes a total order of its own).
_ORDER_REALIZING_CALLS = frozenset({"list", "tuple", "min", "max"})

#: Parameter names recognized as the seed of an RNG-owning class.
_SEED_PARAM_NAMES = frozenset({"seed", "rng_seed"})


class WallClockChecker(Checker):
    """REP101: no wall-clock reads inside the simulation-scoped packages.

    Simulated components must take time from ``env.now`` only; a
    wall-clock read feeding any decision makes the schedule depend on
    host load.  Measurement harnesses (``bench``, ``cli``) are outside
    the scope on purpose.
    """

    rule = "REP101"
    name = "determinism-wallclock"
    description = ("wall-clock read (time.time / datetime.now / "
                   "perf_counter) in simulation-scoped code")

    def applies_to(self, ctx: FileContext) -> bool:
        return self.config.in_scope(ctx.module,
                                    self.config.determinism_scope)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        findings: list[Diagnostic] = []
        checker = self

        class Visitor(ScopeTracker):
            def visit_Call(self, node: ast.Call) -> None:
                resolved = ctx.resolve(node.func)
                if resolved in _WALL_CLOCK:
                    findings.append(checker.diag(
                        ctx, node,
                        f"wall-clock read `{resolved}()` in simulated "
                        f"code — schedules must depend only on env.now",
                        hint="take time from the Environment (env.now) "
                             "or move the measurement into bench/",
                        key=f"{self.qualname}:{resolved}"))
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        yield from findings


class UnseededRngChecker(Checker):
    """REP102: no ambient/unseeded randomness in simulation-scoped code.

    Module-level ``random.*`` draws share one OS-seeded generator, and
    ``random.Random()`` without arguments seeds from the OS — both make
    two identically-seeded runs diverge, as do ``SystemRandom`` and a
    seed read from an entropy source or the wall clock.
    """

    rule = "REP102"
    name = "determinism-unseeded-rng"
    description = ("module-level random.* call or unseeded RNG "
                   "constructor in simulation-scoped code")

    def applies_to(self, ctx: FileContext) -> bool:
        return self.config.in_scope(ctx.module,
                                    self.config.determinism_scope)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        findings: list[Diagnostic] = []
        checker = self

        class Visitor(ScopeTracker):
            def visit_Call(self, node: ast.Call) -> None:
                resolved = ctx.resolve(node.func)
                if resolved is not None:
                    if resolved == "random.SystemRandom" or (
                            resolved in _RNG_CONSTRUCTORS and (
                                not (node.args or node.keywords) or any(
                                    isinstance(sub, ast.Call) and
                                    ctx.resolve(sub.func) in _ENTROPY_SEEDS
                                    for sub in ast.walk(node)))):
                        findings.append(checker.diag(
                            ctx, node,
                            f"`{resolved}()` without a reproducible seed "
                            f"draws its state from the OS or the clock",
                            hint="seed a random.Random explicitly, from "
                                 "the run's --seed",
                            key=f"{self.qualname}:{resolved}"))
                    elif resolved not in _MODULE_RNG_EXEMPT and any(
                            resolved.startswith(p)
                            for p in _MODULE_RNG_PREFIXES):
                        findings.append(checker.diag(
                            ctx, node,
                            f"module-level RNG call `{resolved}()` uses "
                            f"the shared ambient generator",
                            hint="draw from a random.Random(seed) "
                                 "instance owned by the component",
                            key=f"{self.qualname}:{resolved}"))
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        yield from findings


class DefaultSeedChecker(Checker):
    """REP103: RNG-owning classes must require their seed explicitly.

    A class that constructs a ``random.Random`` in ``__init__`` but
    defaults its ``seed`` parameter invites call sites that silently
    pin entropy to a constant instead of flowing it from the run's
    ``--seed`` — exactly how the workload/replacement seeds went stale.
    """

    rule = "REP103"
    name = "determinism-default-seed"
    description = ("RNG-owning class defaults its seed parameter "
                   "instead of requiring it from the caller")

    def applies_to(self, ctx: FileContext) -> bool:
        return self.config.in_scope(ctx.module,
                                    self.config.determinism_scope)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._owns_rng(ctx, node):
                continue
            init = self._find_init(node)
            if init is None:
                continue
            param = self._defaulted_seed_param(init)
            if param is not None:
                yield self.diag(
                    ctx, init,
                    f"class `{node.name}` owns an RNG but defaults its "
                    f"`{param}` parameter",
                    hint="make the seed required (keyword-only) so "
                         "every call site flows it from the run seed",
                    key=f"{node.name}.__init__:{param}")

    @staticmethod
    def _find_init(node: ast.ClassDef) -> Optional[ast.FunctionDef]:
        for item in node.body:
            if isinstance(item, ast.FunctionDef) \
                    and item.name == "__init__":
                return item
        return None

    @staticmethod
    def _owns_rng(ctx: FileContext, node: ast.ClassDef) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) \
                    and ctx.resolve(sub.func) in _RNG_CONSTRUCTORS:
                return True
        return False

    @staticmethod
    def _defaulted_seed_param(init: ast.FunctionDef) -> Optional[str]:
        args = init.args
        # Positional-or-keyword defaults align with the tail of args.
        positional = args.posonlyargs + args.args
        for arg, default in zip(positional[len(positional)
                                           - len(args.defaults):],
                                args.defaults):
            if arg.arg in _SEED_PARAM_NAMES and default is not None:
                return arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if arg.arg in _SEED_PARAM_NAMES and default is not None:
                return arg.arg
        return None


class UnorderedIterationChecker(Checker):
    """REP104: no hash-order iteration feeding deterministic logic.

    Set iteration order follows the hash seed (randomized for str and
    bytes), so a set-driven loop can reorder work between runs.  In
    schedule-critical modules even dict-view loops are flagged: view
    order is insertion order, which refactors silently change, and the
    calendar must never inherit it.
    """

    rule = "REP104"
    name = "determinism-unordered-iter"
    description = ("iteration over a set (or, in schedule-critical "
                   "modules, a dict view) feeding ordering decisions")

    def applies_to(self, ctx: FileContext) -> bool:
        return self.config.in_scope(ctx.module,
                                    self.config.determinism_scope)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        findings: list[Diagnostic] = []
        checker = self
        critical = self.config.in_scope(ctx.module,
                                        self.config.schedule_critical)
        set_names = self._set_typed_names(ctx)

        def is_set_expr(node: ast.AST) -> bool:
            if isinstance(node, ast.Set):
                return True
            if isinstance(node, ast.SetComp):
                return True
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in ("set", "frozenset") \
                    and node.func.id not in ctx.imports:
                return True
            if isinstance(node, ast.Name) and node.id in set_names:
                return True
            return False

        def is_dict_view(node: ast.AST) -> bool:
            return (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("values", "keys", "items")
                    and not node.args and not node.keywords)

        def flag(node: ast.AST, what: str, qualname: str) -> None:
            findings.append(checker.diag(
                ctx, node,
                f"iteration over {what} has no deterministic order",
                hint="iterate a list/deque, or wrap in sorted() with "
                     "an explicit key",
                key=f"{qualname}:{what}"))

        class Visitor(ScopeTracker):
            def _check_iter(self, iter_node: ast.AST) -> None:
                if is_set_expr(iter_node):
                    flag(iter_node, "a set", self.qualname)
                elif critical and is_dict_view(iter_node):
                    flag(iter_node,
                         f"a dict .{iter_node.func.attr}() view",
                         self.qualname)

            def visit_For(self, node: ast.For) -> None:
                self._check_iter(node.iter)
                self.generic_visit(node)

            def _check_comp(self, node) -> None:
                for gen in node.generators:
                    self._check_iter(gen.iter)
                self.generic_visit(node)

            visit_ListComp = _check_comp
            visit_SetComp = _check_comp
            visit_DictComp = _check_comp
            visit_GeneratorExp = _check_comp

            def visit_Call(self, node: ast.Call) -> None:
                if isinstance(node.func, ast.Name) \
                        and node.func.id in _ORDER_REALIZING_CALLS \
                        and len(node.args) == 1 \
                        and not any(kw.arg == "key"
                                    for kw in node.keywords) \
                        and is_set_expr(node.args[0]):
                    flag(node, f"a set (via {node.func.id}())",
                         self.qualname)
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        yield from findings

    @staticmethod
    def _set_typed_names(ctx: FileContext) -> set[str]:
        """Names assigned a set literal/comprehension/constructor or
        annotated as a set, anywhere in the file (syntactic, not
        flow-sensitive — good enough for lint)."""
        names: set[str] = set()
        for node in ast.walk(ctx.tree):
            value = None
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                ann = ast.unparse(node.annotation).lower()
                if ann.startswith(("set", "frozenset", "typing.set",
                                   "typing.frozenset")):
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                    continue
                value = node.value
            if value is None or not isinstance(target, ast.Name):
                continue
            if isinstance(value, (ast.Set, ast.SetComp)) or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in ("set", "frozenset")):
                names.add(target.id)
        return names
