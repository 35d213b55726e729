"""Determinism rules (REP101–REP103).

The whole reproduction rests on one promise: given a seed, two runs
produce byte-identical reports and trace-identical schedules
(``tests/test_engine_determinism.py``).  Anything that injects
ambient entropy — wall-clock reads, unseeded RNGs — breaks that promise
only on the paths and hosts where it happens to change a decision, so
a test sees it late or never.  These rules catch the *source* at
review time, everywhere in scope.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.visitors import Checker, ScopeTracker

#: Packages whose behaviour feeds simulated schedules and reports:
#: wall-clock reads and unseeded RNGs here break run-to-run identity.
SCOPE = (
    "repro.sim", "repro.core", "repro.dedup", "repro.compression",
    "repro.cpu", "repro.gpu", "repro.storage", "repro.workload",
    "repro.obs", "repro.cluster", "repro.tenancy",
)

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
    scope = SCOPE

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
    scope = SCOPE

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
    scope = SCOPE

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

