"""Inter-procedural effect inference (DESIGN.md §13).

The per-file rules (REP1xx-REP6xx) pattern-match one AST at a time;
the REP7xx family needs whole-program answers: *is this callable pure,
transitively?*  This module builds that answer in three passes over the
shared :class:`~repro.analysis.context.FileContext` list:

1. **Index** — every module function and class in the linted tree,
   class attribute types inferred from ``__init__`` assignments and
   annotations, and the re-export alias map from package ``__init__``
   files, so dotted names resolve to definitions.
2. **Extract** — a per-function abstract interpretation over an
   *aliasing root* lattice: every local is tracked back to a root
   (parameter, attribute-of-parameter, module global, shared cache
   view, fresh allocation, constant, deterministic fresh-seeded RNG,
   unknown).  Mutations, I/O, RNG draws and clock reads are recorded
   as direct :class:`Effect` entries; calls are recorded as
   :class:`CallSite` entries with the roots of their arguments.  The
   same walk discovers memo sites (probe + install on one container),
   RNG constructions/flows, and writes through shared views.
3. **Propagate** — a monotone fixpoint over the call graph lifts each
   callee effect through the caller's argument roots, so purity is
   derived transitively, not asserted.

Effects on *audited* state are classified benign and excluded from the
purity verdict: mutations of config-listed module-level caches
(``effect_benign_globals``) are memoization bookkeeping, observationally
pure by the byte-identical-report contract the caches already test.
Everything else counts.

Known resolution limits (see DESIGN.md §13): dynamic dispatch through
``getattr``, properties invoked by attribute read, nested
functions/lambdas called later, and flow-sensitive joins (the last
textual assignment to a name wins) — all degrade to the conservative
``unknown`` root or an ``calls-unknown`` effect rather than a wrong
"pure" verdict.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.analysis.config import LintConfig
from repro.analysis.context import FileContext

# ---------------------------------------------------------------------------
# Effect and root vocabulary
# ---------------------------------------------------------------------------

#: Effect kinds, in severity-ish order.  ``mutates-shared`` is a write
#: through an escaped cache value or shared view (REP702's domain).
EFFECT_KINDS = (
    "mutates-param", "mutates-global", "mutates-shared",
    "mutates-unknown", "io", "rng", "time", "calls-unknown",
)


@dataclass(frozen=True)
class Effect:
    """One inferred side effect, attributed to the function it arose in."""

    __slots__ = ("kind", "detail", "origin")

    kind: str
    detail: str
    origin: str

    def render(self) -> str:
        return f"{self.kind}({self.detail}) from {self.origin}"


# Roots are plain tuples so they hash and compare structurally:
#   ("param", name)          value reachable from a parameter
#   ("attr", base, name)     attribute of another root (depth-capped)
#   ("global", dotted)       module-level binding
#   ("func", dotted)         a function/class object
#   ("shared", desc)         escaped cache value / shared view
#   ("fresh",)               allocated inside this function
#   ("const",)               immutable literal
#   ("rngfresh",)            fresh RNG seeded from explicit arguments
#   ("unknown",)
_FRESH = ("fresh",)
_CONST = ("const",)
_RNGFRESH = ("rngfresh",)
_UNKNOWN = ("unknown",)

_ATTR_DEPTH_CAP = 3


def root_desc(root: tuple) -> str:
    """Human-readable spelling of a root for diagnostics."""
    kind = root[0]
    if kind == "param":
        return root[1]
    if kind == "attr":
        return f"{root_desc(root[1])}.{root[2]}"
    if kind == "global":
        return root[1]
    if kind == "func":
        return root[1]
    if kind == "shared":
        return root[1]
    if kind == "rngfresh":
        return "<fresh seeded rng>"
    return f"<{kind}>"


# ---------------------------------------------------------------------------
# Call classification tables
# ---------------------------------------------------------------------------

_RNG_CTORS = {
    "random.Random", "random.SystemRandom",
    "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.Generator", "np.random.default_rng",
}

_WALL_CLOCK = {
    "time.time", "time.monotonic", "time.perf_counter",
    "time.time_ns", "time.monotonic_ns", "time.perf_counter_ns",
    "time.process_time", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.date.today",
}

#: Module-level draws on the ambient (shared, unseeded) RNG.
_AMBIENT_RNG_PREFIXES = ("random.", "numpy.random.", "secrets.")

_ENTROPY_SOURCES = {
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex",
}

_IO_CALLS = {
    "print", "input", "open", "breakpoint",
}
_IO_PREFIXES = (
    "os.", "sys.", "shutil.", "subprocess.", "socket.", "logging.",
    "tempfile.", "io.", "pickle.dump", "pickle.load", "json.dump",
    "json.load", "pathlib.Path.write", "pathlib.Path.read",
)

#: Stdlib / numpy prefixes whose calls are pure functions of their
#: arguments (results rooted fresh).  ``numpy.random`` is carved out
#: above; ``os``/``sys`` are carved out as I/O before this is checked.
_PURE_PREFIXES = (
    "math.", "cmath.", "hashlib.", "hmac.", "struct.", "itertools.",
    "functools.", "operator.", "zlib.", "binascii.", "base64.",
    "bisect.bisect", "heapq.merge", "heapq.nlargest", "heapq.nsmallest",
    "statistics.", "string.", "textwrap.", "re.", "json.dumps",
    "json.loads", "copy.copy", "copy.deepcopy", "numpy.", "np.",
    "collections.", "dataclasses.replace", "dataclasses.fields",
    "dataclasses.asdict", "enum.", "fractions.", "decimal.",
    "typing.", "abc.", "contextlib.",
)

_PURE_BUILTINS = {
    "len", "range", "min", "max", "sum", "abs", "sorted", "enumerate",
    "zip", "map", "filter", "list", "dict", "set", "tuple", "frozenset",
    "bytes", "bytearray", "memoryview", "int", "float", "str", "bool",
    "complex", "repr", "hash", "isinstance", "issubclass", "divmod",
    "round", "pow", "ord", "chr", "all", "any", "reversed", "slice",
    "format", "iter", "type", "callable", "hasattr", "getattr", "id",
    "object", "super", "vars", "property", "staticmethod",
    "classmethod", "NotImplemented", "hex", "oct", "bin", "ascii",
    # Exception construction is pure; raising is control flow, not an
    # effect (callers observing purity never observe a raise-and-catch).
    "Exception", "BaseException", "ValueError", "TypeError", "KeyError",
    "IndexError", "LookupError", "AttributeError", "RuntimeError",
    "NotImplementedError", "StopIteration", "ArithmeticError",
    "ZeroDivisionError", "OverflowError", "AssertionError", "OSError",
    "IOError", "EOFError", "MemoryError", "RecursionError",
    "UnicodeDecodeError", "UnicodeEncodeError", "Warning",
    "DeprecationWarning", "UserWarning",
}

#: ``f(x)`` builtins that mutate an argument: name -> arg index.
_MUTATING_BUILTINS = {"next": 0, "setattr": 0, "delattr": 0}

#: ``mod.f(x)`` stdlib calls that mutate an argument.
_MUTATING_DOTTED = {
    "heapq.heappush": 0, "heapq.heappop": 0, "heapq.heapify": 0,
    "heapq.heappushpop": 0, "heapq.heapreplace": 0,
    "bisect.insort": 0, "bisect.insort_left": 0,
    "bisect.insort_right": 0, "random.shuffle": 0,
}

#: Method names that mutate their receiver, on any receiver type.
_MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse",
    "move_to_end", "appendleft", "popleft", "extendleft", "rotate",
    "fill", "put", "push", "setdefault", "__setitem__", "insort",
}

#: Method names assumed pure on any receiver (readers/formatters).
_PURE_METHODS = {
    "get", "keys", "values", "items", "copy", "count", "index", "join",
    "split", "rsplit", "strip", "lstrip", "rstrip", "startswith",
    "endswith", "encode", "decode", "format", "replace", "lower",
    "upper", "hex", "digest", "hexdigest", "bit_length", "to_bytes",
    "as_posix", "tobytes", "astype", "tolist", "most_common", "find",
    "rfind", "partition", "rpartition", "zfill", "ljust", "rjust",
    "title", "capitalize", "isdigit", "stats", "total_seconds",
    "is_integer", "as_integer_ratio", "from_bytes", "fromkeys",
    "mean", "std", "cumsum", "searchsorted", "nonzero", "reshape",
    "view", "item", "any", "all", "sum", "min", "max", "argmin",
    "argmax", "identity", "validate",
}

#: Methods that perform I/O on their receiver.
_IO_METHODS = {
    "write", "writelines", "read", "readline", "readlines", "flush",
    "write_text", "write_bytes", "read_text", "read_bytes", "mkdir",
    "unlink", "rmdir", "touch", "rename", "send", "recv", "close",
    "info", "warning", "error", "debug", "exception", "log",
}

#: Draw methods on an RNG-typed receiver.
_RNG_DRAW_METHODS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "betavariate", "expovariate",
    "triangular", "getrandbits", "normal", "integers",
    "standard_normal", "bytes", "permutation", "vonmisesvariate",
    "lognormvariate", "paretovariate", "weibullvariate", "binomial",
}

_RNG_TYPE = "random.Random"


# ---------------------------------------------------------------------------
# Project index structures
# ---------------------------------------------------------------------------

class FunctionInfo:
    """One function/method: AST, signature, and inferred effect state."""

    __slots__ = (
        "qualname", "module", "rel_path", "ctx", "node", "name",
        "class_qualname", "binds_self", "is_generator", "params",
        "vararg", "kwarg", "param_types", "return_type", "decorators",
        "direct", "benign", "effects", "calls", "memo_sites",
        "rng_ctors", "rng_flows", "rng_returns", "rng_stores",
        "shared_writes",
    )

    def __init__(self, qualname: str, ctx: FileContext, node,
                 class_qualname: Optional[str]):
        self.qualname = qualname
        self.module = ctx.module or "<unknown>"
        self.rel_path = ctx.rel_path
        self.ctx = ctx
        self.node = node
        self.name = node.name
        self.class_qualname = class_qualname
        self.decorators: set[str] = set()
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            dotted = _syntactic_dotted(target)
            if dotted:
                self.decorators.add(dotted)
        self.binds_self = (class_qualname is not None
                           and "staticmethod" not in self.decorators)
        self.is_generator = any(
            isinstance(sub, (ast.Yield, ast.YieldFrom))
            for sub in _own_nodes(node))
        args = node.args
        self.params = [a.arg for a in args.posonlyargs + args.args]
        self.params += [a.arg for a in args.kwonlyargs]
        self.vararg = args.vararg.arg if args.vararg else None
        self.kwarg = args.kwarg.arg if args.kwarg else None
        self.param_types: dict[str, Optional[str]] = {}
        self.return_type: Optional[str] = None
        # Filled by the extractor / fixpoint:
        self.direct: set[Effect] = set()
        self.benign: set[Effect] = set()
        self.effects: set[Effect] = set()
        self.calls: list[CallSite] = []
        self.memo_sites: list[MemoSite] = []
        self.rng_ctors: list[RngCtor] = []
        self.rng_flows: list[RngFlow] = []
        self.rng_returns: list[ast.AST] = []
        self.rng_stores: list[tuple[ast.AST, str]] = []
        self.shared_writes: list[tuple[ast.AST, str]] = []

    @property
    def is_pure(self) -> bool:
        return not self.effects

    def short(self) -> str:
        prefix = self.module + "."
        return self.qualname[len(prefix):] \
            if self.qualname.startswith(prefix) else self.qualname


class ClassInfo:
    """One class: methods, bases, inferred attribute types."""

    __slots__ = ("qualname", "module", "node", "bases", "methods",
                 "attr_types")

    def __init__(self, qualname: str, module: str, node: ast.ClassDef):
        self.qualname = qualname
        self.module = module
        self.node = node
        self.bases: list[str] = []
        self.methods: dict[str, FunctionInfo] = {}
        self.attr_types: dict[str, Optional[str]] = {}


class CallSite:
    """One call to a project-resolved target, with argument roots."""

    __slots__ = ("node", "callee", "recv", "args", "kwargs", "is_ctor")

    def __init__(self, node: ast.Call, callee: FunctionInfo,
                 recv: Optional[tuple], args: list[tuple],
                 kwargs: dict[str, tuple], is_ctor: bool):
        self.node = node
        self.callee = callee
        self.recv = recv
        self.args = args
        self.kwargs = kwargs
        self.is_ctor = is_ctor


class MemoSite:
    """A probe+install pair on one container inside one function."""

    __slots__ = ("fn", "container", "probes", "installs")

    def __init__(self, fn: FunctionInfo, container: str):
        self.fn = fn
        self.container = container
        self.probes: list[ast.AST] = []
        #: (install node, producer descriptors) — each producer is
        #: ("project", FunctionInfo) | ("pure", desc) | ("impure",
        #: kind, desc) | ("unknown", desc).
        self.installs: list[tuple[ast.AST, list[tuple]]] = []


class RngCtor:
    """One RNG construction, with its seed provenance."""

    __slots__ = ("node", "ctor", "explicit", "taints")

    def __init__(self, node: ast.Call, ctor: str, explicit: bool,
                 taints: list[str]):
        self.node = node
        self.ctor = ctor
        self.explicit = explicit
        self.taints = taints


class RngFlow:
    """An RNG value passed into a call (tracked or escaping)."""

    __slots__ = ("node", "target_desc", "callee", "param_name",
                 "same_module")

    def __init__(self, node: ast.AST, target_desc: str,
                 callee: Optional[FunctionInfo], param_name: Optional[str],
                 same_module: bool):
        self.node = node
        self.target_desc = target_desc
        self.callee = callee
        self.param_name = param_name
        self.same_module = same_module


def _syntactic_dotted(node: ast.AST) -> Optional[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _own_nodes(func) -> Iterable[ast.AST]:
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# The analysis
# ---------------------------------------------------------------------------

class EffectAnalysis:
    """Whole-program effect summaries over a set of file contexts."""

    def __init__(self, contexts: Iterable[FileContext],
                 config: Optional[LintConfig] = None):
        self.config = config if config is not None else LintConfig()
        self.contexts = list(contexts)
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: dotted re-export -> defining dotted name (package __init__).
        self.aliases: dict[str, str] = {}
        #: module -> {local def name -> dotted qualname}
        self._module_defs: dict[str, dict[str, str]] = {}
        #: module -> names bound by module-level assignments.
        self._module_globals: dict[str, set[str]] = {}
        #: (fn, callsite node, desc, origin) — shared writes discovered
        #: during propagation (a callee mutated a param the caller
        #: bound to a shared root).
        self.shared_lifts: list[tuple] = []
        self._benign_globals = set(self.config.effect_benign_globals)
        self._index()
        self._infer_attr_types()
        for fn in self.functions.values():
            _Extractor(self, fn).run()
        self._propagate()
        self._collect_memo_sites()

    # -- pass 1: index ------------------------------------------------------

    def _index(self) -> None:
        for ctx in self.contexts:
            module = ctx.module
            if module is None:
                continue
            defs = self._module_defs.setdefault(module, {})
            mglobals = self._module_globals.setdefault(module, set())
            for stmt in ctx.tree.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            mglobals.add(target.id)
                elif isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name):
                    mglobals.add(stmt.target.id)
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    qual = f"{module}.{stmt.name}"
                    defs[stmt.name] = qual
                    self.functions[qual] = FunctionInfo(qual, ctx, stmt,
                                                        None)
                elif isinstance(stmt, ast.ClassDef):
                    qual = f"{module}.{stmt.name}"
                    defs[stmt.name] = qual
                    cls = ClassInfo(qual, module, stmt)
                    self.classes[qual] = cls
                    for sub in stmt.body:
                        if isinstance(sub, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
                            mqual = f"{qual}.{sub.name}"
                            fn = FunctionInfo(mqual, ctx, sub, qual)
                            cls.methods[sub.name] = fn
                            self.functions[mqual] = fn
            # Package __init__ re-exports: alias exported name to the
            # defining module's qualname.
            if ctx.path.name == "__init__.py":
                for local, target in ctx.imports.items():
                    self.aliases[f"{module}.{local}"] = target
        # Resolve base-class names now that every class is indexed.
        for cls in self.classes.values():
            ctx = None
            for c in self.contexts:
                if c.module == cls.module:
                    ctx = c
                    break
            for base in cls.node.bases:
                dotted = self._resolve_symbolic(ctx, base) if ctx else None
                if dotted:
                    dotted = self.canonical(dotted)
                    if dotted in self.classes:
                        cls.bases.append(dotted)
        # Signature types need the class index.
        for fn in self.functions.values():
            node = fn.node
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                typ = self._ann_type(fn.ctx, arg.annotation)
                if typ is not None:
                    fn.param_types[arg.arg] = typ
            fn.return_type = self._ann_type(fn.ctx, node.returns)

    def canonical(self, dotted: str) -> str:
        """Follow package re-export aliases to the defining module."""
        seen = 0
        while dotted in self.aliases and seen < 5:
            dotted = self.aliases[dotted]
            seen += 1
        return dotted

    def _resolve_symbolic(self, ctx: FileContext,
                          node: ast.AST) -> Optional[str]:
        """Dotted name of an expression: imports, then module defs."""
        resolved = ctx.resolve(node)
        if resolved is not None:
            return resolved
        dotted = _syntactic_dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        defs = self._module_defs.get(ctx.module or "", {})
        if head in defs:
            base = defs[head]
            return f"{base}.{rest}" if rest else base
        return None

    def resolve_name(self, ctx: FileContext,
                     name: str) -> Optional[str]:
        """Dotted target of a bare name (import or module-level def)."""
        target = ctx.imports.get(name)
        if target is not None:
            return target
        defs = self._module_defs.get(ctx.module or "", {})
        return defs.get(name)

    def lookup_function(self, dotted: str) -> Optional[FunctionInfo]:
        return self.functions.get(self.canonical(dotted))

    def lookup_class(self, dotted: str) -> Optional[ClassInfo]:
        return self.classes.get(self.canonical(dotted))

    def resolve_method(self, class_qualname: str,
                       name: str) -> Optional[FunctionInfo]:
        """Method lookup through the project-visible base-class chain."""
        seen: set[str] = set()
        stack = [class_qualname]
        while stack:
            qual = stack.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            cls = self.classes.get(qual)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            stack.extend(cls.bases)
        return None

    def attr_type(self, class_qualname: str,
                  attr: str) -> Optional[str]:
        seen: set[str] = set()
        stack = [class_qualname]
        while stack:
            qual = stack.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            cls = self.classes.get(qual)
            if cls is None:
                continue
            if attr in cls.attr_types:
                return cls.attr_types[attr]
            stack.extend(cls.bases)
        return None

    # -- pass 1b: annotation / attribute types ------------------------------

    def _ann_type(self, ctx: FileContext,
                  ann: Optional[ast.AST]) -> Optional[str]:
        """Project class (or RNG) named by an annotation, if any."""
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return (self._ann_type(ctx, ann.left)
                    or self._ann_type(ctx, ann.right))
        if isinstance(ann, ast.Subscript):
            head = _syntactic_dotted(ann.value) or ""
            if head.split(".")[-1] in ("Optional", "Union"):
                inner = ann.slice
                elts = inner.elts if isinstance(inner, ast.Tuple) \
                    else [inner]
                for elt in elts:
                    typ = self._ann_type(ctx, elt)
                    if typ is not None:
                        return typ
            return None
        if isinstance(ann, (ast.Name, ast.Attribute)):
            dotted = self._resolve_symbolic(ctx, ann)
            if dotted is None and isinstance(ann, ast.Name):
                dotted = self.resolve_name(ctx, ann.id)
            if dotted is None:
                return None
            dotted = self.canonical(dotted)
            if dotted in _RNG_CTORS:
                return _RNG_TYPE
            if dotted in self.classes:
                return dotted
        return None

    def _expr_type(self, ctx: FileContext, fn: FunctionInfo,
                   expr: ast.AST) -> Optional[str]:
        """Syntactic type of a ``self.x = expr`` right-hand side."""
        if isinstance(expr, ast.IfExp):
            return (self._expr_type(ctx, fn, expr.body)
                    or self._expr_type(ctx, fn, expr.orelse))
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                typ = self._expr_type(ctx, fn, value)
                if typ is not None:
                    return typ
            return None
        if isinstance(expr, ast.Call):
            dotted = self._resolve_symbolic(ctx, expr.func)
            if dotted is None:
                return None
            dotted = self.canonical(dotted)
            if dotted in _RNG_CTORS:
                return _RNG_TYPE
            if dotted in self.classes:
                return dotted
            callee = self.functions.get(dotted)
            if callee is not None:
                return callee.return_type
            return None
        if isinstance(expr, ast.Name):
            return fn.param_types.get(expr.id)
        return None

    def _infer_attr_types(self) -> None:
        for cls in self.classes.values():
            # Class-level annotations (dataclass fields included).
            ctx = None
            for fn in cls.methods.values():
                ctx = fn.ctx
                break
            for stmt in cls.node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name) and ctx:
                    typ = self._ann_type(ctx, stmt.annotation)
                    if typ is not None:
                        cls.attr_types.setdefault(stmt.target.id, typ)
            # ``self.x = expr`` in methods, __init__ first.
            methods = sorted(cls.methods.values(),
                             key=lambda f: f.name != "__init__")
            for fn in methods:
                for node in _own_nodes(fn.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    if len(node.targets) != 1:
                        continue
                    target = node.targets[0]
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and fn.params
                            and target.value.id == fn.params[0]):
                        continue
                    typ = self._expr_type(fn.ctx, fn, node.value)
                    if typ is not None:
                        cls.attr_types.setdefault(target.attr, typ)

    # -- pass 3: fixpoint propagation ---------------------------------------

    def _propagate(self) -> None:
        for fn in self.functions.values():
            fn.effects = set(fn.direct)
        changed = True
        rounds = 0
        while changed and rounds < 50:
            changed = False
            rounds += 1
            for fn in self.functions.values():
                new = set(fn.direct)
                for cs in fn.calls:
                    pmap = self._param_map(cs)
                    for eff in cs.callee.effects:
                        lifted = self._lift(eff, pmap, fn, cs)
                        if lifted is not None:
                            new.add(lifted)
                if new != fn.effects:
                    fn.effects = new
                    changed = True

    def _param_map(self, cs: CallSite) -> dict[str, tuple]:
        callee = cs.callee
        pmap: dict[str, tuple] = {}
        params = list(callee.params)
        if callee.binds_self and params:
            if cs.is_ctor:
                pmap[params[0]] = _FRESH
            elif cs.recv is not None:
                pmap[params[0]] = cs.recv
            params = params[1:]
        n_pos = len(callee.node.args.posonlyargs) \
            + len(callee.node.args.args)
        if callee.binds_self:
            n_pos -= 1
        positional = params[:n_pos]
        for i, root in enumerate(cs.args):
            if i < len(positional):
                pmap[positional[i]] = root
            elif callee.vararg is not None:
                # Fold extra positionals into the vararg conservatively.
                prev = pmap.get(callee.vararg)
                pmap[callee.vararg] = root if prev in (None, _CONST) \
                    else _UNKNOWN if prev != root else root
        for name, root in cs.kwargs.items():
            if name in callee.params:
                pmap[name] = root
            elif callee.kwarg is not None:
                pmap[callee.kwarg] = _UNKNOWN
        return pmap

    def _lift(self, eff: Effect, pmap: dict[str, tuple],
              fn: FunctionInfo, cs: CallSite) -> Optional[Effect]:
        if eff.kind != "mutates-param":
            return eff
        head, _, tail = eff.detail.partition(".")
        root = pmap.get(head)
        if root is None:
            # Defaulted (unpassed) parameter: the mutation acts on the
            # callee's own default object, invisible to this caller.
            return None
        return self._mutation_effect(root, tail, eff.origin, fn, cs)

    def _mutation_effect(self, root: tuple, tail: str, origin: str,
                         fn: Optional[FunctionInfo],
                         cs: Optional[CallSite]) -> Optional[Effect]:
        """Map a mutation through ``root`` onto the caller's frame."""
        kind = root[0]
        if kind in ("fresh", "const", "rngfresh", "func"):
            return None
        if kind == "param":
            detail = root[1] + ("." + tail if tail else "")
            return Effect("mutates-param", detail, origin)
        if kind == "attr":
            base, path = root, []
            while base[0] == "attr":
                path.append(base[2])
                base = base[1]
            path = list(reversed(path))
            full_tail = ".".join(path + ([tail] if tail else []))
            return self._mutation_effect(base, full_tail, origin, fn, cs)
        if kind == "global":
            if root[1] in self._benign_globals:
                return None
            return Effect("mutates-global", root[1], origin)
        if kind == "shared":
            if fn is not None and cs is not None:
                self.shared_lifts.append(
                    (fn, cs.node, root[1], origin))
            return Effect("mutates-shared", root[1], origin)
        return Effect("mutates-unknown",
                      root_desc(root) + ("." + tail if tail else ""),
                      origin)

    # -- memo sites ---------------------------------------------------------

    def _collect_memo_sites(self) -> None:
        """Pair probes with installs per container, per function."""
        for fn in self.functions.values():
            fn.memo_sites = [site for site in fn.memo_sites
                             if site.probes and site.installs]

    def all_memo_sites(self) -> list[MemoSite]:
        out = []
        for fn in self.functions.values():
            out.extend(fn.memo_sites)
        return out

    # -- reporting ----------------------------------------------------------

    def describe(self, qualname: str) -> str:
        """Text summary of one function's inferred effects."""
        fn = self.lookup_function(qualname)
        if fn is None:
            known = sorted(q for q in self.functions
                           if q.endswith("." + qualname.split(".")[-1]))
            hint = f" (did you mean: {', '.join(known[:5])}?)" \
                if known else ""
            return f"no such function: {qualname}{hint}"
        lines = [f"{fn.qualname}  [{fn.rel_path}:{fn.node.lineno}]"]
        verdict = "PURE" if fn.is_pure else "IMPURE"
        lines.append(f"  verdict: {verdict}")
        for eff in sorted(fn.effects,
                          key=lambda e: (e.kind, e.detail, e.origin)):
            lines.append(f"  effect: {eff.render()}")
        for eff in sorted(fn.benign,
                          key=lambda e: (e.kind, e.detail, e.origin)):
            lines.append(f"  benign: {eff.render()}")
        callees = sorted({cs.callee.qualname for cs in fn.calls})
        if callees:
            lines.append("  calls: " + ", ".join(callees))
        for site in fn.memo_sites:
            lines.append(f"  memo site: {site.container} "
                         f"({len(site.probes)} probe(s), "
                         f"{len(site.installs)} install(s))")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Per-function extraction
# ---------------------------------------------------------------------------

class _Extractor:
    """Extract one function's direct effects, calls, and sites."""

    def __init__(self, analysis: EffectAnalysis, fn: FunctionInfo):
        self.a = analysis
        self.fn = fn
        self.ctx = fn.ctx
        self.config = analysis.config
        #: name -> (root, type)
        self.env: dict[str, tuple] = {}
        #: name -> every expression assigned to it (producer chains).
        self.assigns: dict[str, list[ast.AST]] = {}
        #: id(Call node) -> classification tuple (see MemoSite).
        self.call_info: dict[int, tuple] = {}
        self.globals_declared: set[str] = set()
        self._sites: dict[tuple, MemoSite] = {}
        self._raw_installs: list[tuple] = []
        for p in fn.params:
            self.env[p] = (("param", p), fn.param_types.get(p))
        if fn.vararg:
            self.env[fn.vararg] = (("param", fn.vararg), None)
        if fn.kwarg:
            self.env[fn.kwarg] = (("param", fn.kwarg), None)

    def run(self) -> None:
        for stmt in self.fn.node.body:
            self.stmt(stmt)
        # Pair installs with probed containers, resolve producers.
        for root, node, value_expr in self._raw_installs:
            site = self._sites.get(root)
            if site is None:
                site = MemoSite(self.fn, self._container_desc(root))
                self._sites[root] = site
            site.installs.append((node, self._producers(value_expr)))
        self.fn.memo_sites = list(self._sites.values())

    # -- memo bookkeeping ---------------------------------------------------

    def _container_desc(self, root: tuple) -> str:
        desc = root_desc(root)
        if root[0] == "attr" and self.fn.class_qualname:
            base = root
            while base[0] == "attr":
                base = base[1]
            if base == ("param", self.fn.params[0]):
                cls = self.fn.class_qualname.rsplit(".", 1)[-1]
                return f"{cls}{desc[len(self.fn.params[0]):]}"
        return desc

    def _memo_container(self, root: tuple) -> bool:
        """True for containers that persist beyond this call.

        A memo must outlive the computation it caches: module globals
        and attributes reached from ``self`` qualify.  A container
        received as a bare parameter is a caller-owned accumulator
        (``refine_tile``'s ``stats`` dict), not a memo — its
        mutation is still tracked as ``mutates-param``.
        """
        if root[0] == "global":
            return True
        if root[0] != "attr":
            return False
        base = root
        while base[0] == "attr":
            base = base[1]
        return bool(self.fn.binds_self and self.fn.params
                    and base == ("param", self.fn.params[0]))

    def _probe(self, root: tuple, node: ast.AST) -> None:
        if not self._memo_container(root):
            return
        site = self._sites.get(root)
        if site is None:
            site = MemoSite(self.fn, self._container_desc(root))
            self._sites[root] = site
        site.probes.append(node)

    def _install(self, root: tuple, node: ast.AST,
                 value_expr: Optional[ast.AST]) -> None:
        if not self._memo_container(root) or value_expr is None:
            return
        self._raw_installs.append((root, node, value_expr))

    def _producers(self, expr: ast.AST) -> list[tuple]:
        """Classified calls feeding an installed memo value."""
        out: list[tuple] = []
        seen: set[str] = set()
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            if isinstance(node, ast.Call):
                info = self.call_info.get(id(node))
                if info is None:
                    desc = _syntactic_dotted(node.func) or "<call>"
                    info = ("unknown", desc)
                out.append(info)
                stack.extend(node.args)
                stack.extend(kw.value for kw in node.keywords)
            elif isinstance(node, ast.Name):
                if node.id not in seen:
                    seen.add(node.id)
                    stack.extend(self.assigns.get(node.id, []))
            elif isinstance(node, ast.IfExp):
                stack.extend((node.body, node.orelse))
            elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                stack.extend(node.elts)
            elif isinstance(node, ast.BinOp):
                stack.extend((node.left, node.right))
            elif isinstance(node, (ast.Attribute, ast.Subscript,
                                   ast.Starred, ast.UnaryOp)):
                stack.append(node.value
                             if not isinstance(node, ast.UnaryOp)
                             else node.operand)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                stack.extend(sub for sub in ast.walk(node)
                             if isinstance(sub, ast.Call))
        return out

    # -- effect recording ---------------------------------------------------

    def _record_mutation(self, root: tuple, tail: str,
                         node: ast.AST) -> None:
        eff = self.a._mutation_effect(root, tail, self.fn.qualname,
                                      None, None)
        if eff is None:
            if root[0] == "global" and \
                    root[1] in self.a._benign_globals:
                self.fn.benign.add(Effect("mutates-global", root[1],
                                          self.fn.qualname))
            return
        if eff.kind == "mutates-shared":
            self.fn.shared_writes.append((node, eff.detail))
        self.fn.direct.add(eff)

    def _effect(self, kind: str, detail: str) -> None:
        self.fn.direct.add(Effect(kind, detail, self.fn.qualname))

    def _typ_of_root(self, root: tuple) -> Optional[str]:
        kind = root[0]
        if kind == "param":
            if self.fn.binds_self and self.fn.params \
                    and root[1] == self.fn.params[0]:
                return self.fn.class_qualname
            return self.fn.param_types.get(root[1])
        if kind == "attr":
            base_typ = self._typ_of_root(root[1])
            if base_typ is not None and base_typ in self.a.classes:
                return self.a.attr_type(base_typ, root[2])
            return None
        if kind == "rngfresh":
            return _RNG_TYPE
        return None

    @staticmethod
    def _index_root(root: tuple) -> tuple:
        kind = root[0]
        if kind == "global":
            return ("shared", f"{root[1]}[…]")
        if kind in ("param", "attr", "shared", "unknown"):
            return root
        return _FRESH

    # -- statements ---------------------------------------------------------

    def stmt(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            value_val = self.eval(node.value)
            for target in node.targets:
                self._assign(target, value_val, node.value)
        elif isinstance(node, ast.AnnAssign):
            typ = self.a._ann_type(self.ctx, node.annotation)
            if node.value is not None:
                value_val = self.eval(node.value)
                if typ is not None:
                    value_val = (value_val[0], typ)
                self._assign(node.target, value_val, node.value)
        elif isinstance(node, ast.AugAssign):
            self.eval(node.value)
            target = node.target
            if isinstance(target, ast.Name):
                # Rebinding a local; ``global`` names are mutations.
                if target.id in self.globals_declared:
                    self._record_mutation(
                        ("global",
                         f"{self.fn.module}.{target.id}"), "", node)
            elif isinstance(target, ast.Attribute):
                base = self.eval(target.value)
                self._record_mutation(base[0], target.attr, node)
            elif isinstance(target, ast.Subscript):
                base = self.eval(target.value)
                self.eval(target.slice)
                self._record_mutation(base[0], "", node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            iter_val = self.eval(node.iter)
            elem = (self._index_root(iter_val[0]), None)
            self._assign(node.target, elem, None)
            for sub in node.body:
                self.stmt(sub)
            for sub in node.orelse:
                self.stmt(sub)
        elif isinstance(node, ast.While):
            self.eval(node.test)
            for sub in node.body + node.orelse:
                self.stmt(sub)
        elif isinstance(node, ast.If):
            self.eval(node.test)
            for sub in node.body + node.orelse:
                self.stmt(sub)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                val = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars,
                                 (val[0], val[1]), item.context_expr)
            for sub in node.body:
                self.stmt(sub)
        elif isinstance(node, ast.Try):
            for sub in node.body + node.orelse + node.finalbody:
                self.stmt(sub)
            for handler in node.handlers:
                if handler.name:
                    self.env[handler.name] = (_UNKNOWN, None)
                for sub in handler.body:
                    self.stmt(sub)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                val = self.eval(node.value)
                if val[1] == _RNG_TYPE or val[0] == _RNGFRESH:
                    self.fn.rng_returns.append(node)
        elif isinstance(node, ast.Expr):
            self.eval(node.value)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    base = self.eval(target.value)
                    self._record_mutation(base[0], "", node)
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                self.eval(node.exc)
            if node.cause is not None:
                self.eval(node.cause)
        elif isinstance(node, ast.Assert):
            self.eval(node.test)
            if node.msg is not None:
                self.eval(node.msg)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            self.globals_declared.update(node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            pass
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            self.env[node.name] = (_CONST, None)
        # Pass/Break/Continue: nothing to do.

    def _assign(self, target: ast.AST, val: tuple,
                value_expr: Optional[ast.AST]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = val
            if value_expr is not None:
                self.assigns.setdefault(target.id, []).append(value_expr)
            if target.id in self.globals_declared:
                self._record_mutation(
                    ("global", f"{self.fn.module}.{target.id}"),
                    "", target)
        elif isinstance(target, ast.Attribute):
            base = self.eval(target.value)
            self._record_mutation(base[0], target.attr, target)
            if val[1] == _RNG_TYPE or val[0] == _RNGFRESH:
                if base[0] != ("param", self.fn.params[0]
                               if self.fn.params else ""):
                    self.fn.rng_stores.append(
                        (target, root_desc(base[0])))
        elif isinstance(target, ast.Subscript):
            base = self.eval(target.value)
            self.eval(target.slice)
            self._record_mutation(base[0], "", target)
            self._install(base[0], target, value_expr)
            if val[1] == _RNG_TYPE or val[0] == _RNGFRESH:
                self.fn.rng_stores.append((target, root_desc(base[0])))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, (_UNKNOWN, None), value_expr)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, (_UNKNOWN, None), value_expr)

    # -- expressions --------------------------------------------------------

    def eval(self, node: ast.AST) -> tuple:
        """(root, type) of an expression, recording effects en route."""
        if node is None or isinstance(node, ast.Constant):
            return (_CONST, None)
        if isinstance(node, ast.Name):
            return self._eval_name(node)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            self.eval(node.slice)
            return (self._index_root(base[0]), None)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self.eval(elt)
            return (_FRESH, None)
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.eval(key)
            for value in node.values:
                self.eval(value)
            return (_FRESH, None)
        if isinstance(node, ast.BinOp):
            self.eval(node.left)
            self.eval(node.right)
            return (_FRESH, None)
        if isinstance(node, ast.UnaryOp):
            self.eval(node.operand)
            return (_CONST, None)
        if isinstance(node, ast.BoolOp):
            roots = [self.eval(value) for value in node.values]
            for val in roots:
                if val[0] != _CONST:
                    return val
            return (_CONST, None)
        if isinstance(node, ast.Compare):
            self.eval(node.left)
            for op, comparator in zip(node.ops, node.comparators):
                val = self.eval(comparator)
                if isinstance(op, (ast.In, ast.NotIn)):
                    self._probe(val[0], node)
            return (_CONST, None)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            body = self.eval(node.body)
            orelse = self.eval(node.orelse)
            return body if body[0] != _CONST else orelse
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self.eval(value.value)
            return (_CONST, None)
        if isinstance(node, ast.FormattedValue):
            self.eval(node.value)
            return (_CONST, None)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            for gen in node.generators:
                iter_val = self.eval(gen.iter)
                elem = (self._index_root(iter_val[0]), None)
                self._assign(gen.target, elem, None)
                for test in gen.ifs:
                    self.eval(test)
            if isinstance(node, ast.DictComp):
                self.eval(node.key)
                self.eval(node.value)
            else:
                self.eval(node.elt)
            return (_FRESH, None)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            val = self.eval(node.value)
            self._assign(node.target, val, node.value)
            return val
        if isinstance(node, (ast.Await, ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self.eval(node.value)
            return (_UNKNOWN, None)
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self.eval(part)
            return (_CONST, None)
        if isinstance(node, ast.Lambda):
            return (_CONST, None)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
        return (_UNKNOWN, None)

    def _eval_name(self, node: ast.Name) -> tuple:
        if node.id in self.env:
            return self.env[node.id]
        dotted = self.a.resolve_name(self.ctx, node.id)
        if dotted is not None:
            dotted = self.a.canonical(dotted)
            if dotted in self.a.functions or dotted in self.a.classes \
                    or dotted in _RNG_CTORS:
                return (("func", dotted), None)
            return (("global", dotted), None)
        module = self.fn.module
        if node.id in self.a._module_globals.get(module, set()):
            return (("global", f"{module}.{node.id}"), None)
        if node.id in _PURE_BUILTINS or node.id in _IO_CALLS \
                or node.id in _MUTATING_BUILTINS:
            return (("func", f"builtins.{node.id}"), None)
        return (_UNKNOWN, None)

    def _eval_attribute(self, node: ast.Attribute) -> tuple:
        dotted = self.a._resolve_symbolic(self.ctx, node)
        if dotted is not None:
            dotted = self.a.canonical(dotted)
            if dotted in self.a.functions or dotted in self.a.classes \
                    or dotted in _RNG_CTORS:
                return (("func", dotted), None)
            return (("global", dotted), None)
        base = self.eval(node.value)
        base_root, base_typ = base
        if base_typ is None:
            base_typ = self._typ_of_root(base_root)
        # Shared views exposed as attributes (ChunkBatch columns).
        if base_typ is not None:
            for cls, attrs in self.config.shared_view_attrs.items():
                if base_typ == cls and node.attr in attrs:
                    short = cls.rsplit(".", 1)[-1]
                    return (("shared", f"{short}.{node.attr}"), None)
        # Simulated-clock read.
        if node.attr == "now":
            desc = root_desc(base_root)
            if (base_typ or "").endswith(".Environment") \
                    or desc.endswith("env") or desc.endswith("_env"):
                self._effect("time", f"reads {desc}.now (sim clock)")
                return (_CONST, None)
        depth = 0
        probe = base_root
        while probe[0] == "attr":
            depth += 1
            probe = probe[1]
        if depth >= _ATTR_DEPTH_CAP:
            return (_UNKNOWN, None)
        root = ("attr", base_root, node.attr)
        typ = None
        if base_typ is not None and base_typ in self.a.classes:
            typ = self.a.attr_type(base_typ, node.attr)
        # Keep the attribute root even on fresh/const/unknown bases:
        # ``append = out.append`` must stay a bound method on ``out``
        # (mutations of fresh-rooted chains are dropped downstream).
        return (root, typ)

    # -- calls --------------------------------------------------------------

    def _eval_call(self, node: ast.Call) -> tuple:
        args = []
        has_star = False
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                has_star = True
                args.append(self.eval(arg.value))
            else:
                args.append(self.eval(arg))
        kwargs = {}
        for kw in node.keywords:
            val = self.eval(kw.value)
            if kw.arg is None:
                has_star = True
            else:
                kwargs[kw.arg] = val
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.env:
                root, _typ = self.env[func.id]
                if root[0] == "func":
                    return self._call_dotted(node, root[1], args,
                                             kwargs, has_star)
                if root[0] == "attr":
                    recv_root = root[1]
                    recv_typ = self._typ_of_root(recv_root)
                    return self._call_method(node, (recv_root, recv_typ),
                                             root[2], args, kwargs,
                                             has_star, node.args)
                self._effect("calls-unknown",
                             f"call through local {func.id!r}")
                self._flag_rng_flows(node, f"local {func.id!r}",
                                     None, args, kwargs)
                return (_UNKNOWN, None)
            dotted = self.a.resolve_name(self.ctx, func.id)
            if dotted is not None:
                return self._call_dotted(node, dotted, args, kwargs,
                                         has_star)
            return self._call_builtin(node, func.id, args)
        if isinstance(func, ast.Attribute):
            # ``super().m(...)``: resolve in the base-class chain.
            if isinstance(func.value, ast.Call) \
                    and isinstance(func.value.func, ast.Name) \
                    and func.value.func.id == "super" \
                    and self.fn.class_qualname:
                cls = self.a.classes.get(self.fn.class_qualname)
                for base in (cls.bases if cls else []):
                    m = self.a.resolve_method(base, func.attr)
                    if m is not None:
                        recv = ("param", self.fn.params[0]) \
                            if self.fn.params else _UNKNOWN
                        return self._project_call(node, m, recv, args,
                                                  kwargs, False)
                self._effect("calls-unknown", f"super().{func.attr}")
                return (_UNKNOWN, None)
            dotted = self.a._resolve_symbolic(self.ctx, func)
            if dotted is not None:
                return self._call_dotted(node, dotted, args, kwargs,
                                         has_star)
            base = self.eval(func.value)
            return self._call_method(node, base, func.attr, args,
                                     kwargs, has_star, node.args)
        self.eval(func)
        self._effect("calls-unknown", "indirect call expression")
        self.call_info[id(node)] = ("unknown", "<indirect>")
        return (_UNKNOWN, None)

    def _call_builtin(self, node: ast.Call, name: str,
                      args: list[tuple]) -> tuple:
        if name in _MUTATING_BUILTINS:
            idx = _MUTATING_BUILTINS[name]
            if idx < len(args):
                self._record_mutation(args[idx][0], "", node)
            self.call_info[id(node)] = ("benign", name)
            return (_UNKNOWN, None)
        if name in _IO_CALLS:
            self._effect("io", name)
            self.call_info[id(node)] = ("impure", "io", name)
            return (_FRESH, None)
        if name in _PURE_BUILTINS:
            self.call_info[id(node)] = ("pure", name)
            return (_FRESH, None)
        self._effect("calls-unknown", name)
        self.call_info[id(node)] = ("unknown", name)
        return (_UNKNOWN, None)

    def _call_dotted(self, node: ast.Call, dotted: str,
                     args: list[tuple], kwargs: dict[str, tuple],
                     has_star: bool) -> tuple:
        dotted = self.a.canonical(dotted)
        if dotted.startswith("builtins."):
            return self._call_builtin(node, dotted[len("builtins."):],
                                      args)
        callee = self.a.functions.get(dotted)
        if callee is not None:
            return self._project_call(node, callee, None, args, kwargs,
                                      False)
        cls = self.a.classes.get(dotted)
        if cls is not None:
            init = self.a.resolve_method(dotted, "__init__")
            if init is not None:
                self._project_call(node, init, None, args, kwargs, True)
            else:
                self.call_info[id(node)] = ("pure", f"{dotted}()")
            self._flag_rng_flows(node, dotted, None, args, kwargs)
            return (_FRESH, dotted)
        if dotted in _RNG_CTORS:
            explicit = bool(node.args or node.keywords)
            taints = self._seed_taints(node)
            self.fn.rng_ctors.append(
                RngCtor(node, dotted, explicit, taints))
            if dotted == "random.SystemRandom":
                self._effect("rng", f"{dotted} (entropy-seeded)")
                self.call_info[id(node)] = ("impure", "rng", dotted)
                return (_FRESH, _RNG_TYPE)
            if not explicit:
                self._effect("rng", f"unseeded {dotted}")
                self.call_info[id(node)] = ("impure", "rng", dotted)
                return (_FRESH, _RNG_TYPE)
            self.call_info[id(node)] = ("pure", dotted)
            return (_RNGFRESH, _RNG_TYPE)
        if dotted in _WALL_CLOCK:
            self._effect("time", dotted)
            self.call_info[id(node)] = ("impure", "time", dotted)
            return (_CONST, None)
        if dotted in _ENTROPY_SOURCES:
            self._effect("rng", dotted)
            self.call_info[id(node)] = ("impure", "rng", dotted)
            return (_CONST, None)
        if dotted in _MUTATING_DOTTED:
            idx = _MUTATING_DOTTED[dotted]
            if idx < len(args):
                self._record_mutation(args[idx][0], "", node)
            if dotted == "random.shuffle":
                self._effect("rng", dotted)
                self.call_info[id(node)] = ("impure", "rng", dotted)
            else:
                self.call_info[id(node)] = ("benign", dotted)
            return (_CONST, None)
        if dotted.startswith(_AMBIENT_RNG_PREFIXES):
            self._effect("rng", dotted)
            self.call_info[id(node)] = ("impure", "rng", dotted)
            return (_CONST, None)
        if dotted in _IO_CALLS or dotted.startswith(_IO_PREFIXES):
            self._effect("io", dotted)
            self.call_info[id(node)] = ("impure", "io", dotted)
            return (_FRESH, None)
        if dotted.startswith(_PURE_PREFIXES):
            self.call_info[id(node)] = ("pure", dotted)
            return (_FRESH, None)
        self._effect("calls-unknown", dotted)
        self.call_info[id(node)] = ("unknown", dotted)
        self._flag_rng_flows(node, dotted, None, args, kwargs)
        return (_UNKNOWN, None)

    def _project_call(self, node: ast.Call, callee: FunctionInfo,
                      recv: Optional[tuple], args: list[tuple],
                      kwargs: dict[str, tuple],
                      is_ctor: bool) -> tuple:
        cs = CallSite(node, callee, recv,
                      [a[0] for a in args],
                      {k: v[0] for k, v in kwargs.items()}, is_ctor)
        self.fn.calls.append(cs)
        self.call_info[id(node)] = (
            "project-ctor" if is_ctor else "project", callee, cs)
        self._flag_rng_flows(node, callee.qualname, callee, args, kwargs)
        if is_ctor:
            return (_FRESH, callee.class_qualname)
        root = _FRESH
        canonical = self.a.canonical(callee.qualname)
        if canonical in self.config.shared_view_providers:
            root = ("shared", f"{callee.short()}() view")
        return (root, callee.return_type)

    def _call_method(self, node: ast.Call, base: tuple, attr: str,
                     args: list[tuple], kwargs: dict[str, tuple],
                     has_star: bool, raw_args: list[ast.AST]) -> tuple:
        base_root, base_typ = base
        if base_typ is None:
            base_typ = self._typ_of_root(base_root)
        # Memo bookkeeping is independent of how the call resolves.
        if attr == "get" and args:
            self._probe(base_root, node)
        if attr == "put" and raw_args:
            self._install(base_root, node, raw_args[-1])
        # RNG draws.
        if base_typ == _RNG_TYPE or base_root == _RNGFRESH:
            if attr in _RNG_DRAW_METHODS or attr in ("seed", "setstate"):
                if base_root != _RNGFRESH:
                    self._effect(
                        "rng", f"draw {root_desc(base_root)}.{attr}()")
                    self.call_info[id(node)] = (
                        "impure", "rng", f"{root_desc(base_root)}.{attr}")
                else:
                    self.fn.benign.add(Effect(
                        "rng", f"fresh-seeded local draw .{attr}()",
                        self.fn.qualname))
                    self.call_info[id(node)] = ("benign", attr)
                if attr == "shuffle" and args:
                    self._record_mutation(args[0][0], "", node)
                return (_CONST, None)
            self.call_info[id(node)] = ("pure", attr)
            return (_CONST, None)
        # Project method through the receiver's inferred class.
        if base_typ is not None and base_typ in self.a.classes:
            m = self.a.resolve_method(base_typ, attr)
            if m is not None:
                return self._project_call(node, m, base_root, args,
                                          kwargs, False)
        desc = f"{root_desc(base_root)}.{attr}"
        if attr in _MUTATING_METHODS:
            self._record_mutation(base_root, "", node)
            benign = (base_root[0] == "global"
                      and base_root[1] in self.a._benign_globals) \
                or base_root in (_FRESH, _CONST)
            self.call_info[id(node)] = (
                ("benign", desc) if benign else ("impure", "mutates",
                                                 desc))
            return (self._index_root(base_root)
                    if attr in ("pop", "popitem") else _CONST, None)
        if attr in _IO_METHODS:
            self._effect("io", desc)
            self.call_info[id(node)] = ("impure", "io", desc)
            return (_UNKNOWN, None)
        if attr in _PURE_METHODS:
            self.call_info[id(node)] = ("pure", desc)
            if attr == "get":
                return (self._index_root(base_root), None)
            return (_FRESH, None)
        if attr in _RNG_DRAW_METHODS:
            low = root_desc(base_root).lower()
            if "rng" in low or "random" in low:
                self._effect("rng", f"draw {desc}()")
                self.call_info[id(node)] = ("impure", "rng", desc)
                return (_CONST, None)
        if base_root in (_FRESH, _CONST, _RNGFRESH):
            self.call_info[id(node)] = ("pure", desc)
            return (_FRESH, None)
        self._effect("calls-unknown", desc)
        self.call_info[id(node)] = ("unknown", desc)
        self._flag_rng_flows(node, desc, None, args, kwargs)
        return (_UNKNOWN, None)

    # -- RNG provenance -----------------------------------------------------

    def _seed_taints(self, node: ast.Call) -> list[str]:
        taints = []
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Call):
                    info = self.call_info.get(id(sub))
                    if info and info[0] == "impure" \
                            and info[1] in ("time", "rng"):
                        taints.append(info[2])
        return taints

    def _flag_rng_flows(self, node: ast.Call, target_desc: str,
                        callee: Optional[FunctionInfo],
                        args: list[tuple],
                        kwargs: dict[str, tuple]) -> None:
        """Record RNG-typed values crossing into this call."""
        rng_positions: list[tuple[Optional[str], tuple]] = []
        if callee is not None:
            params = list(callee.params)
            if callee.binds_self and params:
                params = params[1:]
            for i, val in enumerate(args):
                name = params[i] if i < len(params) else callee.vararg
                rng_positions.append((name, val))
            for name, val in kwargs.items():
                rng_positions.append((name, val))
        else:
            for val in args:
                rng_positions.append((None, val))
            for name, val in kwargs.items():
                rng_positions.append((name, val))
        for name, val in rng_positions:
            if val[1] == _RNG_TYPE or val[0] == _RNGFRESH:
                same = callee is not None \
                    and callee.module == self.fn.module
                self.fn.rng_flows.append(RngFlow(
                    node, target_desc, callee, name, same))
