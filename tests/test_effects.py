"""The inter-procedural effect engine: verdicts, discovery, economy.

Three layers of evidence that the REP70x rules stand on solid ground:
unit verdicts on small synthetic modules (the purity lattice and the
fixpoint behave), whole-tree discovery (the engine *finds* every memo
family the fast paths ship, rather than checking a hand-kept list),
and a parse-economy property (one ``ast.parse`` per file per lint run,
shared by every rule and the call graph).  The hypothesis bridge test
ties the static verdict to a runtime oracle: any function the engine
calls pure must be observably effect-free when executed.
"""

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import LintConfig, run_lint
from repro.analysis.context import FileContext
from repro.analysis.effects import EffectAnalysis
from repro.analysis.runner import build_project

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def _analysis(source: str,
              module: str = "repro.core.fake") -> EffectAnalysis:
    """Effect analysis over one synthetic module."""
    text = f"# repro-lint: module={module}\n" + source
    ctx = FileContext(Path(f"{module}.py"), f"{module}.py", text)
    return EffectAnalysis([ctx], LintConfig(root=REPO_ROOT))


def _fn(analysis: EffectAnalysis, qualname: str):
    fn = analysis.lookup_function(qualname)
    assert fn is not None, f"engine lost {qualname}"
    return fn


class TestVerdicts:
    def test_arithmetic_is_pure(self):
        analysis = _analysis("def f(x):\n    return x * 2 + 1\n")
        assert _fn(analysis, "repro.core.fake.f").is_pure

    def test_global_mutation_is_impure(self):
        analysis = _analysis(
            "LOG = []\n"
            "def f(x):\n"
            "    LOG.append(x)\n"
            "    return x\n")
        fn = _fn(analysis, "repro.core.fake.f")
        assert not fn.is_pure
        assert {e.kind for e in fn.effects} == {"mutates-global"}

    def test_param_mutation_is_an_effect(self):
        analysis = _analysis("def f(out):\n    out.append(1)\n")
        fn = _fn(analysis, "repro.core.fake.f")
        assert {e.kind for e in fn.effects} == {"mutates-param"}

    def test_fresh_mutation_is_absorbed(self):
        analysis = _analysis(
            "def f(n):\n"
            "    out = []\n"
            "    for i in range(n):\n"
            "        out.append(i)\n"
            "    return out\n")
        assert _fn(analysis, "repro.core.fake.f").is_pure

    def test_effects_propagate_through_calls(self):
        analysis = _analysis(
            "LOG = []\n"
            "def leaf(x):\n"
            "    LOG.append(x)\n"
            "def caller(x):\n"
            "    leaf(x)\n"
            "    return x\n")
        fn = _fn(analysis, "repro.core.fake.caller")
        assert {e.kind for e in fn.effects} == {"mutates-global"}

    def test_param_mutation_lifts_through_fresh_argument(self):
        # The callee mutates its parameter, but the caller binds it to
        # a fresh local — the mutation never escapes the caller.
        analysis = _analysis(
            "def fill(out, n):\n"
            "    out.append(n)\n"
            "def caller(n):\n"
            "    out = []\n"
            "    fill(out, n)\n"
            "    return out\n")
        assert not _fn(analysis, "repro.core.fake.fill").is_pure
        assert _fn(analysis, "repro.core.fake.caller").is_pure

    def test_mutual_recursion_reaches_fixpoint(self):
        analysis = _analysis(
            "def even(n):\n"
            "    return True if n == 0 else odd(n - 1)\n"
            "def odd(n):\n"
            "    return False if n == 0 else even(n - 1)\n")
        assert _fn(analysis, "repro.core.fake.even").is_pure
        assert _fn(analysis, "repro.core.fake.odd").is_pure

    def test_io_is_impure(self):
        analysis = _analysis("def f(x):\n    print(x)\n    return x\n")
        fn = _fn(analysis, "repro.core.fake.f")
        assert "io" in {e.kind for e in fn.effects}

    def test_unseeded_rng_is_impure(self):
        analysis = _analysis(
            "import random\n"
            "def f():\n"
            "    return random.Random().random()\n")
        fn = _fn(analysis, "repro.core.fake.f")
        assert "rng" in {e.kind for e in fn.effects}

    def test_seeded_rng_stays_pure(self):
        analysis = _analysis(
            "import random\n"
            "def f(seed):\n"
            "    return random.Random(seed).random()\n")
        assert _fn(analysis, "repro.core.fake.f").is_pure


class TestMemoDiscovery:
    """The rule verifies what the engine *finds*, not a hand-kept list."""

    def test_payload_cache_family_discovered(self):
        """The one instance-level content cache left in ``src/``."""
        project = build_project([SRC], LintConfig(root=REPO_ROOT))
        sites = {(fn.qualname, site.container)
                 for fn in project.effects.functions.values()
                 for site in fn.memo_sites}
        assert ("repro.workload.vdbench.VdbenchStream._payload_cached",
                "VdbenchStream._payload_cache") in sites

    def test_audited_benign_globals_discovered_as_memos(self):
        project = build_project([SRC], LintConfig(root=REPO_ROOT))
        containers = {site.container
                      for fn in project.effects.functions.values()
                      for site in fn.memo_sites}
        for audited in LintConfig().effect_benign_globals:
            assert audited in containers, \
                f"audited cache {audited} has no discovered memo site"


class TestParseEconomy:
    def test_single_parse_per_file(self, monkeypatch):
        real_parse = ast.parse
        counts: dict[str, int] = {}

        def counting_parse(source, filename="<unknown>", *a, **kw):
            counts[str(filename)] = counts.get(str(filename), 0) + 1
            return real_parse(source, filename, *a, **kw)

        monkeypatch.setattr(ast, "parse", counting_parse)
        report = run_lint([SRC], LintConfig(root=REPO_ROOT))
        # String annotations are micro-parsed in eval mode under the
        # default "<unknown>" filename; only whole-file parses count.
        files = {f: n for f, n in counts.items() if f.endswith(".py")}
        assert report.files_scanned == len(files)
        multi = {f: n for f, n in files.items() if n != 1}
        assert not multi, f"files parsed more than once: {multi}"


_BRIDGE_SOURCE = '''\
STATE = []


def pure_slice(data):
    return bytes(data[:4])


def pure_sum(data):
    total = 0
    for b in data:
        total = total + b
    return total


def impure_log(data):
    STATE.append(len(data))
    return bytes(data[:4])


def impure_inplace(data):
    data[0] = data[0] ^ 255
    return bytes(data)
'''

_BRIDGE_FNS = ("pure_slice", "pure_sum", "impure_log", "impure_inplace")


class TestStaticRuntimeBridge:
    """A static pure verdict must agree with a runtime effect oracle."""

    @given(data=st.binary(min_size=2, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_pure_verdict_matches_runtime_oracle(self, data):
        analysis = _analysis(_BRIDGE_SOURCE,
                             module="repro.core.fakebridge")
        namespace: dict = {}
        exec(compile(_BRIDGE_SOURCE, "<bridge>", "exec"), namespace)
        for name in _BRIDGE_FNS:
            fn = _fn(analysis, f"repro.core.fakebridge.{name}")
            arg1, arg2 = bytearray(data), bytearray(data)
            state_before = list(namespace["STATE"])
            result1 = namespace[name](arg1)
            result2 = namespace[name](arg2)
            mutated = (list(namespace["STATE"]) != state_before
                       or bytes(arg1) != bytes(data))
            if fn.is_pure:
                assert not mutated, f"{name}: pure verdict, but the " \
                    f"runtime oracle observed a mutation"
                assert result1 == result2, f"{name}: pure verdict, " \
                    f"but two identical calls disagreed"
            else:
                # Soundness the other way: every impure function in
                # this catalog is *observably* impure, so a future
                # engine change that calls one pure fails here.
                assert mutated, f"{name}: impure verdict, but no " \
                    f"observable mutation (catalog drifted?)"
