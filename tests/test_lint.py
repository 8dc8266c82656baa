"""Tests for the repro.lint invariant-checker suite.

Each rule gets positive fixtures (a seeded violation the rule must
catch) and negative fixtures (idiomatic repro code that must stay
clean), plus suppression handling, the CLI contract and the pinned
"clean tree" test asserting the real repository passes its own linter.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import Linter, default_linter, load_module
from repro.lint.engine import parse_suppressions, walk_paths
from repro.lint.rules import (
    ALL_RULES,
    AtomicWriteRule,
    DeterminismRule,
    KernelPurityRule,
    ScopedConfigRule,
    SignatureCompletenessRule,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(
    rule, source: str, relpath: str, tmp_path: Path, extra: dict | None = None
):
    """Run one rule over fixture source planted at ``relpath``."""
    files = {relpath: source}
    files.update(extra or {})
    modules = []
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
        modules.append(load_module(path, display=rel))
    return Linter([rule]).lint_modules(modules)


# ----------------------------------------------------------------------
# kernel-purity
# ----------------------------------------------------------------------
class TestKernelPurity:
    def check(self, source, tmp_path, relpath="src/repro/core/fix.py"):
        return lint_source(KernelPurityRule(), source, relpath, tmp_path)

    def test_numpy_reference_flagged(self, tmp_path):
        findings = self.check(
            """
            def pad_kernel(x):
                return np.maximum(x, 0)
            """,
            tmp_path,
        )
        assert any("numpy" in f.message for f in findings)

    def test_branch_on_argument_flagged(self, tmp_path):
        findings = self.check(
            """
            def relu_kernel(x):
                if x > 0:
                    return x
                return 0
            """,
            tmp_path,
        )
        assert any("branches on argument" in f.message for f in findings)

    def test_bool_op_flagged(self, tmp_path):
        findings = self.check(
            """
            def gate_kernel(a, b):
                return a and b
            """,
            tmp_path,
        )
        assert any("and" in f.message for f in findings)

    def test_argument_mutation_flagged(self, tmp_path):
        findings = self.check(
            """
            def scale_kernel(col, factor):
                col[0] = col[0] * factor
                return col
            """,
            tmp_path,
        )
        assert any("mutates argument" in f.message for f in findings)

    def test_module_global_flagged(self, tmp_path):
        findings = self.check(
            """
            lut = {}

            def lookup_kernel(x):
                return lut[x]
            """,
            tmp_path,
        )
        assert any("module global" in f.message for f in findings)

    def test_array_hostile_builtin_flagged(self, tmp_path):
        findings = self.check(
            """
            def clamp_kernel(a, b):
                return min(a, b)
            """,
            tmp_path,
        )
        assert any("array-hostile" in f.message for f in findings)

    def test_masking_idiom_passes(self, tmp_path):
        findings = self.check(
            """
            def ceil_div(a, b):
                return -(-a // b)

            def minimum_kernel(a, b):
                return b + (a - b) * (a < b)

            def clipped_kernel(x, lo):
                gap = x - lo
                return lo + gap * (gap > 0)

            def combined_kernel(a, b, c):
                mask = (a > 0) & (b > 0) | (c > 0)
                return minimum_kernel(a, b) * mask + ceil_div(a, c)
            """,
            tmp_path,
        )
        assert findings == []

    def test_constants_classes_and_annotations_exempt(self, tmp_path):
        findings = self.check(
            """
            def typed_kernel(x: "np.ndarray", dt) -> "np.ndarray":
                total: "np.ndarray" = x * SCALE_TABLE[0]
                flag = 1 * (dt == DataType.PSUMS)
                return total * flag
            """,
            tmp_path,
        )
        assert findings == []

    def test_tests_and_private_helpers_exempt(self, tmp_path):
        findings = self.check(
            """
            import numpy as np

            def test_identity_kernel():
                assert np.zeros(3).sum() == 0

            def _shim_kernel(x):
                return np.asarray(x)
            """,
            tmp_path,
            relpath="tests/test_fix.py",
        )
        assert findings == []

    def test_no_module_is_exempt_by_path(self, tmp_path):
        # No module is sanctioned by path: a branching kernel is flagged
        # wherever it lives.
        findings = self.check(
            """
            def guarded_kernel(fn, jitted):
                if jitted is None:
                    return fn
                return jitted
            """,
            tmp_path,
            relpath="src/repro/core/backend.py",
        )
        assert any("branch" in f.message for f in findings)

    def test_core_kernel_redefinition_outside_core_flagged(self, tmp_path):
        findings = lint_source(
            KernelPurityRule(),
            """
            def input_extent_kernel(w, k, s):
                return w * s + k + 1
            """,
            "src/repro/sim/fork.py",
            tmp_path,
            extra={
                "src/repro/core/tiling.py": """
                def input_extent_kernel(w, k, s):
                    return w * s + k
                """
            },
        )
        assert any("never fork" in f.message for f in findings)
        assert all(f.path == "src/repro/sim/fork.py" for f in findings)

    def test_distinct_sim_kernel_names_pass(self, tmp_path):
        findings = lint_source(
            KernelPurityRule(),
            """
            def interval_span_kernel(a, b):
                return a + b
            """,
            "src/repro/sim/trace.py",
            tmp_path,
            extra={
                "src/repro/core/tiling.py": """
                def input_extent_kernel(w, k, s):
                    return w * s + k
                """
            },
        )
        assert findings == []


# ----------------------------------------------------------------------
# scoped-config
# ----------------------------------------------------------------------
class TestScopedConfig:
    def check(self, source, tmp_path, relpath="src/repro/sim/fix.py"):
        return lint_source(ScopedConfigRule(), source, relpath, tmp_path)

    def test_env_read_outside_resolvers_flagged(self, tmp_path):
        findings = self.check(
            """
            import os

            def frames():
                return os.environ.get("REPRO_FRAMES", "16")
            """,
            tmp_path,
        )
        assert any("REPRO_FRAMES" in f.message for f in findings)

    def test_env_subscript_read_flagged(self, tmp_path):
        findings = self.check(
            """
            import os

            def cache():
                return os.environ["REPRO_CACHE_DIR"]
            """,
            tmp_path,
        )
        assert any("REPRO_CACHE_DIR" in f.message for f in findings)

    def test_env_write_flagged_everywhere(self, tmp_path):
        findings = self.check(
            """
            import os

            def poison():
                os.environ["REPRO_FRAMES"] = "8"
            """,
            tmp_path,
            relpath="src/repro/api.py",  # writes have no sanctuary
        )
        assert any("monkeypatch.setenv" in f.message for f in findings)

    def test_read_in_sanctioned_resolver_passes(self, tmp_path):
        findings = self.check(
            """
            import os

            def default_parallelism():
                return os.environ.get("REPRO_PARALLELISM")
            """,
            tmp_path,
            relpath="src/repro/optimizer/engine.py",
        )
        assert findings == []

    def test_non_repro_env_read_passes(self, tmp_path):
        findings = self.check(
            """
            import os

            def home():
                return os.environ.get("HOME", "/")
            """,
            tmp_path,
        )
        assert findings == []

    def test_lowercase_module_registry_flagged(self, tmp_path):
        findings = self.check(
            """
            records = {}
            """,
            tmp_path,
        )
        assert any("sanctioned-registry" in f.message for f in findings)

    def test_all_caps_registry_passes(self, tmp_path):
        findings = self.check(
            """
            _LAYER_MEMO = {}
            OBJECTIVES = {"energy": None}
            __all__ = ["OBJECTIVES"]
            """,
            tmp_path,
        )
        assert findings == []

    def test_serve_env_read_in_serve_resolver_passes(self, tmp_path):
        findings = self.check(
            """
            import os

            def from_env():
                return os.environ.get("REPRO_SERVE_WORKERS")
            """,
            tmp_path,
            relpath="src/repro/serve/config.py",
        )
        assert findings == []

    def test_serve_env_read_in_api_flagged(self, tmp_path):
        """repro/api.py may read generic $REPRO_* but NOT the serving
        namespace — $REPRO_SERVE_* is scoped by key to the serve
        resolver."""
        findings = self.check(
            """
            import os

            def from_env():
                return os.environ.get("REPRO_SERVE_WORKERS")
            """,
            tmp_path,
            relpath="src/repro/api.py",
        )
        assert any("REPRO_SERVE_WORKERS" in f.message for f in findings)
        assert any("serve resolver" in f.message for f in findings)

    def test_serve_env_read_elsewhere_flagged(self, tmp_path):
        findings = self.check(
            """
            import os

            def workers():
                return os.environ["REPRO_SERVE_QUEUE_DEPTH"]
            """,
            tmp_path,
            relpath="src/repro/serve/engine.py",
        )
        assert any("REPRO_SERVE_QUEUE_DEPTH" in f.message for f in findings)

    def test_session_env_read_in_serve_resolver_flagged(self, tmp_path):
        """The serve resolver reads only its own namespace: session
        config reaches it as a SessionConfig value, never via env."""
        findings = self.check(
            """
            import os

            def from_env():
                return os.environ.get("REPRO_CACHE_DIR")
            """,
            tmp_path,
            relpath="src/repro/serve/config.py",
        )
        assert any("REPRO_CACHE_DIR" in f.message for f in findings)


# ----------------------------------------------------------------------
# signature-completeness
# ----------------------------------------------------------------------
SIGNATURE_FIXTURE = """
import dataclasses


@dataclasses.dataclass(frozen=True)
class ConvLayer:
    name: str
    h: int
    w: int
    dilation_h: int = 1


def layer_signature(layer, *, include_name=True):
    sig = {{"h": layer.h, "w": layer.w{extra}}}
    if include_name:
        sig["name"] = layer.name
    return sig
{tail}
"""


class TestSignatureCompleteness:
    def check(self, source, tmp_path):
        return lint_source(
            SignatureCompletenessRule(),
            source,
            "src/repro/optimizer/config_store.py",
            tmp_path,
        )

    def test_unconsumed_field_flagged(self, tmp_path):
        findings = self.check(
            SIGNATURE_FIXTURE.format(extra="", tail=""), tmp_path
        )
        assert any("'dilation_h'" in f.message for f in findings)

    def test_consumed_field_passes(self, tmp_path):
        findings = self.check(
            SIGNATURE_FIXTURE.format(
                extra=', "dh": layer.dilation_h', tail=""
            ),
            tmp_path,
        )
        assert findings == []

    def test_explicit_exclusion_passes(self, tmp_path):
        findings = self.check(
            SIGNATURE_FIXTURE.format(
                extra="",
                tail='\nLAYER_SIGNATURE_EXCLUDED = frozenset({"dilation_h"})\n',
            ),
            tmp_path,
        )
        assert findings == []

    def test_stale_exclusion_flagged(self, tmp_path):
        findings = self.check(
            SIGNATURE_FIXTURE.format(
                extra=', "dh": layer.dilation_h',
                tail='\nLAYER_SIGNATURE_EXCLUDED = frozenset({"gone"})\n',
            ),
            tmp_path,
        )
        assert any("stale exclusion" in f.message for f in findings)

    def test_repr_compare_disagreement_flagged(self, tmp_path):
        findings = lint_source(
            SignatureCompletenessRule(),
            """
            import dataclasses


            @dataclasses.dataclass(frozen=True)
            class OptimizerOptions:
                objective: str = "energy"
                vectorize: bool | None = dataclasses.field(
                    default=None, repr=False
                )
            """,
            "src/repro/optimizer/search.py",
            tmp_path,
        )
        assert any("compare" in f.message for f in findings)

    def test_env_unmapped_session_field_flagged(self, tmp_path):
        findings = lint_source(
            SignatureCompletenessRule(),
            """
            import dataclasses

            _ENV_FIELDS = {
                "REPRO_FRAMES": ("frames", int),
            }


            @dataclasses.dataclass(frozen=True)
            class SessionConfig:
                frames: int | None = None
                secret_knob: bool | None = None
            """,
            "src/repro/api.py",
            tmp_path,
        )
        assert any("'secret_knob'" in f.message for f in findings)

    def test_active_value_typo_flagged(self, tmp_path):
        findings = lint_source(
            SignatureCompletenessRule(),
            """
            import dataclasses

            _ENV_FIELDS = {"REPRO_FRAMES": ("frames", int)}


            @dataclasses.dataclass(frozen=True)
            class SessionConfig:
                frames: int | None = None
            """,
            "src/repro/api.py",
            tmp_path,
            extra={
                "src/repro/optimizer/engine.py": """
                from repro._scope import active_value


                def default_frames():
                    return active_value("framez")
                """
            },
        )
        assert any("framez" in f.message for f in findings)

    def test_real_tree_shape_passes(self, tmp_path):
        findings = lint_source(
            SignatureCompletenessRule(),
            SIGNATURE_FIXTURE.format(
                extra=', "dh": layer.dilation_h', tail=""
            ),
            tmp_path=tmp_path,
            relpath="src/repro/optimizer/config_store.py",
            extra={
                "src/repro/optimizer/search.py": """
                import dataclasses


                @dataclasses.dataclass(frozen=True)
                class OptimizerOptions:
                    objective: str = "energy"
                    vectorize: bool | None = dataclasses.field(
                        default=None, repr=False, compare=False
                    )
                """
            },
        )
        assert findings == []


# ----------------------------------------------------------------------
# atomic-write
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def check(self, source, tmp_path, relpath="src/repro/optimizer/config_store.py"):
        return lint_source(AtomicWriteRule(), source, relpath, tmp_path)

    def test_bare_open_write_flagged(self, tmp_path):
        findings = self.check(
            """
            def save(path, text):
                with open(path, "w") as fh:
                    fh.write(text)
            """,
            tmp_path,
        )
        assert any("torn file" in f.message for f in findings)

    def test_bare_write_text_flagged(self, tmp_path):
        findings = self.check(
            """
            def save(path, text):
                path.write_text(text)
            """,
            tmp_path,
        )
        assert any("torn file" in f.message for f in findings)

    def test_temp_replace_idiom_passes(self, tmp_path):
        findings = self.check(
            """
            import os


            def save(path, text):
                tmp = path.with_suffix(".tmp.1")
                tmp.write_text(text)
                os.replace(tmp, path)
            """,
            tmp_path,
        )
        assert findings == []

    def test_reads_and_appends_pass(self, tmp_path):
        findings = self.check(
            """
            def load(path, line):
                text = path.read_text()
                with open(path) as fh:
                    fh.read()
                with open(path, "a") as fh:  # journal append is sanctioned
                    fh.write(line)
                return text
            """,
            tmp_path,
        )
        assert findings == []

    def test_non_store_modules_out_of_scope(self, tmp_path):
        findings = self.check(
            """
            def save(path, text):
                path.write_text(text)
            """,
            tmp_path,
            relpath="src/repro/reporting.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def check(self, source, tmp_path, relpath="src/repro/optimizer/fix.py"):
        return lint_source(DeterminismRule(), source, relpath, tmp_path)

    def test_clock_read_flagged(self, tmp_path):
        findings = self.check(
            """
            import time


            def stamp():
                return time.time()
            """,
            tmp_path,
        )
        assert any("time.time" in f.message for f in findings)

    def test_random_flagged(self, tmp_path):
        findings = self.check(
            """
            import random


            def jitter(x):
                return x + random.random()
            """,
            tmp_path,
        )
        assert any("random" in f.message for f in findings)

    def test_set_iteration_flagged(self, tmp_path):
        findings = self.check(
            """
            def orders(candidates):
                out = []
                for item in set(candidates):
                    out.append(item)
                return out
            """,
            tmp_path,
        )
        assert any("iteration order" in f.message or "iterates a set" in f.message
                   for f in findings)

    def test_sorted_set_passes(self, tmp_path):
        findings = self.check(
            """
            def orders(candidates):
                return [item for item in sorted(set(candidates))]
            """,
            tmp_path,
        )
        assert findings == []

    def test_membership_tests_pass(self, tmp_path):
        findings = self.check(
            """
            VALID = {"energy", "edp"}


            def check(name):
                return name in VALID and name in {"energy"}
            """,
            tmp_path,
        )
        assert findings == []

    def test_out_of_scope_module_passes(self, tmp_path):
        findings = self.check(
            """
            import time


            def stamp():
                return time.time()
            """,
            tmp_path,
            relpath="benchmarks/bench_fix.py",
        )
        assert findings == []

    def test_serve_module_in_scope(self, tmp_path):
        """The serving layer is result-producing (served results must be
        bit-identical to direct calls), so it is inside the rule's scope."""
        findings = self.check(
            """
            import time


            def deadline():
                return time.monotonic()
            """,
            tmp_path,
            relpath="src/repro/serve/engine.py",
        )
        assert any("time.monotonic" in f.message for f in findings)

    @pytest.mark.parametrize(
        "relpath",
        ("src/repro/optimizer/clock.py",),
    )
    def test_sanctioned_clock_modules_pass(self, tmp_path, relpath):
        findings = self.check(
            """
            import time


            def monotonic_ms():
                return time.monotonic() * 1000.0
            """,
            tmp_path,
            relpath=relpath,
        )
        assert findings == []

    def test_unrelated_clock_module_still_flagged(self, tmp_path):
        """The exemption is the one (package, filename) pair, not any
        file that happens to be named clock.py — the serving layer's
        clock lives in the sanctioned module too."""
        for relpath in ("src/repro/sim/clock.py", "src/repro/serve/clock.py"):
            findings = self.check(
                """
                import time


                def monotonic_ms():
                    return time.monotonic() * 1000.0
                """,
                tmp_path,
                relpath=relpath,
            )
            assert any("time.monotonic" in f.message for f in findings)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_trailing_comment_suppresses_its_line(self, tmp_path):
        findings = lint_source(
            ScopedConfigRule(),
            """
            records = {}  # repro-lint: disable=scoped-config  # fixture registry
            """,
            "src/repro/sim/fix.py",
            tmp_path,
        )
        assert findings == []

    def test_standalone_comment_covers_next_line(self, tmp_path):
        findings = lint_source(
            ScopedConfigRule(),
            """
            # repro-lint: disable=scoped-config  # fixture registry
            records = {}
            """,
            "src/repro/sim/fix.py",
            tmp_path,
        )
        assert findings == []

    def test_multiline_justification_covers_code(self, tmp_path):
        findings = lint_source(
            ScopedConfigRule(),
            """
            # repro-lint: disable=scoped-config  # a justification long
            # enough to continue across two comment lines before the code
            records = {}
            """,
            "src/repro/sim/fix.py",
            tmp_path,
        )
        assert findings == []

    def test_other_rule_name_does_not_suppress(self, tmp_path):
        findings = lint_source(
            ScopedConfigRule(),
            """
            records = {}  # repro-lint: disable=kernel-purity
            """,
            "src/repro/sim/fix.py",
            tmp_path,
        )
        assert len(findings) == 1

    def test_disable_all_wildcard(self, tmp_path):
        findings = lint_source(
            ScopedConfigRule(),
            """
            records = {}  # repro-lint: disable=all
            """,
            "src/repro/sim/fix.py",
            tmp_path,
        )
        assert findings == []

    def test_parse_suppressions_maps_lines(self):
        parsed = parse_suppressions(
            "x = 1  # repro-lint: disable=a, b\n"
            "# repro-lint: disable=c\n"
            "y = 2\n"
        )
        assert parsed[1] == frozenset({"a", "b"})
        assert parsed[3] == frozenset({"c"})


# ----------------------------------------------------------------------
# Engine / CLI / clean tree
# ----------------------------------------------------------------------
class TestEngineAndCli:
    def test_all_rules_registered_with_unique_names(self):
        linter = default_linter()
        names = [rule.name for rule in linter.rules]
        assert len(names) == len(ALL_RULES) == len(set(names)) == 5

    def test_walk_paths_skips_hidden_and_pycache(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("")
        (tmp_path / "pkg" / "ok.py").write_text("")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("")
        walked = walk_paths([tmp_path])
        assert [p.name for p in walked] == ["ok.py"]

    def test_syntax_error_becomes_diagnostic(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        findings = default_linter().lint_paths([bad])
        assert [f.rule for f in findings] == ["syntax"]

    def _run_cli(self, *args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_cli_clean_tree_exits_zero(self):
        proc = self._run_cli("src", cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 findings" in proc.stdout

    def test_whole_repo_is_clean(self):
        """The pinned acceptance gate: src, tests, benchmarks and
        examples all pass the full rule set with zero findings."""
        proc = self._run_cli(
            "src", "tests", "benchmarks", "examples", cwd=REPO_ROOT
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_cli_reports_findings_with_exit_one(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "fix.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def bad_kernel(x):\n    return np.abs(x)\n")
        proc = self._run_cli(str(bad), cwd=REPO_ROOT)
        assert proc.returncode == 1
        assert "kernel-purity" in proc.stdout

    def test_cli_json_format(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "fix.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def bad_kernel(x):\n    return np.abs(x)\n")
        proc = self._run_cli("--format", "json", str(bad), cwd=REPO_ROOT)
        payload = json.loads(proc.stdout)
        assert payload["tool"] == "repro-lint"
        assert payload["count"] == len(payload["findings"]) >= 1
        assert payload["findings"][0]["rule"] == "kernel-purity"

    def test_cli_list_rules(self):
        proc = self._run_cli("--list-rules", cwd=REPO_ROOT)
        assert proc.returncode == 0
        for rule_cls in ALL_RULES:
            assert rule_cls.name in proc.stdout

    def test_cli_missing_path_exits_two(self, tmp_path):
        proc = self._run_cli(str(tmp_path / "nope"), cwd=REPO_ROOT)
        assert proc.returncode == 2
