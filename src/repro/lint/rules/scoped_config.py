"""scoped-config: ``$REPRO_*`` reads and process-global state stay scoped.

PR 5's contextvar-scoped :class:`repro.api.Session` only delivers its
isolation guarantee — two differently configured sweeps in one process
never observing each other — while *no* module quietly reads ``$REPRO_*``
or mutates process-global state behind the session's back.  Configuration
must flow through the documented resolution chain (active session >
environment > built-ins), which means:

* ``os.environ``/``os.getenv`` reads of ``REPRO_*`` variables are allowed
  only in the sanctioned resolvers: :mod:`repro.api` (the
  ``SessionConfig.from_env`` materialiser), the ``default_*`` resolvers
  of :mod:`repro.optimizer.engine` (``default_max_table_bytes`` is thus
  the *only* sanctioned reader of ``$REPRO_MAX_TABLE_BYTES``; the
  columnar passes in ``core/`` and ``sim/`` call it) and
  :func:`repro.workloads.networks.build_network` (the build-default
  resolver).  Anywhere else, read the active session instead.
* The serving namespace is scoped *by key*: ``$REPRO_SERVE_*`` reads
  live only in :mod:`repro.serve.config` (the ``ServeConfig.from_env``
  materialiser) — the general resolvers above are **not** allowed to
  read serving variables, and the serve resolver is not allowed to read
  any other ``$REPRO_*`` variable (it takes session configuration as a
  :class:`~repro.api.SessionConfig` value, never from the environment).
* Writes to ``os.environ`` (any variable) are flagged everywhere —
  mutating the process environment cannot be scoped or undone; tests use
  ``monkeypatch.setenv``.
* Module-level mutable containers inside the ``repro`` package must
  follow the sanctioned-registry convention: ALL_CAPS names (``_LAYER_MEMO``,
  ``_CACHE_STATS``, ``OBJECTIVES``, ``_REGISTRY``), which marks them as
  deliberate process-wide registries documented in docs/INVARIANTS.md and
  wired into :func:`repro.clear_cache` where they memoise results.  A
  lowercase module-level dict/list/set is almost always accidental shared
  state.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable

_DiagFn = Callable[[ast.AST, str], None]

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import (
    ModuleInfo,
    Rule,
    call_path,
    enclosing_functions,
    is_all_caps,
)

#: (module-path suffix, enclosing-function predicate) pairs allowed to
#: read ``$REPRO_*`` directly.  ``None`` allows the whole module.
_ENV_READ_ALLOWED: tuple[tuple[str, object], ...] = (
    ("repro/api.py", None),
    ("repro/optimizer/engine.py", lambda fn: fn.startswith("default_")),
    ("repro/workloads/networks.py", lambda fn: fn == "build_network"),
)

#: The one module allowed to read the serving namespace — and *only*
#: that namespace: ``$REPRO_SERVE_*`` is scoped by key, not just by
#: path, so the general resolvers above cannot quietly grow serving
#: knobs and the serve resolver cannot quietly read session knobs.
_SERVE_ENV_PREFIX = "REPRO_SERVE_"
_SERVE_ENV_MODULE = "repro/serve/config.py"

_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "deque"}
)


def _is_environ(node: ast.expr) -> bool:
    return call_path(node) in ("os.environ", "environ")


class ScopedConfigRule(Rule):
    name = "scoped-config"
    description = (
        "$REPRO_* env reads only in the sanctioned resolvers; no "
        "os.environ writes; module-level mutable state follows the "
        "ALL_CAPS sanctioned-registry convention"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        out: list[Diagnostic] = []
        parents = enclosing_functions(module.tree)

        def enclosing_name(node: ast.AST) -> str:
            owner = parents.get(node)
            return owner.name if owner is not None else ""

        def diag(node: ast.AST, message: str) -> None:
            out.append(
                Diagnostic(
                    rule=self.name,
                    path=module.display,
                    line=node.lineno,
                    message=message,
                )
            )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                self._check_env_read(node, module, enclosing_name, diag)
                self._check_env_write_call(node, diag)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                self._check_env_write_stmt(node, diag)
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load)
                and _is_environ(node.value)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
                and node.slice.value.startswith("REPRO_")
                and not self._read_allowed(
                    module, enclosing_name(node), node.slice.value
                )
            ):
                diag(
                    node,
                    f"reads ${node.slice.value} via os.environ[...] "
                    "outside the sanctioned resolvers; resolve through "
                    "the active Session / SessionConfig instead",
                )

        out.extend(self._check_module_state(module))
        return out

    # -- $REPRO_* reads -------------------------------------------------
    def _env_key(self, call: ast.Call) -> str | None:
        """The literal environment-variable name a read call targets."""
        path = call_path(call.func)
        if path in ("os.environ.get", "environ.get", "os.getenv", "getenv"):
            if call.args and isinstance(call.args[0], ast.Constant):
                value = call.args[0].value
                if isinstance(value, str):
                    return value
        return None

    def _read_allowed(
        self, module: ModuleInfo, function: str, key: str
    ) -> bool:
        if key.startswith(_SERVE_ENV_PREFIX):
            # Serving variables: only the serve resolver, regardless of
            # what the path-based allowances below would say.
            return module.display.endswith(_SERVE_ENV_MODULE)
        if module.display.endswith(_SERVE_ENV_MODULE):
            # The serve resolver reads only its own namespace.
            return False
        for suffix, predicate in _ENV_READ_ALLOWED:
            if module.display.endswith(suffix):
                if predicate is None or (function and predicate(function)):
                    return True
        return False

    def _check_env_read(
        self,
        call: ast.Call,
        module: ModuleInfo,
        enclosing_name: Callable[[ast.AST], str],
        diag: _DiagFn,
    ) -> None:
        key = self._env_key(call)
        if key is None or not key.startswith("REPRO_"):
            return
        if self._read_allowed(module, enclosing_name(call), key):
            return
        if key.startswith(_SERVE_ENV_PREFIX):
            diag(
                call,
                f"reads ${key} outside the sanctioned serve resolver "
                f"({_SERVE_ENV_MODULE}); serving configuration resolves "
                "through ServeConfig only",
            )
            return
        diag(
            call,
            f"reads ${key} outside the sanctioned resolvers "
            "(repro/api.py, the engine default_* resolvers, "
            "workloads build_network); resolve through the active "
            "Session / SessionConfig instead",
        )

    # -- os.environ writes ----------------------------------------------
    def _check_env_write_call(self, call: ast.Call, diag: _DiagFn) -> None:
        path = call_path(call.func)
        if path in ("os.putenv", "os.unsetenv"):
            diag(call, f"calls {path}(); mutating the process environment "
                 "cannot be scoped — use monkeypatch.setenv in tests")
            return
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("setdefault", "update", "pop")
            and _is_environ(func.value)
        ):
            diag(
                call,
                f"mutates os.environ via .{func.attr}(); process-"
                "environment writes cannot be scoped — use "
                "monkeypatch.setenv in tests",
            )

    def _check_env_write_stmt(
        self, node: "ast.Assign | ast.AugAssign | ast.Delete", diag: _DiagFn
    ) -> None:
        targets = (
            node.targets
            if isinstance(node, ast.Assign)
            else [node.target]
            if isinstance(node, ast.AugAssign)
            else node.targets
        )
        for target in targets:
            if isinstance(target, ast.Subscript) and _is_environ(
                target.value
            ):
                diag(
                    node,
                    "assigns into os.environ; process-environment "
                    "writes cannot be scoped — use monkeypatch.setenv "
                    "in tests",
                )

    # -- module-level mutable state --------------------------------------
    def _check_module_state(
        self, module: ModuleInfo
    ) -> Iterable[Diagnostic]:
        if "repro" not in module.path.parts:
            return  # package-internal convention; tests/benchmarks exempt
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                targets = [
                    t for t in node.targets if isinstance(t, ast.Name)
                ]
                value = node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                targets = [node.target]
                value = node.value
            else:
                continue
            if value is None or not self._is_mutable_literal(value):
                continue
            for target in targets:
                name = target.id
                if name.startswith("__") and name.endswith("__"):
                    continue  # dunders (__all__)
                if is_all_caps(name):
                    continue  # sanctioned-registry convention
                yield Diagnostic(
                    rule=self.name,
                    path=module.display,
                    line=node.lineno,
                    message=(
                        f"module-level mutable container {name!r} outside "
                        "the sanctioned-registry convention; name it "
                        "ALL_CAPS (and document/clear it like the engine "
                        "memos) or scope the state in a Session"
                    ),
                )

    @staticmethod
    def _is_mutable_literal(value: ast.expr) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_FACTORIES
        )
