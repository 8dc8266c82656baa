"""kernel-purity: ``*_kernel`` functions stay scalar/array-agnostic.

The shared formula kernels (``input_extent_kernel``,
``energy_accumulation_kernel``, ...) are the single implementation behind
*both* execution paths: the scalar reference models call them with Python
ints/floats and the columnar batch pipeline calls them with NumPy columns.
That only works while a kernel is pure arithmetic over its arguments:

* **no numpy** — referencing ``np``/``numpy`` (array constructors, ufuncs)
  hard-wires one representation into code that must run under both;
* **no branching on arguments** — ``if x > 0:`` raises on an array column
  (ambiguous truth value); the idiom is arithmetic masking (``x * (x > 0)``), see
  ``clip_min0`` / ``minimum_kernel``;
* **no ``and``/``or``** — short-circuit evaluation is truthiness; use the
  elementwise ``&`` / ``|``;
* **no data-dependent ``while`` loops** — columns cannot drive a scalar
  loop condition;
* **no argument mutation** — callers share columns between candidates;
* **no module globals** — except other kernels, the sanctioned helper
  functions, class/enum references and ALL_CAPS structural constants
  (anything else is hidden state the two paths need not agree on);
* **no array-hostile builtins** — ``min``/``max``/``any``/``all``/
  ``bool``/``sorted`` have scalar-only or truthiness semantics.

A cross-module check flags any public ``*_kernel`` definition outside
``repro/core/`` that re-uses a core kernel's name: the simulators and
columnar passes must *call* the shared formulas, never fork their math
under the same name.
"""

from __future__ import annotations

import ast
import builtins
from typing import Callable, Iterable, Iterator, Sequence

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import ModuleInfo, Rule, root_name

#: Non-kernel helpers kernels may call: each is itself scalar/array-
#: agnostic pure arithmetic (documented in docs/INVARIANTS.md).
SANCTIONED_HELPERS = frozenset(
    {"ceil_div", "clip_min0", "kernel_and_stride"}
)

#: Path fragment marking the home of the shared formula kernels.
_CORE_FRAGMENT = "repro/core/"

#: Builtins whose semantics are structural, not value-dependent.
SAFE_BUILTINS = frozenset(
    {
        "range",
        "len",
        "enumerate",
        "zip",
        "reversed",
        "tuple",
        "list",
        "dict",
        "float",
        "int",
        "sum",
        "abs",
        "isinstance",
    }
)

#: Builtins that break on (or silently mis-handle) array arguments.
ARRAY_HOSTILE_BUILTINS = frozenset(
    {"min", "max", "any", "all", "bool", "sorted", "map", "filter"}
)

#: Method calls that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "sort",
        "reverse",
        "fill",
    }
)


def _parameters(func: ast.FunctionDef) -> set[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return set(names)


def _local_names(func: ast.FunctionDef) -> set[str]:
    """Names bound inside the function body (targets, loop vars, defs)."""
    bound: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not func:
                bound.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return bound


def _names_in(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id


class KernelPurityRule(Rule):
    name = "kernel-purity"
    description = (
        "*_kernel functions must stay scalar/array-agnostic: no numpy, "
        "no branching on arguments, no and/or, no argument mutation, no "
        "module globals beyond kernels/sanctioned helpers/constants"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        out: list[Diagnostic] = []
        for node in ast.walk(module.tree):
            if self._is_kernel_def(node):
                out.extend(self._check_kernel_def(module, node))
        return out

    def finish(
        self, modules: Sequence[ModuleInfo]
    ) -> Iterable[Diagnostic]:
        """Cross-module check: no ``*_kernel`` name forked outside core.

        The ``repro/core/`` kernels are the single source of the model
        math; every simulator and columnar pass calls *those* functions.
        A same-named public ``*_kernel`` def in any other ``repro`` module
        is a fork waiting to drift from the math the scalar oracle checks.
        """
        core_defs: dict[str, str] = {}
        for module in modules:
            if _CORE_FRAGMENT not in module.display:
                continue
            for node in ast.walk(module.tree):
                if self._is_kernel_def(node):
                    core_defs.setdefault(node.name, module.display)
        if not core_defs:
            return
        for module in modules:
            if "repro/" not in module.display:
                continue  # tests/benchmarks may stub kernels freely
            if _CORE_FRAGMENT in module.display:
                continue
            for node in ast.walk(module.tree):
                if self._is_kernel_def(node) and node.name in core_defs:
                    yield Diagnostic(
                        rule=self.name,
                        path=module.display,
                        line=node.lineno,
                        message=(
                            f"{node.name}: redefines the core kernel "
                            f"from {core_defs[node.name]}; call the "
                            "shared kernel, never fork its math — "
                            "import it instead"
                        ),
                    )

    @staticmethod
    def _is_kernel_def(node: ast.AST) -> bool:
        """Public ``*_kernel`` function defs.  ``test_*`` functions and
        private ``_*`` helpers that merely end in ``_kernel`` are not
        shared formulas and stay exempt."""
        return (
            isinstance(node, ast.FunctionDef)
            and node.name.endswith("_kernel")
            and not node.name.startswith("test_")
            and not node.name.startswith("_")
        )

    def _check_kernel_def(
        self, module: ModuleInfo, func: ast.FunctionDef
    ) -> Iterator[Diagnostic]:
        params = _parameters(func)
        locals_ = _local_names(func)
        # Annotations are documentation, not behaviour: names inside them
        # (`x: np.ndarray`, `-> NumT`) never count against purity.
        annotation_nodes: set[int] = set()
        for sub in ast.walk(func):
            anns = []
            if isinstance(sub, ast.arg) and sub.annotation is not None:
                anns.append(sub.annotation)
            if (
                isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and sub.returns is not None
            ):
                anns.append(sub.returns)
            if isinstance(sub, ast.AnnAssign):
                anns.append(sub.annotation)
            for ann in anns:
                annotation_nodes.update(id(n) for n in ast.walk(ann))

        def diag(node: ast.AST, message: str) -> Diagnostic:
            return Diagnostic(
                rule=self.name,
                path=module.display,
                line=getattr(node, "lineno", func.lineno),
                message=f"{func.name}: {message}",
            )

        for node in ast.walk(func):
            if id(node) in annotation_nodes:
                continue
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                yield diag(
                    node,
                    "declares global/nonlocal state; kernels must be "
                    "pure functions of their arguments",
                )
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                yield diag(
                    node,
                    "imports inside a kernel; keep kernels free of "
                    "module machinery",
                )
            elif isinstance(node, ast.While):
                yield diag(
                    node,
                    "data-dependent `while` loop; columns cannot drive "
                    "a scalar loop condition",
                )
            elif isinstance(node, (ast.If, ast.IfExp)):
                offending = sorted(
                    set(_names_in(node.test)) & params
                )
                if offending:
                    yield diag(
                        node,
                        "branches on argument(s) "
                        f"{', '.join(offending)}; array truthiness is "
                        "ambiguous — use arithmetic masking "
                        "(`x * (x > 0)`) instead",
                    )
            elif isinstance(node, ast.BoolOp):
                yield diag(
                    node,
                    "uses `and`/`or` (short-circuit truthiness); use "
                    "the elementwise `&` / `|` operators",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(
                        target, (ast.Subscript, ast.Attribute)
                    ) and root_name(target) in params:
                        yield diag(
                            node,
                            f"mutates argument {root_name(target)!r}; "
                            "callers share columns between candidates",
                        )
            elif isinstance(node, ast.Call):
                f = node.func
                if (
                    isinstance(f, ast.Attribute)
                    and f.attr in MUTATING_METHODS
                    and isinstance(f.value, ast.Name)
                    and f.value.id in params
                ):
                    yield diag(
                        node,
                        f"calls mutating method .{f.attr}() on argument "
                        f"{f.value.id!r}",
                    )
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                yield from self._check_name(
                    node, params, locals_, diag
                )

    def _check_name(
        self,
        node: ast.Name,
        params: set[str],
        locals_: set[str],
        diag: "Callable[[ast.AST, str], Diagnostic]",
    ) -> Iterator[Diagnostic]:
        name = node.id
        if name in ("np", "numpy"):
            yield diag(
                node,
                "references numpy; kernels must run on Python scalars "
                "and array columns alike (the caller supplies arrays)",
            )
            return
        if name in params or name in locals_:
            return
        if name in ARRAY_HOSTILE_BUILTINS:
            yield diag(
                node,
                f"uses array-hostile builtin {name}(); use the "
                "elementwise kernel equivalents (e.g. minimum_kernel, "
                "clip_min0)",
            )
            return
        if (
            name.endswith("_kernel")
            or name in SANCTIONED_HELPERS
            or name in SAFE_BUILTINS
        ):
            return
        stripped = name.strip("_")
        if stripped and stripped == stripped.upper():
            return  # ALL_CAPS structural constant (ALL_DATA_TYPES, ...)
        if name[:1].isupper():
            return  # class / enum reference (DataType, TileShape, Dim)
        if name in dir(builtins):
            yield diag(
                node,
                f"uses builtin {name}(), which is not on the kernel "
                "safe-list; kernels are restricted to structural "
                "builtins so they stay array-agnostic",
            )
            return
        yield diag(
            node,
            f"reads module global {name!r}; kernels may only touch "
            "arguments, other *_kernel functions, sanctioned helpers "
            "and ALL_CAPS constants",
        )
