"""``checkpoint-purity`` — picklable span cores stay ctypes-free.

Streaming checkpoints pickle the span cores (``_ArrayCoreBase`` and every
subclass) so a run can resume on a machine *without* the compiled kernel.
This rule guards a bug class the kernel bridge once had: it stashed a
ctypes ``(c_int64 * n)`` view on the core as ``_bl8_arr``, which pickled
the whole buffer (or failed outright) and broke resume.  Kernel buffers
are locals of the bridge call — state lives *beside* the core, never
*on* it.

This rule enforces that shape statically: inside any class in the
core-class closure (built over the whole file set in :meth:`prepare`, so
subclasses in other modules are covered), an attribute assignment
``self.x = <expr>`` — or ``core.x = <expr>`` for parameters named
``core`` anywhere in ``sim/`` — must not bind ctypes values, lambdas,
generators, or open file handles.  Element-wise writes
(``core.backlog[:] = ...``) are fine: they fill a plain list, they don't
rebind the attribute.

Scope: ``sim`` (the only package defining span cores).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.diagnostics import Finding
from repro.lint.engine import Rule, SourceFile, module_aliases

#: Base classes whose transitive subclasses form the picklable-core closure.
CORE_ROOTS = frozenset({"_ArrayCoreBase"})


class CheckpointPurityRule(Rule):
    name = "checkpoint-purity"
    summary = "span cores never hold ctypes/lambda/file attributes"
    contract = (
        "Classes reachable from the picklable span cores (_ArrayCoreBase "
        "closure) assign only plain-Python state to attributes; ctypes "
        "buffers, lambdas, generators and file handles break checkpoint "
        "resume (the _bl8_arr bug class).")
    scope = frozenset({"sim"})

    def __init__(self) -> None:
        self._core_classes: Set[str] = set(CORE_ROOTS)

    # ------------------------------------------------------------- #
    # Whole-file-set prepass: close the inheritance graph by base name
    # ------------------------------------------------------------- #

    def prepare(self, files: List[SourceFile]) -> None:
        edges: Dict[str, Set[str]] = {}
        for file in files:
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                bases = set()
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        bases.add(base.id)
                    elif isinstance(base, ast.Attribute):
                        bases.add(base.attr)
                edges[node.name] = bases
        closure = set(CORE_ROOTS)
        changed = True
        while changed:
            changed = False
            for cls, bases in edges.items():
                if cls not in closure and bases & closure:
                    closure.add(cls)
                    changed = True
        self._core_classes = closure

    # ------------------------------------------------------------- #
    # Per-file check
    # ------------------------------------------------------------- #

    def check(self, file: SourceFile) -> Iterator[Finding]:
        ctypes_names = set(module_aliases(file.tree, "ctypes"))

        # 1. self.<attr> = <impure> inside core-class methods.
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            in_core = node.name in self._core_classes
            if not in_core:
                continue
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                self_name = (method.args.args[0].arg
                             if method.args.args else None)
                if self_name is None:
                    continue
                yield from self._impure_assignments(
                    file, method, self_name, node.name,
                    ctypes_names)

        # 2. core.<attr> = <impure> anywhere a parameter is named ``core``
        # (the kernel bridge pattern: run_span_kernel(core, ...)).
        for node in ast.walk(file.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = {arg.arg for arg in node.args.args
                      + node.args.posonlyargs + node.args.kwonlyargs}
            if "core" not in params:
                continue
            yield from self._impure_assignments(
                file, node, "core", "core parameter",
                ctypes_names)

    def _impure_assignments(self, file: SourceFile, func: ast.AST,
                            receiver: str, owner: str,
                            ctypes_names: Set[str]) -> Iterator[Finding]:
        tainted_locals: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                impure = self._impurity(
                    node.value, ctypes_names, tainted_locals)
                for target in node.targets:
                    # Plain local binding: remember the taint for one-step
                    # propagation (buf = (c_int64 * n)(); self.x = buf).
                    if isinstance(target, ast.Name):
                        if impure:
                            tainted_locals.add(target.id)
                        else:
                            tainted_locals.discard(target.id)
                    elif (isinstance(target, ast.Attribute)
                          and isinstance(target.value, ast.Name)
                          and target.value.id == receiver and impure):
                        yield self.finding(
                            file, target,
                            f"{receiver}.{target.attr} = {impure} would be "
                            f"pickled with {owner} and break checkpoint "
                            "resume; keep it in a local of the call that "
                            "needs it",
                            target.attr)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                impure = self._impurity(
                    node.value, ctypes_names, tainted_locals)
                target = node.target
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == receiver and impure):
                    yield self.finding(
                        file, target,
                        f"{receiver}.{target.attr} = {impure} would be "
                        f"pickled with {owner} and break checkpoint "
                        "resume",
                        target.attr)

    def _impurity(self, value: ast.expr, ctypes_names: Set[str],
                  tainted_locals: Set[str]) -> Optional[str]:
        """A short description of why ``value`` is checkpoint-impure, or
        ``None`` when it looks like plain-Python state.

        Purity barriers keep the analysis useful on real kernel code:
        ``x.tolist()`` is the canonical buffer → plain-Python conversion,
        and a call to an ordinary helper function is assumed to return
        what its contract says (``split(buf, ...)`` in the kernel bridge
        returns plain lists) — taint does not leak through either.
        """
        def visit(node: ast.AST) -> Optional[str]:
            if isinstance(node, ast.Lambda):
                return "a lambda"
            if isinstance(node, ast.GeneratorExp):
                return "a generator"
            if isinstance(node, ast.Name):
                if node.id in ctypes_names:
                    return "a ctypes value"
                if node.id in tainted_locals:
                    return "an impure local"
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "tolist":
                    return None  # barrier: converts to plain Python
                if isinstance(func, ast.Name):
                    if func.id == "open":
                        return "a file handle"
                    if func.id not in ctypes_names:
                        return None  # helper-function barrier
            for child in ast.iter_child_nodes(node):
                impure = visit(child)
                if impure:
                    return impure
            return None

        return visit(value)
