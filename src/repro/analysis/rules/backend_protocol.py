"""Backend-protocol conformance.

``ArrayBackend`` (:mod:`repro.nn.backend`) is the kernel seam every
compute path crosses; the base class is a concrete numpy reference, so
subclasses *inherit* the full kernel set and conformance means:

* **BACKEND001** — everything registered in the backend registry
  (``_REGISTRY`` literal or ``register_backend(...)`` calls) resolves,
  directly or through a factory function, to an ``ArrayBackend``
  subclass;
* **BACKEND002** — a subclass overriding a base kernel keeps the base
  signature (parameter names, order, ``*args``/``**kwargs``, and default
  values) — a drifted override would silently shadow call sites that
  pass keywords positionally;
* **BACKEND003** — dynamic method binding (``__setattr__`` calls in
  ``__init__`` that shadow kernels per instance) defeats this static
  check, so it is flagged in every backend class.  A wrapper forwards
  kernels with plain defs instead, as ``ProfilingBackend`` does.
"""

from __future__ import annotations

import ast

from ..finding import Finding
from ..project import ModuleInfo, Project
from ..registry import Rule, register_rule

BASE_CLASS = "ArrayBackend"
REGISTRY_NAME = "_REGISTRY"
REGISTER_FUNC = "register_backend"


def _signature(fn: ast.FunctionDef) -> tuple:
    """A comparable, annotation-free summary of a def's signature."""
    args = fn.args
    names = tuple(a.arg for a in args.posonlyargs + args.args)
    defaults = tuple(ast.dump(d) for d in args.defaults)
    kwonly = tuple(a.arg for a in args.kwonlyargs)
    kw_defaults = tuple(None if d is None else ast.dump(d)
                        for d in args.kw_defaults)
    return (names, defaults,
            args.vararg.arg if args.vararg else None,
            kwonly, kw_defaults,
            args.kwarg.arg if args.kwarg else None)


def _describe(fn: ast.FunctionDef) -> str:
    args = fn.args
    parts = [a.arg for a in args.posonlyargs + args.args]
    for i, default in enumerate(args.defaults):
        parts[len(parts) - len(args.defaults) + i] += \
            f"={ast.unparse(default)}"
    if args.vararg:
        parts.append(f"*{args.vararg.arg}")
    elif args.kwonlyargs:
        parts.append("*")
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        parts.append(a.arg if d is None else f"{a.arg}={ast.unparse(d)}")
    if args.kwarg:
        parts.append(f"**{args.kwarg.arg}")
    return "(" + ", ".join(parts) + ")"


def _base_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


@register_rule
class BackendProtocolRule(Rule):
    name = "backend-protocol"
    description = ("registered backends must be ArrayBackend subclasses; "
                   "kernel overrides must keep the base signature")
    finding_ids = ("BACKEND001", "BACKEND002", "BACKEND003")

    def check_project(self, project: Project) -> list[Finding]:
        classes: dict[str, tuple[ModuleInfo, ast.ClassDef]] = {}
        functions: dict[str, tuple[ModuleInfo, ast.FunctionDef]] = {}
        for module in project.modules:
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    classes.setdefault(node.name, (module, node))
                elif isinstance(node, ast.FunctionDef):
                    functions.setdefault(node.name, (module, node))

        base = classes.get(BASE_CLASS)
        if base is None:
            return []                  # fixture project without the seam
        _, base_def = base
        surface = {n.name: n for n in base_def.body
                   if isinstance(n, ast.FunctionDef)
                   and not n.name.startswith("_")}

        descendants = self._descendants(classes)
        findings: list[Finding] = []
        for cls_name in sorted(descendants):
            module, classdef = classes[cls_name]
            findings.extend(self._check_subclass(module, classdef, surface))
        findings.extend(self._check_registrations(project, classes,
                                                  functions, descendants))
        return findings

    # ------------------------------------------------------------------
    def _descendants(self, classes) -> set[str]:
        """Transitive subclasses of ``ArrayBackend`` by (local) base name."""
        children: dict[str, set[str]] = {}
        for name, (_, classdef) in classes.items():
            for base in classdef.bases:
                base_name = _base_name(base)
                if base_name:
                    children.setdefault(base_name, set()).add(name)
        out: set[str] = set()
        frontier = [BASE_CLASS]
        while frontier:
            current = frontier.pop()
            for child in children.get(current, ()):
                if child not in out:
                    out.add(child)
                    frontier.append(child)
        return out

    def _check_subclass(self, module: ModuleInfo, classdef: ast.ClassDef,
                        surface: dict[str, ast.FunctionDef]) -> list[Finding]:
        findings: list[Finding] = []
        for node in classdef.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            base_fn = surface.get(node.name)
            if base_fn is not None \
                    and _signature(node) != _signature(base_fn):
                findings.append(Finding(
                    "BACKEND002", "error", module.path, node.lineno,
                    f"{classdef.name}.{node.name}{_describe(node)} does not "
                    f"match ArrayBackend.{node.name}{_describe(base_fn)}",
                    hint="keep kernel override signatures identical to the "
                         "base so keyword and positional call sites stay "
                         "interchangeable"))
            if node.name == "__init__":
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) \
                            and isinstance(call.func, ast.Attribute) \
                            and call.func.attr == "__setattr__":
                        findings.append(Finding(
                            "BACKEND003", "error", module.path, call.lineno,
                            f"{classdef.name} binds methods dynamically via "
                            f"__setattr__ in __init__, which hides its "
                            f"kernels from the signature check",
                            hint="override kernels as plain defs so the "
                                 "conformance check can see them"))
        return findings

    def _check_registrations(self, project, classes, functions,
                             descendants: set[str]) -> list[Finding]:
        findings: list[Finding] = []
        valid = descendants | {BASE_CLASS}

        def target_class(expr: ast.expr) -> str | None:
            """The class a registry value resolves to, if decidable."""
            if isinstance(expr, ast.Name):
                if expr.id in classes:
                    return expr.id
                fn = functions.get(expr.id)
                if fn is not None:     # factory: inspect its returns
                    for ret in ast.walk(fn[1]):
                        if isinstance(ret, ast.Return) \
                                and isinstance(ret.value, ast.Call) \
                                and isinstance(ret.value.func, ast.Name) \
                                and ret.value.func.id in classes:
                            return ret.value.func.id
            return None

        for module in project.modules:
            for node in ast.walk(module.tree):
                values: list[ast.expr] = []
                if isinstance(node, ast.Assign) \
                        and any(isinstance(t, ast.Name)
                                and t.id == REGISTRY_NAME
                                for t in node.targets) \
                        and isinstance(node.value, ast.Dict):
                    values = list(node.value.values)
                elif isinstance(node, ast.Call) \
                        and _base_name(node.func) == REGISTER_FUNC \
                        and len(node.args) >= 2:
                    values = [node.args[1]]
                for value in values:
                    resolved = target_class(value)
                    if resolved is not None and resolved not in valid:
                        findings.append(Finding(
                            "BACKEND001", "error", module.path, value.lineno,
                            f"registered backend resolves to {resolved!r}, "
                            f"which is not an ArrayBackend subclass",
                            hint="derive the backend from ArrayBackend (or "
                                 "a subclass) so it inherits the full "
                                 "kernel set"))
        return findings
