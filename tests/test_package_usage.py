"""The package holds only what runs: every public name and every defaulted
parameter in ``src/sepformer`` has a caller in the package or in the
benchmark harness, not in the tests alone.

The package twin of ``test_every_op_but_the_probe_runs_in_the_package``,
which does the same for the kernel's ops.
"""

import ast
from pathlib import Path

import sepformer

SRC = Path(sepformer.__file__).parent
PERFBENCH = SRC.parent.parent / "perfbench"

# names that only the tests load, each for a reason of its own
ALLOWED = {
    # acceptance criterion 01 checks the parameter count the paper states
    "parameter_census",
    # tests/conftest.py switches the kernel's finite checks on for every test
    "set_debug_checks",
}


def _public(name):
    return not name.startswith("_")


def _defined(node):
    """The module-level names a top-level statement defines and the
    analysis tracks: public functions and classes, and upper-case
    constants."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)
                and t.id.isupper()}
    return set()


def _loads(node):
    """Every name a statement reads: bare names, attributes, and strings
    that spell a name (the registry's cores and the tracer's patches are
    looked up by name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.add(sub.value)
    return out


def _statements():
    """(defines, statement, from src) for every top-level statement of the
    package and of the harness, skipping ``__all__`` lists."""
    paths = [(p, True) for p in sorted(SRC.glob("*.py"))]
    paths += [(p, False) for p in sorted(PERFBENCH.glob("*.py"))]
    out = []
    for path, in_src in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                continue
            defines = _defined(node) if in_src else set()
            out.append((defines, node, in_src))
    return out


def _live():
    """The statements reachable from the ones that define no tracked name
    or an allowed one, through the names they load: a name that only dead
    code loads is dead too. Returns the live statements, the names they load, and
    every statement."""
    stmts = _statements()
    live = [not defines or bool(defines & ALLOWED)
            for defines, _, _ in stmts]
    while True:
        loaded = set().union(*(_loads(node) for (_, node, _), on
                               in zip(stmts, live) if on))
        woken = [i for i, (defines, _, _) in enumerate(stmts)
                 if not live[i] and defines & loaded]
        if not woken:
            return [s for s, on in zip(stmts, live) if on], loaded, stmts
        for i in woken:
            live[i] = True


def _signatures(stmts):
    """(label, function, is_method, callee name) for each public function,
    public method and ``__init__`` the package defines."""
    for _, node, in_src in stmts:
        if not in_src:
            continue
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            yield node.name, node, False, node.name
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    yield node.name, item, True, node.name
                elif _public(item.name):
                    yield "%s.%s" % (node.name, item.name), item, True, \
                        item.name


def _argument(call, index, name):
    """What ``call`` passes for the parameter named ``name`` at positional
    ``index`` (None for keyword-only): the expression, the ``*`` or ``**``
    argument that may reach it, or None."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    for i, arg in enumerate(call.args if index is not None else ()):
        if i == index or (isinstance(arg, ast.Starred) and i < index):
            return arg
    return next((kw.value for kw in call.keywords if kw.arg is None), None)


def _unpassed(live):
    """Defaulted parameters that no live call passes. A call that only
    forwards its caller's own unpassed parameter passes nothing, so an
    unused side channel is found down the whole chain."""
    calls = {}
    for _, node, _ in live:
        caller = {}
        for fn in ast.walk(node):       # outer functions first
            if isinstance(fn, ast.FunctionDef):
                caller.update((sub, fn) for sub in ast.walk(fn))
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                func = sub.func
                callee = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(callee, []).append((sub, caller.get(sub)))
    params = []
    for label, fn, is_method, callee in _signatures(live):
        args = fn.args
        positional = args.posonlyargs + args.args
        skip = 1 if is_method else 0
        params += [(label, fn, p.arg, i - skip, callee)
                   for i, p in enumerate(positional)
                   if i >= len(positional) - len(args.defaults)]
        params += [(label, fn, p.arg, None, callee)
                   for p, d in zip(args.kwonlyargs, args.kw_defaults)
                   if d is not None]
    unpassed = set()
    while True:
        found = [(label, fn, name) for label, fn, name, index, callee
                 in params if not any(
                     _forwards(_argument(call, index, name), encl, unpassed)
                     for call, encl in calls.get(callee, ()))]
        now = {(fn, name) for _, fn, name in found}
        if now == unpassed:
            return ["%s(%s=)" % (label, name) for label, _, name in found]
        unpassed = now


def _forwards(arg, caller, unpassed):
    """Whether ``arg`` passes something other than the caller's own
    unpassed parameter."""
    return arg is not None and not (isinstance(arg, ast.Name)
                                    and (caller, arg.id) in unpassed)


def test_every_public_name_and_default_is_used_by_the_package():
    live, loaded, stmts = _live()
    unused = sorted(name for defines, _, in_src in stmts if in_src
                    for name in defines
                    if name not in loaded and name not in ALLOWED)
    assert unused + _unpassed(live) == []


def test_the_allowed_names_are_still_defined_and_unused():
    # an entry whose name gained a caller, or is gone, leaves the list
    _, loaded, stmts = _live()
    defined = set().union(*(d for d, _, in_src in stmts if in_src))
    assert ALLOWED <= defined
    assert ALLOWED.isdisjoint(loaded)
