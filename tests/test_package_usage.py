"""The package holds only what runs: every public name, every defaulted
parameter, every dataclass field and every namedtuple field in
``src/sepformer`` has a use in the package or in the benchmark harness,
not in the tests alone.

A call reaches the definition that its own module names, directly or
through its imports; a call of a method on an object, whose type the
analysis does not know, reaches every public method of that name. A
defaulted parameter is used when a live call passes it. A defaulted field
is set when a live call passes it or live code assigns it, and any field,
of a dataclass or of a namedtuple, is read when live code reads it as an
attribute.

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

# defaulted parameters that only the tests pass, each for a reason of its own
ALLOWED_UNPASSED = {
    # the console script calls main(); the tests drive the CLI through argv
    "main(argv=)",
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
    that spell a name (the tracer's patches are looked up by name)."""
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


def _module(path, in_src):
    """The name a file is imported by: the harness imports its files by
    their stems."""
    if not in_src:
        return path.stem
    return "sepformer" if path.stem == "__init__" else "sepformer." + path.stem


def _statements():
    """(defines, statement, from src, module) for every top-level statement
    of the package and of the harness, skipping ``__all__`` lists."""
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
            out.append((defines, node, in_src, _module(path, in_src)))
    return out


def _live():
    """The statements reachable from the ones that define no tracked name
    or an allowed one, through the names they load: a name that only dead
    code loads is dead too. Returns the live statements, the names they load, and
    every statement."""
    stmts = _statements()
    live = [not defines or bool(defines & ALLOWED)
            for defines, *_ in stmts]
    while True:
        loaded = set().union(*(_loads(node) for (_, node, *_), on
                               in zip(stmts, live) if on))
        woken = [i for i, (defines, *_) in enumerate(stmts)
                 if not live[i] and defines & loaded]
        if not woken:
            return [s for s, on in zip(stmts, live) if on], loaded, stmts
        for i in woken:
            live[i] = True


def _namespaces(stmts):
    """module -> {name: what the module binds it to}: ("def", module, name)
    for a top-level function or class, ("module", module) for an imported
    module, ("from", module, name) for a name imported from one. Imports
    anywhere in a module count."""
    modules = {module for *_, module in stmts}
    ns = {module: {} for module in modules}
    for _, node, _, module in stmts:
        names = ns[module]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = ("def", module, node.name)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Import):
                for alias in sub.names:
                    top = alias.name.split(".")[0]
                    names[alias.asname or top] = \
                        ("module", alias.name if alias.asname else top)
            elif isinstance(sub, ast.ImportFrom):
                # the package is flat: a relative import is from it
                base = ".".join(filter(None, [
                    "sepformer" if sub.level else None, sub.module]))
                for alias in sub.names:
                    full = base + "." + alias.name
                    names[alias.asname or alias.name] = (
                        ("module", full) if full in modules
                        else ("from", base, alias.name))
    return ns


def _resolve(ns, module, name):
    """What ``name`` is in ``module``, through re-exports, or None."""
    target = ns.get(module, {}).get(name)
    while target is not None and target[0] == "from":
        target = ns.get(target[1], {}).get(target[2])
    return target


def _callee(func, ns, module):
    """The key of what a call's ``func`` reaches from ``module``: the
    ("def", module, name) it resolves to, ("method", name) for an
    attribute of anything but a module, or None."""
    if isinstance(func, ast.Attribute):
        owner = _resolve(ns, module, func.value.id) \
            if isinstance(func.value, ast.Name) else None
        if owner is None or owner[0] != "module":
            return "method", func.attr
        module, name = owner[1], func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    else:
        return None
    target = _resolve(ns, module, name)
    return target if target is not None and target[0] == "def" else None


def _calls(live, ns):
    """Callee key -> [(call, the function that encloses it, or None)] for
    every call in live code."""
    calls = {}
    for _, node, _, module in live:
        caller = {}
        for fn in ast.walk(node):       # outer functions first
            if isinstance(fn, ast.FunctionDef):
                caller.update((sub, fn) for sub in ast.walk(fn))
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                calls.setdefault(_callee(sub.func, ns, module), []).append(
                    (sub, caller.get(sub)))
    return calls


def _signatures(stmts):
    """(label, function, is_method, callee key) for each public function,
    public method and ``__init__`` the package defines."""
    for _, node, in_src, module in stmts:
        if not in_src:
            continue
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            yield node.name, node, False, ("def", module, node.name)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    yield node.name, item, True, ("def", module, node.name)
                elif _public(item.name):
                    yield "%s.%s" % (node.name, item.name), item, True, \
                        ("method", item.name)


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


def _unpassed(live, calls):
    """Defaulted parameters that no live call passes. A call that only
    forwards its caller's own unpassed parameter passes nothing, so an
    unused side channel is found down the whole chain."""
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


def _fields(live):
    """(class, callee key, field statements in order) for each dataclass
    the package defines."""
    for _, node, in_src, module in live:
        if in_src and isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id",
                        None) == "dataclass" for d in node.decorator_list):
            yield node.name, ("def", module, node.name), [
                item for item in node.body if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)]


def _namedtuples(live):
    """(class, field names) for each namedtuple the package defines at
    module level, ``Name = namedtuple("Name", fields, ...)``."""
    for _, node, in_src, _ in live:
        value = getattr(node, "value", None)
        if in_src and isinstance(node, ast.Assign) \
                and isinstance(value, ast.Call) \
                and getattr(value.func, "id", None) == "namedtuple":
            names = value.args[1]
            yield node.targets[0].id, (
                names.value.replace(",", " ").split()
                if isinstance(names, ast.Constant)
                else [elt.value for elt in names.elts])


def _unused_fields(live, calls):
    """Defaulted dataclass fields that no live call passes and no live code
    assigns, and dataclass or namedtuple fields that no live code reads as
    an attribute."""
    attrs = {ast.Load: set(), ast.Store: set()}
    for _, node, *_ in live:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and type(sub.ctx) in attrs:
                attrs[type(sub.ctx)].add(sub.attr)
    out = []
    for cls, callee, fields in _fields(live):
        for i, item in enumerate(fields):
            name = item.target.id
            if item.value is not None and name not in attrs[ast.Store] \
                    and not any(_argument(call, i, name) is not None
                                for call, _ in calls.get(callee, ())):
                out.append("%s.%s (never set)" % (cls, name))
            if name not in attrs[ast.Load]:
                out.append("%s.%s (never read)" % (cls, name))
    out += ["%s.%s (never read)" % (cls, name)
            for cls, names in _namedtuples(live) for name in names
            if name not in attrs[ast.Load]]
    return out


def _findings():
    """The unused names, the unpassed parameters and the unused fields,
    with the names loaded by live code."""
    live, loaded, stmts = _live()
    calls = _calls(live, _namespaces(stmts))
    unused = sorted(name for defines, _, in_src, _ in stmts if in_src
                    for name in defines
                    if name not in loaded and name not in ALLOWED)
    return unused, _unpassed(live, calls), _unused_fields(live, calls), \
        loaded, stmts


def test_every_public_name_and_default_is_used_by_the_package():
    unused, unpassed, fields, _, _ = _findings()
    unpassed = [p for p in unpassed if p not in ALLOWED_UNPASSED]
    assert unused + unpassed + fields == []


def test_the_namedtuples_are_found():
    # the field check above sees every namedtuple the package defines
    live, _, _ = _live()
    found = dict(_namedtuples(live))
    assert sorted(found) == ["Variant", "_Band", "_Call"]
    assert found["Variant"] == ["core", "core_macs", "extra", "shares_qk",
                                "seeded"]


def test_the_allowed_names_are_still_defined_and_unused():
    # an entry whose name gained a caller, or is gone, leaves the list
    _, unpassed, _, loaded, stmts = _findings()
    defined = set().union(*(d for d, _, in_src, _ in stmts if in_src))
    assert ALLOWED <= defined
    assert ALLOWED.isdisjoint(loaded)
    assert ALLOWED_UNPASSED <= set(unpassed)
