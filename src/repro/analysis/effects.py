"""Syntactic effect extraction: the one walk over a process body's AST.

Every analysis front end — the dataflow facts (:mod:`repro.analysis.dataflow`),
the CFG builder (:mod:`repro.analysis.cfg`) and the interprocedural traces
(:mod:`repro.analysis.interproc`) — reads a body through :func:`scan_effects`.
It visits each node once, depth-first in source order, and emits one
:class:`Effect` per call, ``.value`` read and ``yield`` / ``yield from``,
each flagged ``nested`` when it sits inside a nested ``def`` or ``lambda``.
The consumers keep their own scope policy on top: dataflow and the CFG
drop nested records (a callback's body runs in another context), the
interproc scans keep them (a release installed as a callback still
releases).

Line numbers are file lines: :func:`_parse_fn` parses each body at the
line where it sits in its source file.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

#: A ``self``-rooted attribute path: ``self.a.b`` -> ``("a", "b")``.
Path = Tuple[str, ...]

#: Call names recognised as pure-timeout wait expressions (``yield ns(10)``).
_TIME_FUNCS = frozenset({"fs", "ps", "ns", "us", "ms", "sec", "from_fs", "cycles_to_time", "SimTime"})


def _self_path(node: ast.AST) -> Optional[Path]:
    """``self.a.b`` -> ``("a", "b")``; ``self`` -> ``()``; else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self":
        return tuple(reversed(parts))
    return None


#: Parsed definition per code object (None = source unavailable), so each
#: body is read and parsed once whichever front end asks first.
_PARSE_CACHE: Dict[object, Optional[ast.AST]] = {}


def _parse_fn(func: object) -> Optional[ast.AST]:
    """The (cached) ``FunctionDef``/``AsyncFunctionDef`` node of ``func``.

    Node line numbers are lines of the source file.  None when ``func`` has
    no code object or its source is unavailable or unparseable.
    """
    func = getattr(func, "__func__", func)
    code = getattr(func, "__code__", None)
    if code is None:
        return None
    if code in _PARSE_CACHE:
        return _PARSE_CACHE[code]
    node: Optional[ast.AST] = None
    try:
        lines, first = inspect.getsourcelines(func)
        # Blank lines ahead of the dedented source put every node on its
        # file line; cheaper than shifting the tree with
        # ``ast.increment_lineno``, which walks every node again.
        tree = ast.parse("\n" * (first - 1) + textwrap.dedent("".join(lines)))
    except (OSError, TypeError, SyntaxError, IndentationError, ValueError):
        tree = None
    if tree is not None:
        node = next(
            (n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))),
            None,
        )
    _PARSE_CACHE[code] = node
    return node


# --------------------------------------------------------------------------
# Wait classification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WaitInfo:
    """Classification of one ``yield`` / ``yield from`` site.

    ``advances`` is True only when *every* resumption of this wait is
    provably in a later simulated instant than its suspension — a pure
    timed wait with a positive constant duration.  Event waits are False:
    an immediate or delta notify can wake the thread within the same
    instant.  ``anyof_timeout`` waits are False at the wait itself; the
    ``result is TIMEOUT`` branch refinement (recorded on the guarding
    branch node) supplies the advance on the timeout path.
    """

    #: 'timed' | 'event' | 'static' | 'anyof_timeout' | 'external' |
    #: 'inline' (``yield from self.helper(...)``) | 'unknown'
    kind: str
    advances: bool
    #: For ``event`` waits on a plain ``self.<...>`` path and for
    #: ``external`` waits (``yield from self.<chain>.<method>(...)``): the
    #: ``self``-rooted path of the waited object / call target, resolvable
    #: on the live owner.  None for composite or unresolvable targets.
    target: Optional[Path] = None
    #: For ``external`` waits: the method name invoked on ``target``.
    method: str = ""
    #: For composite (``AnyOf`` / ``AllOf``) waits: the members that are
    #: plain ``self.<...>`` paths, in source order.
    members: Tuple[Path, ...] = ()
    #: For composite waits: some member (or the member list itself) is not
    #: a plain ``self.<...>`` path.
    unresolved_members: bool = False


def _positive_constant_duration(call: ast.Call) -> bool:
    """True for ``ns(10)``-style calls with a positive numeric literal."""
    if len(call.args) != 1 or call.keywords:
        return False
    arg = call.args[0]
    return (
        isinstance(arg, ast.Constant)
        and isinstance(arg.value, (int, float))
        and not isinstance(arg.value, bool)
        and arg.value > 0
    )


def _composite(call: ast.Call, kind: str) -> WaitInfo:
    """An ``AnyOf([...])`` / ``AllOf([...])`` wait of the given kind."""
    if not call.args or not isinstance(call.args[0], (ast.List, ast.Tuple)):
        return WaitInfo(kind, False, unresolved_members=True)
    paths = [_self_path(elt) for elt in call.args[0].elts]
    return WaitInfo(
        kind,
        False,
        members=tuple(path for path in paths if path),
        unresolved_members=not all(paths),
    )


def _classify_wait(node: ast.AST) -> WaitInfo:
    """Classify a ``yield`` / ``yield from`` node by what it suspends on."""
    value = node.value
    if isinstance(node, ast.YieldFrom):
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            root = _self_path(value.func.value)
            if root == ():
                return WaitInfo("inline", False)
            if root:
                return WaitInfo("external", False, target=root, method=value.func.attr)
        return WaitInfo("unknown", False)
    if value is None or (isinstance(value, ast.Constant) and value.value is None):
        return WaitInfo("static", False)
    path = _self_path(value)
    if path:
        return WaitInfo("event", False, target=path)
    if isinstance(value, ast.Call):
        func = value.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _TIME_FUNCS:
            return WaitInfo("timed", _positive_constant_duration(value))
        if name == "AnyOf":
            timeout = next(
                (kw.value for kw in value.keywords if kw.arg == "timeout"), None
            )
            if timeout is None and len(value.args) >= 2:
                timeout = value.args[1]
            if timeout is not None and not (
                isinstance(timeout, ast.Constant) and timeout.value is None
            ):
                return _composite(value, "anyof_timeout")
            return _composite(value, "event")
        if name == "AllOf":
            return _composite(value, "event")
    return WaitInfo("unknown", False)


# --------------------------------------------------------------------------
# The extractor
# --------------------------------------------------------------------------

class Effect(NamedTuple):
    """One effect-bearing node of a body, in source order.

    ``kind`` is ``'call'`` (``<receiver>.<name>(...)``; ``path`` is the
    receiver's ``self`` path), ``'func'`` (a call of a bare name, or of any
    other callee expression with ``name`` ``''``), ``'value'`` (a
    ``<receiver>.value`` read; ``path`` is the receiver's ``self`` path) or
    ``'yield'`` (``wait`` classifies it).
    """

    kind: str
    path: Optional[Path]
    name: str
    lineno: int
    #: Inside a nested ``def`` / ``lambda`` (it runs in another context).
    nested: bool
    wait: Optional[WaitInfo] = None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def scan_effects(*roots: Optional[ast.AST]) -> List[Effect]:
    """The effects of the given subtrees, depth-first in source order."""
    effects: List[Effect] = []
    append = effects.append

    def visit(node: ast.AST, nested: bool) -> None:
        cls = type(node)
        if cls is ast.Call:
            func = node.func
            if type(func) is ast.Attribute:
                append(Effect("call", _self_path(func.value), func.attr, node.lineno, nested))
            else:
                name = func.id if type(func) is ast.Name else ""
                append(Effect("func", None, name, node.lineno, nested))
        elif cls is ast.Attribute:
            if node.attr == "value":
                append(Effect("value", _self_path(node.value), "value", node.lineno, nested))
        elif cls is ast.Yield or cls is ast.YieldFrom:
            append(Effect("yield", None, "", node.lineno, nested, _classify_wait(node)))
        elif cls in _SCOPES:
            nested = True
        # ``ast.iter_child_nodes`` inlined: same order, no generators.
        for field in node._fields:
            child = getattr(node, field, None)
            if type(child) is list:
                for item in child:
                    if isinstance(item, ast.AST):
                        visit(item, nested)
            elif isinstance(child, ast.AST):
                visit(child, nested)

    for root in roots:
        if root is not None:
            visit(root, False)
    return effects


#: Body effects per code object (None = source unavailable).
_EFFECTS_CACHE: Dict[object, Optional[Tuple[Effect, ...]]] = {}


def fn_effects(func: object) -> Optional[Tuple[Effect, ...]]:
    """The (cached) effects of ``func``'s body, or None if unparseable."""
    func = getattr(func, "__func__", func)
    code = getattr(func, "__code__", None)
    if code is None:
        return None
    if code not in _EFFECTS_CACHE:
        fn_node = _parse_fn(func)
        _EFFECTS_CACHE[code] = (
            None if fn_node is None else tuple(scan_effects(*fn_node.body))
        )
    return _EFFECTS_CACHE[code]
