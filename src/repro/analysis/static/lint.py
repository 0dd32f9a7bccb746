"""repolint: the project contract linter.

An AST-based rule engine over the repository's own source, mirroring
the serving validation engine's pluggable-registry idiom
(:mod:`repro.serving.validation`): small named checkers registered
with :func:`lint_rule`, composable into rule sets, each returning
structured violations instead of raising.

The rules encode *this project's* contracts — the conventions every
PR so far has enforced by review comment:

* ``unseeded-rng`` — all randomness flows through
  ``np.random.default_rng(seed)``; the legacy global-state API (and an
  unseeded ``default_rng()``) breaks replayability of benches, fault
  schedules and hypothesis repros.
* ``overbroad-except`` — a bare ``except:`` or ``except Exception``/
  ``BaseException`` that does not re-raise swallows internal errors
  the serving layer is supposed to surface as structured failures.
* ``library-assert`` — ``assert`` in library code guarding a
  user-reachable state disappears under ``python -O`` and raises an
  uninformative ``AssertionError``; raise ``SisaError`` with
  ``details`` instead.  Kernel-internal dispatch invariants are
  whitelisted with a pragma.
* ``error-details`` — serving-facing error types (``ValidationError``,
  ``AdmissionError``, and the bare ``ReproError`` base) must carry a
  machine-readable ``details`` payload.
* ``mutable-default-arg`` — a ``[]``/``{}``/``set()`` default is
  shared across calls; long-lived sessions make this a real bug class.
* ``unguarded-obs`` — observability is nullable by design (zero
  instrumentation cost when disabled): any call through an ``obs``
  handle must sit in a function that guards it against ``None``.

Suppression: a trailing ``# repolint: disable=rule-a,rule-b`` comment
on the flagged line whitelists those rules for that line.

Run it as ``python -m repro.analysis.static`` (wired into the CI
``static-analysis`` job) or call :func:`lint_paths` directly.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ConfigError, SisaError

_PRAGMA = re.compile(r"#\s*repolint:\s*disable=([A-Za-z0-9_,\-\s]+)")


@dataclass(frozen=True)
class LintViolation:
    """One flagged line: the rule, where, and why."""

    rule: str
    path: str
    line: int
    message: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class LintRule:
    """One registered checker."""

    name: str
    check: Callable[["SourceModule"], Iterable[tuple[int, str]]]
    description: str


_LINT_RULES: dict[str, LintRule] = {}


def lint_rule(
    name: str, *, description: str = "", replace: bool = False
) -> Callable:
    """Register a lint rule under ``name``.

    The checker receives a :class:`SourceModule` and yields
    ``(line, message)`` pairs; pragma suppression is applied by the
    engine.  Re-registration raises unless ``replace=True`` — the same
    anti-shadowing contract as the workload and validation registries.
    """

    def decorate(fn: Callable) -> Callable:
        if name in _LINT_RULES and not replace:
            raise SisaError(
                f"lint rule {name!r} is already registered; pass "
                "replace=True to overwrite it deliberately"
            )
        doc_line = next(iter((fn.__doc__ or "").strip().splitlines()), "")
        _LINT_RULES[name] = LintRule(
            name=name, check=fn, description=description or doc_line
        )
        return fn

    return decorate


def available_lint_rules() -> dict[str, str]:
    """Registered rule names mapped to their descriptions."""
    return {
        name: rule.description for name, rule in sorted(_LINT_RULES.items())
    }


@dataclass
class SourceModule:
    """One parsed source file plus its pragma map."""

    path: str
    text: str
    tree: ast.Module = field(init=False)
    _disabled: dict[int, frozenset[str]] = field(init=False)

    def __post_init__(self):
        self.tree = ast.parse(self.text, filename=self.path)
        disabled: dict[int, frozenset[str]] = {}
        for lineno, line in enumerate(self.text.splitlines(), start=1):
            m = _PRAGMA.search(line)
            if m:
                names = frozenset(
                    part.split()[0]
                    for part in m.group(1).split(",")
                    if part.split()
                )
                disabled[lineno] = names
        self._disabled = disabled

    def disabled_at(self, line: int) -> frozenset[str]:
        return self._disabled.get(line, frozenset())


def lint_source(
    text: str, path: str = "<string>", *, rules: Iterable[str] | None = None
) -> list[LintViolation]:
    """Lint one source string; returns pragma-filtered violations."""
    module = SourceModule(path=path, text=text)
    names = tuple(rules) if rules is not None else tuple(sorted(_LINT_RULES))
    unknown = [n for n in names if n not in _LINT_RULES]
    if unknown:
        raise ConfigError(
            f"unknown lint rule(s) {unknown}; available: "
            f"{sorted(_LINT_RULES)}",
            details={"unknown_rules": unknown},
        )
    found: list[LintViolation] = []
    for name in names:
        rule = _LINT_RULES[name]
        for line, message in rule.check(module):
            if name in module.disabled_at(line):
                continue
            found.append(
                LintViolation(rule=name, path=path, line=line, message=message)
            )
    found.sort(key=lambda v: (v.path, v.line, v.rule))
    return found


def lint_paths(
    paths: Iterable[str | Path], *, rules: Iterable[str] | None = None
) -> list[LintViolation]:
    """Lint files and directories (recursively, ``*.py``)."""
    files: list[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    found: list[LintViolation] = []
    for f in files:
        found.extend(
            lint_source(f.read_text(encoding="utf-8"), str(f), rules=rules)
        )
    return found


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------


def _attr_chain(node: ast.AST) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name bases."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _walk_functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ---------------------------------------------------------------------------
# Built-in rules
# ---------------------------------------------------------------------------


@lint_rule("unseeded-rng")
def _unseeded_rng(module: SourceModule):
    """np.random.* is forbidden except default_rng(seed): global-state
    or unseeded RNG breaks deterministic replay of benches and fault
    schedules."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if not chain or len(chain) < 3:
            continue
        if chain[0] not in ("np", "numpy") or chain[1] != "random":
            continue
        fn = chain[2]
        if fn != "default_rng":
            yield (
                node.lineno,
                f"np.random.{fn} uses legacy global RNG state; use "
                "np.random.default_rng(seed)",
            )
        elif not node.args and not node.keywords:
            yield (
                node.lineno,
                "default_rng() without a seed is not replayable; pass an "
                "explicit seed",
            )


@lint_rule("overbroad-except")
def _overbroad_except(module: SourceModule):
    """A bare/Exception/BaseException handler must re-raise: swallowing
    unexpected errors hides bugs the serving layer should surface."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        names: list[str] = []
        if node.type is None:
            names = ["<bare>"]
        else:
            types = (
                node.type.elts
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for t in types:
                chain = _attr_chain(t)
                if chain and chain[-1] in ("Exception", "BaseException"):
                    names.append(chain[-1])
        if not names:
            continue
        reraises = any(
            isinstance(inner, ast.Raise) and inner.exc is None
            for inner in ast.walk(node)
        )
        if reraises:
            continue
        yield (
            node.lineno,
            f"overbroad handler catches {', '.join(names)} without "
            "re-raising; narrow to the intended error types",
        )


@lint_rule("library-assert")
def _library_assert(module: SourceModule):
    """assert in library code vanishes under -O and raises an opaque
    AssertionError; raise SisaError with details (or whitelist
    kernel-internal dispatch invariants with a pragma)."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assert):
            yield (
                node.lineno,
                "assert in library code; raise SisaError(..., details=...) "
                "for user-reachable states or add a pragma for "
                "kernel-internal invariants",
            )


_DETAIL_ERRORS = ("ReproError", "ValidationError", "AdmissionError")


@lint_rule("error-details")
def _error_details(module: SourceModule):
    """Serving-facing errors must carry a machine-readable details
    payload."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Raise) or not isinstance(
            node.exc, ast.Call
        ):
            continue
        chain = _attr_chain(node.exc.func)
        if not chain or chain[-1] not in _DETAIL_ERRORS:
            continue
        if any(kw.arg == "details" for kw in node.exc.keywords):
            continue
        yield (
            node.lineno,
            f"{chain[-1]} raised without details=; serving callers rely on "
            "the machine-readable payload",
        )


@lint_rule("mutable-default-arg")
def _mutable_default_arg(module: SourceModule):
    """A mutable default argument is shared across calls — a real bug
    class in long-lived sessions."""
    ctor_names = ("list", "dict", "set")
    for fn in _walk_functions(module.tree):
        defaults = list(fn.args.defaults) + [
            d for d in fn.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ctor_names
            ):
                mutable = True
            if mutable:
                yield (
                    default.lineno,
                    f"mutable default argument in {fn.name}(); default to "
                    "None and allocate inside the function",
                )


def _obs_base(node: ast.AST) -> ast.AST | None:
    """The shallowest sub-expression of an attribute chain that is an
    ``obs`` handle (``obs`` name or ``….obs`` attribute), or None."""
    parts: list[ast.AST] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur)
        cur = cur.value
    parts.append(cur)
    # parts is outermost-first; walk from the innermost base outward.
    for expr in reversed(parts):
        if isinstance(expr, ast.Name) and expr.id == "obs":
            return expr
        if isinstance(expr, ast.Attribute) and expr.attr == "obs":
            return expr
    return None


@lint_rule("unguarded-obs")
def _unguarded_obs(module: SourceModule):
    """Calls through a nullable obs handle need a None guard in the
    enclosing function (observability must cost nothing when off)."""
    # Map every node to its chain of enclosing functions.
    enclosing: dict[int, list[ast.AST]] = {}

    def visit(node: ast.AST, stack: tuple[ast.AST, ...]):
        enclosing[id(node)] = list(stack)
        child_stack = (
            stack + (node,)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else stack
        )
        for child in ast.iter_child_nodes(node):
            visit(child, child_stack)

    visit(module.tree, ())
    # Guard expressions per function: dumps of `X is (not) None` lefts.
    guards: dict[int, set[str]] = {}
    for fn in _walk_functions(module.tree):
        found: set[str] = set()
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Compare)
                and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value is None
            ):
                found.add(ast.dump(node.left))
        guards[id(fn)] = found
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            continue
        base = _obs_base(node.func)
        if base is None:
            continue
        base_dump = ast.dump(base)
        fns = enclosing.get(id(node), [])
        if not fns:
            continue  # module-level code: out of scope for this rule
        if any(base_dump in guards.get(id(fn), ()) for fn in fns):
            continue
        yield (
            node.lineno,
            "call through a nullable obs handle without an `is not None` "
            "guard in the enclosing function",
        )


#: Mutating container methods — calling one of these on a watched
#: attribute is a write just like assigning into it.
_MUTATING_METHODS = frozenset(
    (
        "clear",
        "pop",
        "popitem",
        "update",
        "setdefault",
        "move_to_end",
        "append",
        "extend",
        "insert",
        "add",
        "remove",
        "discard",
        "fill",
        "sort",
    )
)


def _watched_write_target(node: ast.AST, watched) -> str | None:
    """The watched attribute a write target touches: ``x.<attr> = …``
    or ``x.<attr>[k] = …`` / ``del x.<attr>[k]``."""
    if isinstance(node, ast.Attribute) and node.attr in watched:
        return node.attr
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr in watched
    ):
        return node.value.attr
    return None


def _shared_mutations(module: SourceModule, watched: dict):
    """Yield ``(line, attr)`` for every mutation of a watched internal
    attribute outside its owner module(s).  ``watched`` maps attribute
    name → tuple of owner path suffixes where mutation is legal."""
    path = module.path.replace("\\", "/")

    def foreign(attr: str) -> bool:
        return not any(path.endswith(suffix) for suffix in watched[attr])

    for node in ast.walk(module.tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            if isinstance(node, ast.Assign):
                targets = node.targets
            else:
                targets = [node.target]
            for target in targets:
                attr = _watched_write_target(target, watched)
                if attr is not None and foreign(attr):
                    yield node.lineno, attr
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _watched_write_target(target, watched)
                if attr is not None and foreign(attr):
                    yield node.lineno, attr
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in watched
                and foreign(func.value.attr)
            ):
                yield node.lineno, func.value.attr


#: Shared-structure internals and the modules allowed to mutate them.
#: The race detector's event hooks live inside these owner modules, so
#: confining mutation there is what keeps the dynamic access log
#: complete (an out-of-module write would bypass the hooks entirely).
_SHARED_INTERNALS = {
    # ResultCache entry table (and the SMB LRU model, which reuses the
    # attribute name for its own entry table).
    "_entries": ("session/cache.py", "hw/cache.py"),
    # The (possibly pool-shared) SCU decision memo.
    "_decision_memo": ("isa/scu.py",),
}


@lint_rule("shared-structure-write")
def _shared_structure_write(module: SourceModule):
    """Direct mutation of shared-structure internals (cache entry
    table, SCU decision memo) outside the owning module bypasses the
    guarded APIs — and with them the race detector's access hooks."""
    for line, attr in _shared_mutations(module, _SHARED_INTERNALS):
        owners = ", ".join(_SHARED_INTERNALS[attr])
        yield (
            line,
            f"direct mutation of shared-structure internal {attr!r} "
            f"outside its owner module ({owners}); go through the guarded "
            "API so the race detector's access hooks see the write",
        )


#: Shared session/pool serving state and its owner modules.  The
#: racecheck module is a sanctioned co-owner of the tenant ledgers:
#: its LedgerShim install/restore is the instrumentation point itself.
#: (observability/hub.py has an unrelated counter named
#: ``_tenant_cycles``; it owns that attribute on its own objects.)
_SESSION_STATE = {
    "_tenant_cycles": (
        "session/pool.py",
        "analysis/static/racecheck.py",
        "observability/hub.py",
    ),
    "_tenant_retry_cycles": (
        "session/pool.py",
        "analysis/static/racecheck.py",
    ),
    "_tenant_runs": ("session/pool.py", "analysis/static/racecheck.py"),
    "_results": ("session/session.py",),
    "_orientation_maintainer": ("session/session.py",),
    "rank": ("streaming/orientation.py",),
    "out_degree": ("streaming/orientation.py",),
}


@lint_rule("session-state-mutation")
def _session_state_mutation(module: SourceModule):
    """Bare mutation of shared session/pool serving state (tenant
    ledgers, the result-cache binding, the orientation maintainer and
    its rank/out-degree arrays) outside the owning module: a future
    concurrent scheduler cannot order writes it cannot see declared."""
    for line, attr in _shared_mutations(module, _SESSION_STATE):
        owners = ", ".join(_SESSION_STATE[attr])
        yield (
            line,
            f"mutation of shared session state {attr!r} outside its owner "
            f"module ({owners}); route it through the owner's API (or its "
            "declared effect tokens) so schedules can order it",
        )


#: The stock rule set, in a stable order.
DEFAULT_RULES = (
    "unseeded-rng",
    "overbroad-except",
    "library-assert",
    "error-details",
    "mutable-default-arg",
    "unguarded-obs",
    "shared-structure-write",
    "session-state-mutation",
)
