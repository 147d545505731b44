"""AST concurrency lint over the repo's own sources.

The pipelined runtime's prefetch worker and state I/O thread
(:mod:`repro.runtime.pipeline`) are where code in this repo runs off the
trainer thread — exactly where PatrickStar-style systems historically
grew unguarded cross-thread state. This linter
builds a **thread-role map** per class and flags:

- ``SA001`` *shared-state race* — an instance attribute written outside
  ``__init__`` whose unmediated accesses span more than one thread role
  (trainer thread vs. a ``threading.Thread`` target). Mediation means the
  access happens under a held lock (``with self._lock:``) or the
  attribute is itself a thread-safe object (Lock/Event/Queue, a
  telemetry gauge/counter/histogram).
- ``SA002`` *lock-order cycle* — two locks acquired nested in opposite
  orders somewhere in the tree (the classic ABBA deadlock).

Three cross-*process* rules extend the catalog to the cluster layer
(PR 6-8), where the hazards move from threads to spawn boundaries,
shared memory and blocking pipes:

- ``SA003`` *spawn-boundary pickling* — a config object whose class
  declares a thread/lock/telemetry-typed field reaches a
  ``Process(args=...)`` spawn without that field being stripped via
  ``dataclasses.replace(...)`` first. No config in the tree declares
  such a field today: ``ClusterConfig``, the one config pickled into
  spawned processes, holds only plain values; each process opens its
  own telemetry sink from the workdir it is given, so the rule guards
  against a field being added back.
- ``SA004`` *shared-memory lifecycle* — a scope creates or attaches a
  ``SharedMemory`` segment but never calls both ``close()`` and
  ``unlink()``, leaking the segment past the process's life.
- ``SA005`` *unbounded blocking receive* — a cross-process ``recv()``
  with no ``poll()`` guard in the same method, or a ``wait()``/
  ``wait_for()``/``join()`` with no timeout: one lost peer turns it
  into a distributed deadlock.
- ``SA006`` *timeout result discarded* — a ``join(timeout)`` /
  ``wait(timeout)`` whose outcome nobody reads: both return normally
  when the time runs out, so the bounded hang becomes a silent one.

Classes that never start a thread are single-threaded by construction
and are skipped by SA001. Findings carry a stable fingerprint
(``rule:path:subject`` — no line numbers) so the checked-in baseline
survives unrelated edits; ``repro check --self`` fails CI only on
fingerprints not in the baseline.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.invariants import (
    DISCARDED_TIMEOUT,
    LOCK_ORDER_CYCLE,
    SHARED_STATE_RACE,
    SHM_LIFECYCLE,
    SPAWN_PICKLE,
    UNBOUNDED_RECV,
)

#: Field types that must not cross a ``Process`` spawn boundary without
#: being stripped first (``dataclasses.replace(cfg, field=None, ...)``).
#: Live threads, locks and telemetry registries either fail to pickle
#: outright or arrive in the child as dead clones.
UNPICKLABLE_TYPES = frozenset({
    "Thread", "Lock", "RLock", "Condition", "Event", "Semaphore",
    "BoundedSemaphore", "Barrier", "Queue", "SimpleQueue", "Connection",
    "Listener", "TelemetryLike", "Telemetry",
})

#: Blocking receive calls on a cross-process pipe; a ``poll(timeout)``
#: call in the same method is the sanctioned guard.
RECV_CALLS = frozenset({"recv", "recv_bytes"})

#: Constructors whose instances are considered thread-safe mediation.
MEDIATED_CONSTRUCTORS = frozenset({
    "Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore",
    "Barrier", "Queue", "SimpleQueue", "LifoQueue", "PriorityQueue",
    # telemetry registry instruments are internally locked
    "gauge", "counter", "histogram",
})

#: Constructors that make an attribute usable as a ``with``-lock.
LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock", "Condition", "Semaphore"})

MAIN_ROLE = "main"


@dataclass(frozen=True)
class LintFinding:
    """One concurrency finding with a baseline-stable fingerprint."""

    rule: str
    path: str      # repo-relative posix path
    subject: str   # "Class.attr" or the lock cycle "a->b->a"
    message: str
    roles: tuple = ()
    lines: tuple = ()

    @property
    def fingerprint(self) -> str:
        return f"{self.rule}:{self.path}:{self.subject}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "subject": self.subject,
            "message": self.message,
            "roles": list(self.roles),
            "lines": list(self.lines),
            "fingerprint": self.fingerprint,
        }


@dataclass
class _Access:
    """One ``self.attr`` read or write inside a method."""

    attr: str
    kind: str  # "read" | "write"
    method: str
    line: int
    mediated: bool


@dataclass
class _ClassInfo:
    name: str
    #: method -> methods it calls on self
    calls: dict = field(default_factory=dict)
    #: methods passed as ``threading.Thread(target=self.m)``
    thread_entries: set = field(default_factory=set)
    accesses: list = field(default_factory=list)
    #: attrs assigned in __init__ from a mediated constructor
    mediated_attrs: set = field(default_factory=set)
    #: attrs usable as ``with self.x:`` locks
    lock_attrs: set = field(default_factory=set)
    #: nested lock acquisitions: (outer, inner) attr pairs
    lock_edges: list = field(default_factory=list)


def _call_name(node: ast.expr) -> str | None:
    """Trailing name of a call target: ``threading.Thread`` -> 'Thread'."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _self_attr(node: ast.expr) -> str | None:
    """'x' for ``self.x`` (also unwraps ``self.x[i]``), else None."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _ClassScanner:
    """Extracts the per-class facts the role map is built from."""

    def __init__(self, class_node: ast.ClassDef):
        self.info = _ClassInfo(name=class_node.name)
        self._init_lines = _init_assignment_lines(class_node)
        for item in class_node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_method(item)

    def _scan_method(self, method: ast.FunctionDef) -> None:
        info = self.info
        info.calls.setdefault(method.name, set())
        in_init = method.name == "__init__"
        self._walk(method.body, method, in_init, lock_stack=[])

    def _walk(self, body, method, in_init: bool, lock_stack: list) -> None:
        for node in body:
            self._visit(node, method, in_init, lock_stack)

    def _visit(self, node, method, in_init: bool, lock_stack: list) -> None:
        info = self.info
        if isinstance(node, ast.With):
            held = []
            for item in node.items:
                lock = _self_attr(item.context_expr)
                if lock is not None and self._is_lockish(lock):
                    if lock_stack:
                        info.lock_edges.append(
                            (lock_stack[-1], lock, node.lineno)
                        )
                    held.append(lock)
                else:
                    # Non-lock context (telemetry span etc.): recurse into
                    # the expression for accesses, but no mediation.
                    self._visit_expr(item.context_expr, method, in_init, lock_stack)
            self._walk(node.body, method, in_init, lock_stack + held)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested closure: runs on whatever thread calls it; keep the
            # enclosing method's role by scanning inline.
            self._walk(node.body, method, in_init, lock_stack)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, method, in_init, lock_stack)
        self._record(node, method, in_init, bool(lock_stack))

    def _visit_expr(self, node, method, in_init, lock_stack) -> None:
        for child in ast.walk(node):
            self._record(child, method, in_init, bool(lock_stack))

    def _record(self, node, method, in_init: bool, mediated: bool) -> None:
        info = self.info
        if isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is None:
                return
            kind = "write" if isinstance(node.ctx, (ast.Store, ast.Del)) else "read"
            if in_init and kind == "write":
                return  # publish before thread start: safe by convention
            info.accesses.append(_Access(
                attr=attr, kind=kind, method=method.name,
                line=node.lineno, mediated=mediated,
            ))
        elif isinstance(node, ast.Call):
            self._record_call(node, method, in_init)

    def _record_call(self, node: ast.Call, method, in_init: bool) -> None:
        info = self.info
        name = _call_name(node.func)
        # threading.Thread(target=self.m) -> thread entry method
        if name == "Thread":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    target = _self_attr(keyword.value)
                    if target is not None:
                        info.thread_entries.add(target)
        # self.m(...) -> intra-class call edge
        target = _self_attr(node.func)
        if target is not None:
            info.calls.setdefault(method.name, set()).add(target)
        # __init__ assignments of mediated / lock constructors
        if in_init and name in MEDIATED_CONSTRUCTORS:
            parent_attr = self._assigned_attr(node)
            if parent_attr is not None:
                info.mediated_attrs.add(parent_attr)
                if name in LOCK_CONSTRUCTORS:
                    info.lock_attrs.add(parent_attr)

    def _assigned_attr(self, call: ast.Call) -> str | None:
        """The ``self.x`` an ``__init__`` constructor call is bound to.

        Matches ``self.x = Ctor()`` and ``self.x = [Ctor() ...]`` by the
        assignment's source line (init writes themselves are filtered
        out of the access list, so resolve syntactically).
        """
        return self._init_lines.get(call.lineno)

    def _is_lockish(self, attr: str) -> bool:
        return attr in self.info.lock_attrs or "lock" in attr.lower()


def _init_assignment_lines(class_node: ast.ClassDef) -> dict:
    """``{line: attr}`` for every ``self.attr = ...`` in ``__init__``."""
    lines: dict = {}
    for item in class_node.body:
        if not isinstance(item, ast.FunctionDef) or item.name != "__init__":
            continue
        for node in ast.walk(item):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        for sub in ast.walk(node):
                            if isinstance(sub, ast.Call):
                                lines[sub.lineno] = attr
    return lines


def _roles(info: _ClassInfo) -> dict:
    """Fixed-point thread-role propagation over the intra-class calls.

    Thread entry methods seed ``thread:<name>``; methods nobody calls
    seed ``main`` (public API runs on the trainer thread). Roles flow
    from caller to callee until stable.
    """
    methods = set(info.calls)
    called = {callee for callees in info.calls.values() for callee in callees}
    roles: dict = {name: set() for name in methods}
    for name in methods:
        if name in info.thread_entries:
            roles[name].add(f"thread:{name}")
        elif name not in called:
            roles[name].add(MAIN_ROLE)
    changed = True
    while changed:
        changed = False
        for caller, callees in info.calls.items():
            for callee in callees:
                if callee not in roles:
                    continue
                if callee in info.thread_entries:
                    continue  # entry runs on its thread, not the caller's
                before = len(roles[callee])
                roles[callee] |= roles[caller]
                changed = changed or len(roles[callee]) != before
    return roles


def _race_findings(path: str, info: _ClassInfo) -> list[LintFinding]:
    if not info.thread_entries:
        return []  # single-threaded class: nothing can race
    roles = _roles(info)
    by_attr: dict = {}
    for access in info.accesses:
        by_attr.setdefault(access.attr, []).append(access)
    findings = []
    for attr, accesses in sorted(by_attr.items()):
        if attr in info.mediated_attrs or "lock" in attr.lower():
            continue
        unmediated = [a for a in accesses if not a.mediated]
        write_roles: set = set()
        all_roles: set = set()
        lines = []
        for access in unmediated:
            access_roles = roles.get(access.method, {MAIN_ROLE})
            all_roles |= access_roles
            if access.kind == "write":
                write_roles |= access_roles
                lines.append(access.line)
        if not write_roles:
            continue  # every write holds a lock: mediated publish
        if len(all_roles) < 2 and len(write_roles) < 2:
            continue
        findings.append(LintFinding(
            rule=SHARED_STATE_RACE,
            path=path,
            subject=f"{info.name}.{attr}",
            message=(
                f"attribute {attr!r} of {info.name} is written without "
                f"mediation while its accesses span thread roles "
                f"{sorted(all_roles)}"
            ),
            roles=tuple(sorted(all_roles)),
            lines=tuple(sorted(set(lines))),
        ))
    return findings


def _cycle_findings(edges: dict) -> list[LintFinding]:
    """DFS cycle detection over the global lock-acquisition graph.

    ``edges``: ``{(path, lock): set of (path, lock)}`` where an edge
    means the second lock was acquired while the first was held.
    """
    findings = []
    seen_cycles = set()
    state: dict = {}

    def dfs(node, stack):
        state[node] = "active"
        stack.append(node)
        for succ in sorted(edges.get(node, ())):
            if state.get(succ) == "active":
                cycle = stack[stack.index(succ):] + [succ]
                names = [lock for _, lock in cycle]
                pivot = names.index(min(names[:-1]))
                canonical = tuple(names[pivot:-1] + names[:pivot])
                if canonical in seen_cycles:
                    continue
                seen_cycles.add(canonical)
                path = cycle[0][0]
                subject = "->".join(canonical + (canonical[0],))
                findings.append(LintFinding(
                    rule=LOCK_ORDER_CYCLE,
                    path=path,
                    subject=subject,
                    message=(
                        f"locks {sorted(set(names[:-1]))} are acquired "
                        f"nested in inconsistent order (potential ABBA "
                        f"deadlock): {subject}"
                    ),
                ))
            elif state.get(succ) is None:
                dfs(succ, stack)
        stack.pop()
        state[node] = "done"

    for node in sorted(edges):
        if state.get(node) is None:
            dfs(node, [])
    return findings


def _annotation_types(node: ast.expr) -> set:
    """Every type name mentioned by an annotation expression.

    ``TelemetryLike | None`` yields ``{"TelemetryLike", "None"}``;
    quoted forward references are tokenised the same way.
    """
    names: set = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            token = ""
            for char in sub.value + " ":
                if char.isalnum() or char == "_":
                    token += char
                elif token:
                    names.add(token)
                    token = ""
    return names


def _class_field_types(tree: ast.Module) -> dict:
    """``{class: {field: hazardous type}}`` from class-body annotations."""
    out: dict = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        fields = {}
        for item in node.body:
            if (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
            ):
                hazard = _annotation_types(item.annotation) & UNPICKLABLE_TYPES
                if hazard:
                    fields[item.target.id] = sorted(hazard)[0]
        if fields:
            out[node.name] = fields
    return out


def _functions(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _spawn_findings(path: str, tree: ast.Module,
                    class_fields: dict) -> list[LintFinding]:
    """SA003: hazardous-typed config fields reaching ``Process(args=...)``.

    Per function, track which names hold instances of classes with
    :data:`UNPICKLABLE_TYPES` fields — from parameter annotations, from
    direct construction, and through ``dataclasses.replace`` chains
    (every keyword override clears that field). Any such name appearing
    in a ``Process(... args=(...))`` payload with a hazardous field
    still live is flagged. The clean idiom is to keep such fields off
    the config, or to strip them with ``replace(config, telemetry=None)``
    before the spawn.
    """
    findings = []
    seen: set = set()
    for func in _functions(tree):
        local: dict = {}
        arg_nodes = (
            list(func.args.posonlyargs) + list(func.args.args)
            + list(func.args.kwonlyargs)
        )
        for arg in arg_nodes:
            if arg.annotation is None:
                continue
            for cls in sorted(_annotation_types(arg.annotation)):
                if cls in class_fields:
                    local[arg.arg] = (cls, frozenset())
                    break
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                continue
            name = node.targets[0].id
            call = node.value
            ctor = _call_name(call.func)
            if ctor in class_fields:
                local[name] = (ctor, frozenset())
            elif (
                ctor == "replace"
                and call.args
                and isinstance(call.args[0], ast.Name)
                and call.args[0].id in local
            ):
                cls, stripped = local[call.args[0].id]
                overridden = {kw.arg for kw in call.keywords if kw.arg}
                local[name] = (cls, stripped | overridden)
        if not local:
            continue
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and _call_name(node.func) == "Process"
            ):
                continue
            payload = []
            for keyword in node.keywords:
                if keyword.arg == "args" and isinstance(
                    keyword.value, (ast.Tuple, ast.List)
                ):
                    payload.extend(keyword.value.elts)
            for element in payload:
                if not isinstance(element, ast.Name):
                    continue
                resolved = local.get(element.id)
                if resolved is None:
                    continue
                cls, stripped = resolved
                for fname, tname in sorted(class_fields[cls].items()):
                    if fname in stripped:
                        continue
                    subject = f"{cls}.{fname}"
                    if (path, subject) in seen:
                        continue
                    seen.add((path, subject))
                    findings.append(LintFinding(
                        rule=SPAWN_PICKLE,
                        path=path,
                        subject=subject,
                        message=(
                            f"{tname}-typed field {fname!r} of {cls} "
                            f"reaches the Process(...) spawn in "
                            f"{func.name}() without being stripped via "
                            f"dataclasses.replace(...) — it cannot "
                            f"cross the pickle boundary alive"
                        ),
                        lines=(node.lineno,),
                    ))
    return findings


def _shm_findings(path: str, tree: ast.Module) -> list[LintFinding]:
    """SA004: SharedMemory created/attached without close() AND unlink().

    Scope is the enclosing class (so a segment opened in one method and
    released in another is fine) or a module-level function. The
    reference-clean pattern is the shared-memory transport's
    ``finally: seg.close(); seg.unlink()``.
    """
    findings = []
    scopes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    class_spans = [
        (s.lineno, s.end_lineno or s.lineno) for s in scopes
    ]
    for node in _functions(tree):
        inside_class = any(
            lo <= node.lineno <= hi for lo, hi in class_spans
        )
        if not inside_class:
            scopes.append(node)
    for scope in scopes:
        calls = {
            _call_name(n.func)
            for n in ast.walk(scope)
            if isinstance(n, ast.Call)
        }
        if "SharedMemory" not in calls:
            continue
        missing = sorted({"close", "unlink"} - calls)
        if not missing:
            continue
        findings.append(LintFinding(
            rule=SHM_LIFECYCLE,
            path=path,
            subject=scope.name,
            message=(
                f"{scope.name} opens a SharedMemory segment but never "
                f"calls {' or '.join(missing)} — the segment (and its "
                f"backing file under /dev/shm) outlives the process"
            ),
            lines=(scope.lineno,),
        ))
    return findings


def _timed(call: ast.Call, name: str) -> bool:
    """Does this ``join``/``wait`` pass a timeout? ``join`` takes nothing
    else; a positional ``wait`` argument counts only as a numeric literal
    (``queue.wait(key)`` passes a key, not a bound)."""
    if any(keyword.arg == "timeout" for keyword in call.keywords):
        return True
    if not call.args:
        return False
    first = call.args[0]
    return name == "join" or (
        isinstance(first, ast.Constant)
        and isinstance(first.value, (int, float))
    )


def _blocking_findings(path: str, tree: ast.Module) -> list[LintFinding]:
    """SA005 and SA006: blocking calls nobody bounds, or nobody checks.

    SA005 flags ``*.recv()`` / ``*.recv_bytes()`` in a method with no
    ``poll(...)`` guard, plus zero-argument ``wait()`` / ``join()`` /
    ``get()`` and ``wait_for(pred)`` with no timeout. One lost peer
    turns any of these into a process that can never be re-scheduled.

    SA006 flags ``join(timeout)`` / ``wait(timeout)`` as a bare
    statement. A scope is clean when it reads the outcome another way —
    ``is_alive()`` or ``exitcode`` anywhere in it (``join_or_raise``).
    A ``wait`` is also clean inside a ``while`` loop (a tick: the loop
    re-reads its condition) or a ``try`` with handlers (barrier-style
    waits signal the timeout by raising).
    """
    findings = []
    seen: set = set()

    def report(rule: str, scope_name: str, name: str, line: int,
               problem: str) -> None:
        subject = f"{scope_name}.{name}"
        if (rule, subject) not in seen:
            seen.add((rule, subject))
            findings.append(LintFinding(
                rule=rule, path=path, subject=subject,
                message=f"{scope_name} {problem}", lines=(line,),
            ))

    def unbounded(scope_name: str, func) -> None:
        calls = [n for n in ast.walk(func) if isinstance(n, ast.Call)]
        has_poll = any(_call_name(c.func) == "poll" for c in calls)
        for call in calls:
            name = _call_name(call.func)
            if name is None or not isinstance(call.func, ast.Attribute):
                continue
            bare = not call.args and not call.keywords
            timed = (
                len(call.args) >= 2
                or any(k.arg == "timeout" for k in call.keywords)
            )
            if name in RECV_CALLS and not has_poll:
                reason = "with no poll(timeout) guard in the same method"
            elif name in {"wait", "join", "get"} and bare:
                reason = "with no timeout argument"
            elif name == "wait_for" and not timed:
                reason = "with no timeout argument"
            else:
                continue
            report(UNBOUNDED_RECV, scope_name, name, call.lineno,
                   f"blocks on {name}() {reason} — if the peer dies this "
                   f"call never returns")

    def discarded(scope_name: str, node, guarded: bool) -> None:
        call = node.value if isinstance(node, ast.Expr) else None
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
            name = call.func.attr
            if (
                name in {"join", "wait"}
                and _timed(call, name)
                and not (guarded and name == "wait")
            ):
                report(DISCARDED_TIMEOUT, scope_name, name, node.lineno,
                       f"discards the result of a timed {name}() and never "
                       f"reads is_alive()/exitcode — when the timeout "
                       f"expires nothing notices")
        guarded = guarded or isinstance(node, ast.While) or (
            isinstance(node, ast.Try) and bool(node.handlers)
        )
        for child in ast.iter_child_nodes(node):
            discarded(scope_name, child, guarded)

    for node in tree.body:
        is_class = isinstance(node, ast.ClassDef)
        for func in node.body if is_class else [node]:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            scope_name = f"{node.name}.{func.name}" if is_class else func.name
            unbounded(scope_name, func)
            if not any(
                isinstance(n, ast.Attribute)
                and n.attr in {"is_alive", "exitcode"}
                for n in ast.walk(func)
            ):
                discarded(scope_name, func, False)
    return findings


class ConcurrencyLinter:
    """Scans a source tree and returns :class:`LintFinding` records."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def run(self) -> list[LintFinding]:
        findings: list[LintFinding] = []
        lock_edges: dict = {}
        trees: list = []
        for source in sorted(self.root.rglob("*.py")):
            if "__pycache__" in source.parts:
                continue
            rel = source.relative_to(self.root).as_posix()
            try:
                trees.append((rel, ast.parse(source.read_text())))
            except SyntaxError as exc:
                findings.append(LintFinding(
                    rule=SHARED_STATE_RACE,
                    path=rel,
                    subject="<parse>",
                    message=f"could not parse: {exc}",
                ))
        # Pass 1: hazardous-field map across the whole tree, so a config
        # class defined in one module is recognised at a spawn site in
        # another (ClusterConfig lives in protocol.py, the Process()
        # call in supervisor.py).
        class_fields: dict = {}
        for _rel, tree in trees:
            class_fields.update(_class_field_types(tree))
        # Pass 2: per-file rules.
        for rel, tree in trees:
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                info = _ClassScanner(node).info
                findings.extend(_race_findings(rel, info))
                for outer, inner, _line in info.lock_edges:
                    key = (rel, f"{info.name}.{outer}")
                    lock_edges.setdefault(key, set()).add(
                        (rel, f"{info.name}.{inner}")
                    )
            findings.extend(_spawn_findings(rel, tree, class_fields))
            findings.extend(_shm_findings(rel, tree))
            findings.extend(_blocking_findings(rel, tree))
        findings.extend(_cycle_findings(lock_edges))
        findings.sort(key=lambda f: (f.rule, f.path, f.subject))
        return findings


def lint_tree(root: Path | str) -> list[LintFinding]:
    """Lint every ``*.py`` under ``root``."""
    return ConcurrencyLinter(root).run()
