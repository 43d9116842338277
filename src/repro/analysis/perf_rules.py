"""Hot-path performance lints (``perf-*``).

The event kernel dispatches one callback per simulated event; at the
10⁵–10⁶-event scale the ROADMAP targets, every avoidable allocation or
attribute lookup inside that dispatch path is multiplied by the event
count.  This checker flags the per-event waste the profiler cannot see
(op counters measure *events*, not the constant factor each one costs):
``__dict__``-bearing event records, O(n) list-head pops, closures and
dicts built per iteration, re-resolved attribute chains, quadratic
string building, linear membership scans, per-iteration exception
setup, and wall-clock syscalls.

The rules are deliberately aggressive, so they are *scoped*: they fire
only inside the registered hot paths (:data:`HOT_PATHS` — the kernel
step/schedule path, the event primitives, and the message-delivery
path) or in functions/classes explicitly opted in with a
``# repro: hotpath`` marker comment on (or directly above) their
``def``/``class`` line.  Code outside the hot set is never flagged, so
cold configuration code can stay idiomatic.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Sequence

from repro.analysis.framework import (
    Checker,
    Finding,
    Module,
    Rule,
    Severity,
    dotted_name,
)
from repro.analysis.scopes import scoped_roots

#: Opt-in marker: a function or class whose ``def``/``class`` line (or
#: the line directly above it) carries this comment is treated as hot.
_HOTPATH_RE = re.compile(r"#\s*repro:\s*hotpath\b", re.IGNORECASE)

#: The registered hot paths, keyed by posix path suffix.  ``None``
#: scopes the whole module; otherwise the value lists dotted qualname
#: prefixes (``"Environment.step"`` matches that method, a bare class
#: name matches the class and everything in it).
HOT_PATHS: dict[str, Optional[frozenset[str]]] = {
    # The kernel dispatch loop: push, compaction, pop, clock advance,
    # callback fan-out.
    "repro/simcore/environment.py": frozenset(
        {"Environment.schedule", "Environment.compact", "Environment.step",
         "Environment.peek", "Environment.run"}
    ),
    # Event primitives: one object per scheduled occurrence.
    "repro/simcore/events.py": None,
    # Process resumption: one _resume per yield of every process.
    "repro/simcore/process.py": frozenset(
        {"Initialize", "_InterruptEvent", "Process._resume",
         "Process._resume_interrupt"}
    ),
    # Wait-queue grant loops behind every mailbox and scheduler slot.
    "repro/simcore/resources.py": None,
    # Message delivery: one envelope + one mailbox put per message;
    # network.py includes the slotted delivery ring, address.py the
    # endpoint keys hashed on every mailbox/slot probe.
    "repro/net/address.py": None,
    "repro/net/message.py": None,
    "repro/net/network.py": None,
    "repro/net/transport.py": None,
    # Telemetry records: one Span/Mark per completion, at event rate
    # when tracing; the streaming sinks keep only these objects.
    "repro/simcore/tracing.py": frozenset(
        {"Span", "Mark", "TraceContext", "_OpenSpan", "_NullSpan"}
    ),
    # The flight recorder rides every kernel/message/span hook; its
    # records are allocated per observation and its ring push runs at
    # event rate.
    "repro/obs/flightrec.py": frozenset(
        {"KernelRecord", "MessageRecord", "ProtoRecord", "SpanRecord",
         "FlightRing.push", "FlightRecorder.on_schedule",
         "FlightRecorder.on_step", "FlightRecorder._message_op",
         "FlightRecorder.on_send", "FlightRecorder.on_deliver",
         "FlightRecorder.on_drop", "FlightRecorder._local_msg_id"}
    ),
}

#: Base-class names marking a class as an event/message-like record —
#: allocated per simulated occurrence, so it must carry ``__slots__``.
EVENTISH_BASES = frozenset(
    {"Event", "Condition", "Timeout", "BaseRequest", "Message"}
)

#: Class-name suffixes with the same implication as an eventish base.
EVENTISH_NAME = re.compile(r"(Event|Message|Request|Timeout|Span|Mark|Context)$")

#: Wall-clock/entropy call tails (mirrors the det-wallclock set; the
#: perf rule adds the hot-path cost angle and cross-references it).
WALLCLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.sleep",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
}

#: Minimum element count for flagging tuple-literal membership (small
#: tuples are idiomatic and effectively free).
TUPLE_MEMBERSHIP_MIN = 4

#: Times an attribute chain must be read inside one loop to be flagged.
ATTR_LOOP_MIN = 2

_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def hot_roots(module: Module) -> list[ast.AST]:
    """The AST subtrees of ``module`` subject to perf rules.

    Whole-module registry entries return the module tree itself;
    qualname-scoped entries and ``# repro: hotpath`` markers return the
    matching ``def``/``class`` nodes (resolution shared with the
    ``mem-*`` family via :mod:`repro.analysis.scopes`).
    """
    return scoped_roots(module, HOT_PATHS, _HOTPATH_RE)


class PerfChecker(Checker):
    """Flag per-event waste inside the registered hot paths."""

    name = "perf"
    rules = (
        Rule("perf-no-slots",
             "event/message-like class without __slots__; every instance "
             "carries a dict the kernel allocates per event",
             Severity.ERROR),
        Rule("perf-list-pop0",
             "list.pop(0)/insert(0, ...) shifts the whole list; use "
             "collections.deque popleft/appendleft",
             Severity.ERROR),
        Rule("perf-alloc-in-loop",
             "closure/comprehension built once per iteration of a hot "
             "loop; hoist the allocation out of the loop",
             Severity.WARNING),
        Rule("perf-attr-in-loop",
             "attribute chain re-resolved on every iteration of a hot "
             "loop; hoist it to a local before the loop",
             Severity.WARNING),
        Rule("perf-str-concat-loop",
             "string concatenation in a hot loop is quadratic; collect "
             "parts in a list and ''.join once",
             Severity.ERROR),
        Rule("perf-linear-membership",
             "membership test against a list/tuple literal scans "
             "linearly per event; use a set/frozenset constant",
             Severity.WARNING),
        Rule("perf-try-in-loop",
             "try/except inside a hot loop; prefer a pre-checked fast "
             "path or hoist the try outside the loop",
             Severity.WARNING),
        Rule("perf-datetime-wallclock",
             "wall-clock read in simulated-time hot path: a syscall per "
             "event, and a determinism break (see det-wallclock)",
             Severity.ERROR),
    )

    def check(self, module: Module) -> Iterator[Finding]:
        roots = hot_roots(module)
        if not roots:
            return
        for root in roots:
            yield from self._check_classes(module, root)
            yield from self._check_calls(module, root)
            yield from self._check_loops(module, root)

    # -- perf-no-slots -----------------------------------------------------

    def _check_classes(self, module: Module, root: ast.AST) -> Iterator[Finding]:
        for node in ast.walk(root):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._eventish(node):
                continue
            if self._declares_slots(node):
                continue
            is_dataclass, has_slots_kw = self._dataclass_info(node)
            if has_slots_kw:
                continue
            if is_dataclass:
                yield self.finding(
                    module, node, "perf-no-slots",
                    f"dataclass {node.name!r} is allocated per event but "
                    f"carries a __dict__; declare it @dataclass(slots=True)",
                )
            else:
                yield self.finding(
                    module, node, "perf-no-slots",
                    f"class {node.name!r} is event/message-like but defines "
                    f"no __slots__ (a subclass of a slotted base regains a "
                    f"__dict__ unless it declares its own, even empty, "
                    f"__slots__)",
                )

    @staticmethod
    def _eventish(node: ast.ClassDef) -> bool:
        if EVENTISH_NAME.search(node.name):
            return True
        for base in node.bases:
            name = dotted_name(base)
            if name is not None and name.rsplit(".", 1)[-1] in EVENTISH_BASES:
                return True
        return False

    @staticmethod
    def _declares_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        return False

    @staticmethod
    def _dataclass_info(node: ast.ClassDef) -> tuple[bool, bool]:
        """``(is_dataclass, has slots=True keyword)`` for a class."""
        for deco in node.decorator_list:
            call = deco.func if isinstance(deco, ast.Call) else deco
            name = dotted_name(call)
            if name is not None and name.rsplit(".", 1)[-1] == "dataclass":
                if isinstance(deco, ast.Call):
                    for kw in deco.keywords:
                        if (kw.arg == "slots"
                                and isinstance(kw.value, ast.Constant)
                                and kw.value.value is True):
                            return True, True
                return True, False
        return False, False

    # -- call-site rules (fire anywhere in hot scope) ----------------------

    def _check_calls(self, module: Module, root: ast.AST) -> Iterator[Finding]:
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                yield from self._check_pop0(module, node)
                yield from self._check_wallclock(module, node)
            elif isinstance(node, ast.Compare):
                yield from self._check_membership(module, node)

    def _check_pop0(self, module: Module, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        first = node.args[0] if node.args else None
        is_zero = isinstance(first, ast.Constant) and first.value == 0
        if func.attr == "pop" and is_zero:
            yield self.finding(
                module, node, "perf-list-pop0",
                "pop(0) shifts every remaining element; use a "
                "collections.deque and popleft()",
            )
        elif func.attr == "insert" and is_zero:
            yield self.finding(
                module, node, "perf-list-pop0",
                "insert(0, ...) shifts every element; use a "
                "collections.deque and appendleft()",
            )

    def _check_wallclock(self, module: Module, node: ast.Call) -> Iterator[Finding]:
        chain = dotted_name(node.func)
        if chain is None:
            return
        tail2 = ".".join(chain.split(".")[-2:])
        if tail2 in WALLCLOCK_CALLS:
            yield self.finding(
                module, node, "perf-datetime-wallclock",
                f"{chain}() in a simulated-time hot path: a wall-clock "
                f"syscall per event, and nondeterministic (det-wallclock)",
            )

    def _check_membership(
        self, module: Module, node: ast.Compare
    ) -> Iterator[Finding]:
        for op, comparator in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.In, ast.NotIn)):
                continue
            if isinstance(comparator, ast.List):
                yield self.finding(
                    module, comparator, "perf-linear-membership",
                    "membership test against a list literal allocates and "
                    "scans the list per evaluation; use a module-level "
                    "frozenset",
                )
            elif (isinstance(comparator, ast.Tuple)
                    and len(comparator.elts) >= TUPLE_MEMBERSHIP_MIN):
                yield self.finding(
                    module, comparator, "perf-linear-membership",
                    f"membership test against a {len(comparator.elts)}-"
                    f"element tuple scans linearly; use a module-level "
                    f"frozenset",
                )

    # -- loop rules --------------------------------------------------------

    def _check_loops(self, module: Module, root: ast.AST) -> Iterator[Finding]:
        for node in ast.walk(root):
            if isinstance(node, (ast.For, ast.While)):
                yield from self._check_one_loop(module, node)

    def _loop_scope(self, loop: "ast.For | ast.While") -> list[ast.stmt]:
        """Statements executed once per iteration (excludes For.iter)."""
        return list(loop.body)

    def _check_one_loop(
        self, module: Module, loop: "ast.For | ast.While"
    ) -> Iterator[Finding]:
        body = self._loop_scope(loop)
        # The While test runs first each iteration, so it leads the
        # per-iteration node order (findings anchor on first occurrence).
        per_iter: list[ast.AST] = list(body)
        if isinstance(loop, ast.While):
            per_iter.insert(0, loop.test)

        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Try):
                    yield self.finding(
                        module, node, "perf-try-in-loop",
                        "try/except set up on every iteration of a hot "
                        "loop; restructure with a pre-checked fast path or "
                        "move the try outside the loop",
                    )
                elif isinstance(node, ast.Lambda):
                    yield self.finding(
                        module, node, "perf-alloc-in-loop",
                        "lambda allocated per iteration of a hot loop; "
                        "hoist it (or the bound method it wraps) to a local",
                    )
                elif isinstance(node, _FuncDef):
                    yield self.finding(
                        module, node, "perf-alloc-in-loop",
                        f"closure {node.name!r} defined per iteration of a "
                        f"hot loop; define it once outside",
                    )
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    kind = type(node).__name__
                    yield self.finding(
                        module, node, "perf-alloc-in-loop",
                        f"{kind} allocated per iteration of a hot loop; "
                        f"hoist or fuse it into the loop",
                    )
                yield from self._check_str_concat(module, node)

        yield from self._check_attr_chains(module, loop, per_iter)

    def _check_str_concat(self, module: Module, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            if self._stringish(node.value):
                yield self.finding(
                    module, node, "perf-str-concat-loop",
                    "string += in a hot loop copies the accumulator each "
                    "time; append parts to a list and ''.join after",
                )
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = dotted_name(node.targets[0])
            value = node.value
            if (target is not None and isinstance(value, ast.BinOp)
                    and isinstance(value.op, ast.Add)
                    and dotted_name(value.left) == target
                    and self._stringish(value.right)):
                yield self.finding(
                    module, node, "perf-str-concat-loop",
                    f"{target} = {target} + ... string build in a hot loop "
                    f"is quadratic; append to a list and ''.join after",
                )

    @staticmethod
    def _stringish(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, str)
        if isinstance(node, ast.JoinedStr):
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return (PerfChecker._stringish(node.left)
                    or PerfChecker._stringish(node.right))
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name == "str" or (name or "").endswith(".format")
        return False

    # -- perf-attr-in-loop -------------------------------------------------

    def _check_attr_chains(
        self,
        module: Module,
        loop: "ast.For | ast.While",
        per_iter: Sequence[ast.AST],
    ) -> Iterator[Finding]:
        rebound = self._rebound_roots(loop)
        stored = self._stored_chains(loop)
        counts: dict[str, list[ast.Attribute]] = {}

        def collect(node: ast.AST, in_handler: bool) -> None:
            if isinstance(node, (ast.For, ast.While)) and node is not loop:
                return  # nested loops are analyzed on their own
            if isinstance(node, ast.ExceptHandler):
                in_handler = True
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and not in_handler):
                chain = dotted_name(node)
                if chain is not None:
                    parts = chain.split(".")
                    if parts[0] not in rebound:
                        # Resolving a.b.c also resolves a.b: credit every
                        # dotted prefix, stopping at the first one whose
                        # binding the loop itself mutates.
                        for i in range(2, len(parts) + 1):
                            prefix = ".".join(parts[:i])
                            if prefix in stored:
                                break
                            counts.setdefault(prefix, []).append(node)
                    return  # outermost chain only; skip inner attributes
            for child in ast.iter_child_nodes(node):
                collect(child, in_handler)

        for node in per_iter:
            collect(node, False)

        flagged: list[str] = []
        for chain in sorted(counts):
            sites = counts[chain]
            if len(sites) < ATTR_LOOP_MIN:
                continue
            # Flag the shortest hoistable chain only: hoisting it already
            # removes the repeated resolution its extensions share.
            if any(chain.startswith(prev + ".") for prev in flagged):
                continue
            flagged.append(chain)
            yield self.finding(
                module, sites[0], "perf-attr-in-loop",
                f"{chain!r} is resolved {len(sites)} times inside this "
                f"loop; hoist it to a local before the loop",
            )

    @staticmethod
    def _rebound_roots(loop: ast.AST) -> set[str]:
        """Names assigned anywhere in the loop (hoisting them is unsafe)."""
        rebound: set[str] = set()
        for node in ast.walk(loop):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                rebound.add(node.id)
        return rebound

    @staticmethod
    def _stored_chains(loop: ast.AST) -> set[str]:
        """Attribute chains written in the loop (the binding changes)."""
        stored: set[str] = set()
        for node in ast.walk(loop):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                chain = dotted_name(node)
                if chain is not None:
                    stored.add(chain)
        return stored
