"""Trace queries: tree assembly, validation, critical path.

A trace is just a list of :class:`~repro.simcore.tracing.Span` — these
functions reconstruct the causal forest from the ``trace_id`` /
``span_id`` / ``parent_id`` triples and answer the questions the
experiments (and the ``python -m repro.obs`` CLI) ask of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.simcore.tracing import Span


@dataclass
class SpanNode:
    """One span plus its causal children, start-ordered."""

    span: Span
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.span.name

    def walk(self) -> list["SpanNode"]:
        """This node and every descendant, depth-first."""
        nodes = [self]
        for child in self.children:
            nodes.extend(child.walk())
        return nodes


def _sort_key(span: Span) -> tuple:
    return (span.start, span.end, span.name, span.span_id or 0)


def build_forest(spans: Sequence[Span]) -> list[SpanNode]:
    """Assemble spans into causal trees; returns start-ordered roots.

    A span whose parent is absent from ``spans`` (or that carries no
    ids at all) becomes a root of its own.
    """
    nodes: dict[tuple, SpanNode] = {}
    keyed: list[tuple[Optional[tuple], SpanNode]] = []
    for span in spans:
        node = SpanNode(span)
        if span.trace_id is not None and span.span_id is not None:
            nodes[(span.trace_id, span.span_id)] = node
        keyed.append((None, node))

    roots: list[SpanNode] = []
    for _, node in keyed:
        span = node.span
        parent = (
            nodes.get((span.trace_id, span.parent_id))
            if span.trace_id is not None and span.parent_id is not None
            else None
        )
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: _sort_key(n.span))
    roots.sort(key=lambda n: _sort_key(n.span))
    return roots


def trace_ids(spans: Sequence[Span]) -> list[str]:
    """Distinct trace ids, in first-span-start order."""
    seen: dict[str, float] = {}
    for span in spans:
        if span.trace_id is None:
            continue
        if span.trace_id not in seen or span.start < seen[span.trace_id]:
            seen[span.trace_id] = span.start
    return sorted(seen, key=lambda tid: (seen[tid], tid))


def tree(spans: Sequence[Span], trace_id: str) -> list[SpanNode]:
    """Roots of one trace's causal tree (normally exactly one)."""
    return build_forest([s for s in spans if s.trace_id == trace_id])


def parentage(spans: Sequence[Span]) -> tuple[int, int]:
    """(linked, total): spans whose parent chain reaches a root span.

    A span counts as *linked* when it is itself a root (no
    ``parent_id``) or every hop of its ``parent_id`` chain resolves to
    a recorded span.  The acceptance bar for an instrumented run is
    ≥ 95 % linked.
    """
    index = {
        (s.trace_id, s.span_id): s
        for s in spans
        if s.trace_id is not None and s.span_id is not None
    }
    total = len(list(spans))
    linked = 0
    for span in spans:
        if span.trace_id is None or span.span_id is None:
            continue  # unlinked by construction
        ok = True
        hops = 0
        current = span
        while current.parent_id is not None:
            parent = index.get((current.trace_id, current.parent_id))
            hops += 1
            if parent is None or hops > len(index):
                ok = False
                break
            current = parent
        if ok:
            linked += 1
    return linked, total


def critical_path(root: SpanNode) -> list[SpanNode]:
    """The chain of spans ending latest under ``root``.

    Greedy walk: from each node descend into the child with the
    greatest end time.  For the co-allocation trace this is the
    submit → fork → startup chain that gated the barrier release.
    """
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda n: (n.span.end, _sort_key(n.span)))
        path.append(node)
    return path
