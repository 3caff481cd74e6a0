"""Walks over immutable trees, on explicit stacks."""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

N = TypeVar("N")
V = TypeVar("V")


def fold(root: N, kids: Callable[[N], Sequence[N]], combine: Callable[[N, list], V]) -> V:
    """`combine(node, values)` at `root`, where `values` are the folds of node's children.

    `kids` is called on each node in pre-order, left to right, and `combine`
    on each node after its children, in the reverse of that order. The walk
    runs on an explicit stack and stores nothing on the nodes: a subtree
    shared between several places is folded once per place it appears.
    """
    return refold(unfold(root, kids), combine)


def unfold(root: N, kids: Callable[[N], Sequence[N]]) -> list[tuple[N, int]]:
    """Each node of the tree at `root` with its number of children, in pre-order, left to
    right, from an explicit stack: a flat list, which also pickles at any depth."""
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        sub = kids(node)
        order.append((node, len(sub)))
        stack.extend(reversed(sub))
    return order


def refold(order: list[tuple[N, int]], combine: Callable[[N, list], V]) -> V:
    """`combine(item, values)` over an `unfold` list of (item, child count), children first."""
    values: list = []  # folds waiting for their parent; a node's children on top, leftmost last
    for node, n in reversed(order):
        done = values[:-n - 1:-1]
        del values[len(values) - n:]
        values.append(combine(node, done))
    return values[0]


def post_order(root: N, kids: Callable[[N], Sequence[N]]) -> list[tuple[tuple[int, ...], N]]:
    """Every node with its path of child indices, children first, left to right.

    Popping the last child first lists each node before its children, right
    to left; that order reversed is the post-order. The walk runs on an
    explicit stack, so tree depth never meets the recursion limit.
    """
    out = []
    stack = [((), root)]
    while stack:
        at, node = stack.pop()
        out.append((at, node))
        for k, c in enumerate(kids(node)):
            stack.append((at + (k,), c))
    out.reverse()
    return out
