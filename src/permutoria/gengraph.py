"""Generating trees, class discovery and weighted generating graphs.

A generating graph is the quotient of the generating tree by equivalence of
(truncated) subtrees: classes are discovered by fingerprinting each node's
subtree to a fixed depth and cutting recursion at already-seen fingerprints.
The result is always a *candidate*, correct by construction only to the
explored horizon; ``validate_graph`` compares its weighted walk counts with
the brute-force tables and is the epistemic ceiling of the whole module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .errors import InvalidWalk
from .limits import DEFAULT_LIMITS, Limits, enforce
from .counting import count_avoiders, extended_table
from .permcore import (
    ZERO,
    EdgeKind,
    ParentRule,
    PartialPermutation,
    PatternSet,
    children_with_kinds,
)
from .series import MultiSeries, Orders, catalan_series

KIND_VARIABLE = {"dot": "x", "column": "y", "row": "z"}
KIND_STYLE = {"dot": "solid", "column": "dashed", "row": "dotted"}


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    kind: EdgeKind
    weight: int


@dataclass(frozen=True)
class GeneratingGraph:
    """Weighted typed digraph of subtree-equivalence classes.

    ``complete[i]`` says whether the outgoing edges of class i are known.
    Incomplete classes carry no out-edges: they are the frontier of a
    truncated graph, and ``walk_series`` refuses to walk out of them inside
    its order budget.
    """

    classes: tuple[str, ...]
    root: int
    edges: tuple[Edge, ...]
    complete: tuple[bool, ...]

    @property
    def sinks(self) -> frozenset[int]:
        """Childless classes (drawn as blocked arrows)."""
        with_out = {e.src for e in self.edges}
        return frozenset(
            i for i in range(len(self.classes)) if i not in with_out and self.complete[i]
        )

    # -- serialization -------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "classes": list(self.classes),
                "root": self.root,
                "edges": [
                    {"from": e.src, "to": e.dst, "kind": e.kind, "weight": e.weight}
                    for e in self.edges
                ],
                "complete": list(self.complete),
            },
            indent=None,
        )

    @classmethod
    def from_json(cls, text: str) -> "GeneratingGraph":
        """Inverse of to_json; a document without ``complete`` marks every
        class complete."""
        obj = json.loads(text)
        edges = tuple(
            Edge(e["from"], e["to"], e["kind"], e["weight"]) for e in obj["edges"]
        )
        complete = obj.get("complete", [True] * len(obj["classes"]))
        return cls(tuple(obj["classes"]), obj["root"], edges, tuple(bool(c) for c in complete))

    def to_dot(self) -> str:
        lines = ["digraph generating_graph {", "  rankdir=LR;"]
        for i, name in enumerate(self.classes):
            shape = "doublecircle" if i == self.root else "circle"
            lines.append(f'  n{i} [label="{name}" shape={shape}];')
        for i in self.sinks:
            lines.append(f"  blocked{i} [shape=point label=\"\"];")
            lines.append(f"  n{i} -> blocked{i} [style=solid arrowhead=tee];")
        for e in self.edges:
            label = f' label="{e.weight}"' if e.weight != 1 else ""
            lines.append(
                f"  n{e.src} -> n{e.dst} [style={KIND_STYLE[e.kind]}{label}];"
            )
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# trees and fingerprints


@dataclass(frozen=True)
class TreeNode:
    obj: PartialPermutation
    children: tuple[tuple[EdgeKind, "TreeNode"], ...]


def build_tree(
    patterns: PatternSet,
    rule: ParentRule,
    depth: int,
    limits: Limits = DEFAULT_LIMITS,
    root: PartialPermutation = ZERO,
) -> TreeNode:
    """The generating tree of extendably avoiding objects, to the given depth."""
    enforce(limits, "tree_depth", "depth", depth)

    def grow(obj: PartialPermutation, remaining: int) -> TreeNode:
        if remaining == 0:
            return TreeNode(obj, ())
        kids = tuple(
            (kind, grow(child, remaining - 1))
            for kind, child in children_with_kinds(obj, rule, patterns)
        )
        return TreeNode(obj, kids)

    return grow(root, depth)


def level_sizes(tree: TreeNode) -> list[int]:
    sizes: list[int] = []

    def walk(node: TreeNode, depth: int):
        if depth == len(sizes):
            sizes.append(0)
        sizes[depth] += 1
        for _, child in node.children:
            walk(child, depth + 1)

    walk(tree, 0)
    return sizes


Fingerprint = tuple


@lru_cache(maxsize=1 << 16)
def fingerprint(
    obj: PartialPermutation, patterns: PatternSet, rule: ParentRule, depth: int
) -> Fingerprint:
    """Canonical form of the depth-limited subtree, edge kinds included.

    Children are sorted by (kind, recursive form), so equal fingerprints are
    exactly isomorphisms of edge-labeled rooted trees.
    """
    if depth == 0:
        return ()
    kids = children_with_kinds(obj, rule, patterns)
    return tuple(
        sorted((kind, fingerprint(child, patterns, rule, depth - 1)) for kind, child in kids)
    )


def truncate_fingerprint(fp: Fingerprint, depth: int) -> Fingerprint:
    if depth == 0:
        return ()
    return tuple(sorted((kind, truncate_fingerprint(sub, depth - 1)) for kind, sub in fp))


@dataclass
class Classifier:
    """Discovery context: maps objects to class indices via fingerprints."""

    patterns: PatternSet
    rule: ParentRule
    fp_depth: int
    by_fingerprint: dict[Fingerprint, int] = field(default_factory=dict)
    representatives: list[PartialPermutation] = field(default_factory=list)
    _sep_depth: int | None = None
    _by_truncated: dict[Fingerprint, int] | None = None

    def classify(self, obj: PartialPermutation) -> int | None:
        """Class index, using the smallest depth that separates the classes.

        Cheaper than the full discovery depth: fingerprinting to depth t
        explores subtrees only t levels deep.
        """
        depth, table = self._separating()
        fp = fingerprint(obj, self.patterns, self.rule, depth)
        return table.get(fp)

    def _separating(self) -> tuple[int, dict[Fingerprint, int]]:
        if self._sep_depth is None:
            full = list(self.by_fingerprint.items())
            depth = self.fp_depth
            for t in range(1, self.fp_depth + 1):
                truncated = {truncate_fingerprint(fp, t) for fp, _ in full}
                if len(truncated) == len(full):
                    depth = t
                    break
            self._sep_depth = depth
            self._by_truncated = {
                truncate_fingerprint(fp, depth): idx for fp, idx in full
            }
        return self._sep_depth, self._by_truncated

    def classify_or_add(self, obj: PartialPermutation) -> tuple[int, bool]:
        fp = fingerprint(obj, self.patterns, self.rule, self.fp_depth)
        idx = self.by_fingerprint.get(fp)
        if idx is not None:
            return idx, False
        idx = len(self.by_fingerprint)
        self.by_fingerprint[fp] = idx
        self.representatives.append(obj)
        self._sep_depth = None
        return idx, True


def discover_graph(
    patterns: PatternSet,
    rule: ParentRule = "standard-extended",
    depth: int = 7,
    fp_depth: int = 4,
    limits: Limits = DEFAULT_LIMITS,
    naive: bool = False,
) -> tuple[GeneratingGraph, Classifier]:
    """Candidate generating graph via subtree fingerprints.

    The fast algorithm cuts recursion at already-seen fingerprints; the
    naive one walks the whole tree to the given depth and additionally
    asserts that equal fingerprints imply equal outgoing class profiles.
    """
    if depth < 0 or fp_depth < 1:
        raise ValueError(f"need depth >= 0 and fp_depth >= 1, got {depth} and {fp_depth}")
    enforce(limits, "tree_depth", "depth", depth)
    # a fingerprint looks fp_depth levels below a class found at depth
    enforce(limits, "tree_depth", "depth + fingerprint depth", depth + fp_depth)
    cls = Classifier(patterns, rule, fp_depth)
    edge_weights: dict[tuple[int, int, EdgeKind], int] = {}
    complete: dict[int, bool] = {}

    def record_edges(idx: int, kids: list[tuple[EdgeKind, PartialPermutation]]) -> list[tuple[int, bool, PartialPermutation]]:
        found = []
        for kind, child in kids:
            cidx, new = cls.classify_or_add(child)
            key = (idx, cidx, kind)
            edge_weights[key] = edge_weights.get(key, 0) + 1
            found.append((cidx, new, child))
        return found

    if not naive:
        # level order: a class's discovery level is then its distance from
        # the root, an isomorphism invariant, so truncated candidates of
        # graph-equivalent pattern sets stay isomorphic
        root_idx, _ = cls.classify_or_add(ZERO)
        frontier: list[tuple[PartialPermutation, int]] = [(ZERO, root_idx)]
        level = 0
        while frontier and level < depth:
            nxt_frontier: list[tuple[PartialPermutation, int]] = []
            for obj, idx in frontier:
                complete[idx] = True
                kids = children_with_kinds(obj, rule, patterns)
                for cidx, new, child in record_edges(idx, kids):
                    if new:
                        nxt_frontier.append((child, cidx))
            frontier = nxt_frontier
            level += 1
        for _, idx in frontier:
            complete[idx] = False
    else:
        profiles: dict[int, tuple] = {}

        def visit(obj: PartialPermutation, level: int) -> int:
            idx, new = cls.classify_or_add(obj)
            if level >= depth:
                complete.setdefault(idx, False)
                return idx
            kids = children_with_kinds(obj, rule, patterns)
            profile = []
            for kind, child in kids:
                cidx = visit(child, level + 1)
                profile.append((kind, cidx))
            profile = tuple(sorted(profile))
            if idx in profiles:
                if profiles[idx] != profile:
                    raise AssertionError(
                        f"fingerprint collision: class {idx} has two outgoing profiles"
                    )
            else:
                profiles[idx] = profile
                complete[idx] = True
                for kind, cidx in profile:
                    key = (idx, cidx, kind)
                    edge_weights[key] = edge_weights.get(key, 0) + 1
            return idx

        visit(ZERO, 0)

    n = len(cls.representatives)
    names = tuple(
        f"v{i}[{cls.representatives[i].to_text() or 'zero'}]" for i in range(n)
    )
    edges = tuple(
        Edge(src, dst, kind, w)
        for (src, dst, kind), w in sorted(edge_weights.items(), key=lambda kv: kv[0])
    )
    graph = GeneratingGraph(
        names, 0, edges, tuple(complete.get(i, False) for i in range(n))
    )
    return graph, cls


def discovery_is_stable(
    patterns: PatternSet,
    rule: ParentRule,
    depth: int,
    fp_depth: int,
    limits: Limits = DEFAULT_LIMITS,
) -> bool:
    """True iff raising the fingerprint depth by one or two creates no new
    classes."""
    base, _ = discover_graph(patterns, rule, depth, fp_depth, limits)
    for bump in (1, 2):
        nxt, _ = discover_graph(patterns, rule, depth, fp_depth + bump, limits)
        if len(nxt.classes) != len(base.classes):
            return False
    return True


# ---------------------------------------------------------------------------
# weighted walk counting


def walk_series(
    graph: GeneratingGraph, orders: Orders, max_total: int | None = None
) -> MultiSeries:
    """Sum over root walks of the product of edge-kind variables, truncated.

    Walks may stop at any class.  Propagation out of a class with unknown
    edges inside the budget is an error: the truncated graph cannot answer
    at that order.  ``max_total`` caps the total walk length (default: the
    sum of the per-variable orders).
    """
    kx, ky, kz = orders
    if max_total is None:
        max_total = kx + ky + kz
    out: dict[int, list[Edge]] = {i: [] for i in range(len(graph.classes))}
    for e in graph.edges:
        out[e.src].append(e)
    current: dict[int, dict[tuple[int, int, int], int]] = {
        graph.root: {(0, 0, 0): 1}
    }
    total: dict[tuple[int, int, int], int] = {}
    for step in range(max_total + 1):
        nxt: dict[int, dict[tuple[int, int, int], int]] = {}
        for cls_idx, monos in current.items():
            for mono, cnt in monos.items():
                total[mono] = total.get(mono, 0) + cnt
            if not graph.complete[cls_idx]:
                if step < max_total and any(
                    sum(m) < max_total for m in monos
                ):
                    raise InvalidWalk(
                        f"class {graph.classes[cls_idx]} reached inside the order "
                        "budget but its edges are unknown; deepen the discovery"
                    )
                continue
            for e in out[cls_idx]:
                di = "xyz".index(KIND_VARIABLE[e.kind])
                for (a, b, c), cnt in monos.items():
                    m2 = (a + (di == 0), b + (di == 1), c + (di == 2))
                    if m2[0] > kx or m2[1] > ky or m2[2] > kz:
                        continue
                    nxt.setdefault(e.dst, {})
                    nxt[e.dst][m2] = nxt[e.dst].get(m2, 0) + cnt * e.weight
        current = nxt
        if not current:
            break
    return MultiSeries.from_table(total, orders)


def validate_graph(
    graph: GeneratingGraph,
    patterns: PatternSet,
    rule: ParentRule,
    horizon: int,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[bool, tuple | None]:
    """Compare weighted walk counts with brute force up to the horizon.

    Standard rule: by permutation size.  Extended rules: by (d, c, r)
    multidegree.  Returns (ok, first discrepancy or None).
    """
    if rule == "standard":
        series = walk_series(graph, (horizon, 0, 0))
        for n in range(horizon + 1):
            expected = count_avoiders(n, patterns, limits)
            got = series[(n, 0, 0)]
            if got != expected:
                return False, (n, got, expected)
        return True, None
    series = walk_series(graph, (horizon, horizon, horizon), max_total=horizon)
    cells = extended_table(patterns, horizon, limits)
    for total in range(horizon + 1):
        for d in range(total + 1):
            for c in range(total - d + 1):
                r = total - d - c
                expected = cells.get((d, c, r), 0)
                got = series[(d, c, r)]
                if got != expected:
                    return False, ((d, c, r), got, expected)
    return True, None


# ---------------------------------------------------------------------------
# rooted graph isomorphism


def _refined_signatures(g: GeneratingGraph) -> list[str]:
    """Iterated in/out degree-profile refinement, stable string labels."""
    n = len(g.classes)
    sig = [repr((g.complete[i], i == g.root)) for i in range(n)]
    for _ in range(n):
        nxt = []
        for i in range(n):
            outs = sorted((e.kind, e.weight, sig[e.dst]) for e in g.edges if e.src == i)
            ins = sorted((e.kind, e.weight, sig[e.src]) for e in g.edges if e.dst == i)
            nxt.append(repr((sig[i], outs, ins)))
        # relabel to keep strings short between rounds
        palette = {s: f"s{k}" for k, s in enumerate(sorted(set(nxt)))}
        nxt = [palette[s] for s in nxt]
        if len(set(nxt)) == len(set(sig)):
            return nxt
        sig = nxt
    return sig


def graph_isomorphic(
    g1: GeneratingGraph, g2: GeneratingGraph
) -> tuple[bool, dict[int, int] | None]:
    """Rooted, kind- and weight-preserving digraph isomorphism.

    Backtracking over signature-compatible assignments with incremental
    edge consistency; the graphs here have at most a few dozen classes.
    """
    n = len(g1.classes)
    if n != len(g2.classes) or len(g1.edges) != len(g2.edges):
        return False, None
    sig1, sig2 = _refined_signatures(g1), _refined_signatures(g2)
    if sorted(sig1) != sorted(sig2):
        return False, None

    def edge_map(g: GeneratingGraph) -> dict[tuple[int, int], tuple]:
        table: dict[tuple[int, int], list] = {}
        for e in g.edges:
            table.setdefault((e.src, e.dst), []).append((e.kind, e.weight))
        return {k: tuple(sorted(v)) for k, v in table.items()}

    em1, em2 = edge_map(g1), edge_map(g2)

    # rarest signatures first, root pinned up front
    order = sorted(range(n), key=lambda i: (i != g1.root, sig1.count(sig1[i]), i))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(i: int, j: int) -> bool:
        for i2, j2 in mapping.items():
            if em1.get((i, i2)) != em2.get((j, j2)):
                return False
            if em1.get((i2, i)) != em2.get((j2, j)):
                return False
        return em1.get((i, i)) == em2.get((j, j))

    def assign(pos: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        candidates = [g2.root] if i == g1.root else range(n)
        for j in candidates:
            if j in used or sig1[i] != sig2[j]:
                continue
            mapping[i] = j
            used.add(j)
            if consistent(i, j) and assign(pos + 1):
                return True
            del mapping[i]
            used.discard(j)
        return False

    if assign(0):
        return True, dict(mapping)
    return False, None


# ---------------------------------------------------------------------------
# walk encodings of objects


Walk = tuple[tuple[EdgeKind, int, int], ...]  # (kind, dst class, index among same)


def _path_from_root(obj: PartialPermutation, rule: ParentRule) -> list[PartialPermutation]:
    from .permcore import parent

    path = [obj]
    while not path[-1].is_zero():
        path.append(parent(path[-1], rule))
    path.reverse()
    return path


def walk_encode(
    obj: PartialPermutation,
    classifier: Classifier,
    iso: dict[int, int] | None = None,
) -> Walk:
    """Root walk of an object, using the canonical child order.

    Parallel edges (weight > 1) are disambiguated by the index among the
    current node's children with the same kind and target class.  ``iso``
    optionally translates class indices into another isomorphic graph.
    """
    rule, patterns = classifier.rule, classifier.patterns
    steps = []
    path = _path_from_root(obj, rule)
    for node, nxt in zip(path, path[1:]):
        kids = children_with_kinds(node, rule, patterns)
        index = 0
        found = False
        nxt_cls = classifier.classify(nxt)
        if nxt_cls is None:
            raise InvalidWalk(f"object {nxt.to_text()!r} is outside the discovered horizon")
        for kind, child in kids:
            child_cls = classifier.classify(child)
            if kind != _step_kind(node, nxt) or child_cls != nxt_cls:
                continue
            if child == nxt:
                dst = iso[nxt_cls] if iso else nxt_cls
                steps.append((kind, dst, index))
                found = True
                break
            index += 1
        if not found:
            raise InvalidWalk(f"{nxt.to_text()!r} is not a child of {node.to_text()!r}")
    return tuple(steps)


def _step_kind(parent_obj: PartialPermutation, child_obj: PartialPermutation) -> EdgeKind:
    if child_obj.d == parent_obj.d + 1:
        return "dot"
    if child_obj.cols == parent_obj.cols + 1:
        return "column"
    return "row"


def walk_decode(walk: Walk, classifier: Classifier) -> PartialPermutation:
    """Inverse of walk_encode: follow the steps through the canonical order."""
    rule, patterns = classifier.rule, classifier.patterns
    node = ZERO
    for kind, dst, index in walk:
        kids = children_with_kinds(node, rule, patterns)
        matches = [
            child
            for k, child in kids
            if k == kind and classifier.classify(child) == dst
        ]
        if index >= len(matches):
            raise InvalidWalk(f"no child #{index} of kind {kind} toward class {dst}")
        node = matches[index]
    return node


# ---------------------------------------------------------------------------
# ladder gadgets


def _ladder_dp(
    feeders: Sequence[MultiSeries],
    order: int,
    k: int,
    feed_at_or_below: bool,
    climb_one: bool,
) -> MultiSeries:
    """Walk counts ending at level k of a descent ladder.

    Levels m >= 1; an edge goes from level m to every level <= m (plus
    m+1 when climb_one is set), each step contributing one factor of x.
    Feeder series enter either at every level at or below their index or
    only at their own level.
    """
    orders = (order, 0, 0)
    height = max(len(feeders) + 1, k + 1)
    if climb_one:
        height += order + 1
    x = MultiSeries.variable("x", orders)
    zero = MultiSeries.zero(orders)

    def feeder(j: int) -> MultiSeries:
        return feeders[j] if j < len(feeders) else zero

    levels = list(range(1, height + 1))
    b = {i: zero for i in levels}
    for _ in range(order + 1):
        newb = {}
        for i in levels:
            if feed_at_or_below:
                inflow = sum((feeder(j) for j in range(i, len(feeders))), zero)
            else:
                inflow = feeder(i)
            upper = max(i - 1, 1) if climb_one else i
            ladder = sum((b[m] for m in levels if m >= upper), zero)
            newb[i] = x * (inflow + ladder)
        b = newb
    return b[k]


def lemma_walk_check(
    lemma: str, k: int, feeders: Sequence[MultiSeries], order: int
) -> tuple[bool, MultiSeries, MultiSeries]:
    """DP walk counts on a ladder gadget versus its closed form.

    Gadgets: 'descent-all' has edges m -> i for i <= m with feeders
    entering every level at or below their index; 'descent-own' is the same
    ladder with feeders entering only at their own level; 'catalan-ladder'
    additionally allows climbing one level per step.
    """
    orders = (order, 0, 0)
    one = MultiSeries.constant(1, orders)
    x = MultiSeries.variable("x", orders)
    geom = one / (one - x)
    zero = MultiSeries.zero(orders)

    def feeder(j: int) -> MultiSeries:
        return feeders[j] if j < len(feeders) else zero

    if lemma == "descent-all":
        dp = _ladder_dp(feeders, order, k, True, False)
        closed = zero
        for j in range(len(feeders)):
            closed = closed + feeder(j + k) * (geom**j)
        closed = x * geom * closed
    elif lemma == "descent-own":
        dp = _ladder_dp(feeders, order, k, False, False)
        tail = zero
        for i in range(len(feeders)):
            tail = tail + feeder(i + k + 1) * (geom**i)
        closed = x * geom * feeder(k) + (x * geom) ** 2 * tail
    elif lemma == "catalan-ladder":
        dp = _ladder_dp(feeders, order, k, True, True)
        c = catalan_series(orders)
        closed = zero
        for m in range(k):
            inner = zero
            for i in range(len(feeders)):
                if k + i - m >= 0:
                    inner = inner + feeder(k + i - m) * (c**i)
            closed = closed + (x * c) ** (m + 1) * inner
    else:
        raise ValueError(f"unknown gadget {lemma!r}")
    return dp == closed, dp, closed


# ---------------------------------------------------------------------------
# catalog graphs


def catalan_graph(num_classes: int) -> GeneratingGraph:
    """Classes a_1..a_K with a_k -> a_j for 2 <= j <= min(k+1, K) and k < K,
    all dot edges.

    The truncation point a_K is incomplete and, like every incomplete
    class, has no out-edges, so walk counting stays sound and the graph
    matches what ``discover_graph`` finds for a length-3 class.
    """
    edges = []
    for kk in range(1, num_classes):
        for j in range(2, min(kk + 1, num_classes) + 1):
            edges.append(Edge(kk - 1, j - 1, "dot", 1))
    complete = [True] * num_classes
    if num_classes:
        complete[-1] = False
    names = tuple(f"a{kk}" for kk in range(1, num_classes + 1))
    return GeneratingGraph(names, 0, tuple(edges), tuple(complete))


def even_fibonacci_graph() -> GeneratingGraph:
    """The three-class graph whose walk counts are 1, 1, 2, 5, 13, 34, ..."""
    edges = (
        Edge(0, 1, "dot", 1),
        Edge(1, 1, "dot", 1),
        Edge(1, 2, "dot", 1),
        Edge(2, 1, "dot", 1),
        Edge(2, 2, "dot", 2),
    )
    return GeneratingGraph(("a1", "a2", "a3"), 0, edges, (True, True, True))
