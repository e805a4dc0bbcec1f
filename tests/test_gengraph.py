import pytest

from permutoria import counting as ct
from permutoria import gengraph as gg
from permutoria.errors import InvalidWalk, LimitExceeded
from permutoria.limits import Limits
from permutoria.permcore import PatternSet
from permutoria.series import MultiSeries

L = Limits(enumeration=11, da=14, extended=10, tree_depth=12)


class TestTrees:
    def test_catalan_levels(self):
        tree = gg.build_tree(PatternSet.parse("123"), "standard", 5, L)
        assert gg.level_sizes(tree) == [1, 1, 2, 5, 14, 42]

    def test_fibonacci_levels(self):
        tree = gg.build_tree(PatternSet.parse("213,4123"), "standard", 5, L)
        assert gg.level_sizes(tree) == [1, 1, 2, 5, 13, 34]

    def test_depth_zero(self):
        tree = gg.build_tree(PatternSet.parse("123"), "standard", 0, L)
        assert gg.level_sizes(tree) == [1]


class TestDiscovery:
    def test_catalan_graph_standard(self):
        g, _ = gg.discover_graph(PatternSet.parse("123"), "standard", 7, 4, L)
        ok, disc = gg.validate_graph(g, PatternSet.parse("123"), "standard", 7, L)
        assert ok, disc
        iso, _ = gg.graph_isomorphic(g, gg.catalan_graph(len(g.classes)))
        assert iso, "discovered graph should be the catalog ladder"

    def test_all_length3_share_succession(self):
        base, _ = gg.discover_graph(PatternSet.parse("123"), "standard", 6, 4, L)
        for pat in ("132", "213", "231", "312", "321"):
            g, _ = gg.discover_graph(PatternSet.parse(pat), "standard", 6, 4, L)
            assert gg.graph_isomorphic(base, g)[0]

    def test_fibonacci_three_classes(self):
        g, _ = gg.discover_graph(PatternSet.parse("213,4123"), "standard", 8, 4, L)
        assert len(g.classes) == 3
        assert gg.graph_isomorphic(g, gg.even_fibonacci_graph())[0]

    def test_naive_agrees_with_fast(self):
        for pat, rule in (("213,4123", "standard"), ("123,132,312", "standard-extended")):
            fast, _ = gg.discover_graph(PatternSet.parse(pat), rule, 5, 3, L)
            naive, _ = gg.discover_graph(PatternSet.parse(pat), rule, 5, 3, L, naive=True)
            assert gg.graph_isomorphic(fast, naive)[0]

    def test_finite_graph_with_blocked_sink(self):
        g, _ = gg.discover_graph(
            PatternSet.parse("123,132,312"), "standard-extended", 6, 4, L
        )
        assert g.sinks, "expected a childless class"
        ok, disc = gg.validate_graph(
            g, PatternSet.parse("123,132,312"), "standard-extended", 6, L
        )
        assert ok, disc

    @pytest.mark.parametrize("depth,fp_depth", [(2, -1), (2, 0), (-1, 4)])
    def test_rejects_degenerate_depths(self, depth, fp_depth):
        with pytest.raises(ValueError):
            gg.discover_graph(PatternSet.parse("123"), "standard-extended", depth, fp_depth, L)

    def test_fingerprint_depth_counts_toward_the_tree_depth(self):
        # fingerprints look fp_depth levels below the deepest class
        with pytest.raises(LimitExceeded, match="depth \\+ fingerprint depth=13 exceeds"):
            gg.discover_graph(PatternSet.parse("123"), "standard", 1, 12, L)

    def test_stability(self):
        assert gg.discovery_is_stable(PatternSet.parse("213,4123"), "standard", 6, 4, L)

    def test_extended_validation(self):
        g, _ = gg.discover_graph(PatternSet.parse("132"), "standard-extended", 6, 4, L)
        ok, disc = gg.validate_graph(g, PatternSet.parse("132"), "standard-extended", 6, L)
        assert ok, disc

    def test_perturbed_graph_fails_validation(self):
        g, _ = gg.discover_graph(PatternSet.parse("213,4123"), "standard", 8, 4, L)
        bumped = list(g.edges)
        bumped[-1] = gg.Edge(bumped[-1].src, bumped[-1].dst, bumped[-1].kind, bumped[-1].weight + 1)
        broken = gg.GeneratingGraph(g.classes, g.root, tuple(bumped), g.complete)
        ok, disc = gg.validate_graph(broken, PatternSet.parse("213,4123"), "standard", 8, L)
        assert not ok and disc is not None


class TestWalkSeries:
    def test_catalan_catalog(self):
        series = gg.walk_series(gg.catalan_graph(12), (10, 0, 0))
        assert series.univariate() == [ct.catalan(n) for n in range(11)]

    def test_single_root(self):
        g = gg.GeneratingGraph(("a1",), 0, (), (True,))
        assert gg.walk_series(g, (5, 0, 0)).univariate() == [1, 0, 0, 0, 0, 0]

    def test_truncation_guard(self):
        with pytest.raises(InvalidWalk):
            gg.walk_series(gg.catalan_graph(3), (10, 0, 0))

    def test_incomplete_classes_have_no_out_edges(self):
        for k in (1, 3, 8):
            g = gg.catalan_graph(k)
            assert not any(e.src == k - 1 for e in g.edges) and not g.complete[-1]


class TestIsomorphism:
    def test_not_isomorphic(self):
        assert not gg.graph_isomorphic(gg.catalan_graph(3), gg.even_fibonacci_graph())[0]

    def test_mapping_preserves_edges(self):
        a, _ = gg.discover_graph(PatternSet.parse("132"), "standard-extended", 5, 4, L)
        b, _ = gg.discover_graph(PatternSet.parse("312"), "standard-extended", 5, 4, L)
        iso, mapping = gg.graph_isomorphic(a, b)
        assert iso
        edges_a = {(mapping[e.src], mapping[e.dst], e.kind, e.weight) for e in a.edges}
        edges_b = {(e.src, e.dst, e.kind, e.weight) for e in b.edges}
        assert edges_a == edges_b


class TestWalkCodecs:
    def test_round_trip(self):
        ps = PatternSet.parse("132")
        g, cls = gg.discover_graph(ps, "standard-extended", 6, 4, L)
        for cell in ((2, 1, 1), (1, 2, 1), (3, 0, 1)):
            for pp in ct.enumerate_extended(*cell, ps, L):
                walk = gg.walk_encode(pp, cls)
                assert gg.walk_decode(walk, cls) == pp

    def test_zero_object_empty_walk(self):
        ps = PatternSet.parse("132")
        _, cls = gg.discover_graph(ps, "standard-extended", 5, 4, L)
        from permutoria.permcore import ZERO

        assert gg.walk_encode(ZERO, cls) == ()
        assert gg.walk_decode((), cls) == ZERO

    def test_cross_family_bijection(self):
        pa, pb = PatternSet.parse("123"), PatternSet.parse("213")
        ga, ca = gg.discover_graph(pa, "standard-extended", 6, 4, L)
        gb, cb = gg.discover_graph(pb, "standard-extended", 6, 4, L)
        iso, mapping = gg.graph_isomorphic(ga, gb)
        assert iso
        for cell in ((2, 1, 1), (2, 2, 0), (1, 1, 2)):
            dom = ct.enumerate_extended(*cell, pa, L)
            cod = set(ct.enumerate_extended(*cell, pb, L))
            images = {gg.walk_decode(gg.walk_encode(o, ca, iso=mapping), cb) for o in dom}
            assert images == cod and len(images) == len(dom)

    def test_invalid_walk(self):
        ps = PatternSet.parse("132")
        _, cls = gg.discover_graph(ps, "standard-extended", 5, 4, L)
        with pytest.raises(InvalidWalk):
            gg.walk_decode((("dot", 99, 0),), cls)


class TestGadgets:
    @pytest.mark.parametrize("gadget", ["descent-all", "descent-own", "catalan-ladder"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_closed_forms(self, gadget, k):
        order = 10
        orders = (order, 0, 0)
        one = MultiSeries.constant(1, orders)
        zero = MultiSeries.zero(orders)
        x = MultiSeries.variable("x", orders)
        feeders = {
            "impulse": [zero] * k + [one] + [zero] * 3,
            "geometric": [x**j for j in range(8)],
            "zero": [zero] * 6,
        }
        for name, f in feeders.items():
            ok, dp, closed = gg.lemma_walk_check(gadget, k, f, order)
            assert ok, (gadget, k, name, dp.univariate(), closed.univariate())

    def test_zero_feeders_give_zero(self):
        zero = MultiSeries.zero((8, 0, 0))
        ok, dp, closed = gg.lemma_walk_check("descent-all", 2, [zero] * 5, 8)
        assert ok and dp.univariate() == [0] * 9

    def test_impulse_descent_all_form(self):
        orders = (8, 0, 0)
        one = MultiSeries.constant(1, orders)
        zero = MultiSeries.zero(orders)
        ok, dp, _ = gg.lemma_walk_check("descent-all", 2, [zero, zero, one], 8)
        assert ok and dp.univariate() == [0, 1, 1, 1, 1, 1, 1, 1, 1]


class TestSerialization:
    def test_json_round_trip(self):
        g, _ = gg.discover_graph(PatternSet.parse("213,4123"), "standard", 6, 4, L)
        back = gg.GeneratingGraph.from_json(g.to_json())
        assert back == g

    def test_json_keeps_frontier(self):
        g, _ = gg.discover_graph(PatternSet.parse("123"), "standard", 5, 4, L)
        back = gg.GeneratingGraph.from_json(g.to_json())
        assert back == g and not all(back.complete)
        with pytest.raises(InvalidWalk):
            gg.walk_series(gg.GeneratingGraph.from_json(gg.catalan_graph(3).to_json()), (10, 0, 0))

    def test_json_without_complete_field(self):
        import json

        doc = json.loads(gg.even_fibonacci_graph().to_json())
        del doc["complete"]
        assert gg.GeneratingGraph.from_json(json.dumps(doc)) == gg.even_fibonacci_graph()

    def test_dot_styles(self):
        g, _ = gg.discover_graph(PatternSet.parse("132"), "standard-extended", 4, 3, L)
        dot = g.to_dot()
        assert "style=solid" in dot and "style=dashed" in dot and "style=dotted" in dot
