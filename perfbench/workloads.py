"""The benchmark's three workloads: seeded op lists, each op with an oracle.

A workload is a list of rounds.  Every round holds the same multiset of ops
(kinds and sizes are fixed); the seed only picks the order of the ops in a
round and, for ``tableau-laws``, which elements each op samples.  An op is
one checked operation: ``run`` calls the package, ``check`` compares the
result with values the benchmark derives on its own (closed forms, the
published tables, algebraic laws of the maps) and returns ``None`` or a
description of the first mismatch.

Ops call the package through module attributes, never through names bound
at import, so the traced run can wrap the layers' public functions.  Every
call that takes limits gets ``LIMITS``.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from math import comb
from typing import Callable

from permutoria import bijections as bj
from permutoria import counting as ct
from permutoria import formulas as fm
from permutoria import gengraph as gg
from permutoria import involutions as iv
from permutoria import permcore
from permutoria import series
from permutoria import tableau as tb
from permutoria import verify
from permutoria.limits import Limits
from permutoria.permcore import PatternSet

LIMITS = Limits(enumeration=12, da=14, extended=10, tree_depth=14, series_order=24)

# The memo caches, captured before the traced run replaces the module
# attributes with wrappers (which have no cache_info / cache_clear).
CACHES = {
    "permcore.children": permcore.children_with_kinds,
    "permcore.extendable": permcore.extendably_avoids,
    "gengraph.fingerprint": gg.fingerprint,
}


def clear_caches() -> None:
    for fn in CACHES.values():
        fn.cache_clear()


def cache_stats() -> dict[str, tuple[int, int]]:
    """(hits, misses) of each memo cache since it was last cleared."""
    out = {}
    for name, fn in CACHES.items():
        info = fn.cache_info()
        out[name] = (info.hits, info.misses)
    return out


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    after: str | None = None  # label of an op that must run earlier in the round


@dataclass
class Plan:
    rounds: list[list[Op]]
    before_round: Callable[[], None]


def _mismatch(what: str, got, want) -> str | None:
    if got == want:
        return None
    text = f"{what}: got {got!r}, expected {want!r}"
    return text if len(text) <= 300 else text[:297] + "..."


def _first(problems) -> str | None:
    return next((p for p in problems if p is not None), None)


# ---------------------------------------------------------------------------
# oracle values kept by the benchmark itself


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def fibonacci(n: int) -> int:
    """F_1 = F_2 = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def catalan_fourth_difference(n: int) -> int:
    c = [catalan(n + k) for k in range(5)]
    return c[4] - 4 * c[3] + 6 * c[2] - 4 * c[1] + c[0]


# |S_n(p)| for n = 0..10 (OEIS A005802, A061552, A022558)
CLASS_TABLES = {
    "1234": (1, 1, 2, 6, 23, 103, 513, 2761, 15767, 94359, 586590),
    "1324": (1, 1, 2, 6, 23, 103, 513, 2762, 15793, 94776, 591950),
    "1342": (1, 1, 2, 6, 23, 103, 512, 2740, 15485, 91245, 555662),
}


def dyck_paths(m: int) -> set[str]:
    if m == 0:
        return {""}
    return {
        "U" + inner + "D" + rest
        for k in range(m)
        for inner in dyck_paths(k)
        for rest in dyck_paths(m - 1 - k)
    }


ROUNDS = 256  # distinct seeded rounds; a run that needs more cycles through them


def _shuffled(ops: list[Op], rng: random.Random) -> list[Op]:
    """Seeded order in which an op with ``after`` set follows that op."""
    out: list[Op] = []
    pending: dict[str, list[Op]] = {}
    done = set()
    order = list(ops)
    rng.shuffle(order)
    for op in order:
        if op.after is not None and op.after not in done:
            pending.setdefault(op.after, []).append(op)
            continue
        out.append(op)
        done.add(op.label)
        out.extend(pending.pop(op.label, []))
    return out


# ---------------------------------------------------------------------------
# perm-count: counting kernels, enumeration and the explicit bijections


def _count_op(pats: str, n: int, want: int) -> Op:
    ps = PatternSet.parse(pats)
    return Op(
        "count",
        f"count {pats} n={n}",
        lambda: ct.count_avoiders(n, ps, LIMITS),
        lambda got: _mismatch("count", got, want),
    )


def _count_da_op(pats: str, n: int, want: int) -> Op:
    ps = PatternSet.parse(pats)
    return Op(
        "count-da",
        f"count-da {pats} n={n}",
        lambda: ct.count_da(n, ps, LIMITS),
        lambda got: _mismatch("count", got, want),
    )


def _bijection_check(dom, images, back, cod, size: int) -> str | None:
    return _first(
        (
            _mismatch("domain size", len(dom), size),
            _mismatch("distinct images", len(set(images)), len(dom)),
            _mismatch("image set equals codomain", set(images) == set(cod), True),
            _mismatch("inverse recovers the domain", list(back), list(dom)),
        )
    )


def _phi_op(n: int) -> Op:
    ps = PatternSet.parse("1234")

    def run():
        dom = list(ct.enumerate_avoiders(n, ps, LIMITS))
        images = [bj.phi(w) for w in dom]
        back = [bj.phi_inverse(v) for v in images]
        cod = set(ct.enumerate_da(2 * n, ps, LIMITS))
        return dom, images, back, cod

    return Op(
        "biject",
        f"phi S_{n}(1234) -> DA_{2 * n}(1234)",
        run,
        lambda res: _bijection_check(*res, CLASS_TABLES["1234"][n]),
    )


def _theta_op(m: int) -> Op:
    ps = PatternSet.parse("2413")
    paths = dyck_paths(m)

    def run():
        dom = list(ct.enumerate_da(2 * m, ps, LIMITS))
        images = [bj.theta(w) for w in dom]
        back = [bj.theta_inverse(p) for p in images]
        return dom, images, back, paths

    return Op(
        "biject",
        f"theta DA_{2 * m}(2413) -> Dyck paths of semilength {m}",
        run,
        lambda res: _bijection_check(*res, catalan(m)),
    )


def _psi_op(n: int) -> Op:
    p12, p21 = PatternSet.parse("1234"), PatternSet.parse("2134")

    def run():
        dom = list(ct.enumerate_da(n, p12, LIMITS))
        images = [bj.psi(w, (3, 4)) for w in dom]
        back = [bj.psi_inverse(v, (3, 4)) for v in images]
        cod = set(ct.enumerate_da(n, p21, LIMITS))
        return dom, images, back, cod

    # |DA_2m(1234)| = |S_m(1234)| through phi
    return Op(
        "biject",
        f"psi DA_{n}(1234) -> DA_{n}(2134)",
        run,
        lambda res: _bijection_check(*res, CLASS_TABLES["1234"][n // 2]),
    )


def perm_count_ops() -> list[Op]:
    """Sizes are chosen so that every op takes well under 0.2 s and a round
    about 1.5 s: a run holds many rounds, and the slowest tenth of the ops
    (p90) is a group of five ops of similar size, not a gap between groups."""
    ops = []
    for pat in ("123", "132", "213", "231", "312", "321"):
        ops.append(_count_op(pat, 7, catalan(7)))
    for pat, table in (("1234", "1234"), ("1324", "1324"), ("1342", "1342"), ("2413", "1342")):
        ops.append(_count_op(pat, 7, CLASS_TABLES[table][7]))
    ops.append(_count_op("213,4123", 8, fibonacci(15)))
    # the doubly alternating families of the 2009 paper, n = 12
    n = 12
    for pat, want in (
        ("123", 1), ("213", 1), ("231", 1), ("312", 1), ("132", 1), ("321", 2),
        ("2413", catalan(n // 2)), ("1234,2413", fibonacci(n // 2 + 1)),
    ):
        ops.append(_count_da_op(pat, n, want))
    # conjectured identities: the equal family of |DA_2m(1234)| = |S_m(1234)|,
    # and the Fibonacci / Catalan forms of the two pair families
    m = 5
    for pat, size in (
        ("1234", 2 * m), ("1243", 2 * m + 1), ("1432", 2 * m),
        ("1432", 2 * m + 1), ("2341", 2 * m), ("3421", 2 * m),
    ):
        ops.append(_count_da_op(pat, size, CLASS_TABLES["1234"][m]))
    ops.append(_count_da_op("1234,3214", 12, fibonacci(11)))
    ops.append(_count_da_op("1234,3214", 11, fibonacci(10) - fibonacci(4)))
    ops.append(_count_da_op("1234,2134", 12, catalan(6)))
    ops.append(_count_da_op("1234,2134", 11, catalan_fourth_difference(3)))
    ops += [_phi_op(4), _phi_op(5), _theta_op(4), _theta_op(5), _psi_op(8), _psi_op(10)]
    return ops


def build_perm_count(seed: int) -> Plan:
    ops = perm_count_ops()
    rng = random.Random(seed)
    rounds = [_shuffled(ops, rng) for _ in range(ROUNDS)]
    return Plan(rounds, clear_caches)


# ---------------------------------------------------------------------------
# ext-graph: extendability, extended tables with the formula audit,
# generating-graph discovery and walk codecs

EXT_TOTAL = 6
EXT_ORDERS = (EXT_TOTAL, EXT_TOTAL, EXT_TOTAL)
GRAPH_DEPTH = 4
GRAPH_FP_DEPTH = 3


def _ext_table_op(ps: PatternSet, formulas: tuple[str, ...], transpose: bool) -> Op:
    """Audit the brute-force table of ps against closed forms.

    With ``transpose`` the formulas belong to the transpose group, so the
    (d, c, r) coefficient must match the (d, r, c) cell.
    """
    monomials = [
        (d, c, total - d - c)
        for total in range(EXT_TOTAL + 1)
        for d in range(total + 1)
        for c in range(total - d + 1)
    ]

    def run():
        cells = ct.extended_table(ps, EXT_TOTAL, LIMITS)
        return cells, [series.expand_rational(f, EXT_ORDERS) for f in formulas]

    def check(res):
        cells, expansions = res
        for idx, s in enumerate(expansions):
            for d, c, r in monomials:
                want = cells.get((d, r, c) if transpose else (d, c, r), 0)
                if s[(d, c, r)] != want:
                    return f"formula {idx + 1} at {(d, c, r)}: {s[(d, c, r)]} != brute force {want}"
        return None

    label = f"ext-table {{{ps}}} total={EXT_TOTAL}" + (" (transpose)" if transpose else "")
    return Op("ext-table", label, run, check)


def ext_table_ops() -> list[Op]:
    """Every catalog set, plus every pair-table set audited through the
    formula of its transpose group."""
    ops = [_ext_table_op(ps, formulas, False) for ps, formulas in fm.FORMULAS.items()]
    for name, group in fm.PAIR_TABLE_GROUPS.items():
        partner = name[:-4] if name.endswith("-inv") else name + "-inv"
        for ps in group:
            if ps in fm.FORMULAS:
                continue
            source = next(p for p in fm.PAIR_TABLE_GROUPS[partner] if p in fm.FORMULAS)
            ops.append(_ext_table_op(ps, fm.FORMULAS[source], True))
    return ops


def graph_ops(state: dict) -> list[Op]:
    """One discover op per graph-equivalent pair, and one walk-codec op per
    (pair, number of dots) that transports the objects of total size
    GRAPH_DEPTH through the discovered isomorphism."""
    ops = []
    for a, rule_a, b, rule_b in fm.GRAPH_EQUIVALENT:
        key = (a, rule_a, b, rule_b)

        def discover(key=key):
            a, rule_a, b, rule_b = key
            ga, ca = gg.discover_graph(a, rule_a, GRAPH_DEPTH, GRAPH_FP_DEPTH, LIMITS)
            gb, cb = gg.discover_graph(b, rule_b, GRAPH_DEPTH, GRAPH_FP_DEPTH, LIMITS)
            iso, mapping = gg.graph_isomorphic(ga, gb)
            ok_a, _ = gg.validate_graph(ga, a, rule_a, GRAPH_DEPTH, LIMITS)
            ok_b, _ = gg.validate_graph(gb, b, rule_b, GRAPH_DEPTH, LIMITS)
            state[key] = (ca, cb, mapping)
            return iso, ok_a, ok_b

        discover_label = f"discover {{{a}}} ({rule_a}) ~ {{{b}}} ({rule_b}) depth={GRAPH_DEPTH}"
        ops.append(
            Op(
                "discover",
                discover_label,
                discover,
                lambda res: _mismatch("(isomorphic, validates a, validates b)", res, (True, True, True)),
            )
        )
        for d in range(GRAPH_DEPTH + 1):

            def codec(key=key, d=d):
                a, _, b, _ = key
                ca, cb, mapping = state[key]
                cells = []
                for c in range(GRAPH_DEPTH - d + 1):
                    r = GRAPH_DEPTH - d - c
                    dom = ct.enumerate_extended(d, c, r, a, LIMITS)
                    cod = ct.enumerate_extended(d, c, r, b, LIMITS)
                    images = [gg.walk_decode(gg.walk_encode(o, ca, iso=mapping), cb) for o in dom]
                    back = [gg.walk_decode(gg.walk_encode(o, ca), ca) for o in dom]
                    cells.append(((d, c, r), dom, cod, images, back))
                return cells

            def check(cells):
                for cell, dom, cod, images, back in cells:
                    problem = _first(
                        (
                            _mismatch(f"cell {cell} distinct images", len(set(images)), len(dom)),
                            _mismatch(f"cell {cell} image set equals the partner cell", set(images) == set(cod), True),
                            _mismatch(f"cell {cell} round trip", back, dom),
                        )
                    )
                    if problem:
                        return problem
                return None

            label = f"walk-codec {{{a}}} -> {{{b}}} d={d}"
            ops.append(Op("walk-codec", label, codec, check, after=discover_label))
    return ops


def build_ext_graph(seed: int) -> Plan:
    state: dict = {}
    ops = ext_table_ops() + graph_ops(state)
    rng = random.Random(seed)
    rounds = [_shuffled(ops, rng) for _ in range(ROUNDS)]

    def before_round():
        # every round starts cold: discover ops fill the caches, walk-codec
        # ops read them
        clear_caches()
        state.clear()

    return Plan(rounds, before_round)


# ---------------------------------------------------------------------------
# tableau-laws: Bender-Knuth words against the sliding routes, the
# commutation diagram, matrix RSK and Littlewood-Richardson symmetry


@dataclass
class TableauInputs:
    ssyt: list            # ssyt_universe(4, 4, 4)
    partition: list       # its partition-shaped members
    skew: list            # its members with a nonempty inner shape
    lr: list              # lr_universe(4, 4, 4)
    pair_groups: list     # (fillings of nu/mu, fillings of lam/nu), 2+2 letters
    pair_ends: list       # cumulative pair counts of pair_groups
    matrices: list        # 3x3 matrices with entries at most 2
    triples: list         # (lam, mu, nu), |lam| <= 8, mu and nu inside lam

    def sample_pairs(self, rng: random.Random, k: int) -> list:
        out = []
        for _ in range(k):
            idx = rng.randrange(self.pair_ends[-1])
            g = bisect_right(self.pair_ends, idx)
            ss, ts = self.pair_groups[g]
            offset = idx - (self.pair_ends[g - 1] if g else 0)
            out.append((ss[offset // len(ts)], ts[offset % len(ts)]))
        return out


def tableau_inputs() -> TableauInputs:
    ssyt = list(verify.ssyt_universe(4, 4, 4))
    shapes = tb.partitions_in_box(4, 4)
    fillings: dict[tuple, list] = {}

    def two_letter(outer, inner):
        if (outer, inner) not in fillings:
            fillings[(outer, inner)] = list(
                tb.enumerate_ssyt(outer, inner, max_letter=2, box1=(4, 4), box2=(2, 4))
            )
        return fillings[(outer, inner)]

    groups, ends, total = [], [], 0
    for nu in shapes:
        for mu in shapes:
            if not tb.contains(nu, mu):
                continue
            for lam in shapes:
                if not tb.contains(lam, nu) or mu == nu == lam:
                    continue
                ss, ts = two_letter(nu, mu), two_letter(lam, nu)
                if ss and ts:
                    total += len(ss) * len(ts)
                    groups.append((ss, ts))
                    ends.append(total)
    triples = []
    for n in range(1, 9):
        for lam in tb.partitions_of(n):
            for k in range(n + 1):
                for mu in tb.partitions_of(k):
                    if not tb.contains(lam, mu):
                        continue
                    for nu in tb.partitions_of(n - k):
                        if tb.contains(lam, nu):
                            triples.append((lam, mu, nu))
    return TableauInputs(
        ssyt=ssyt,
        partition=[t for t in ssyt if not t.inner],
        skew=[t for t in ssyt if t.inner],
        lr=list(verify.lr_universe(4, 4, 4)),
        pair_groups=groups,
        pair_ends=ends,
        matrices=[(e[0:3], e[3:6], e[6:9]) for e in itertools.product(range(3), repeat=9)],
        triples=triples,
    )


ck = iv.content_key


def _swap(weight: tuple, i: int) -> tuple:
    w = list(weight)
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def _switch_check(pairs, results) -> str | None:
    """Switching is an involution that exchanges the two fillings' letters
    and keeps the outer boundaries of the union."""
    for (s, t), (a0, a1, b0, b1) in zip(pairs, results):
        problem = _first(
            (
                _mismatch("switch twice", (ck(b0), ck(b1)), (ck(s), ck(t))),
                _mismatch("letters exchanged", (a0.weight(), a1.weight()), (t.weight(), s.weight())),
                _mismatch("union kept", (a0.inner, a1.outer), (s.inner, t.outer)),
            )
        )
        if problem:
            return problem
    return None


def _bk_word_op(tabs, parts, pairs) -> Op:
    zm, zm3, zm1 = iv.zm_word(4), iv.zm_word(3), iv.zm_word(1)
    t13, t31, t22 = iv.t_word(1, 3), iv.t_word(3, 1), iv.t_word(2, 2)
    t12d, t12 = iv.t_word(1, 2, d=1), iv.t_word(1, 2)

    def run():
        unary = []
        for t in tabs:
            once = [iv.bender_knuth(t, i) for i in range(1, 4)]
            twice = [iv.bender_knuth(x, i).rows for i, x in zip(range(1, 4), once)]
            rev = iv.apply_bk_word(t, zm)
            unary.append(
                (
                    twice,
                    [x.weight() for x in once],
                    iv.apply_bk_word(rev, zm).rows,
                    rev.weight(),
                    iv.apply_bk_word(iv.apply_bk_word(t, t13), t31).rows,
                    rev.rows,
                    iv.apply_bk_word(iv.apply_bk_word(iv.apply_bk_word(t, zm3), t31), zm1).rows,
                    iv.apply_bk_word(t, t22).rows,
                    iv.apply_bk_word(iv.apply_bk_word(t, t12d), t12).rows,
                )
            )
        evac = []
        for p in parts:
            e = iv.schuetzenberger(p)
            evac.append((e.weight(), iv.schuetzenberger(e).rows))
        switched = []
        for s, t in pairs:
            a0, a1 = iv.tableau_switch(s, t)
            b0, b1 = iv.tableau_switch(a0, a1)
            switched.append((a0, a1, b0, b1))
        return unary, evac, switched

    def check(res):
        unary, evac, switched = res
        for t, (twice, weights, zm2, rev_w, cancel, left, right, lhs, rhs) in zip(tabs, unary):
            w = t.weight()
            problem = _first(
                (
                    _mismatch("each generator is an involution", twice, [t.rows] * 3),
                    _mismatch("generator i swaps the weights of i, i+1", weights, [_swap(w, i) for i in (1, 2, 3)]),
                    _mismatch("reversal word squares to one", zm2, t.rows),
                    _mismatch("reversal word reverses the weight", rev_w, w[::-1]),
                    _mismatch("opposite block exchanges cancel", cancel, t.rows),
                    _mismatch("reversal splits through block exchanges", left, right),
                    _mismatch("block exchanges split additively", lhs, rhs),
                )
            )
            if problem:
                return problem
        for p, (weight, back) in zip(parts, evac):
            problem = _first(
                (
                    _mismatch("Schuetzenberger reverses the weight", weight, p.weight()[::-1]),
                    _mismatch("Schuetzenberger is an involution", back, p.rows),
                )
            )
            if problem:
                return problem
        return _switch_check(pairs, switched)

    return Op("bk-word", f"bk-word {len(tabs)}+{len(parts)} tableaux, {len(pairs)} pairs", run, check)


def _slide_op(parts, skews, pairs, order_seed: int) -> Op:
    def run():
        evac = []
        for p in parts:
            e = iv.evacuation(p)
            evac.append((e.weight(), iv.evacuation(e).rows))
        rect = [(iv.jdt(t), iv.jdt_random_order(t, order_seed)) for t in skews]
        switched = []
        for s, t in pairs:
            a0, a1 = iv.tableau_switch_sliding(s, t)
            b0, b1 = iv.tableau_switch_sliding(a0, a1)
            switched.append((a0, a1, b0, b1))
        return evac, rect, switched

    def check(res):
        evac, rect, switched = res
        for p, (weight, back) in zip(parts, evac):
            problem = _first(
                (
                    _mismatch("evacuation reverses the weight", weight, p.weight()[::-1]),
                    _mismatch("evacuation is an involution", back, p.rows),
                )
            )
            if problem:
                return problem
        for t, (x, y) in zip(skews, rect):
            problem = _first(
                (
                    _mismatch("rectification is partition shaped", x.inner, ()),
                    _mismatch("rectification keeps the weight", x.weight(), t.weight()),
                    _mismatch("rectification is order independent", ck(y), ck(x)),
                )
            )
            if problem:
                return problem
        return _switch_check(pairs, switched)

    return Op("slide", f"slide {len(parts)}+{len(skews)} tableaux, {len(pairs)} pairs", run, check)


def _diagram_op(t) -> Op:
    def run():
        out = []
        for x in (t, tb.rotate(t)):
            out.append(
                (
                    x,
                    iv.verify_diagram(x).failures(),
                    ck(iv.rho(iv.rho(x))),
                    ck(iv.reversal(iv.reversal(x))),
                    ck(iv.omega(iv.omega(x))),
                )
            )
        return out

    def check(res):
        for x, failures, rho2, chi2, omega2 in res:
            problem = _first(
                (
                    _mismatch("commutation diagram failures", failures, []),
                    _mismatch("symmetry map is an involution", rho2, ck(x)),
                    _mismatch("reversal is an involution", chi2, ck(x)),
                    _mismatch("Omega is an involution", omega2, ck(x)),
                )
            )
            if problem:
                return problem
        return None

    return Op("diagram", f"diagram {t.outer}/{t.inner} weight {t.weight()}", run, check)


def _rsk_op(matrices) -> Op:
    def run():
        out = []
        for m in matrices:
            p, q = iv.rsk_matrix(m)
            pt, qt = iv.rsk_matrix(tuple(zip(*m)))
            out.append((p.size(), (ck(pt), ck(qt)), (ck(q), ck(p)), iv.rsk_matrix_inverse(p, q)))
        return out

    def check(res):
        for m, (size, transposed, swapped, back) in zip(matrices, res):
            problem = _first(
                (
                    _mismatch("tableau size is the matrix sum", size, sum(map(sum, m))),
                    _mismatch("transposition swaps the pair", transposed, swapped),
                    _mismatch("reverse bumping recovers the matrix", back, m),
                )
            )
            if problem:
                return problem
        return None

    return Op("rsk", f"rsk {len(matrices)} matrices", run, check)


def _lr_op(triples) -> Op:
    def run():
        return [
            (iv.lr_coefficient(lam, mu, nu), iv.lr_coefficient(lam, nu, mu))
            for lam, mu, nu in triples
        ]

    def check(res):
        for (lam, mu, nu), (a, b) in zip(triples, res):
            problem = _mismatch(f"c^{lam}_{{{mu},{nu}}} symmetry", a, b)
            if problem:
                return problem
        return None

    return Op("lr", f"lr {len(triples)} coefficient pairs", run, check)


# ops per round and elements per op; fixed across seeds
TABLEAU_ROUND = {"bk-word": 6, "slide": 6, "diagram": 3, "rsk": 3, "lr": 3}
BK_TABLEAUX, BK_PARTITIONS, BK_PAIRS = 20, 10, 10
SLIDE_PARTITIONS, SLIDE_SKEW, SLIDE_PAIRS = 10, 20, 10
RSK_MATRICES = 100
LR_TRIPLES = 100


def tableau_round(inp: TableauInputs, rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(TABLEAU_ROUND["bk-word"]):
        ops.append(
            _bk_word_op(
                rng.sample(inp.ssyt, BK_TABLEAUX),
                rng.sample(inp.partition, BK_PARTITIONS),
                inp.sample_pairs(rng, BK_PAIRS),
            )
        )
    for _ in range(TABLEAU_ROUND["slide"]):
        ops.append(
            _slide_op(
                rng.sample(inp.partition, SLIDE_PARTITIONS),
                rng.sample(inp.skew, SLIDE_SKEW),
                inp.sample_pairs(rng, SLIDE_PAIRS),
                rng.randrange(1 << 30),
            )
        )
    for _ in range(TABLEAU_ROUND["diagram"]):
        ops.append(_diagram_op(rng.choice(inp.lr)))
    for _ in range(TABLEAU_ROUND["rsk"]):
        ops.append(_rsk_op(rng.sample(inp.matrices, RSK_MATRICES)))
    for _ in range(TABLEAU_ROUND["lr"]):
        ops.append(_lr_op(rng.sample(inp.triples, LR_TRIPLES)))
    rng.shuffle(ops)
    return ops


def build_tableau_laws(seed: int) -> Plan:
    inp = tableau_inputs()
    rng = random.Random(seed)
    rounds = [tableau_round(inp, rng) for _ in range(ROUNDS)]
    return Plan(rounds, clear_caches)


WORKLOADS = {
    "perm-count": build_perm_count,
    "ext-graph": build_ext_graph,
    "tableau-laws": build_tableau_laws,
}
