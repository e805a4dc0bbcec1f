"""The pattern matcher, the backtracking driver and the counting kernels.

One matcher, ``_ends_at_last``, answers the question every search here
asks: does a pattern occurrence end at the entry just placed?  It runs on
plans that ``compile_pattern`` builds once per pattern; a ``PatternSet``
holds the plans of its patterns, and ``occurs`` is the entry point for a
whole word.  A plan names, for every slot of the pattern, the two slots
holding the nearest pattern values below and above it, so the matcher
tests a candidate value with two comparisons instead of one per slot
matched so far, and it records how later slots read each slot, so
backtracking retries a slot only with values that can help them.

One driver, ``avoiding_words``, places entries left to right from a
caller's candidate values.  It keeps a prefix only while every value the
prefix has not used can still follow it: appending such a value must
complete no occurrence.  That prune is sound for every caller, because
each word is a permutation of 1..n, so every unused value is placed after
the prefix sooner or later, and an occurrence that ends at u right after
the prefix still ends at u wherever u lands.  The prefix it extends passed
the same test, so a new failure must put the new entry in the pattern's
second-to-last slot, and only unused values on one side of it need
testing.  The plain counters ``count_avoiders_py`` and ``count_da_py``, the
enumerators in ``counting`` and the extensions of a partial permutation in
``permcore`` all run on that driver.

The counters dominate the runtime of every brute-force suite.
``count_avoiders_raw`` is the memoised counter ``count_avoiders_memo``,
which counts the completions of a prefix once per canonical state instead
of once per leaf; ``count_da_raw`` is the plain counter ``count_da_py``.
A state is one level id per pattern, read from the pattern's
``LevelAutomaton``: its interned levels and the transitions (level id,
rank of the appended value) -> level id or blocked, grown as counts reach
them.  They depend on the pattern alone, so a ``PatternSet`` owns one
automaton per pattern for its whole life and every count of the set, at
any n, reuses what earlier counts built; only the memo of counts belongs
to one call.

The oracles stay separate code: ``count_avoiders_py`` checks
``count_avoiders_memo``, brute force over all permutations checks
``count_da_py``, and ``permcore.contains_pattern_bruteforce`` checks the
matcher.  ``count_avoiders_memo`` keeps its own ``_pattern_plan`` rather
than the matcher's plans, so it shares no matching code with the plain
counter that checks it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

Pattern = tuple[int, ...]
Candidates = Callable[[list[int], list[bool], int], Iterable[int]]
Plan = tuple[int, tuple[tuple[int | None, int | None, int], ...], bool]

_BELOW_ALL = float("-inf")  # the bound of a slot with no lower neighbour
_ABOVE_ALL = float("inf")  # and of one with no upper neighbour
_FLOOR, _CEILING = 1, 2  # how later slots read a slot's value: the reads mask


def compile_pattern(pat: Sequence[int]) -> Plan:
    """The plan of ``_ends_at_last`` for pat: ``(m, ((lo, hi, reads), ...), rises)``.

    Entry s serves slot s < m - 1.  ``lo`` and ``hi`` name where the values
    nearest to pat[s] below and above it sit among pat[:s] and the last
    value pat[m-1]: an earlier slot index, -1 for the last entry, or None
    when there is no such value.  ``reads`` says how later slots use slot
    s's value: ``_FLOOR`` if some later slot has it as its ``lo``,
    ``_CEILING`` if some has it as its ``hi``, both bits or neither.
    ``rises`` says whether pat ends in a rise, pat[m-2] < pat[m-1]; the
    driver reads it, the matcher does not.
    """
    m = len(pat)
    los: list[int | None] = []
    his: list[int | None] = []
    reads = [0] * max(m - 1, 0)
    for s in range(m - 1):
        want = pat[s]
        lo = hi = None
        for j in range(-1, s):  # the last entry, then the earlier slots
            v = pat[j]
            if v < want:
                if lo is None or v > pat[lo]:
                    lo = j
            elif hi is None or v < pat[hi]:
                hi = j
        los.append(lo)
        his.append(hi)
        if lo is not None and lo >= 0:
            reads[lo] |= _FLOOR
        if hi is not None and hi >= 0:
            reads[hi] |= _CEILING
    return m, tuple(zip(los, his, reads)), m > 1 and pat[-2] < pat[-1]


def _ends_at_last(word: Sequence[int], length: int, plan: Plan) -> bool:
    """Does an occurrence of the compiled pattern end exactly at word[length-1]?

    Slots 0..m-2 are matched left to right by backtracking over positions.
    The values already matched, with the last entry, are ordered as their
    pattern values are.  So a value u fits slot s exactly when a < u < b,
    where a and b are the values in the slots ``lo`` and ``hi`` of
    ``compile_pattern``, whose pattern values are nearest to pat[s] from
    below and from above: a known value whose pattern value lies below
    pat[s] is at most a, and one above is at least b.  Strict bounds also
    keep a value equal to a matched one, or to the last entry, out of every
    slot.

    Each slot first takes its leftmost fit.  Backtracking into slot s with
    value u looks further right only for values that can do better for the
    later slots, which see s only through their own bounds.  If they read
    s only as a floor, any value above u, being further right as well,
    allows no completion that u does not, so the retry looks below u; if
    they read s only as a ceiling, it looks above u; if no later slot reads
    s, its leftmost fit is final and the search backs up past it.  Every
    position is tested with the same two comparisons.
    """
    m, bounds, _ = plan
    if m > length:
        return False
    if m == 1:
        return True
    last = m - 1
    chosen = [0] * m  # values matched to slots 0..slot-1; chosen[-1] is the last entry
    chosen[last] = word[length - 1]
    at = [0] * last  # and their positions
    end = length - last  # slot s must sit before end + s
    slot = pos = 0
    lo, hi, reads = bounds[0]
    a = _BELOW_ALL if lo is None else chosen[lo]
    b = _ABOVE_ALL if hi is None else chosen[hi]
    while True:
        stop = end + slot
        while pos < stop:
            u = word[pos]
            if a < u < b:
                break
            pos += 1
        else:
            while True:
                if not slot:
                    return False
                slot -= 1
                lo, hi, reads = bounds[slot]
                if reads:
                    break
            u = chosen[slot]
            a = u if reads == _CEILING else (_BELOW_ALL if lo is None else chosen[lo])
            b = u if reads == _FLOOR else (_ABOVE_ALL if hi is None else chosen[hi])
            pos = at[slot] + 1
            continue
        chosen[slot] = u
        at[slot] = pos
        slot += 1
        if slot == last:
            return True
        lo, hi, reads = bounds[slot]
        a = _BELOW_ALL if lo is None else chosen[lo]
        b = _ABOVE_ALL if hi is None else chosen[hi]
        pos += 1


def occurs(word: Sequence[int], plan: Plan) -> bool:
    """Does the compiled pattern occur anywhere in word?  The empty pattern
    occurs in every word."""
    m = plan[0]
    if not m:
        return True
    return any(_ends_at_last(word, k, plan) for k in range(m, len(word) + 1))


def _completes(
    word: list[int], used: list[bool], length: int, plans: Sequence[Plan], values: range
) -> bool:
    """Does appending some unused value of values to word[:length] complete
    an occurrence of one of plans?  word[length] is scratch space."""
    for plan in plans:
        for u in values:
            if not used[u]:
                word[length] = u
                if _ends_at_last(word, length + 1, plan):
                    return True
    return False


def avoiding_words(
    n: int, plans: Sequence[Plan], candidates: Candidates
) -> Iterator[tuple[int, ...]]:
    """Yield the permutations of 1..n that avoid the compiled patterns.

    Position pos is filled with each value of ``candidates(word, used, pos)``
    in turn, where word[:pos] is the prefix and ``used[v]`` marks the values
    in it; candidates must be unused values.  Words come out in the order
    the candidates give.

    A prefix is kept only if appending any value it has not used completes
    no occurrence.  Every unused value follows the prefix in every word that
    extends it, so a prefix that fails has no avoiding completion; and each
    kept prefix X + v has no occurrence ending at v, since v was unused when
    X was tested.  So the words and their order are those of the plain
    search that drops a prefix once an occurrence ends at its last entry.
    An occurrence new to X + v + u must use v, in the pattern's
    second-to-last slot: only the unused values above v are tested for
    patterns ending in a rise, and only those below v for the rest.  The
    empty prefix tests every value (a pattern of length 1 occurs in every
    nonempty word), and a full word needs no test.
    """
    rising = [plan for plan in plans if plan[2]]
    falling = [plan for plan in plans if not plan[2]]
    word = [0] * n
    used = [False] * (n + 1)
    if n == 0:
        yield ()
        return
    if _completes(word, used, 0, plans, range(1, n + 1)):
        return
    # one candidate iterator per filled position; word[pos] is the value
    # taken from stack[pos], marked in used while deeper positions are open
    stack = [iter(candidates(word, used, 0))]
    while stack:
        pos = len(stack) - 1
        length = pos + 1
        for v in stack[pos]:
            word[pos] = v
            if length == n or not (
                _completes(word, used, length, rising, range(v + 1, n + 1))
                or _completes(word, used, length, falling, range(1, v))
            ):
                break
        else:
            stack.pop()
            if pos:
                used[word[pos - 1]] = False
            continue
        if length == n:
            yield tuple(word)
        else:
            used[v] = True
            stack.append(iter(candidates(word, used, length)))


def unused_values(word: list[int], used: list[bool], pos: int) -> Iterator[int]:
    """Every value not yet placed, in increasing order."""
    return (v for v in range(1, len(word) + 1) if not used[v])


def count_avoiders_py(n: int, patterns: Sequence[Pattern]) -> int:
    """|S_n(patterns)| by pruned backtracking."""
    return sum(1 for _ in avoiding_words(n, [compile_pattern(p) for p in patterns], unused_values))


# ---------------------------------------------------------------------------
# memoised completion counting
#
# How a prefix can be completed depends only on its canonical state: the
# number m of values still unused and, for each pattern p and each
# 1 <= j < |p|, the occurrences of p[:j] in the prefix.  A later entry
# compares with a used value u only through u's cut rank, the number of
# unused values below u: an unused value of rank r (0-based among the
# unused) lies above u exactly when cut rank(u) <= r.  An occurrence is kept
# as the tuple of cut ranks of its values in increasing value order,
# restricted to the values that bound a gap where some entry of p[j:] must
# go.  A value bounding such gaps only from below is best small, one
# bounding them only from above is best large, and one bounding both must
# match exactly; a tuple whose gaps all contain another tuple's is dropped,
# since every completion it allows the other allows too (Marinov and
# Radoicic, "Counting 1324-avoiding permutations", EJC 9(2), 2003).

_ROOT = ((),)  # the one occurrence of the empty prefix p[:0]


def _gap_roles(
    values: list[int], future: Sequence[int], k: int
) -> tuple[list[int], tuple[int, ...]]:
    """Indices into sorted values that bound a gap holding a future entry,
    and their roles: 1 lower bound only, -1 upper bound only, 0 both."""
    kept: list[int] = []
    roles: list[int] = []
    for g, v in enumerate(values):
        below = values[g - 1] if g else 0
        above = values[g + 1] if g + 1 < len(values) else k + 1
        lower = any(v < f < above for f in future)
        upper = any(below < f < v for f in future)
        if lower or upper:
            kept.append(g)
            roles.append(0 if lower and upper else (1 if lower else -1))
    return kept, tuple(roles)


def _pattern_plan(pat: Pattern) -> list[tuple]:
    """One step per j < |pat|: (lo, hi, src, roles) to extend a p[:j] tuple
    by the entry pat[j].

    The new entry's rank must be >= tuple[lo] and < tuple[hi] (-1: no
    bound).  ``src`` builds the p[:j+1] tuple from the old one (-1: the new
    entry) and ``roles`` are its coordinates' roles; both are None on the
    last step, whose success means an occurrence of pat.
    """
    k = len(pat)
    steps = []
    kept, _ = _gap_roles([], pat, k)
    for j in range(k):
        h = sum(1 for v in pat[:j] if v < pat[j])  # gap of pat[j] in p[:j]
        lo = kept.index(h - 1) if h > 0 else -1
        hi = kept.index(h) if h < j else -1
        if j + 1 == k:
            steps.append((lo, hi, None, None))
            break
        new_kept, roles = _gap_roles(sorted(pat[: j + 1]), pat[j + 1 :], k)
        src = tuple(
            kept.index(g) if g < h else (-1 if g == h else kept.index(g - 1))
            for g in new_kept
        )
        steps.append((lo, hi, src, roles))
        kept = new_kept
    return steps


def _antichain(items: set, roles: tuple[int, ...]) -> tuple:
    """The undominated tuples, sorted."""
    if len(items) <= 1:
        return tuple(items)
    if len(roles) == 1 and roles[0]:
        return (min(items),) if roles[0] == 1 else (max(items),)
    ranked = sorted(
        [
            (
                sum([c * s for c, s in zip(t, roles)]),
                tuple([c for c, s in zip(t, roles) if not s]),
                tuple([c * s for c, s in zip(t, roles) if s]),
                t,
            )
            for t in items
        ]
    )
    keep: list[tuple] = []
    for _, fixed, cost, t in ranked:
        if not any(
            fixed == f2 and all(a <= b for a, b in zip(c2, cost)) for f2, c2, _ in keep
        ):
            keep.append((fixed, cost, t))
    return tuple(sorted(t for _, _, t in keep))


def _extend(steps: list[tuple], levels: tuple, r: int) -> tuple:
    """The levels after appending the unused value of rank r (not blocked)."""
    out = []
    prev = _ROOT
    for j, cur in enumerate(levels):
        lo, hi, src, roles = steps[j]
        items = {tuple([c - 1 if c > r else c for c in t]) for t in cur}
        for t in prev:
            if (lo < 0 or r >= t[lo]) and (hi < 0 or r < t[hi]):
                items.add(tuple([r if s < 0 else t[s] - (t[s] > r) for s in src]))
        out.append(_antichain(items, roles))
        prev = cur
    return tuple(out)


class LevelAutomaton:
    """One pattern's levels and transitions, grown as counts visit them.

    A level id names one state of the pattern: its p[:j] tuple sets for
    every j < |p|, interned in ``levels`` and ``ids``.  ``moves`` maps
    ``(id, r)``, appending the unused value of rank r, to the next id, or
    to -1 when that value completes an occurrence.  None of it depends on
    n or on the other patterns of a set, so one automaton serves every
    count of its pattern; a ``PatternSet`` holds one per pattern for as
    long as the set lives.  Nothing is built before the first count.
    """

    __slots__ = ("pattern", "steps", "levels", "ids", "chains", "moves")
    levels: list[tuple]
    ids: dict[tuple, int]
    chains: dict[tuple, tuple]  # one copy of each p[:j] tuple set in levels
    moves: dict[tuple[int, int], int]

    def __init__(self, pattern: Sequence[int]):
        self.pattern = tuple(pattern)
        self.steps: list[tuple] | None = None  # start() sets it and the tables

    def start(self) -> LevelAutomaton:
        """Compile the plan and intern the root level, id 0, once."""
        if self.steps is None:
            self.steps = _pattern_plan(self.pattern)
            root = tuple(() for _ in self.steps[:-1])
            self.levels, self.ids, self.chains, self.moves = [root], {root: 0}, {}, {}
        return self

    def blocks(self, sid: int, r: int) -> bool:
        """Does the unused value of rank r complete an occurrence at level
        sid?  A yes is recorded as the move -1."""
        lo, hi = self.steps[-1][:2]
        levels = self.levels[sid]
        for t in levels[-1] if levels else _ROOT:
            if (lo < 0 or r >= t[lo]) and (hi < 0 or r < t[hi]):
                self.moves[sid, r] = -1
                return True
        return False

    def grow(self, sid: int, r: int) -> int:
        """Build, intern and record the level after appending rank r to sid."""
        levels = _extend(self.steps, self.levels[sid], r)
        nxt = self.ids.get(levels)
        if nxt is None:
            # levels share few distinct p[:j] tuple sets
            levels = tuple(self.chains.setdefault(c, c) for c in levels)
            nxt = self.ids[levels] = len(self.levels)
            self.levels.append(levels)
        self.moves[sid, r] = nxt
        return nxt


def count_avoiders_memo(
    n: int, patterns: Sequence[Pattern], automata: Sequence[LevelAutomaton] | None = None
) -> int:
    """|S_n(patterns)| with completions counted once per canonical state.

    A prefix state is the tuple of its level ids, one per pattern, in the
    ``automata`` of the patterns (in the same order), which the call grows
    in place; without them it builds fresh ones.  Only the memo of counts,
    keyed by (values left, state), lives for this call alone.
    """
    if automata is None:
        automata = [LevelAutomaton(p) for p in patterns]
    autos = [a.start() for a in automata]
    moves = [a.moves for a in autos]
    npats = len(autos)
    memo: dict[tuple, int] = {}

    def child(state: tuple, r: int) -> tuple | None:
        # every pattern's blocking test runs before any level is rebuilt
        out: list = []
        for i in range(npats):
            nxt = moves[i].get((state[i], r))
            if nxt is None:
                if autos[i].blocks(state[i], r):
                    return None
            elif nxt < 0:
                return None
            out.append(nxt)
        if None in out:
            for i in range(npats):
                if out[i] is None:
                    out[i] = autos[i].grow(state[i], r)
        return tuple(out)

    # depth first over an explicit stack, so n is not bounded by the
    # recursion limit; a frame is [values left, state, next value, total]
    if n == 0:
        return 1
    stack: list[list] = [[n, (0,) * npats, 0, 0]]
    while True:
        frame = stack[-1]
        m, state, r, total = frame
        if r == m:
            memo[(m, state)] = total
            stack.pop()
            if not stack:
                return total
            stack[-1][3] += total
            continue
        frame[2] = r + 1
        nxt = child(state, r)
        if nxt is None:
            continue
        sub = 1 if m == 1 else memo.get((m - 1, nxt))
        if sub is None:
            stack.append([m - 1, nxt, 0, 0])
        else:
            frame[3] = total + sub


def da_values(word: list[int], used: list[bool], pos: int) -> Iterator[int]:
    """The unused values that keep the prefix completable to a doubly
    alternating word, in increasing order.

    Position parity forces rise/descent against the previous entry; an even
    value may only be placed once both odd neighbours are already present,
    which is exactly what alternation of the inverse requires.
    """
    n = len(word)
    if pos == 0:
        low, high = 1, n
    elif pos % 2 == 1:  # 1-based position pos+1 is even: strict rise
        low, high = word[pos - 1] + 1, n
    else:  # strict descent
        low, high = 1, word[pos - 1] - 1
    for v in range(low, high + 1):
        if not used[v] and (v % 2 == 1 or (used[v - 1] and (v == n or used[v + 1]))):
            yield v


def count_da_py(n: int, patterns: Sequence[Pattern]) -> int:
    """|DA_n(patterns)| by pruned backtracking (patterns may be empty)."""
    return sum(1 for _ in avoiding_words(n, [compile_pattern(p) for p in patterns], da_values))


# counting goes through these names, so a tracer can wrap them
count_avoiders_raw = count_avoiders_memo
count_da_raw = count_da_py


def engine_name() -> str:
    return "pure-python"
