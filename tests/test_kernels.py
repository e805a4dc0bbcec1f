"""The counting kernels against their oracles.

The matcher must equal an exhaustive search at every end position, the
pruned driver must yield brute force's avoiders in the same order, the
plain counters must equal brute force over all permutations, the
memoised counter must equal the plain one, and ``counting`` must count
through the memoised engine on every input, however long or many the
patterns.
"""

import gc
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import permutoria
from permutoria import counting, kernels
from permutoria.permcore import PatternSet, contains_pattern_bruteforce, is_doubly_alternating


def brute_avoids(w, patterns):
    """Avoidance by the exhaustive oracle, independent of the kernels' matcher."""
    return not any(contains_pattern_bruteforce(w, p) for p in patterns)


def brute_avoiders(n, patterns):
    return sum(1 for w in itertools.permutations(range(1, n + 1)) if brute_avoids(w, patterns))


def brute_da(n, patterns):
    return sum(
        1
        for w in itertools.permutations(range(1, n + 1))
        if is_doubly_alternating(w) and brute_avoids(w, patterns)
    )


CASES = [
    ((1, 2, 3),),
    ((3, 2, 1),),
    ((2, 4, 1, 3),),
    ((1, 2, 3, 4), (2, 1, 3, 4)),
    ((2, 1, 3), (4, 1, 2, 3)),
]


@pytest.mark.parametrize("patterns", CASES)
def test_pure_matches_bruteforce(patterns):
    for n in range(8):
        assert kernels.count_avoiders_py(n, patterns) == brute_avoiders(n, patterns)


@pytest.mark.parametrize("patterns", CASES)
def test_memo_matches_plain(patterns):
    for n in range(10):
        assert kernels.count_avoiders_memo(n, patterns) == kernels.count_avoiders_py(n, patterns)


pattern = st.integers(1, 5).flatmap(
    lambda k: st.permutations(list(range(1, k + 1))).map(tuple)
)


def ends_at_bruteforce(w, k, p):
    """Does some occurrence of p in w[:k] use position k - 1?  Exhaustive."""
    m = len(p)
    for idx in itertools.combinations(range(k - 1), m - 1):
        values = [w[i] for i in idx] + [w[k - 1]]
        if tuple(sorted(values).index(v) + 1 for v in values) == p:
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: st.permutations(list(range(1, n + 1)))), pattern)
def test_matcher_matches_bruteforce_at_every_end(w, p):
    plan = kernels.compile_pattern(p)
    for k in range(1, len(w) + 1):
        assert kernels._ends_at_last(w, k, plan) == ends_at_bruteforce(w, k, p), (w, k, p)


def compiled(patterns):
    return [kernels.compile_pattern(p) for p in patterns]


pattern_sets = st.lists(pattern, min_size=0, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), pattern_sets)
@example(1, [(1,)])  # only the empty prefix's test refuses a length-1 pattern here
@example(3, [(1,)])
def test_driver_matches_bruteforce_list(n, patterns):
    # the pruned driver yields exactly the avoiders, in lexicographic order
    got = list(kernels.avoiding_words(n, compiled(patterns), kernels.unused_values))
    assert got == [w for w in itertools.permutations(range(1, n + 1)) if brute_avoids(w, patterns)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), pattern_sets)
@example(4, [(1, 2, 3), (3, 2, 1)])
def test_da_driver_matches_bruteforce_list(n, patterns):
    got = list(kernels.avoiding_words(n, compiled(patterns), kernels.da_values))
    assert got == [
        w
        for w in itertools.permutations(range(1, n + 1))
        if is_doubly_alternating(w) and brute_avoids(w, patterns)
    ]


@settings(max_examples=40, deadline=None)
@given(st.lists(pattern, min_size=1, max_size=4))
def test_memo_matches_plain_sampled(patterns):
    for n in range(9):
        assert kernels.count_avoiders_memo(n, patterns) == kernels.count_avoiders_py(n, patterns)


def test_memo_edge_cases():
    for n in range(8):
        # a length-1 pattern occurs in every nonempty permutation
        assert kernels.count_avoiders_memo(n, ((1,),)) == (1 if n == 0 else 0)
        # patterns longer than n never occur
        long = ((1, 2, 3, 4, 5, 6, 7, 8, 9), (9, 8, 7, 6, 5, 4, 3, 2, 1))
        assert kernels.count_avoiders_memo(n, long) == kernels.count_avoiders_py(n, long)
        assert kernels.count_avoiders_memo(n, ()) == kernels.count_avoiders_py(n, ())
    assert kernels.count_avoiders_memo(10, ((1, 3, 2, 4),)) == 591950


def test_memo_does_not_recurse_per_value():
    # a child process whose recursion limit is below n counts S_n(21)
    code = (
        "import sys\nfrom permutoria import kernels\nsys.setrecursionlimit(150)\n"
        "print(kernels.count_avoiders_memo(200, ((2, 1),)))"
    )
    src = str(Path(permutoria.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


def test_no_cyclic_garbage():
    # garbage kept in a reference cycle lives until the next collector pass,
    # so a long run would hold several counters' tables at once
    gc.collect()
    for count in (kernels.count_avoiders_memo, kernels.count_avoiders_py, kernels.count_da_py):
        count(7, ((1, 3, 2, 4),))
        assert gc.collect() == 0, count.__name__


@pytest.mark.parametrize("patterns", CASES + [()])
def test_pure_da_matches_bruteforce(patterns):
    for n in range(8):
        assert kernels.count_da_py(n, patterns) == brute_da(n, patterns)


# a pattern longer than 8 and a set of 13 patterns: inputs beyond the
# former compiled kernel's limits
LONG_PATTERN = ((2, 1, 3, 4, 5, 6, 7, 8, 9),)
MANY_PATTERNS = tuple(itertools.islice(itertools.permutations((1, 2, 3, 4)), 13))


@pytest.mark.parametrize("patterns", [LONG_PATTERN, MANY_PATTERNS], ids=["long", "many"])
def test_counting_accepts_any_pattern_set(patterns):
    for n in range(9):
        assert counting.count_avoiders(n, PatternSet(patterns)) == kernels.count_avoiders_py(
            n, patterns
        )


def test_engine_name():
    assert kernels.engine_name() == "pure-python"
    assert kernels.count_avoiders_raw is kernels.count_avoiders_memo
    assert kernels.count_da_raw is kernels.count_da_py
