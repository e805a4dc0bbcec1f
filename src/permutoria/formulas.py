"""Catalog of closed-form generating functions for extended pattern avoidance.

Each entry maps a pattern set to one or more equivalent formulas in the
small expression language of :mod:`permutoria.series`.  The series expand
to  sum |S_{d,c,r}| x^d y^c z^r  and are audited coefficient-by-coefficient
against the brute-force tables.

``EXTENDABLY_SYMMETRIC`` lists the pattern sets claimed symmetric in the
empty-row/empty-column counts beyond the trivial self-inverse cases, and
``GRAPH_EQUIVALENT`` the pairs whose discovered generating graphs must be
isomorphic (with the parent rule to use for each side).
"""

from __future__ import annotations

from .permcore import PatternSet

CX = "c(x)"

# -- singletons of length three ------------------------------------------------
F_123 = (
    f"1/((1-y)*(1-z)-x) * (1 + x^2*{CX}/((1-y-x*{CX})*(1-z-x*{CX})))"
)
F_132 = f"{CX}/((1-y*{CX})*(1-z*{CX}))"
F_132_ALT = f"(1-x*{CX})/((1-y-x*{CX})*(1-z-x*{CX}))"

# -- pairs of length three (appendix list) --------------------------------------
F_123_132 = "1/((1-x)*(1-2*x)) * (x*y+1-x)/(1-y) * (x*z+1-x)/(1-z)"
F_123_213 = "1/(1-y) * 1/(1-z) + x/(1-2*x) * 1/(1-y)^2 * 1/(1-z)^2"
F_123_312 = (
    "1/(1-y) * 1/(1-z) * (1/(1-x) + x/(1-x)^2 * (z/(1-z) + y/(1-y)) + x^2/(1-x)^3)"
)
F_132_213 = (
    "1/(1-x) * 1/(1-y) * 1/(1-z)"
    " * (1 - 2*x + x/(1-y) + x/(1-z) + x^2/(1-2*x) * 1/(1-y) * 1/(1-z))"
)
F_132_231 = "1/(1-z) * (1 + (1-x)*y/((1-2*x)*(1-x-y)) + x/(1-2*x) * 1/(1-z))"
F_132_321 = (
    "1/(1-x) * 1/(1-y) * 1/(1-z) + x^2/(1-x)^3 * (1/(1-y) + 1/(1-z) - 1)"
    " + x/(1-x)^2 * (y/(1-y) * z/(1-z) + y/(1-y)^2 + z/(1-z)^2)"
)
F_213_312 = "(1-x)/(1-2*x) * 1/(1-x-y) * (1/(1-z) - x)"
F_213_321 = (
    "1/(1-x) * (1/(1-y) + 1/(1-z) - 1) + (1+x)/(1-x)^2 * y/(1-y) * z/(1-z)"
    " + x/(1-x)^2 * (y/(1-y)^2 + z/(1-z)^2) + x^2/(1-x)^3 * 1/(1-y) * 1/(1-z)"
)
F_231_312 = (
    "1/(1-2*x) * (x + 1/(1-y) * 1/(1-z) - x*(1-2*y)/(1-y)^2 - x*(1-2*z)/(1-z)^2)"
)
F_312_321 = "1/(1-z) * (1 + y/(1-2*x)) + 1/(1-2*x) * (x/(1-z)^2 + y^2/(1-y))"

# -- triples of length three -----------------------------------------------------
F_123_132_213 = "1/(1-x-x^2) * (1+x*y)/(1-y) * (1+x*z)/(1-z)"
F_123_132_312 = "1/(1-x)^2 * 1/(1-y) * 1/(1-z) - x/(1-x)"
F_123_213_231 = "1/(1-x) * 1/(1-y) * 1/(1-z) * (1/(1-x) - x*(1-y) + x*z/(1-z))"
F_123_231_312 = (
    "1/(1-x)^2 * 1/(1-y) * 1/(1-z) + x/(1-x) * (y^2/(1-y)^2 + z^2/(1-z)^2 - 1)"
)
F_132_213_231 = "1/(1-x)^2 * 1/(1-y) * 1/(1-z) + x/(1-x) * (z/(1-z)^2 - 1/(1-z))"
F_132_231_312 = (
    "1/(1-x) * 1/(1-y) * 1/(1-z) + x^2/(1-x)^2 * (1/(1-y) + 1/(1-z) - 1)"
    " + x/(1-x) * (y/(1-y)^2 + z/(1-z)^2)"
)
F_132_231_321 = (
    "1/(1-x) * (1/(1-x) * (1/(1-y) + 1/(1-z) - 1) + y*z/(1-y) + x*y^2/(1-y)^2 - x)"
)
F_213_231_312 = "1/(1-x)^2 * 1/(1-y) * 1/(1-z) - x/(1-x)"
F_213_231_321 = "(1+z)/(1-x)^2 * 1/(1-y) + 1/(1-x)^2 * z^2/(1-z) - x/(1-x)"
F_231_312_321 = "1/(1-x-x^2) * ((1+x) * (1/(1-y) + 1/(1-z) - 1) + y*z - x)"

# -- quadruples ------------------------------------------------------------------
F_123_132_213_312 = "1/(1-x) * 1/(1-y) * 1/(1-z) + 1/(1-y) * x/(1-x) * (1+z) - x"
F_123_132_231_312 = (
    "1/(1-x) * 1/(1-y) * 1/(1-z) + x/(1-x) * (1/(1-y) + 1/(1-z) - 1) - x"
)
F_123_213_231_312 = "(1+x)/(1-x) * 1/(1-y) * 1/(1-z) - x"
F_132_213_231_312 = (
    "1/(1-x) * 1/(1-y) * 1/(1-z) + x/(1-x) * (1/(1-y) + 1/(1-z) - 1) - x"
)
F_132_213_231_321 = (
    "(1+x)/(1-x) * (1/(1-y) + 1/(1-z) - 1) + z/(1-x) * y/(1-y) - x"
)
F_132_231_312_321 = "(1+x)/(1-x) * (1/(1-y) + 1/(1-z) - 1) + y*z - x"
F_213_231_312_321 = "1/(1-x) * (0-1 + 1/(1-y) + 1/(1-z) + (x+y)*(x+z))"

# -- quintuples ------------------------------------------------------------------
F_123_132_213_231_312 = "1/(1-x) * 1/(1-y) * 1/(1-z) + x*(x+y+z)"
F_132_213_231_312_321 = "1/(1-x) * (1/(1-y) + 1/(1-z) - 1) + (x+y)*(x+z)"

# -- one pattern of length three, one of length four -----------------------------
F_213_4123 = (
    "1/((1-y)*(1-z)) * (1 + x*(1-x)/((1-x-y)*(1-3*x+x^2)) * (1/(1-z) - x))"
)
F_321_2413 = (
    "1/(1-z) + (1-x)^2/((1-x-z)*(1-3*x+x^2)) * (x/(1-z) + y/(1-y))"
    " + y^2/(1-y)^2 * x/(1-3*x+x^2)"
)
F_312_2314 = (
    "1/((1-z)*(1-3*x+x^2)*(1-2*x-y+x*y)) * (1 - 5*x + 6*x^2 + x*(1-2*x)/(1-z))"
)
F_231_4123 = (
    "1/(1-4*x+5*x^2-3*x^3) * (x^3"
    " + x^2*(y^2*(1-3*x)+3*x*y-x)/(1-y)^3"
    " + x^2*(z^2*(1-3*x)+3*x*z-x)/(1-z)^3"
    " + 1/((1-y)*(1-z)) * (1-5*x+5*x^2 + x*(1-x)*(1/(1-y) + 1/(1-z))))"
)
F_213_1234 = (
    "1/((1-y)*(1-z)) + x/((1-y)^2*(1-z)^2*(1-3*x+x^2))"
    " * (1 - 2*x + x*(1-x*y*z)/((1-y)*(1-z)))"
)
F_312_4321 = (
    "1/(1-z) + 1/(1-3*x+x^2) * (y^2*(1/(1-y) + 1/(1-z) - 1)"
    " + y*(1-2*x)/(1-z) + x*(1-2*x+y)/(1-z)^2 + x^2/(1-z)^3)"
)
F_231_1234 = (
    "1/((1-x)^3*(1-y)*(1-z)) * (x^2*(1/(1-y)^2 + 1/((1-y)*(1-z)) + 1/(1-z)^2)"
    " + (1-5*x+9*x^2-8*x^3+5*x^4)/(1-x)^2"
    " + x*(1-4*x+5*x^2)/(1-x) * (1/(1-y) + 1/(1-z) - 1))"
)


def _ps(text: str) -> PatternSet:
    return PatternSet.parse(text)


# pattern set -> tuple of equivalent formulas (every display is audited)
FORMULAS: dict[PatternSet, tuple[str, ...]] = {
    _ps("123"): (F_123,),
    _ps("213"): (F_123,),
    _ps("132"): (F_132, F_132_ALT),
    _ps("312"): (F_132, F_132_ALT),
    _ps("231"): (F_132, F_132_ALT),
    _ps("321"): (F_132, F_132_ALT),
    _ps("123,132"): (F_123_132,),
    _ps("123,213"): (F_123_213,),
    _ps("123,312"): (F_123_312,),
    _ps("123,231"): (F_123_312,),
    _ps("132,213"): (F_132_213,),
    _ps("132,231"): (F_132_231,),
    _ps("132,321"): (F_132_321,),
    _ps("213,312"): (F_213_312,),
    _ps("213,321"): (F_213_321,),
    _ps("231,312"): (F_231_312,),
    _ps("312,321"): (F_312_321,),
    _ps("123,132,213"): (F_123_132_213,),
    _ps("123,132,312"): (F_123_132_312,),
    _ps("123,132,231"): (F_123_132_312,),
    _ps("123,213,231"): (F_123_213_231,),
    _ps("123,231,312"): (F_123_231_312,),
    _ps("132,213,231"): (F_132_213_231,),
    _ps("132,231,312"): (F_132_231_312,),
    _ps("132,231,321"): (F_132_231_321,),
    _ps("213,231,312"): (F_213_231_312,),
    _ps("213,231,321"): (F_213_231_321,),
    _ps("231,312,321"): (F_231_312_321,),
    _ps("123,132,213,312"): (F_123_132_213_312,),
    _ps("123,132,231,312"): (F_123_132_231_312,),
    _ps("123,213,231,312"): (F_123_213_231_312,),
    _ps("132,213,231,312"): (F_132_213_231_312,),
    _ps("132,213,231,321"): (F_132_213_231_321,),
    _ps("132,231,312,321"): (F_132_231_312_321,),
    _ps("213,231,312,321"): (F_213_231_312_321,),
    _ps("123,132,213,231,312"): (F_123_132_213_231_312,),
    _ps("132,213,231,312,321"): (F_132_213_231_312_321,),
    _ps("213,4123"): (F_213_4123,),
    _ps("213,1423"): (F_213_4123,),
    _ps("123,2413"): (F_213_4123,),
    _ps("321,2413"): (F_321_2413,),
    _ps("312,1432"): (F_321_2413,),
    _ps("312,2431"): (F_321_2413,),
    _ps("231,4213"): (F_321_2413,),
    _ps("312,2314"): (F_312_2314,),
    _ps("312,3214"): (F_312_2314,),
    _ps("231,4123"): (F_231_4123,),
    _ps("213,1234"): (F_213_1234,),
    _ps("123,3214"): (F_213_1234,),
    _ps("312,4321"): (F_312_4321,),
    _ps("321,4123"): (F_312_4321,),
    _ps("231,1234"): (F_231_1234,),
}

# sets claimed symmetric under swapping empty-row/empty-column counts,
# beyond those already closed under inversion
EXTENDABLY_SYMMETRIC: tuple[PatternSet, ...] = (
    _ps("231"),
    _ps("123,231"),
    _ps("123,312"),
    _ps("123,132,231"),
    _ps("123,132,312"),
    _ps("231,4123"),
    _ps("231,1234"),
)

# pairs with isomorphic discovered generating graphs: (set, rule, set, rule)
GRAPH_EQUIVALENT: tuple[tuple[PatternSet, str, PatternSet, str], ...] = (
    (_ps("123"), "standard-extended", _ps("213"), "standard-extended"),
    (_ps("132"), "standard-extended", _ps("312"), "standard-extended"),
    (_ps("231"), "standard-extended", _ps("321"), "standard-extended"),
    (_ps("123,231,312"), "standard-extended", _ps("132,213,321"), "standard-extended"),
    (_ps("321,2413"), "standard-extended", _ps("231,4213"), "standard-extended"),
    (_ps("321,3142"), "standard-extended", _ps("231,4132"), "standard-extended"),
    (_ps("213,1234"), "standard-extended", _ps("123,3214"), "standard-extended"),
    (_ps("213,4123"), "standard-extended", _ps("213,1423"), "alt-extended"),
)

# the pattern-pair identity table: groups of extendably Wilf-equivalent sets,
# with each entry's transpose partner given by inverting the patterns
PAIR_TABLE_GROUPS: dict[str, tuple[PatternSet, ...]] = {
    "A": (_ps("213,1342"), _ps("213,2341"), _ps("123,3142")),
    "A-inv": (_ps("213,1423"), _ps("213,4123"), _ps("123,2413")),
    "B": (_ps("321,2413"), _ps("312,1432"), _ps("312,2431"), _ps("231,4213")),
    "B-inv": (_ps("321,3142"), _ps("231,1432"), _ps("231,4132"), _ps("312,3241")),
    "C": (_ps("231,3124"), _ps("231,3214")),
    "C-inv": (_ps("312,2314"), _ps("312,3214")),
    "D": (_ps("231,4123"),),
    "D-inv": (_ps("312,2341"),),
    "E": (_ps("213,1234"), _ps("123,3214")),
    "F": (_ps("321,2341"), _ps("231,4321")),
    "F-inv": (_ps("321,4123"), _ps("312,4321")),
    "G": (_ps("231,1234"),),
    "G-inv": (_ps("312,1234"),),
}

# these two finite families agree in plain counts for every size but differ
# in extended cells; they are checked as ordinary Wilf-equivalence only
PAIR_TABLE_ORDINARY: dict[str, tuple[PatternSet, ...]] = {
    "H": (_ps("321,1234"), _ps("123,4321")),
}
