"""``dsl.expand`` and ``dsl.census`` checked against the walks they replaced.

``legacy_expansion`` substituted macros, then expanded groups over the result,
each pass with its own walk and its own size count. Both sides define the same
generated macros in order and expand the same generated rules against them;
every definition and rule must give equal trees or the same ``ParseError``
text. Wide calls, deep nests and large groups reach the depth and node
bounds, and macros are named inside functional dependencies. A functional
dependency keeps a name whose macro body is not a name, so on the legacy side
it is given only the macros whose body is a name. ``dsl.census`` is checked
against the ``extent`` and ``_census`` walks it replaced, and, given a macro
table, against the census of the tree ``dsl.expand`` builds.
"""

import functools

from hypothesis import example, given, settings
from hypothesis import strategies as st

import legacy_expansion
from checkmate import dsl
from checkmate.errors import ParseError

PINNED = settings(derandomize=True, max_examples=200, deadline=None, database=None)

# G and H name groups, m and n macros; G may also name a macro, which then wins
NAMES = ["a", "b", "G", "H", "m", "n"]
MACRO_NAMES = ["m", "n", "G"]
BINARY_OPS = ["|", "&", "<", "==", "+", "-", "*", "/", "^"]
# 1,000 copies of a rule of 100 nodes are as many nodes as a rule may expand into
BIG_GROUP = [f"v{i}" for i in range(1_000)]


def _wide(name, count):
    return dsl.Call("c", [dsl.Identifier(name)] * count)


def _deep(inner, count, nest):
    return functools.reduce(lambda e, _: nest(e), range(count), inner)


# a nest of negations, or of sums, whose parentheses add a level under * or ^
NESTS = [lambda e: dsl.Unary("negate", e), lambda e: dsl.Binary("+", e, dsl.NumberLit(1.0))]


leaves = st.one_of(
    st.builds(dsl.Identifier, st.sampled_from(NAMES)),
    st.builds(dsl.NumberLit, st.sampled_from([0.0, 2.0])),
    st.builds(dsl.MissingLit),
    st.builds(_wide, st.sampled_from(NAMES), st.sampled_from([2, 250, 400])),
)


def _compound(kids):
    return st.one_of(
        st.builds(dsl.Paren, kids.filter(lambda k: type(k) is not dsl.Paren)),
        st.builds(dsl.Unary, st.sampled_from(["!", "negate"]), kids),
        st.builds(dsl.Binary, st.sampled_from(BINARY_OPS), kids, kids),
        st.builds(
            dsl.Call,
            st.sampled_from(["f", "mean"]),
            st.lists(kids, max_size=2),
            st.dictionaries(st.sampled_from(["k", "na.rm"]), kids, max_size=1),
        ),
        st.builds(dsl.Implication, kids, kids),
    )


shallow = st.recursive(leaves, _compound, max_leaves=8)
# as from the parser, no deeper than MAX_DEPTH levels; some near that bound
expressions = st.one_of(
    shallow,
    st.builds(_deep, shallow, st.sampled_from([70, 138, 142]), st.sampled_from(NESTS)).filter(
        lambda e: dsl.census(e)[1] <= dsl.MAX_DEPTH
    ),
)

# a functional dependency is only valid as a whole rule
rule_bodies = st.one_of(
    expressions,
    st.builds(
        dsl.FuncDep,
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=3),
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=2),
    ),
)

definitions = st.lists(st.tuples(st.sampled_from(MACRO_NAMES), expressions), max_size=4)
groups = st.dictionaries(
    st.sampled_from(["G", "H"]),
    st.one_of(*[st.lists(st.sampled_from(["a", "b", "m", "x"]), min_size=1, max_size=3)] * 4,
              st.just(BIG_GROUP)),
)


def _outcome(expand):
    try:
        return expand()
    except ParseError as exc:
        return str(exc)


def _legacy(defs, groups, rules):
    macros, out = {}, []
    for name, body in defs:
        out.append(_outcome(lambda: [legacy_expansion.substitute_macros(body, macros)]))
        if type(out[-1]) is list:
            macros[name] = out[-1][0]
    renaming = {name: body for name, body in macros.items() if type(body) is dsl.Identifier}
    for e in rules:
        table = renaming if type(e) is dsl.FuncDep else macros
        out.append(_outcome(lambda: legacy_expansion.expand_groups(
            legacy_expansion.substitute_macros(e, table), groups)))
    return out


def _macro_table(defs):
    """The macro table ``defs`` define, and each definition's outcome."""
    macros, out = {}, []
    for name, body in defs:
        entry = _outcome(lambda: dsl.insert_macros(body, macros))
        out.append(entry if type(entry) is str else [entry[0]])
        if type(entry) is tuple:
            macros[name] = entry
    return macros, out


def _current(defs, groups, rules):
    macros, out = _macro_table(defs)
    for e in rules:
        out.append(_outcome(lambda: dsl.expand(e, macros, groups)))
    return out


x, z = dsl.Identifier("x"), dsl.Identifier("z")
_PLUS_ONE = dsl.Binary("+", x, dsl.NumberLit(1.0))
_HALF_BIG = dsl.Call("c", [dsl.Identifier("m")] * 200)  # 200 uses of a 251-node macro
_QUARTER = [f"v{i}" for i in range(dsl.MAX_NODES // 4 + 1)]


@PINNED
@given(definitions, groups, st.lists(rule_bodies, min_size=1, max_size=3))
# a functional dependency keeps a macro with an expression body as a name: one
# node and one level, whatever its body, towards both bounds
@example([("m", _wide("x", 999))], {"G": BIG_GROUP[:100]}, [dsl.FuncDep(["m", "G"], ["z"])])
@example([("m", _PLUS_ONE)], {"G": _QUARTER}, [dsl.FuncDep(["m", "G"], ["z"])])
@example([("m", _wide("x", 250)), ("n", _HALF_BIG)], {}, [dsl.FuncDep(["n", "n"], ["z"])])
@example([("m", _deep(x, 148, NESTS[0]))], {}, [dsl.FuncDep(["m"], ["z"])])
@example([("m", _deep(x, 149, NESTS[0]))], {}, [dsl.FuncDep(["m"], ["z"])])
# a sum put under * takes parentheses, and so one more level: 151 here
@example([("m", _deep(x, 148, NESTS[1]))], {}, [dsl.Binary("*", dsl.Identifier("m"), z)])
@example([("m", _deep(x, 148, NESTS[1]))], {}, [dsl.Binary("&", dsl.Identifier("m"), z)])
# a group named only in a macro body, and the order of two groups named there
@example([("m", dsl.Binary("*", dsl.Identifier("G"), z))], {"G": ["a", "b"]},
          [dsl.FuncDep(["m"], ["z"]), dsl.Binary(">", dsl.Identifier("m"), z)])
@example([("m", dsl.Binary("-", dsl.Identifier("H"), dsl.Identifier("G")))],
          {"G": ["a", "b"], "H": ["x", "m"]}, [dsl.Binary(">", dsl.Identifier("m"), z)])
# only a rule that inserts a macro or names a group is bounded in size
@example([("m", x)], {"G": ["a"]}, [_wide("a", dsl.MAX_NODES)])
def test_expand_matches_substitution_then_groups(defs, groups, rules):
    assert _current(defs, groups, rules) == _legacy(defs, groups, rules)


@PINNED
@given(rule_bodies)
def test_census_matches_extent_and_census(e):
    names, levels, nodes, inserted = dsl.census(e)
    assert (levels, nodes) == legacy_expansion.extent(e)
    assert (names, nodes) == legacy_expansion._census(e)
    assert inserted == {}


@PINNED
@given(definitions, rule_bodies)
def test_census_with_macros_is_the_census_of_the_expansion(defs, e):
    macros, _ = _macro_table(defs)
    names, levels, nodes, inserted = dsl.census(e, macros)
    out = _outcome(lambda: dsl.expand(e, macros, {}))
    if type(out) is str:
        assert inserted and (levels > dsl.MAX_DEPTH or nodes > dsl.MAX_NODES)
    else:
        assert (names, levels, nodes) == dsl.census(out[0])[:3]
