"""The value semantics of the AST nodes and the result records: equality,
hashing, immutability, reprs and pickling (outcomes cross the boundary of
the per-version worker processes)."""

import dataclasses
import pickle

import pytest

from checkmate import dsl, from_dict, new_ruleset
from checkmate.engine import RuleOutcome, check_that

# one node of every type, each field set
NODES = [
    dsl.NumberLit(1.0),
    dsl.StringLit("x"),
    dsl.BoolLit(True),
    dsl.MissingLit(),
    dsl.Identifier("x"),
    dsl.DatasetRef(),
    dsl.Paren(dsl.Identifier("x")),
    dsl.Unary("!", dsl.Identifier("x")),
    dsl.Binary("+", dsl.Identifier("x"), dsl.NumberLit(2.0)),
    dsl.Call("mean", [dsl.Identifier("x")], {"na.rm": dsl.BoolLit(True)}),
    dsl.Implication(dsl.Identifier("p"), dsl.Identifier("q")),
    dsl.FuncDep(["a", "b"], ["c"]),
    dsl.MacroDef("m", dsl.Identifier("x")),
    dsl.GroupDef("G", ["a", "b"]),
    dsl.RuleExpr(dsl.Identifier("x")),
]


class TestNodes:
    @pytest.mark.parametrize(
        "a, b",
        [
            (dsl.Identifier("x"), dsl.StringLit("x")),
            (dsl.NumberLit(1.0), dsl.BoolLit(True)),
            (dsl.MissingLit(), dsl.DatasetRef()),
            (dsl.Paren(dsl.Identifier("x")), dsl.RuleExpr(dsl.Identifier("x"))),
        ],
    )
    def test_equal_fields_of_other_types_differ(self, a, b):
        assert a != b and b != a
        assert not a == b

    def test_nodes_are_not_their_fields(self):
        assert dsl.NumberLit(1.0) != (1.0,)
        assert (1.0,) != dsl.NumberLit(1.0)

    def test_equal_nodes_hash_equal(self):
        a = dsl.parse_expression("x + 2 > y * -1 | !b")
        b = dsl.parse_expression("x + 2 > y * -1 | !b")
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b, dsl.MissingLit(), dsl.MissingLit()}) == 2

    def test_call_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(dsl.Call("f", []))

    def test_call_defaults_its_arguments(self):
        c = dsl.Call("n")
        assert c.args == [] and c.named_args == {}
        assert dsl.Call("n").args is not c.args
        assert c == dsl.Call("n", [], {})

    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_pickle_round_trip(self, node):
        copy = pickle.loads(pickle.dumps(node))
        assert copy == node and type(copy) is type(node)
        assert repr(copy) == repr(node)

    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_fields_cannot_be_assigned(self, node):
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.value = 2
        with pytest.raises(AttributeError):
            del node.value

    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_every_node_is_true(self, node):
        assert node

    def test_field_less_nodes_are_true(self):
        assert bool(dsl.MissingLit()) and bool(dsl.DatasetRef())

    def test_repr_of_a_parsed_rule(self):
        d = dsl.parse('if (x > 0 & !is.na(y)) mean(y, na.rm = TRUE) >= -1.5 * "a"')
        assert repr(d) == (
            "RuleExpr(body=Implication(condition=Binary(op='&', lhs=Binary(op='>', "
            "lhs=Identifier(name='x'), rhs=NumberLit(value=0.0)), rhs=Unary(op='!', "
            "operand=Call(fname='is.na', args=[Identifier(name='y')], named_args={}))), "
            "consequent=Binary(op='>=', lhs=Call(fname='mean', args=[Identifier(name='y')], "
            "named_args={'na.rm': BoolLit(value=True)}), rhs=Binary(op='*', "
            "lhs=Unary(op='negate', operand=NumberLit(value=1.5)), rhs=StringLit(value='a')))))"
        )

    def test_repr_of_directives_and_field_less_nodes(self):
        assert repr(dsl.parse("a + b ~ c")) == (
            "RuleExpr(body=FuncDep(determinant=['a', 'b'], dependent=['c']))"
        )
        assert repr(dsl.parse("G := var_group(a, b)")) == "GroupDef(name='G', members=['a', 'b'])"
        assert repr(dsl.parse("m := x")) == "MacroDef(name='m', body=Identifier(name='x'))"
        assert repr(dsl.parse("x %in% c(NA, .)")) == (
            "RuleExpr(body=Binary(op='%in%', lhs=Identifier(name='x'), "
            "rhs=Call(fname='c', args=[MissingLit(), DatasetRef()], named_args={})))"
        )


class TestRecords:
    @pytest.fixture
    def validation(self):
        df = from_dict({"id": ["a", "b", "c"], "x": [1.0, None, -2.0]})
        return check_that(df, "x > 0", "sqrt(x) > 0", key="id")

    def test_repr_of_outcomes(self, validation):
        assert [repr(o) for o in validation.outcomes] == [
            "RuleOutcome(name='V1', expression='(x - 0) > -1e-08', "
            "result=[True, None, False], error=None, warnings=[])",
            "RuleOutcome(name='V2', expression='sqrt(x) > 0', result=None, "
            "error=\"unknown function 'sqrt'\", warnings=[])",
        ]

    def test_outcome_defaults_and_equality(self):
        o = RuleOutcome("r", "x > 0")
        assert (o.result, o.error, o.warnings) == (None, None, [])
        assert o == RuleOutcome("r", "x > 0", None, None, [])
        assert o != RuleOutcome("r", "x > 1")
        assert RuleOutcome("r", "x").warnings is not o.warnings

    def test_validation_pickle_round_trip(self, validation):
        copy = pickle.loads(pickle.dumps(validation))
        assert copy == validation
        assert copy.outcomes == validation.outcomes
        assert copy.key_values == ["a", "b", "c"] and copy.n_records == 3

    def test_outcome_pickle_round_trip(self, validation):
        for o in validation.outcomes:
            assert pickle.loads(pickle.dumps(o)) == o

    def test_rule_and_ruleset_pickle_round_trip(self):
        rs, _ = new_ruleset([("r1", "x > 0"), (None, "if (x > 0) y > 0")])
        rs.local_options = {"na.value": True}
        copy = pickle.loads(pickle.dumps(rs))
        assert copy == rs and copy.rules[1] == rs.rules[1]
        assert repr(copy) == repr(rs)

    def test_records_are_unhashable(self, validation):
        rs, _ = new_ruleset([("r1", "x > 0")])
        for record in (validation, validation.outcomes[0], rs, rs.rules[0]):
            with pytest.raises(TypeError):
                hash(record)
