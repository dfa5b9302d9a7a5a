"""The vector type that frame columns and evaluation results share."""

import pickle

import pytest

from checkmate import Column, DataFrame, dsl, eval_expr, from_dict
from checkmate.engine import Value as EngineValue
from checkmate.errors import DataError
from checkmate.frame import FILLERS, Value


class TestColumnIsAValue:
    def test_a_boolean_column_is_a_logical_vector(self):
        col = Column("b", "boolean", [True, False, False], (2,))
        assert isinstance(col, Value)
        assert (col.kind, col.type, len(col)) == ("logical", "boolean", 3)

    @pytest.mark.parametrize("type_, kind", [("number", "number"), ("text", "text"),
                                             ("boolean", "logical")])
    def test_type_round_trips(self, type_, kind):
        col = Column("c", type_, [FILLERS[kind]], (0,))
        assert col.kind == kind
        assert Column(col.name, col.type, col.values, col.na) == col

    def test_the_logical_kind_is_not_a_column_type(self):
        with pytest.raises(DataError, match="unknown column type 'logical'"):
            Column("b", "logical", [True])

    def test_cells_is_a_method_of_a_column_and_a_property_of_a_vector(self):
        col = Column("x", "number", [1.0, 0.0], (1,))
        assert col.cells() == [1.0, None]
        assert Value("number", [1.0, 0.0], (1,)).cells == [1.0, None]
        assert col.missing == [False, True]

    def test_the_engine_evaluates_to_the_same_type(self):
        assert EngineValue is Value
        v = eval_expr(dsl.parse_expression("x + 1"), from_dict({"x": [1.0, None]}))
        assert type(v) is Value and v.frame is None
        assert (v.kind, v.values, v.na) == ("number", [2.0, 0.0], (1,))


def test_a_pickled_frame_comes_back_equal():
    # the cells command sends frames back from forked worker processes
    df = from_dict(
        {"x": [1.5, None, float("inf")], "s": ["a", None, ""], "b": [True, None, False]}
    )
    back = pickle.loads(pickle.dumps(df))
    assert back == df
    assert [(c.name, c.type, c.kind) for c in back.columns] == [
        ("x", "number", "number"), ("s", "text", "text"), ("b", "boolean", "logical")
    ]
    assert back.column("s").cells() == ["a", None, ""]
    assert isinstance(back, DataFrame)
