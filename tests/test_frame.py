"""The vector type that frame columns and evaluation results share."""

import pickle

import pytest

from checkmate import Column, DataFrame, check_that, dsl, eval_expr, from_dict, ingest_csv
from checkmate.engine import Value as EngineValue
from checkmate.errors import DataError, EvalError
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


# one column's cells as Python values, the kind every reader gives them (or
# "error"), and the same cells as CSV text: None where CSV cannot express them
READER_CASES = {
    "all missing": ([None, None], "number", ["NA", ""]),
    "empty": ([], "number", []),
    "integer": ([1, None, -2], "number", ["1", "NA", "-2"]),
    "float": ([1.5, None], "number", ["1.5", ""]),
    "bool": ([True, None, False], "logical", ["TRUE", "NA", "false"]),
    "text": (["a", None, "1"], "text", ["a", "", "1"]),
    "bool and number": ([1, True], "error", None),
}


def _read(reader):
    """The kind, values and missing indices of what ``reader()`` returns, or "error"."""
    try:
        v = reader()
    except (DataError, EvalError):
        return "error"
    return v.kind, v.values, v.na


@pytest.mark.parametrize("cells, kind, csv_cells", READER_CASES.values(), ids=list(READER_CASES))
def test_every_reader_types_cells_alike(tmp_path, cells, kind, csv_cells):
    identifier = dsl.Identifier("x")
    read = {
        "from_dict": _read(lambda: from_dict({"x": cells}).column("x")),
        "reference list": _read(lambda: eval_expr(identifier, DataFrame(), {"x": cells})),
    }
    if csv_cells is not None:
        path = tmp_path / "data.csv"
        path.write_text("x,y\n" + "".join(f"{c},0\n" for c in csv_cells))
        read["csv"] = _read(lambda: ingest_csv(str(path)).column("x"))
    first = read["from_dict"]
    assert all(r == first for r in read.values()), read
    assert (first if first == "error" else first[0]) == kind


def test_a_mixed_reference_list_is_a_rule_error():
    v = check_that(DataFrame(), "is.numeric(x)", ref={"x": [1, True]})
    assert v.outcomes[0].error == "reference vector mixes cell types"


class TestDeclaredTypes:
    def test_cells_that_contradict_the_declared_type_are_an_error(self):
        with pytest.raises(DataError, match="column 'x': declared text, but its cells are number"):
            from_dict({"x": [1.0]}, {"x": "text"})

    def test_mixed_cells_are_an_error_that_names_the_column(self):
        with pytest.raises(DataError, match="column 'x': mixed cell types"):
            from_dict({"x": [1.0, "a"]}, {"x": "text"})

    @pytest.mark.parametrize("type_", ["number", "text", "boolean"])
    def test_a_list_with_no_present_cell_takes_any_declared_type(self, type_):
        col = from_dict({"x": [None, None]}, {"x": type_}).column("x")
        assert (col.type, col.cells()) == (type_, [None, None])

    @pytest.mark.parametrize("cells", [[1.0], [None]])
    def test_an_unknown_type_keeps_its_message(self, cells):
        with pytest.raises(DataError, match="unknown column type 'float'"):
            from_dict({"x": cells}, {"x": "float"})
