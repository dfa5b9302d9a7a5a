"""checkmate: a rule DSL and engine for validating tabular data.

Express data-quality requirements as rules (``staff >= 0``,
``if (staff > 0) staff.costs > 0``, ``city + street ~ postal_code``),
confront datasets with them under three-valued logic, then summarize,
aggregate, and diff the outcomes across dataset versions.
"""

from .diffs import chart_data, compare_cells, compare_validations
from .engine import Validation, check_that, confront, eval_expr, eval_fd
from .frame import Column, DataFrame, from_dict, ingest_csv
from .results import (
    aggregate_results,
    all_pass,
    any_fail,
    collect_errors,
    collect_warnings,
    sort_results,
    summarize,
    to_records,
    values,
)
from .rule_io import export_yaml, read_rules, rules_to_table, table_to_rules
from .rules import (
    OptionSet,
    Rule,
    RuleSet,
    concat,
    get_metadata,
    global_options,
    meta_put,
    new_ruleset,
    set_metadata,
    set_options,
    subset,
    variables_matrix,
)

__all__ = [
    "Column",
    "DataFrame",
    "OptionSet",
    "Rule",
    "RuleSet",
    "Validation",
    "aggregate_results",
    "all_pass",
    "any_fail",
    "chart_data",
    "check_that",
    "collect_errors",
    "collect_warnings",
    "compare_cells",
    "compare_validations",
    "concat",
    "confront",
    "eval_expr",
    "eval_fd",
    "export_yaml",
    "from_dict",
    "get_metadata",
    "global_options",
    "ingest_csv",
    "meta_put",
    "new_ruleset",
    "read_rules",
    "rules_to_table",
    "set_metadata",
    "set_options",
    "sort_results",
    "subset",
    "summarize",
    "table_to_rules",
    "to_records",
    "values",
    "variables_matrix",
]

__version__ = "0.1.0"
