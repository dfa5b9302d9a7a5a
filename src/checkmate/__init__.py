"""checkmate: a rule DSL and engine for validating tabular data.

Express data-quality requirements as rules (``staff >= 0``,
``if (staff > 0) staff.costs > 0``, ``city + street ~ postal_code``),
confront datasets with them under three-valued logic, then summarize,
aggregate, and diff the outcomes across dataset versions.
"""

# public name -> the submodule that defines it; a name's submodule is imported
# when the name is first read, so ``import checkmate`` loads none of them
_EXPORTS = {
    name: module
    for module, names in {
        "diffs": ("chart_data", "compare_cells", "compare_validations"),
        "engine": ("Validation", "check_that", "confront", "confront_csv", "eval_expr", "eval_fd"),
        "frame": ("Column", "DataFrame", "from_dict", "ingest_csv"),
        "results": (
            "aggregate_results", "all_pass", "any_fail", "collect_errors", "collect_warnings",
            "sort_results", "summarize", "to_records", "values",
        ),
        "rule_io": ("export_yaml", "read_rules", "rules_to_table", "table_to_rules"),
        "rules": (
            "OptionSet", "Rule", "RuleSet", "concat", "get_metadata", "global_options",
            "meta_put", "new_ruleset", "set_metadata", "set_options", "subset",
            "variables_matrix",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
