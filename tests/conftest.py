import os

import pytest

from checkmate import cli, new_ruleset, rules

SAMPLE_DIR = os.path.join(os.path.dirname(__file__), "..", "sample")
SAMPLE_DATA = os.path.join(SAMPLE_DIR, "retailers_synthetic.csv")
SAMPLE_RULES = os.path.join(SAMPLE_DIR, "retailers_rules.txt")
# a later version of the sample, with cells changed, imputed and removed
SAMPLE_V2 = os.path.join(os.path.dirname(__file__), "golden", "retailers_v2.csv")


@pytest.fixture(autouse=True)
def clean_global_options():
    rules.global_options.reset()
    yield
    rules.global_options.reset()


@pytest.fixture
def retailers():
    return cli.ingest_csv(SAMPLE_DATA)


@pytest.fixture
def retailer_rules():
    rs, warnings = new_ruleset(
        [
            ("st", "staff >= 0"),
            ("to", "turnover >= 0"),
            ("or", "other.rev >= 0"),
            ("st.cs", "if (staff > 0) staff.costs > 0"),
            ("bl", "turnover + other.rev == total.rev"),
            ("mn", "mean(profit, na.rm = TRUE) >= 1"),
        ]
    )
    assert not warnings
    return rs
