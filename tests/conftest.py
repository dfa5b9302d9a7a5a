import os

import pytest

from checkmate import cli, frame, new_ruleset, rules

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


@pytest.fixture
def usable_cpus(monkeypatch):
    """A setter of the CPU count the CLI sees; it returns the list of batches of
    worker processes forked since, for data files or for ranges of one. A count
    above 1 is skipped where there is no fork."""
    made = []
    forked = frame._forked

    def recorded(fn, paths, workers):
        made.append(workers)
        return forked(fn, paths, workers)

    monkeypatch.setattr(frame, "_forked", recorded)

    def set_count(n: int) -> list:
        if n > 1 and not hasattr(os, "fork"):
            pytest.skip("worker processes need fork")
        monkeypatch.setattr(frame, "_usable_cpus", lambda: n)
        return made

    return set_count
