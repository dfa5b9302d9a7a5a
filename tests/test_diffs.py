import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkmate import diffs, from_dict
from checkmate.diffs import (
    CELL_STATUSES,
    VALIDATION_STATUSES,
    chart_data,
    compare_cells,
    compare_validations,
    confront_version,
    tally_validations,
)
from checkmate.errors import DataError
from checkmate.frame import DataFrame
from checkmate.rules import new_ruleset


def rules(*sources):
    rs, warnings = new_ruleset([(None, s) for s in sources])
    assert not warnings
    return rs


def random_frame(rng, n, columns):
    data = {
        name: [rng.choice([None, -1.0, 0.0, 1.0, 2.0]) for _ in range(n)]
        for name in columns
    }
    return from_dict(data, {name: "number" for name in columns})


class TestCompareValidations:
    def test_self_comparison_has_no_changes(self):
        rng = random.Random(7)
        rs = rules("x >= 0", "y >= 0")
        df = random_frame(rng, 10, ["x", "y"])
        table = compare_validations(rs, {"v1": df, "v2": df})
        col = table.column("v2")
        assert col["new_satisfied"] == 0
        assert col["new_violated"] == 0
        assert col["new_unverifiable"] == 0
        assert col["still_satisfied"] == col["satisfied"]
        assert col["still_violated"] == col["violated"]
        assert col["still_unverifiable"] == col["unverifiable"]

    def test_single_version(self):
        rs = rules("x >= 0")
        df = from_dict({"x": [1.0, -1.0, None]})
        table = compare_validations(rs, {"only": df})
        col = table.column("only")
        assert col["validations"] == 3
        assert col["satisfied"] == 1
        assert col["violated"] == 1
        assert col["unverifiable"] == 1
        # the first column is compared with itself
        assert col["new_satisfied"] == col["new_violated"] == 0

    def test_partition_identities_on_random_inputs(self):
        rng = random.Random(4242)
        rs = rules("x >= 0", "x + y == 1", "y >= 0")
        for how in ("sequential", "to_first"):
            for _ in range(40):
                n = rng.randint(1, 12)
                versions = {
                    f"v{k}": random_frame(rng, n, ["x", "y"])
                    for k in range(rng.randint(1, 4))
                }
                table = compare_validations(rs, versions, how=how)
                for name in table.version_names:
                    col = table.column(name)
                    assert col["validations"] == col["verifiable"] + col["unverifiable"]
                    assert col["verifiable"] == col["satisfied"] + col["violated"]
                    for status in ("satisfied", "violated", "unverifiable"):
                        assert col[status] == (
                            col["still_" + status] + col["new_" + status]
                        )

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.lists(st.sampled_from([True, False, None]), min_size=n, max_size=n),
                         min_size=2, max_size=2),
                min_size=1, max_size=4,
            )
        ),
        st.sampled_from(["NA", True, False]),
        st.sampled_from(["sequential", "to_first"]),
    )
    def test_counts_match_a_per_cell_reference(self, versions, na_value, how):
        # two boolean columns per version; the rules are one per column and one
        # dataset-level rule, so outcomes of n items (none when n is 0) and of 1
        rs = rules("a & TRUE", "b | FALSE", "all(a)")
        frames = {
            f"v{k}": from_dict({"a": a, "b": b}, {"a": "boolean", "b": "boolean"})
            for k, (a, b) in enumerate(versions)
        }
        settle = {None: None if na_value == "NA" else na_value}
        outcomes = [
            [[settle.get(c, c) for c in cells]
             for cells in (a, b, [False if False in a else None if None in a else True])]
            for a, b in versions
        ]
        opts = {"na.value": na_value}
        want = {s: [] for s in VALIDATION_STATUSES}
        for i, cur in enumerate(outcomes):
            ref = outcomes[max(i - 1, 0) if how == "sequential" else 0]
            pairs = Counter(p for r, c in zip(ref, cur) for p in zip(r, c))
            now = Counter(c for _, c in pairs.elements())
            for status, cell in (("satisfied", True), ("violated", False),
                                 ("unverifiable", None)):
                want[status].append(now[cell])
                want["still_" + status].append(pairs[cell, cell])
                want["new_" + status].append(now[cell] - pairs[cell, cell])
            want["verifiable"].append(now[True] + now[False])
            want["validations"].append(sum(now.values()))
        table = compare_validations(rs, frames, how=how, opts=opts)
        assert table.counts == want
        per_version = {name: confront_version(df, rs, opts) for name, df in frames.items()}
        assert tally_validations(per_version, how).counts == want

    def test_sequential_and_to_first_agree_on_first_two_versions(self):
        rng = random.Random(11)
        rs = rules("x >= 0")
        versions = {f"v{k}": random_frame(rng, 8, ["x"]) for k in range(3)}
        seq = compare_validations(rs, versions, how="sequential")
        first = compare_validations(rs, versions, how="to_first")
        for name in list(versions)[:2]:
            assert seq.column(name) == first.column(name)

    def test_known_transition_counts(self):
        rs = rules("x >= 0")
        v1 = from_dict({"x": [1.0, -1.0, None, 1.0]})
        v2 = from_dict({"x": [1.0, 1.0, -1.0, None]})
        col = compare_validations(rs, {"v1": v1, "v2": v2}).column("v2")
        assert col["still_satisfied"] == 1
        assert col["new_satisfied"] == 1
        assert col["new_violated"] == 1
        assert col["new_unverifiable"] == 1
        assert col["still_violated"] == col["still_unverifiable"] == 0

    def test_shape_mismatch_rejected(self):
        rs = rules("x >= 0")
        with pytest.raises(DataError):
            compare_validations(
                rs,
                {"a": from_dict({"x": [1.0]}), "b": from_dict({"x": [1.0, 2.0]})},
            )

    def test_errored_rule_rejected(self):
        rs = rules("nope >= 0")
        with pytest.raises(DataError):
            compare_validations(rs, {"a": from_dict({"x": [1.0]})})

    @pytest.mark.parametrize("how", ["sequential", "to_first"])
    def test_first_version_with_an_errored_rule_is_named(self, how):
        rs = rules("x > 0")
        versions = {"v1": from_dict({"x": [1.0, 2.0]}), "v2": from_dict({"x": ["a", "b"]}),
                    "v3": from_dict({"x": [True, False]})}
        message = "rule 'V1' errored on version 'v2': - expects a number operand, got text"
        with pytest.raises(DataError) as caught:
            compare_validations(rs, versions, how=how)
        assert str(caught.value) == message
        # a mismatch with a later version is raised instead
        versions["v4"] = from_dict({"y": [1.0, 2.0]})
        with pytest.raises(DataError, match="^dataset versions differ in shape or column names$"):
            compare_validations(rs, versions, how=how)

    @pytest.mark.parametrize("how", ["sequential", "to_first"])
    @pytest.mark.parametrize("items", [[2, 1], [2, 2, 2]], ids=["items", "outcomes"])
    def test_differing_result_counts_rejected(self, how, items):
        # as confront_version gives them: (rows, column names), then per outcome
        # its name, error, item count and bitsets
        def version(counts):
            return (2, ["x"]), [(f"V{i}", None, n, [0, 0, 0]) for i, n in enumerate(counts, 1)]

        pairs = iter([("v1", version([2, 2])), ("v2", version([2, 2])), ("v3", version(items))])
        with pytest.raises(DataError) as caught:
            tally_validations(pairs, how)
        assert str(caught.value) == "versions produced differing result counts"

    def test_unknown_mode(self):
        rs = rules("x >= 0")
        with pytest.raises(DataError):
            compare_validations(rs, {"a": from_dict({"x": [1.0]})}, how="backwards")


class _Unread(dict):
    """Versions that fail the test if any is read."""

    def items(self):
        raise AssertionError("a version was read")

    values = items


def _pairs_unread():
    raise AssertionError("a version was read")
    yield


@pytest.mark.parametrize("call", [
    lambda: compare_cells(_pairs_unread(), how="backwards"),
    lambda: compare_validations(rules("x >= 0"), _Unread(), how="backwards"),
    lambda: tally_validations(_Unread(), how="backwards"),
], ids=["compare_cells", "compare_validations", "tally_validations"])
def test_unknown_mode_is_refused_before_any_version_is_read(call):
    with pytest.raises(DataError, match="unknown comparison mode 'backwards'"):
        call()


class TestValidationFold:
    """``compare_validations`` and ``tally_validations`` take (name, version)
    pairs as ``compare_cells`` does, and hold two versions at a time."""

    RULES = ("x >= 0", "y > x", "sum(x, na.rm = TRUE) > 0")

    @staticmethod
    def versions():
        """Six (name, frame) pairs, the same at each call."""
        rng = random.Random(13)
        return [(f"v{k}", random_frame(rng, 5, ["x", "y"])) for k in range(1, 7)]

    @staticmethod
    def tracker():
        """``track(obj, k)``, which counts ``obj`` alive as version ``k``'s while
        it is, and the list of the number of versions alive at each call."""
        alive, most = Counter(), []

        def track(obj, k):
            alive[k] += 1
            weakref.finalize(obj, alive.subtract, [k])
            most.append(sum(1 for n in alive.values() if n))
            return obj

        return track, most

    @pytest.mark.parametrize("how", ["sequential", "to_first"])
    def test_compare_holds_the_reference_and_the_version_being_made(self, how, monkeypatch):
        rs = rules(*self.RULES)
        track, most = self.tracker()

        def pairs():
            for k, (name, df) in enumerate(self.versions()):
                df = track(_Tracked(df.columns), k)
                df.version = k
                yield name, df
                del df  # this generator holds no version while it makes the next

        def tracked(df, rs, opts=None):
            shape, outcomes = confront_version(df, rs, opts)
            return shape, track(_Outcomes(outcomes), df.version)

        monkeypatch.setattr(diffs, "confront_version", tracked)
        table = compare_validations(rs, pairs(), how=how)
        # a version is alive while its frame or its confront_version is
        assert max(most) == 2
        monkeypatch.undo()
        assert table == compare_validations(rs, dict(self.versions()), how=how)

    @pytest.mark.parametrize("how", ["sequential", "to_first"])
    def test_tally_holds_the_reference_and_the_version_being_made(self, how):
        rs = rules(*self.RULES)
        track, most = self.tracker()

        def pairs():
            for k, (name, df) in enumerate(self.versions()):
                shape, outcomes = confront_version(df, rs)
                version = shape, track(_Outcomes(outcomes), k)
                yield name, version
                del version

        table = tally_validations(pairs(), how)
        assert max(most) == 2
        assert table == compare_validations(rs, dict(self.versions()), how=how)


class _Tracked(DataFrame):
    __slots__ = ("__weakref__", "version")


class _Outcomes(list):
    """Outcomes that a weak reference can track, as it cannot a tuple."""


class TestCompareCells:
    def test_two_by_two_with_missing(self):
        v1 = from_dict({"a": [1.0, None], "b": [3.0, 4.0]})
        v2 = from_dict({"a": [1.0, 5.0], "b": [None, 4.0]})
        col = compare_cells({"v1": v1, "v2": v2}).column("v2")
        assert col["cells"] == 4
        assert col["available"] == 3
        assert col["still_available"] == 2
        assert col["unadapted"] == 2
        assert col["adapted"] == 0
        assert col["imputed"] == 1
        assert col["missing"] == 1
        assert col["still_missing"] == 0
        assert col["removed"] == 1

    def test_changed_value_is_adapted(self):
        v1 = from_dict({"a": [1.0]})
        v2 = from_dict({"a": [2.0]})
        col = compare_cells({"v1": v1, "v2": v2}).column("v2")
        assert col["adapted"] == 1 and col["unadapted"] == 0

    def test_partition_identities_on_random_inputs(self):
        rng = random.Random(2024)
        for how in ("sequential", "to_first"):
            for _ in range(60):
                n = rng.randint(1, 10)
                versions = {
                    f"v{k}": random_frame(rng, n, ["a", "b"])
                    for k in range(rng.randint(1, 4))
                }
                table = compare_cells(versions, how=how)
                for name in table.version_names:
                    col = table.column(name)
                    assert col["cells"] == col["available"] + col["missing"]
                    assert col["available"] == col["still_available"] + col["imputed"]
                    assert col["still_available"] == col["unadapted"] + col["adapted"]
                    assert col["missing"] == col["still_missing"] + col["removed"]

    def test_self_comparison_is_all_unadapted_or_still_missing(self):
        df = from_dict({"a": [1.0, None, 3.0]})
        col = compare_cells({"v1": df, "v2": df}).column("v2")
        assert col["adapted"] == col["imputed"] == col["removed"] == 0
        assert col["unadapted"] == 2 and col["still_missing"] == 1

    def test_nan_in_both_versions_is_unadapted(self):
        df = from_dict({"x": [float("nan"), 1.0]})
        other = from_dict({"x": [float("nan"), float("nan")]})
        table = compare_cells({"v1": df, "v2": df, "v3": other})
        assert table.column("v1")["adapted"] == 0 and table.column("v1")["unadapted"] == 2
        assert table.column("v2")["adapted"] == 0 and table.column("v2")["unadapted"] == 2
        # a number that becomes NaN has changed
        assert table.column("v3")["adapted"] == 1 and table.column("v3")["unadapted"] == 1

    def test_empty_versions_rejected(self):
        with pytest.raises(DataError):
            compare_cells({})
        with pytest.raises(DataError, match="at least one"):
            compare_cells(iter([]))

    @pytest.mark.parametrize("how", ["sequential", "to_first"])
    def test_pairs_are_held_two_frames_at_a_time(self, how):
        rng = random.Random(11)
        data = [
            {"a": [rng.choice([None, 1.0, 2.0, float("nan")]) for _ in range(6)],
             "b": [rng.choice([None, "x", "y"]) for _ in range(6)]}
            for _ in range(6)
        ]
        live, most = set(), []

        class Tracked(DataFrame):
            __slots__ = ("__weakref__",)

        def pairs():
            for k, cells in enumerate(data):
                df = Tracked(from_dict(cells).columns)
                live.add(k)
                weakref.finalize(df, live.discard, k)
                most.append(len(live))
                yield f"v{k + 1}", df
                del df  # this generator holds no frame while it makes the next

        table = compare_cells(pairs(), how=how)
        # the reference and the frame being made, never a third
        assert max(most) == 2
        assert table == compare_cells(
            {f"v{k + 1}": from_dict(cells) for k, cells in enumerate(data)}, how=how
        )

    def test_a_mismatch_is_raised_once_every_pair_is_made(self):
        made = []

        def pairs():
            for name, cells in [("v1", {"a": [1.0]}), ("v2", {"b": [1.0]}), ("v3", {"a": [2.0]})]:
                made.append(name)
                yield name, from_dict(cells)

        with pytest.raises(DataError, match="differ in shape or column names"):
            compare_cells(pairs())
        assert made == ["v1", "v2", "v3"]

    def test_an_error_making_a_later_pair_comes_before_a_mismatch(self):
        def pairs():
            yield "v1", from_dict({"a": [1.0]})
            yield "v2", from_dict({"a": [1.0, 2.0]})
            raise DataError("v3 cannot be read")

        with pytest.raises(DataError, match="v3 cannot be read"):
            compare_cells(pairs())


class TestChartData:
    def test_validation_triples(self):
        rng = random.Random(3)
        rs = rules("x >= 0")
        versions = {f"v{k}": random_frame(rng, 5, ["x"]) for k in range(5)}
        table = compare_validations(rs, versions)
        triples = chart_data(table)
        assert len(triples) == len(VALIDATION_STATUSES) * 5
        # status-major order
        assert [t[0] for t in triples[:5]] == ["validations"] * 5
        assert [t[1] for t in triples[:5]] == list(versions)
        for status, version, count in triples:
            assert count == table.column(version)[status]

    def test_cell_triples(self):
        df = from_dict({"a": [1.0]})
        table = compare_cells({"v1": df, "v2": df})
        assert len(chart_data(table)) == len(CELL_STATUSES) * 2
