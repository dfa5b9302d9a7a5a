"""Counting kernels checked against the per-cell and per-row loops they replaced.

``compare_validations`` and ``compare_cells`` tally cells with ``Counter``; the
key functions build row keys with ``zip``. Each is compared here with a plain
loop over every cell or row, on generated versions that hold missing cells,
``nan`` number cells and a column whose type changes between versions.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from checkmate import dsl, from_dict
from checkmate.diffs import CELL_STATUSES, VALIDATION_STATUSES, compare_cells, compare_validations
from checkmate.engine import confront, eval_expr, eval_fd
from checkmate.rules import new_ruleset

PINNED = settings(derandomize=True, max_examples=200, deadline=None, database=None)

HOW = ["sequential", "to_first"]

# math.nan is one shared object; float("nan") gives a new one each time, and
# a frame's number column a new one on each read. The oracles key every NaN
# as one value, as R's duplicated and match do, whichever object it is.
NUMBERS = st.one_of(
    st.sampled_from([None, -1.0, 0.0, 1.0, 2.0, math.nan]), st.builds(float, st.just("nan"))
)
CELLS_BY_TYPE = {
    "number": st.one_of(st.sampled_from([None, 0.0, 1.0]), NUMBERS),
    "text": st.sampled_from([None, "", "1", "a"]),
    "boolean": st.sampled_from([None, True, False]),
}

RULES, _ = new_ruleset(
    [
        (None, source)
        for source in [
            "x >= 0",
            "x + y == 1",
            "if (x > 0) y > 0",
            "is_unique(s)",
            "!is.na(s)",
            "s ~ x",
            "all_complete(x, y)",
            "mean(x, na.rm = TRUE) > 0",
        ]
    ]
)


def _column(draw, cells, n):
    return draw(st.lists(cells, min_size=n, max_size=n))


@st.composite
def versions(draw):
    """One to four versions of an n-row frame; column ``s`` may change type."""
    n = draw(st.integers(0, 8))
    frames = {}
    for k in range(draw(st.integers(1, 4))):
        s_type = draw(st.sampled_from(sorted(CELLS_BY_TYPE)))
        data = {name: _column(draw, NUMBERS, n) for name in ("x", "y")}
        data["s"] = _column(draw, CELLS_BY_TYPE[s_type], n)
        frames[f"v{k + 1}"] = from_dict(data, {"x": "number", "y": "number", "s": s_type})
    return frames


def _reference(i, how):
    return 0 if i == 0 else (i - 1 if how == "sequential" else 0)


def _status(cell):
    if cell is True:
        return "satisfied"
    if cell is False:
        return "violated"
    return "unverifiable"


def reference_compare_validations(rs, versions, how, opts):
    cell_sets = []
    for name in versions:
        cells = []
        for outcome in confront(versions[name], rs, opts=opts).outcomes:
            assert outcome.error is None
            cells.extend(outcome.result)
        cell_sets.append(cells)
    counts = {s: [] for s in VALIDATION_STATUSES}
    for i, cells in enumerate(cell_sets):
        ref = cell_sets[_reference(i, how)]
        tally = {s: 0 for s in VALIDATION_STATUSES}
        for cur, prev in zip(cells, ref):
            status = _status(cur)
            tally["validations"] += 1
            tally[status] += 1
            if status != "unverifiable":
                tally["verifiable"] += 1
            same = status == _status(prev)
            tally[("still_" if same else "new_") + status] += 1
        for s in VALIDATION_STATUSES:
            counts[s].append(tally[s])
    return counts


def reference_compare_cells(versions, how):
    frames = list(versions.values())
    counts = {s: [] for s in CELL_STATUSES}
    for i, frame in enumerate(frames):
        ref = frames[_reference(i, how)]
        tally = {s: 0 for s in CELL_STATUSES}
        for col in frame.columns:
            ref_col = ref.column(col.name)
            for row in range(frame.n):
                tally["cells"] += 1
                cur = None if col.missing[row] else col.values[row]
                prev = None if ref_col.missing[row] else ref_col.values[row]
                if cur is None:
                    tally["missing"] += 1
                    tally["still_missing" if prev is None else "removed"] += 1
                else:
                    tally["available"] += 1
                    if prev is None:
                        tally["imputed"] += 1
                    else:
                        tally["still_available"] += 1
                        same = cur == prev or (cur != cur and prev != prev)  # NaN in both
                        tally["unadapted" if same else "adapted"] += 1
        for s in CELL_STATUSES:
            counts[s].append(tally[s])
    return counts


@PINNED
@given(versions(), st.sampled_from(HOW), st.sampled_from([None, "NA", True, False]))
def test_compare_validations_matches_per_cell_loop(frames, how, na_value):
    opts = None if na_value is None else {"na.value": na_value}
    table = compare_validations(RULES, frames, how=how, opts=opts)
    assert table.counts == reference_compare_validations(RULES, frames, how, opts)
    for name in table.version_names:
        c = table.column(name)
        assert c["validations"] == c["satisfied"] + c["violated"] + c["unverifiable"]
        assert c["verifiable"] == c["satisfied"] + c["violated"]
        for status in ("satisfied", "violated", "unverifiable"):
            assert c[status] == c["still_" + status] + c["new_" + status]
        if na_value in (True, False):
            assert c["unverifiable"] == 0


@PINNED
@given(versions(), st.sampled_from(HOW))
def test_compare_cells_matches_per_cell_loop(frames, how):
    table = compare_cells(frames, how=how)
    assert table.counts == reference_compare_cells(frames, how)
    # fed (name, frame) pairs one at a time, as the cells command feeds them
    assert compare_cells(((name, df) for name, df in frames.items()), how=how) == table
    for name in table.version_names:
        c = table.column(name)
        assert c["cells"] == c["available"] + c["missing"]
        assert c["available"] == c["still_available"] + c["imputed"]
        assert c["available"] == c["unadapted"] + c["adapted"] + c["imputed"]
        assert c["still_available"] == c["unadapted"] + c["adapted"]
        assert c["missing"] == c["still_missing"] + c["removed"]


NAN = object()  # every NaN cell, as a key


def as_key(cell):
    return NAN if cell != cell else cell


def reference_fd(det, dep, n):
    reference = {}
    out = []
    for i in range(n):
        key = tuple(as_key(col[i]) for col in det)
        combo = tuple(as_key(col[i]) for col in dep)
        if key not in reference:
            reference[key] = combo
        if any(c is None for c in combo):
            out.append(None)
        elif any(c is None for c in reference[key]):
            out.append(None)
        else:
            out.append(combo == reference[key])
    return out


def reference_rows(cols, n):
    return [tuple(as_key(col[i]) for col in cols) for i in range(n)]


def reference_is_unique(rows):
    counts = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + 1
    return [counts[row] == 1 for row in rows]


def reference_duplicated(rows):
    seen, out = set(), []
    for row in rows:
        out.append(row in seen)
        seen.add(row)
    return out


KEY_COLUMNS = {"a": "number", "b": "text", "c": "number"}


@st.composite
def keyed_frames(draw):
    """Number columns a and c, text column b, with repeats, missing cells and nan."""
    n = draw(st.integers(0, 12))
    data = {name: _column(draw, CELLS_BY_TYPE[kind], n) for name, kind in KEY_COLUMNS.items()}
    return from_dict(data, KEY_COLUMNS)


KEYS = [["a"], ["b"], ["a", "b"], ["b", "c", "a"]]


@PINNED
@given(keyed_frames(), st.sampled_from(KEYS), st.sampled_from(KEYS))
def test_functional_dependency_matches_per_row_loop(df, det, dep):
    fd = dsl.parse(" + ".join(det) + " ~ " + " + ".join(dep)).body
    expected = reference_fd(
        [df.column(k).cells() for k in det], [df.column(k).cells() for k in dep], df.n
    )
    assert eval_fd(fd, df) == expected


@PINNED
@given(keyed_frames(), st.sampled_from(KEYS))
def test_key_functions_match_per_row_loops(df, key):
    rows = reference_rows([df.column(k).cells() for k in key], df.n)
    args = ", ".join(key)

    def cells(fname):
        return eval_expr(dsl.parse_expression(f"{fname}({args})"), df).cells

    assert cells("is_unique") == reference_is_unique(rows)
    assert cells("duplicated") == reference_duplicated(rows)
    assert cells("is_complete") == [all(c is not None for c in row) for row in rows]
