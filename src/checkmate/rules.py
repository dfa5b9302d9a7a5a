"""Rule and rule-set containers with metadata, CRUD, and option management."""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from datetime import datetime
from typing import NamedTuple

from . import dsl
from .errors import CheckmateError, OptionError, RuleSetError

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"

DEFAULT_META = {"language": "dsl/1", "severity": "error"}


@dataclass
class OptionSet:
    """Confrontation options; ``None`` fields inherit from the next level up."""

    na_value: bool | None | str = "NA"  # "NA", True, or False
    raise_: str = "none"  # none|error|all
    lin_eq_eps: float = 1e-8
    lin_ineq_eps: float = 1e-8


def _one_of(*allowed):
    def check(name: str, value):
        # types must match too: 1 and 0 are not TRUE and FALSE
        if not any(type(value) is type(a) and value == a for a in allowed):
            raise OptionError(f"invalid value for {name}: {value!r}")

    return check


def _nonnegative(name: str, value):
    # a NaN compares false to everything, so ``value < 0`` would let it through
    if not isinstance(value, (int, float)) or not value >= 0:
        raise OptionError(f"{name} must be a nonnegative number, got {value!r}")


def _number_text(text: str):
    try:
        return float(text)
    except ValueError:
        return text  # left for the value check to reject


class _Option(NamedTuple):
    field: str  # OptionSet attribute; also the option's keyword-argument name
    check: Callable[[str, object], None]  # raises OptionError on a bad value
    parse: Callable[[str], object]  # command-line text to value


_NA_TOKENS = {"NA": "NA", "TRUE": True, "FALSE": False}

# the one table of options, keyed by dotted name
OPTIONS = {
    "na.value": _Option("na_value", _one_of("NA", True, False), lambda t: _NA_TOKENS.get(t, t)),
    "raise": _Option("raise_", _one_of("none", "error", "all"), str),
    "lin.eq.eps": _Option("lin_eq_eps", _nonnegative, _number_text),
    "lin.ineq.eps": _Option("lin_ineq_eps", _nonnegative, _number_text),
}

_OPTION_BY_FIELD = {opt.field: name for name, opt in OPTIONS.items()}


def _check_option(name: str, value):
    if name not in OPTIONS:
        raise OptionError(f"unknown option {name!r}")
    OPTIONS[name].check(name, value)


def parse_option(name: str, value):
    """Checked value of an option; text is read as on the command line.
    Raises OptionError."""
    if isinstance(value, str) and name in OPTIONS:
        value = OPTIONS[name].parse(value)
    _check_option(name, value)
    return value


def _checked(pairs: dict) -> dict:
    """Options keyed by dotted name, from dotted names or OptionSet field names."""
    translated = {_OPTION_BY_FIELD.get(k, k): v for k, v in pairs.items()}
    for name, value in translated.items():
        _check_option(name, value)
    return translated


def resolve_options(
    global_opts: dict | None = None,
    local_opts: dict | None = None,
    call_opts: dict | None = None,
) -> OptionSet:
    """Layer option settings: call beats ruleset-local beats global beats default."""
    merged = {}
    for layer in (global_opts or {}, local_opts or {}, call_opts or {}):
        for name, value in layer.items():
            _check_option(name, value)
            merged[name] = value
    out = OptionSet()
    for name, value in merged.items():
        setattr(out, OPTIONS[name].field, value)
    return out


class _GlobalOptions:
    """Process-wide option table; reads snapshot under the same lock as writes."""

    def __init__(self):
        self._lock = threading.Lock()
        self._values: dict = {}

    def set(self, **pairs):
        checked = _checked(pairs)
        with self._lock:
            self._values.update(checked)

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self._values)

    def reset(self):
        with self._lock:
            self._values.clear()


global_options = _GlobalOptions()


@dataclass
class Rule:
    body: dsl.Expression
    name: str
    label: str = ""
    description: str = ""
    origin: str = "command-line"
    created: datetime | None = None
    meta: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_META))

    def variables(self) -> list[str]:
        return dsl.variables(self.body)

    def source(self) -> str:
        return dsl.render(self.body)


@dataclass
class RuleSet:
    rules: list[Rule] = field(default_factory=list)
    local_options: dict | None = None

    def __len__(self):
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def names(self) -> list[str]:
        return [r.name for r in self.rules]

    def resolved_options(self, call_opts: dict | None = None) -> OptionSet:
        return resolve_options(global_options.snapshot(), self.local_options, call_opts)

    def with_rules(self, rules: list[Rule]) -> "RuleSet":
        """New rule set of ``rules`` carrying a copy of this set's local options."""
        local = dict(self.local_options) if self.local_options is not None else None
        return RuleSet(rules, local)


def _check_unique(names):
    seen = set()
    for n in names:
        if n in seen:
            raise RuleSetError(f"duplicate rule name {n!r}")
        seen.add(n)


@dataclass
class RuleEntry:
    """One candidate rule, parsed by its producer, before directive processing and naming."""

    source: str
    directive: dsl.Directive
    name: str | None = None
    label: str = ""
    description: str = ""
    origin: str = "command-line"
    created: datetime | None = None
    meta: dict[str, str] | None = None


def build_ruleset(
    entries: list[RuleEntry],
    now: datetime | None = None,
    local_options: dict | None = None,
) -> tuple[RuleSet, list[str]]:
    """Assemble a rule set from pre-collected entries.

    Macro and group definitions are absorbed into later rules; expressions
    outside the rule language are dropped with a warning listing their 1-based
    index. Unnamed rules get generated names V1, V2, ...; a group-expanded
    rule named R becomes R.1, R.2, ...
    """
    now = now or datetime.now()
    macros: dict[str, dsl.Expression] = {}
    groups: dict[str, list[str]] = {}
    rules: list[Rule] = []
    invalid: list[tuple[int, str]] = []
    counter = 0

    for index, entry in enumerate(entries, start=1):
        directive = entry.directive
        kind = dsl.classify(directive)
        if kind == "macro":
            macros[directive.name] = dsl.substitute_macros(directive.body, macros)
            continue
        if kind == "group":
            groups[directive.name] = list(directive.members)
            continue
        if kind == "invalid":
            invalid.append((index, entry.source.strip()))
            continue
        body = dsl.substitute_macros(directive.body, macros)
        expanded = dsl.expand_groups(body, groups)
        if entry.name is None:
            counter += 1
            base = f"V{counter}"
        else:
            base = entry.name
        for i, rule_body in enumerate(expanded, start=1):
            rules.append(
                Rule(
                    rule_body,
                    base if len(expanded) == 1 else f"{base}.{i}",
                    label=entry.label,
                    description=entry.description,
                    origin=entry.origin,
                    created=entry.created or now,
                    meta={**DEFAULT_META, **(entry.meta or {})},
                )
            )

    _check_unique(r.name for r in rules)
    warnings = []
    if invalid:
        listing = "\n".join(f"[{i:03d}] {src}" for i, src in invalid)
        warnings.append(
            "Invalid syntax detected, the following expressions have been ignored:\n"
            + listing
        )
    return RuleSet(rules, local_options), warnings


def new_ruleset(
    entries: list[tuple[str | None, str]],
    origin: str = "command-line",
    now: datetime | None = None,
) -> tuple[RuleSet, list[str]]:
    """Build a rule set from (name, source) pairs."""
    return build_ruleset(
        [
            RuleEntry(source, dsl.parse(source), name=name, origin=origin)
            for name, source in entries
        ],
        now=now,
    )


def select(items: list, names: list[str], selector, error: type[CheckmateError]) -> list:
    """Items picked by 1-based index or by name, in selector order."""
    by_name = dict(zip(names, items))
    picked = []
    for sel in selector:
        if isinstance(sel, str):
            if sel not in by_name:
                raise error(f"unknown rule name {sel!r}")
            picked.append(by_name[sel])
        else:
            if not 1 <= sel <= len(items):
                raise error(f"rule index {sel} out of range 1..{len(items)}")
            picked.append(items[sel - 1])
    return picked


def subset(rs: RuleSet, selector) -> RuleSet:
    """New rule set with the selected rules; selector is index or name list."""
    picked = select(rs.rules, rs.names(), selector, RuleSetError)
    return rs.with_rules([replace(r, meta=dict(r.meta)) for r in picked])


METADATA_FIELDS = ("name", "label", "description", "origin", "created")


def set_metadata(rs: RuleSet, fieldname: str, values) -> RuleSet:
    if fieldname not in METADATA_FIELDS:
        raise RuleSetError(f"unknown metadata field {fieldname!r}")
    values = list(values)
    if len(values) != len(rs.rules):
        raise RuleSetError(
            f"expected {len(rs.rules)} values for {fieldname!r}, got {len(values)}"
        )
    if fieldname == "name":
        _check_unique(values)
    return rs.with_rules(
        [replace(r, meta=dict(r.meta), **{fieldname: v}) for r, v in zip(rs.rules, values)]
    )


def get_metadata(rs: RuleSet, fieldname: str) -> list:
    if fieldname not in METADATA_FIELDS:
        raise RuleSetError(f"unknown metadata field {fieldname!r}")
    return [getattr(r, fieldname) for r in rs.rules]


def meta_put(rs: RuleSet, key: str, values) -> RuleSet:
    values = list(values)
    if len(values) != len(rs.rules):
        raise RuleSetError(f"expected {len(rs.rules)} values, got {len(values)}")
    return rs.with_rules([replace(r, meta={**r.meta, key: v}) for r, v in zip(rs.rules, values)])


def variables_matrix(rs: RuleSet) -> tuple[list[str], list[list[bool]]]:
    """Union of per-rule variables plus a rule-by-variable coverage matrix."""
    names: list[str] = []
    per_rule = []
    for r in rs.rules:
        vs = r.variables()
        per_rule.append(set(vs))
        for v in vs:
            if v not in names:
                names.append(v)
    matrix = [[v in used for v in names] for used in per_rule]
    return names, matrix


def concat(a: RuleSet, b: RuleSet) -> RuleSet:
    """Rules of a followed by b; colliding names in b get a '.1' suffix."""
    taken = set(r.name for r in a.rules)
    merged = [replace(r, meta=dict(r.meta)) for r in a.rules]
    for r in b.rules:
        name = r.name
        if name in taken:
            name = name + ".1"
        taken.add(name)
        merged.append(replace(r, name=name, meta=dict(r.meta)))
    return (a if a.local_options is not None else b).with_rules(merged)


def set_options(target: RuleSet | None = None, **pairs) -> RuleSet | None:
    """Set options globally (no target) or locally on one rule set.

    A rule set that receives local options snapshots the current global state,
    making it immune to later global changes.
    """
    if target is None:
        global_options.set(**pairs)
        return None
    if target.local_options is not None:
        local = dict(target.local_options)
    else:
        # full snapshot of the effective global state, so later global
        # changes cannot reach this rule set
        current = resolve_options(global_options.snapshot())
        local = {name: getattr(current, opt.field) for name, opt in OPTIONS.items()}
    local.update(_checked(pairs))
    target.local_options = local
    return target
