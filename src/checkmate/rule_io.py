"""Reading and writing rule sets: free text, YAML, and tabular rows.

Text files use ``#`` comments, optional ``---`` front matter with ``options``
and ``include`` keys, and one rule per line with an optional ``name:`` prefix.
YAML files carry one mapping per rule (expr, name, label, description,
created, origin, meta) plus optional top-level ``options`` and ``include``.
File inclusion is recursive, depth-first, deduplicated by canonical path;
cycles abort with an error naming every file on the cycle.
"""

from __future__ import annotations

import functools
import os
import re
from datetime import date, datetime

from . import dsl
from .errors import CycleError, LexError, OptionError, ParseError, RuleIOError
from .rules import TIMESTAMP_FORMAT, RuleEntry, RuleSet, build_ruleset, parse_option

_NAME_PREFIX_RE = re.compile(r"^([A-Za-z][A-Za-z0-9._]*)\s*:(?![=])\s*(.+)$")

_YAML_EXTENSIONS = (".yml", ".yaml")


def _parse(source: str, where: str) -> dsl.Directive:
    try:
        return dsl.parse(source)
    except (ParseError, LexError) as err:
        raise RuleIOError(f"{where}: {err}") from err


def _parse_created(text: str, where: str) -> datetime:
    try:
        return datetime.strptime(text, TIMESTAMP_FORMAT)
    except ValueError as err:
        raise RuleIOError(f"{where}: bad 'created' timestamp: {err}") from err


def _format_created(created: datetime | None) -> str:
    return created.strftime(TIMESTAMP_FORMAT) if created else ""


def _normalize_options(raw: dict, path: str) -> dict:
    """The checked options of a rule file; text is read as ``--set`` reads it."""
    opts = {}
    for key, value in raw.items():
        if key == "na.value" and value is None:
            value = "NA"
        try:
            opts[key] = parse_option(key, value)
        except OptionError as err:
            raise RuleIOError(f"{path}: {err}") from err
    return opts


# Text that libyaml and the pure-Python loader are known to read differently:
# tabs, the line breaks and byte-order mark only the pure-Python scanner
# rejects or treats apart, '#' straight after a block scalar header, and '?',
# which a plain scalar in flow context may hold only under libyaml.
_LIBYAML_DIFFERS = re.compile("[\t\x85\u2028\u2029\ufeff?]|[|>][-+0-9]*#")


@functools.cache
def _libyaml_loader():
    """``yaml.CSafeLoader``, reading an empty scalar tagged ``!`` as null, as the
    pure-Python loader does."""
    import yaml

    class Loader(yaml.CSafeLoader):
        def resolve(self, kind, value, implicit):
            # libyaml marks that scalar neither plain nor quoted; any other has one of the two
            if kind is yaml.ScalarNode and not any(implicit):
                implicit = (True, False)
            return super().resolve(kind, value, implicit)

    return Loader


def _load_yaml_text(text: str, where: str, stream: bool = False):
    """The YAML document of ``text``, or with ``stream`` its non-empty documents.

    The pure-Python loader's result or error is the reference. libyaml, when
    PyYAML has it, reads text that is not known to read differently; on any
    failure the text is read again by the pure-Python loader, whose message
    (with a source excerpt) is the one reported.
    """
    import yaml  # about 20 ms, a sixth of the start-up of commands that read no YAML

    def load(loader):
        if not stream:
            return yaml.load(text, Loader=loader)
        return [doc for doc in yaml.load_all(text, Loader=loader) if doc is not None]

    try:
        if yaml.__with_libyaml__ and not _LIBYAML_DIFFERS.search(text):
            try:
                return load(_libyaml_loader())
            except Exception:  # whatever libyaml raises, the pure-Python loader decides
                pass
        return load(yaml.SafeLoader)
    except yaml.YAMLError as err:
        raise RuleIOError(f"{where}: {err}") from err
    except RecursionError as err:  # the pure-Python loader recurses once per nesting level
        raise RuleIOError(f"{where}: nested too deeply") from err


def _canonical(path: str) -> str:
    return os.path.realpath(os.path.abspath(path))


def _resolve_include(parent: str, include: str) -> str:
    if os.path.isabs(include):
        return include
    return os.path.join(os.path.dirname(parent) or ".", include)


class _Loader:
    """Depth-first include resolution with cycle detection."""

    def __init__(self):
        self.stack: dict[str, str] = {}  # canonical path -> path as given, of the files being read
        self.loaded: set[str] = set()
        self.entries: list[RuleEntry] = []
        self.options: dict = {}

    def load(self, path: str):
        key = _canonical(path)
        if key in self.stack:
            start = list(self.stack).index(key)
            raise CycleError(list(self.stack.values())[start:] + [path])
        if key in self.loaded:
            return
        self.stack[key] = path
        try:
            if path.lower().endswith(_YAML_EXTENSIONS):
                self._load_yaml(path)
            else:
                self._load_text(path)
        finally:
            self.stack.popitem()
        self.loaded.add(key)

    def _read(self, path: str) -> str:
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as err:
            raise RuleIOError(f"cannot read {path}: {err}") from err

    def _load_header(self, header: dict, allowed: set, what: str, path: str):
        """Check the keys of a file's front matter or top level; load its includes and options."""
        unknown = set(header) - allowed
        if unknown:
            raise RuleIOError(f"{path}: unknown {what} keys {sorted(unknown)}")
        includes = header.get("include")
        if isinstance(includes, str):
            includes = [includes]
        if includes is not None:
            if not (isinstance(includes, list) and all(isinstance(i, str) for i in includes)):
                raise RuleIOError(f"{path}: 'include' must be a file name or a list of them")
            for inc in includes:
                self.load(_resolve_include(path, inc))
        options = header.get("options")
        if options:
            if not isinstance(options, dict):
                raise RuleIOError(f"{path}: 'options' must be a mapping")
            self.options.update(_normalize_options(options, path))

    # -- text ---------------------------------------------------------------

    def _load_text(self, path: str):
        # a byte-order mark (Notepad's "UTF-8 with BOM") is not part of the first line
        lines = self._read(path).removeprefix("\ufeff").splitlines()
        i = 0
        # optional front matter between --- delimiters at the top
        while i < len(lines) and not lines[i].strip():
            i += 1
        if i < len(lines) and lines[i].strip() == "---":
            close = None
            for j in range(i + 1, len(lines)):
                if lines[j].strip() == "---":
                    close = j
                    break
            if close is None:
                raise RuleIOError(f"{path}: unterminated front matter")
            block = "\n".join(lines[i + 1 : close])
            front = _load_yaml_text(block, f"{path}: bad front matter") or {}
            if not isinstance(front, dict):
                raise RuleIOError(f"{path}: expected a mapping in the front matter")
            self._load_header(front, {"options", "include"}, "front matter", path)
            i = close + 1

        comment_block: list[str] = []
        for lineno in range(i, len(lines)):
            line = lines[lineno]
            stripped = line.strip()
            if not stripped:
                comment_block = []
                continue
            if stripped.startswith("#"):
                comment_block.append(stripped.lstrip("#").strip())
                continue
            name = None
            source = stripped
            m = _NAME_PREFIX_RE.match(stripped)
            if m:
                name, source = m.group(1), m.group(2)
            self.entries.append(
                RuleEntry(
                    source,
                    _parse(source, f"{path}:{lineno + 1}"),
                    name=name,
                    description="\n".join(comment_block),
                    origin=path,
                )
            )
            comment_block = []

    # -- yaml ---------------------------------------------------------------

    def _load_yaml(self, path: str):
        documents = _load_yaml_text(self._read(path), f"{path}: invalid YAML", stream=True)
        data: dict = {}
        for doc in documents:
            if not isinstance(doc, dict):
                raise RuleIOError(f"{path}: expected a mapping at the top level")
            data.update(doc)
        self._load_header(data, {"options", "include", "rules"}, "top-level", path)
        rules = data.get("rules") or []
        if not isinstance(rules, list):
            raise RuleIOError(f"{path}: 'rules' must be a list of mappings")
        for index, item in enumerate(rules, start=1):
            where = f"{path}: rule entry {index}"
            if not isinstance(item, dict):
                raise RuleIOError(f"{where} is not a mapping")
            if "expr" not in item or item["expr"] in (None, ""):
                raise RuleIOError(f"{where} is missing 'expr'")
            meta = item.get("meta")
            if not isinstance(meta, dict):
                meta = None
            created = item.get("created")
            if isinstance(created, str):
                created = _parse_created(created, where)
            elif created and not isinstance(created, date):
                raise RuleIOError(f"{where}: bad 'created' timestamp: {created!r}")
            source = str(item["expr"]).strip()
            self.entries.append(
                RuleEntry(
                    source,
                    _parse(source, where),
                    name=str(item["name"]) if item.get("name") else None,
                    label=str(item.get("label") or ""),
                    description=str(item.get("description") or "").strip(),
                    origin=str(item.get("origin") or "") or path,
                    created=created or None,
                    meta=meta,
                )
            )


def read_rules(path: str, now: datetime | None = None) -> tuple[RuleSet, list[str]]:
    """Read a rule file (text or YAML), resolving includes depth-first."""
    loader = _Loader()
    loader.load(path)
    return build_ruleset(loader.entries, now=now, local_options=loader.options or None)


# ---------------------------------------------------------------------------
# YAML export
# ---------------------------------------------------------------------------


def export_yaml(rs: RuleSet, path: str):
    """Write the rule set in the YAML rule-file schema."""
    data: dict = {}
    if rs.local_options:
        data["options"] = dict(rs.local_options)
    data["rules"] = [
        {
            "expr": r.source(),
            "name": r.name,
            "label": r.label,
            "description": r.description,
            "created": _format_created(r.created),
            "origin": r.origin,
            "meta": dict(r.meta),
        }
        for r in rs.rules
    ]
    import yaml

    text = yaml.safe_dump(data, sort_keys=False, default_flow_style=False, allow_unicode=True)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise RuleIOError(f"cannot write {path}: {err}") from err


# ---------------------------------------------------------------------------
# Tabular bridge (lossy: rule-set options are not representable)
# ---------------------------------------------------------------------------

TABLE_COLUMNS = ("name", "rule", "label", "description", "origin", "created")


def rules_to_table(rs: RuleSet) -> list[dict]:
    return [
        {
            "name": r.name,
            "rule": r.source(),
            "label": r.label,
            "description": r.description,
            "origin": r.origin,
            "created": _format_created(r.created),
        }
        for r in rs.rules
    ]


def table_to_rules(rows: list[dict], now: datetime | None = None) -> RuleSet:
    entries = []
    for index, row in enumerate(rows, start=1):
        if "rule" not in row or not row["rule"]:
            raise RuleIOError(f"row {index}: missing 'rule' column")
        directive = _parse(row["rule"], f"row {index}")
        created = row.get("created")
        if isinstance(created, str) and created:
            created = _parse_created(created, f"row {index}")
        else:
            created = None
        entries.append(
            RuleEntry(
                row["rule"],
                directive,
                name=row.get("name") or None,
                label=row.get("label") or "",
                description=row.get("description") or "",
                origin=row.get("origin") or "table",
                created=created,
            )
        )
    rs, _ = build_ruleset(entries, now=now)
    return rs
