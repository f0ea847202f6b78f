"""A strict OpenMetrics text parser for the exporter and live-scrape tests.

:func:`parse_openmetrics` returns ``(families, problems)``.  ``families``
maps every ``# TYPE``-declared family to ``{"type": kind, "samples":
[(suffix, labels, value), ...]}``; ``problems`` lists each rule the
exposition breaks: a missing ``# EOF`` terminator, a sample with no
``# TYPE`` line, a histogram series whose buckets are not cumulative or
lack ``+Inf``, and a ``+Inf`` bucket that differs from ``_count``.
"""

from __future__ import annotations

import math
import re

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_HISTOGRAM_SUFFIXES = ("_bucket", "_count", "_sum")


def parse_openmetrics(text: str) -> "tuple[dict, list[str]]":
    problems = [] if text.endswith("# EOF\n") else ["exposition does not end with '# EOF'"]
    families: "dict[str, dict]" = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE ") :].partition(" ")
            if name in families:
                problems.append(f"duplicate TYPE line for {name}")
            families[name] = {"type": kind, "samples": []}
            continue
        if not line or line.startswith("#"):
            continue  # HELP and EOF
        match = _SAMPLE.match(line)
        if match is None:
            problems.append(f"unparseable sample line {line!r}")
            continue
        name, labels, value = match.groups()
        family, suffix = _family_of(name, families)
        if family is None:
            problems.append(f"sample {name} has no TYPE line")
            continue
        try:
            number = float(value)  # reads +Inf, -Inf and NaN too
        except ValueError:
            problems.append(f"non-numeric value {value!r} on {name}")
            continue
        families[family]["samples"].append(
            (suffix, dict(_LABEL.findall(labels or "")), number)
        )
    for name, family in families.items():
        if family["type"] == "histogram":
            problems += _histogram_problems(name, family["samples"])
    return families, problems


def _family_of(name: str, families: dict) -> "tuple[str | None, str]":
    if families.get(name, {}).get("type") not in (None, "histogram"):
        return name, ""
    for suffix in _HISTOGRAM_SUFFIXES:
        base = name[: -len(suffix)]
        if name.endswith(suffix) and families.get(base, {}).get("type") == "histogram":
            return base, suffix
    return None, ""


def _histogram_problems(name: str, samples: list) -> "list[str]":
    series: "dict[tuple, dict]" = {}
    problems = []
    for suffix, labels, value in samples:
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        entry = series.setdefault(key, {"_bucket": [], "_count": None, "_sum": None})
        if suffix != "_bucket":
            entry[suffix] = value
        elif "le" not in labels:
            problems.append(f"{name}_bucket sample without an le label")
        else:
            entry["_bucket"].append((float(labels["le"]), value))
    for key, entry in series.items():
        where = name + (str(dict(key)) if key else "")
        buckets = sorted(entry["_bucket"])
        counts = [count for _, count in buckets]
        if not buckets or buckets[-1][0] != math.inf:
            problems.append(f"{where}: no +Inf bucket")
        elif counts != sorted(counts):
            problems.append(f"{where}: buckets not cumulative: {counts}")
        elif entry["_count"] is None or entry["_sum"] is None:
            problems.append(f"{where}: missing _count or _sum")
        elif counts[-1] != entry["_count"]:
            problems.append(f"{where}: +Inf bucket {counts[-1]} != _count {entry['_count']}")
    return problems
