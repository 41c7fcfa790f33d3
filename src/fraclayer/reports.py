"""The one check-record type, deterministic JSON report serialization and
the one CSV writer.

Every check with a fixed statement returns `CheckRecord`s, and a `Report`
holds them. `Report.to_json` is the one place that maps a record to the
report's keys (`id`, `statement`, `pass`, `worst-slack`, `location`).
`write_csv` writes every CSV table the program produces, floats at 17
significant digits, as the reports do.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np


SIDE_LABEL = {1: "right", -1: "left"}   # record-id label of side s = +/-1


def _fmt(v: Any) -> Any:
    """Floats to 17 significant digits so reports are byte-reproducible."""
    if isinstance(v, (bool, np.bool_)):     # bool is an int subclass
        return bool(v)
    if isinstance(v, (float, np.floating)):
        return float(f"{float(v):.17g}")
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_fmt(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _fmt(x) for k, x in v.items()}
    if isinstance(v, str) or v is None:
        return v
    return str(v)


def write_csv(path, header, rows) -> None:
    """A header line, then one line per row: floats at 17 significant
    digits, other values as given."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in r]
                    for r in rows)


@dataclass
class CheckRecord:
    """One verified statement: id, pass flag, worst slack, location."""

    id: str
    passed: bool
    worst_slack: float
    location: str = ""


@dataclass
class Report:
    """One run: configuration echo plus one record per executed check."""

    run_id: str
    config_echo: dict
    checks: list[CheckRecord] = field(default_factory=list)

    def add(self, id: str, passed: bool, worst_slack: float,
            location: str = "") -> None:
        self.checks.append(CheckRecord(id, passed, worst_slack, location))

    def add_records(self, records) -> None:
        self.checks.extend(records)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if not c.passed]

    def summary_line(self) -> str:
        n_fail = len(self.failures())
        status = "PASS" if n_fail == 0 else f"FAIL({n_fail})"
        return f"{self.run_id}: {status} [{len(self.checks)} checks]"

    def to_json(self) -> str:
        payload = {
            "run-id": self.run_id,
            "config-echo": _fmt(self.config_echo),
            "checks": _fmt([{"id": c.id, "statement": c.id,
                             "pass": bool(c.passed),
                             "worst-slack": float(c.worst_slack),
                             "location": c.location} for c in self.checks]),
        }
        return json.dumps(payload, indent=1, sort_keys=True)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")
