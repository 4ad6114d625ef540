"""Run reports: structured JSON plus flat delimited tables.

The JSON report is the machine format (config echo, one record per check,
summary counts, convergence tables).  The flat tables are plot-ready:
records.csv (all numeric fields), gaps.csv (check, gap), convergence.csv
(check, level, value, residual, ratio).  Per-record wall time lives only
in the JSON and is excluded from the byte-identical determinism contract;
every other numeric field is reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

TOOL_VERSION = "0.1.0"


@dataclass
class CheckRecord:
    suite: str
    name: str
    inputs_digest: str
    lhs: float
    rhs: float
    gap: float
    relative_gap: float
    tolerance: float
    passed: bool
    wall_time_s: float = 0.0
    kind: str = "check"  # "check" or "diagnostic" (excluded from tallies)

    def row(self):
        return [self.suite, self.name, self.inputs_digest, repr(self.lhs),
                repr(self.rhs), repr(self.gap), repr(self.relative_gap),
                repr(self.tolerance), str(self.passed), self.kind]


@dataclass
class RunReport:
    config_echo: dict
    records: list = field(default_factory=list)
    convergence: dict = field(default_factory=dict)

    @property
    def summary(self) -> dict:
        checks = [r for r in self.records if r.kind == "check"]
        diags = [r for r in self.records if r.kind != "check"]
        return {
            "total": len(checks),
            "passed": sum(1 for r in checks if r.passed),
            "failed": sum(1 for r in checks if not r.passed),
            "diagnostics": len(diags),
        }

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0


def digest(obj) -> str:
    """Short deterministic digest of check inputs."""
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def emit_report(report: RunReport, out_dir: str) -> dict:
    """Write report.json plus flat tables into the existing directory
    out_dir (the caller makes it); returns the path map."""
    records = report.records  # in run_suite's (suite, name) order
    payload = {
        "tool": {"name": "capaf", "version": TOOL_VERSION},
        "config": report.config_echo,
        "records": [asdict(r) for r in records],
        "summary": report.summary,
        "convergence": report.convergence,
    }
    def table(header, lines):
        return "".join(f"{line}\n" for line in [header, *lines])

    files = {
        "json": ("report.json", json.dumps(payload, indent=2, sort_keys=True)),
        "records": ("records.csv", table(
            "suite,name,inputs_digest,lhs,rhs,gap,relative_gap,tolerance,passed,kind",
            (",".join(r.row()) for r in records))),
        "gaps": ("gaps.csv", table(
            "check,gap", (f"{r.suite}.{r.name},{r.gap!r}" for r in records))),
        "convergence": ("convergence.csv", table(
            "check,level,value,residual,ratio",
            (f"{name},{level},{value!r},{residual!r},{ratio!r}"
             for name, rows in sorted(report.convergence.items())
             for level, value, residual, ratio in rows))),
    }
    paths = {}
    for key, (name, text) in files.items():
        paths[key] = os.path.join(out_dir, name)
        with open(paths[key], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths
