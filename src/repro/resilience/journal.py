"""On-disk result journal for resumable sweep campaigns.

One JSON object per line, one line per finished cell, appended
atomically (the whole file is rewritten to a temp file and swapped in
with ``os.replace``, so a crash mid-append leaves the previous journal
intact — at worst one torn trailing line, which loading tolerates).

Cells are keyed by a SHA-256 content hash of (design name, workload
name, scale, seed): if any of those change, the key changes and the
cell is re-evaluated; if none change, a resumed campaign reuses the
journalled result without re-running the workload. Every line carries a schema version so an old journal is
rejected loudly rather than misread.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import SweepError
from repro.model.evaluate import Evaluation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.designs.base import MemoryDesign
    from repro.workloads.base import Workload

#: Journal line schema; bump on incompatible changes.
SCHEMA_VERSION = 1


def cell_key(
    design_name: str,
    workload_name: str,
    scale: float,
    seed: int,
    drain: bool = False,
    engine_class: str = "exact",
) -> str:
    """Content hash identifying one (design, workload, scale, seed) cell.

    The design name alone identifies the design: deriving the key never
    builds a hierarchy, so a design that fails to build fails inside
    its own fault-isolated cell rather than while keying the grid.
    ``drain`` and a non-default ``engine_class`` enter the hash only
    when set. The *exact* engines (scalar/setpar/
    auto) are bit-identical and deliberately share one engine class —
    but ``"analytic"`` results are approximate, so analytic cells hash
    differently and can never satisfy (or be satisfied by) an exact
    campaign on resume.
    """
    payload = {
        "design": design_name,
        "workload": workload_name,
        "scale": scale,
        "seed": seed,
    }
    if drain:
        payload["drain"] = True
    if engine_class != "exact":
        payload["engine_class"] = engine_class
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


def cell_key_for(
    design: "MemoryDesign",
    workload: "Workload",
    scale: float,
    seed: int,
    drain: bool = False,
    engine_class: str = "exact",
) -> str:
    """:func:`cell_key` from live design/workload objects."""
    return cell_key(
        design.name, workload.name, scale, seed, drain, engine_class
    )


@dataclass(frozen=True)
class JournalEntry:
    """One journalled cell outcome.

    Attributes:
        key: content hash (see :func:`cell_key`).
        design / workload: labels, for humans and reports.
        scale / seed: the runner parameters the key was derived from.
        status: ``ok`` / ``failed`` / ``skipped`` / ``timed_out``.
        attempts: evaluation attempts consumed.
        duration_s: wall-clock spent on the cell (all attempts).
        error: formatted exception chain for non-ok cells, else None.
        evaluation: the serialized :class:`Evaluation` for ok cells.
        run_id: telemetry run that produced the entry (None for
            entries written before run correlation existed, or with
            telemetry disabled) — joins the journal to the run's
            telemetry tree. Optional with a default so pre-observatory
            journals keep loading under the same schema version.
        engine_class: ``"exact"`` (bit-exact simulation — scalar,
            setpar or auto) or ``"analytic"`` (reuse-profile model).
            Serialized only when not ``"exact"`` so pre-analytic
            journals keep loading and byte-stable.
    """

    key: str
    design: str
    workload: str
    scale: float
    seed: int
    status: str
    attempts: int
    duration_s: float
    error: str | None = None
    evaluation: dict | None = None
    run_id: str | None = None
    engine_class: str = "exact"

    def to_json(self) -> str:
        """The journal line (no trailing newline)."""
        payload = {"schema": SCHEMA_VERSION, **dataclasses.asdict(self)}
        if payload.get("engine_class") == "exact":
            del payload["engine_class"]
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "JournalEntry":
        """Parse one journal line.

        Raises:
            SweepError: malformed JSON or unsupported schema.
        """
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SweepError(f"malformed journal line: {line[:80]!r}") from exc
        if not isinstance(payload, dict):
            raise SweepError(f"malformed journal line: {line[:80]!r}")
        schema = payload.pop("schema", None)
        if schema != SCHEMA_VERSION:
            raise SweepError(
                f"unsupported journal schema {schema!r} (want "
                f"{SCHEMA_VERSION}); delete the journal to restart"
            )
        try:
            return cls(**payload)
        except TypeError as exc:
            raise SweepError(f"malformed journal entry: {exc}") from exc

    def load_evaluation(self) -> Evaluation | None:
        """Reconstruct the :class:`Evaluation` of an ok cell."""
        if self.evaluation is None:
            return None
        try:
            return Evaluation(**self.evaluation)
        except TypeError as exc:
            raise SweepError(
                f"journal entry for {self.design}/{self.workload} holds an "
                f"incompatible evaluation record: {exc}"
            ) from exc


class Journal:
    """Append-only JSON-lines journal of cell outcomes.

    Args:
        path: journal file; created (with parents) on first append.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lines: list[str] | None = None

    def exists(self) -> bool:
        """Whether the journal file is already on disk."""
        return self.path.exists()

    def _read_lines(self) -> list[str]:
        if self._lines is not None:
            return self._lines
        if not self.path.exists():
            self._lines = []
            return self._lines
        raw = self.path.read_text().splitlines()
        lines: list[str] = []
        for index, line in enumerate(raw):
            if not line.strip():
                continue
            try:
                JournalEntry.from_json(line)
            except SweepError:
                if index == len(raw) - 1:
                    # Torn trailing line from an interrupted append:
                    # drop it; the cell simply re-runs on resume.
                    continue
                raise SweepError(
                    f"corrupt journal {self.path} at line {index + 1}; "
                    f"delete it to restart the campaign"
                )
            lines.append(line)
        self._lines = lines
        return lines

    def entries(self) -> list[JournalEntry]:
        """Every valid entry, in append order."""
        return [JournalEntry.from_json(line) for line in self._read_lines()]

    def load(self) -> dict[str, JournalEntry]:
        """Latest entry per cell key (later lines win)."""
        return {entry.key: entry for entry in self.entries()}

    def append(self, entry: JournalEntry) -> None:
        """Durably append one entry (atomic whole-file swap)."""
        lines = self._read_lines() + [entry.to_json()]
        payload = "".join(line + "\n" for line in lines).encode()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=f".{self.path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._lines = lines
