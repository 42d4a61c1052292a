"""Shared JSON/CSV plumbing: rational strings, stable reports, run manifests."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import PreconditionError
from .maps import MapTree, from_grid, from_spec, rat


def emit_json(data, path=None) -> str:
    """Serialize with stable (insertion) field order; write when path given."""
    text = json.dumps(data, indent=2, sort_keys=False)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read {path} ({type(exc).__name__})") from None


def load_json(path) -> dict:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"{path} is not valid JSON: {exc}") from None


def load_map(path) -> MapTree:
    """A map from a JSON spec file or a CSV grid of (x, F(x)) rows."""
    p = Path(path)
    if p.suffix.lower() == ".csv":
        xs, ys = read_csv_pairs(p)
        degree = rat(ys[-1]) - rat(ys[0])
        if degree.denominator != 1 or degree < 1:
            raise PreconditionError(
                f"grid spans degree {degree}; need a positive integer")
        return from_grid(xs, ys, int(degree))
    return from_spec(load_json(p))


def read_csv_pairs(path) -> tuple[list, list]:
    xs, ys = [], []
    for number, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.lower().startswith("x"):
            continue
        try:
            x, y = (rat(cell) for cell in line.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise PreconditionError(
                f"{path}, line {number}: bad CSV row {line!r} ({exc})") from None
        xs.append(x)
        ys.append(y)
    if len(xs) < 2:
        raise PreconditionError("CSV grid needs at least two samples")
    return xs, ys


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class RunManifest:
    """Append-only record of one CLI run; every output file is referenced."""

    subcommand: str
    parameters: dict
    input_hashes: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    wall_time_s: float = 0.0

    def to_json(self) -> dict:
        import sys
        return {"subcommand": self.subcommand, "parameters": self.parameters,
                "input_hashes": self.input_hashes, "outputs": self.outputs,
                "versions": {"lineactions": __version__,
                             "python": sys.version.split()[0]},
                "wall_time_s": round(self.wall_time_s, 6),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}


def append_manifest(manifest_dir, manifest: RunManifest) -> Path:
    d = Path(manifest_dir)
    d.mkdir(parents=True, exist_ok=True)
    path = d / "manifest.jsonl"
    with path.open("a") as fh:
        fh.write(json.dumps(manifest.to_json(), sort_keys=False) + "\n")
    return path
