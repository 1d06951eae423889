"""Summaries, the layer table and the provenance stamp of a result."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort last."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class Frame:
    """One layer table: rows of self time that, with ``other``, sum to
    ``seconds``.

    A frame is the time one lane of execution spent inside timed calls:
    the benchmark process, the pool's worker slots (workers x wall), or
    request time from due to reply.
    """

    name: str
    seconds: float
    rows: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def other(self) -> float:
        return self.seconds - sum(seconds for _, seconds in self.rows)

    def render(self) -> List[str]:
        lines = [f"  {self.name}: {self.seconds:.4f} s"]
        for name, seconds in self.rows + [("other", self.other)]:
            share = ratio(seconds, self.seconds)
            lines.append(f"    {name:<34} {seconds:10.4f} s {share:7.1%}")
        return lines


def unattributed_share(frames: Sequence[Frame]) -> float:
    """Share of all frame time that no named row covers."""
    return ratio(sum(f.other for f in frames), sum(f.seconds for f in frames))


def _git_sha(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(root: Path, workload: str, seed: int, seconds: int,
          trace: bool) -> Dict[str, object]:
    """Who measured what, where: makes results a history, not a snapshot."""
    return {
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
        "src_digest": source_digest(root / "src"),
    }


def append_history(path: Path, record: Dict[str, object]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def print_summary(stamp_record: Dict[str, object],
                  metrics: Dict[str, Dict[str, object]],
                  raw: Dict[str, float],
                  frames: Sequence[Frame]) -> None:
    """Human-readable result on stderr (stdout ends with the JSON line).

    ``raw`` holds the un-normalised value of each host-normalised time.
    """
    out = sys.stderr
    print("bench: " + " ".join(f"{k}={v}" for k, v in stamp_record.items()),
          file=out)
    for name, metric in metrics.items():
        line = f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}"
        if name in raw:
            line += f"  (raw {raw[name]:.6g})"
        print(line, file=out)
    if frames:
        print("layer table (self time):", file=out)
        for frame in frames:
            print("\n".join(frame.render()), file=out)
