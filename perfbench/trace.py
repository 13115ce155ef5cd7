"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark around its calls into each layer;
they are kept in memory and written once when the run ends.  A layer's
self time is its spans' durations minus the parts covered by their
child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.pass_id = 0

    @contextmanager
    def span(self, name: str):
        parent: Optional[int] = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": parent, "pass": self.pass_id,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, pass_id: Optional[int] = None) -> Dict[str, float]:
        """name -> summed self time over the (selected) spans.  Children
        of one span run one after another, so their covered interval is
        the sum of their durations."""
        covered = defaultdict(float)
        chosen = [s for s in self.spans if pass_id is None or s["pass"] == pass_id]
        for s in chosen:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, float] = defaultdict(float)
        for s in chosen:
            out[s["name"]] += (s["end"] - s["start"]) - covered[s["id"]]
        return dict(out)

    def coverage(self, root: str, pass_id: Optional[int] = None) -> float:
        """Share of the ``root`` spans' time that their child spans
        cover; time spent outside every named span lowers it."""
        total = self.duration(root, pass_id)
        unnamed = self.self_times(pass_id).get(root, 0.0)
        return 1.0 - unnamed / total if total > 0 else 0.0

    def duration(self, name: str, pass_id: Optional[int] = None) -> float:
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (pass_id is None or s["pass"] == pass_id)
        )

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans
        ]
        path.write_text(json.dumps({"info": extra, "spans": rows}) + "\n")
