"""In-memory spans around the public layer calls that ``run_study`` makes.

The tracer replaces the names ``qncfem.cli`` looks up (mesh generators,
``build_global_space``, ``assemble``, ``solve``, ``error_norms``) with
wrappers for the duration of a ``with tracer.patched(cli)`` block, so the
program itself is not edited.  Each span records name, start, end, parent
and a level id; every mesh call opens a new level id, so all spans of one
refinement level share it.  A level without an assembly is run_study's
reference-norm build and counts as run_study self time.
"""

from __future__ import annotations

import contextlib
import resource
import time
from dataclasses import asdict, dataclass, field

# name looked up in qncfem.cli -> layer name reported by the benchmark
LAYER_OF = {
    "uniform_rect_mesh": "mesh",
    "perturbed_mesh": "mesh",
    "build_global_space": "space",
    "assemble": "solve.assemble",
    "solve": "solve.solve",
    "error_norms": "solve.error_norms",
}
ROOT = "cli.run_study"


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    level: int | None = None
    rss_gain_mb: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _counts(layer: str, args, result) -> dict:
    """Work counts read from a layer's arguments and result."""
    if layer == "mesh":
        return {"elements": result.n_elements}
    if layer == "space":
        c = result.constraints
        return {"ndof": result.n_free,
                "constraint_nnz": 0 if c is None else int(c.nnz)}
    if layer == "solve.assemble":
        return {"nnz": int(result.matrix.nnz), "n": result.n,
                "index_bytes": result.matrix.indices.itemsize,
                "elements": args[0].mesh.n_elements}
    if layer == "solve.solve":
        report = result[1]
        return {"iterations": report.iterations,
                "true_residual": float(report.relative_residual),
                "constraint_residual": float(report.constraint_residual)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._level: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        if name == "mesh":
            self._level = 0 if self._level is None else self._level + 1
        idx = len(self.spans)
        span = Span(name, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None,
                    level=None if name == ROOT else self._level)
        self.spans.append(span)
        self._stack.append(idx)
        rss0 = maxrss_mb()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            span.rss_gain_mb = maxrss_mb() - rss0
        span.counts = _counts(name, args, result)
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self, module):
        saved = {attr: getattr(module, attr) for attr in LAYER_OF}
        try:
            for attr, fn in saved.items():
                setattr(module, attr, self.wrap(LAYER_OF[attr], fn))
            yield self
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def level_ids(self) -> list[int]:
        """Level ids that hold a full level (one with an assembly)."""
        return sorted({s.level for s in self.spans
                       if s.name == "solve.assemble"})

    def layer_spans(self) -> list[Span]:
        ids = set(self.level_ids())
        return [s for s in self.spans if s.level in ids and s.name != ROOT]

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer, summed over the study's levels.  run_study's
        self time is its span minus the level spans under it, so it holds the
        reference-norm build and anything a wrapper no longer sees."""
        ids = set(self.level_ids())
        children = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None and (s.name == ROOT or s.level in ids):
                children[s.parent] += s.seconds
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s.name == ROOT or s.level in ids:
                out[s.name] = out.get(s.name, 0.0) + s.seconds - children[i]
        return out

    def dump(self) -> list[dict]:
        ids = set(self.level_ids())
        rows = []
        for s in self.spans:
            d = asdict(s)
            d["kind"] = ("study" if s.name == ROOT
                         else "level" if s.level in ids else "reference")
            rows.append(d)
        return rows
