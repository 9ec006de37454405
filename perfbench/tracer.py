"""Span recorder for traced benchmark runs.

A traced worker replaces the module attributes through which one
polarblock layer calls another with timing wrappers (see PATCHES).  Each
call records one span: name, start, end and the index of the span that
was open when it started.  Spans stay in flat in-memory arrays while the
run lasts and are written to one .npz file when it ends.  Self time is
derived afterwards: a span's duration minus the time its child spans
cover.

Print the per-name table of a saved run:

    python3 perfbench/tracer.py .perfbench/trace-classify_census-seed1.npz
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# ("module[:Class]", attribute, span name).  Functions are patched in the
# namespace of the caller, because `from .projective import rref` binds a
# copy there; calls inside the callee's own module stay unwrapped, so spans
# of one name never nest.  Methods are patched on their class.
PATCHES = [
    *[("polarblock.spaces", f, f"projective.{f}")
      for f in ("rref", "nullspace", "subspace_points", "enumerate_pg_points",
                "canonicalize")],
    *[("polarblock.analysis", f, f"projective.{f}")
      for f in ("canonicalize", "meet", "span")],
    ("polarblock.spaces", "space_from_form", "spaces.space_from_form"),
    ("polarblock.analysis", "hyperplane_section", "spaces.hyperplane_section"),
    ("polarblock.constructions", "hyperplane_section", "spaces.hyperplane_section"),
    ("polarblock.spaces:PolarSpace", "generators_through", "spaces.generators_through"),
    ("polarblock.spaces:PolarSpace", "content_hash", "spaces.content_hash"),
    *[("polarblock.forms:Form", f, f"forms.{f}")
      for f in ("eval_batch", "polarize_batch", "restrict", "perp")],
    *[("polarblock.analysis", f, f"analysis.{f}")
      for f in ("classify", "verify_classification", "coverage_profile",
                "check_coverage_identities", "is_minimal",
                "project_blocking_set", "check_gq_axioms")],
    ("polarblock.constructions", "is_minimal", "analysis.is_minimal"),
    ("polarblock.constructions", "cone_example", "constructions.cone_example"),
]

# The engine's node count leaves search.py only as a return value, and the
# PG(2,q) oracle drops it, so the engine entry point itself is wrapped.
ENGINE = ("polarblock.search", "_run_engine", "search.engine")


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.nid)
        self.nid.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        nid = self._id(name)
        nids, parents, starts, ends = self.nid, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(nids)
            nids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                counts[name] = counts.get(name, 0) + count(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every boundary in PATCHES plus the engine entry point."""
        for path, attr, name in PATCHES:
            self._patch(_resolve(path), attr, name)
        path, attr, name = ENGINE
        self._patch(_resolve(path), attr, name, count=lambda r: r[2])

    def _patch(self, owner, attr, name, count=None):
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def arrays(self, lo: int = 0, hi: int | None = None):
        hi = len(self.nid) if hi is None else hi
        # copies: a live buffer view would stop the arrays from growing
        return (np.array(self.nid[lo:hi], dtype=np.int32),
                np.array(self.parent[lo:hi], dtype=np.int32),
                np.array(self.start[lo:hi], dtype=np.float64),
                np.array(self.end[lo:hi], dtype=np.float64))

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """{name: (calls, total_s, self_s)} over spans lo..hi-1."""
        return summarize(self.names, *self.arrays(lo, hi), offset=lo)

    def save(self, path, **extra) -> None:
        nid, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), nid=nid, parent=parent,
                 start=start, end=end, **extra)


def summarize(names, nid, parent, start, end, offset: int = 0) -> dict:
    dur = end - start
    local = parent - offset
    inside = local >= 0
    child = np.bincount(local[inside], weights=dur[inside], minlength=len(dur))
    selft = dur - child
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    total = np.bincount(nid, weights=dur, minlength=k)
    own = np.bincount(nid, weights=selft, minlength=k)
    return {names[i]: (int(calls[i]), float(total[i]), float(own[i]))
            for i in range(k) if calls[i]}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with np.load(argv[0]) as z:
        names = [str(n) for n in z["names"]]
        table = summarize(names, z["nid"], z["parent"], z["start"], z["end"])
        nspans = len(z["nid"])
    print(f"{nspans} spans")
    print(f"{'name':<40} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:<40} {calls:>9} {total:>10.3f} {own:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
