"""Outside-in layer tracing for the benchmark.

The tracer wraps the public functions of the traced ``stackmaps`` modules
(plus a few named methods) and patches each wrapper into every
``stackmaps`` module namespace that holds the original, so calls made
inside the library (for example from ``stats.run_experiment``) are caught.
Nothing under ``src/`` changes.

For each wrapped function it counts calls and self time (own time minus the
time of wrapped callees), the calls that raised and the time spent in them,
plus a size counter for a few functions (word letters, map vertices, JSON
bytes, BFS sources).  Spans (name, start, end, parent span, op id) are kept
in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

TRACED_MODULES = ("trees", "passage", "maps", "stats", "cli")

#: methods wrapped in addition to the public module-level functions;
#: ``OrderedTree.__init__`` is reported as ``trees.OrderedTree``
TRACED_METHODS = (
    ("trees", "OrderedTree", "__init__"),
    ("trees", "OrderedTree", "words"),
    ("maps", "StackMap", "to_json"),
    ("stats", "EmpiricalPMF", "chisquare_pvalue"),
)


def _word_letters(args, kwargs, result):
    return len(args[0])


def _map_vertices(args, kwargs, result):
    return result.n_vertices


def _json_bytes(args, kwargs, result):
    return len(result)  # json.dumps output is ASCII


def _bfs_sources(args, kwargs, result):
    return len(result)


#: size counters, reported as ``<name>.<counter>``
COUNTERS = {
    "passage.tri_root_distance": ("letters", _word_letters),
    "passage.quad_root_distance": ("letters", _word_letters),
    "maps.map_from_tree": ("vertices", _map_vertices),
    "maps.StackMap.to_json": ("bytes", _json_bytes),
    "maps.distance_matrix": ("sources", _bfs_sources),
}


class FnStats:
    __slots__ = ("calls", "self_s", "failed", "failed_s", "counter")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.failed = 0
        self.failed_s = 0.0
        self.counter = 0


class Tracer:
    """Wraps, patches and later restores the traced functions.

    Use as a context manager; ``op_id`` tags the spans of the op running.
    """

    def __init__(self):
        self.stats: dict[str, FnStats] = {}
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.op_id = None
        self._stack: list[list] = []  # [span index, wrapped-children time]
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        st = self.stats[name] = FnStats()
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name, (None, None))[1]
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st.calls += 1
                st.self_s += dur - frame[1]
                if not ok:
                    st.failed += 1
                    st.failed_s += dur
                spans[idx] = (name_id, t0, t1, parent, self.op_id)
            if counter is not None:
                st.counter += counter(args, kwargs, result)
            return result

        return wrapper

    def targets(self):
        """(report name, owner, attribute, original) for every traced
        callable, module functions first."""
        out = []
        for short in TRACED_MODULES:
            mod = sys.modules[f"stackmaps.{short}"]
            for attr, val in sorted(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(val)
                    and val.__module__ == mod.__name__
                ):
                    out.append((f"{short}.{attr}", mod, attr, val))
        for short, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[f"stackmaps.{short}"], cls_name)
            name = f"{short}.{cls_name}" + ("" if attr == "__init__" else f".{attr}")
            out.append((name, cls, attr, cls.__dict__[attr]))
        return out

    def __enter__(self) -> "Tracer":
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "stackmaps" or n.startswith("stackmaps."))
        ]
        for name, owner, attr, orig in self.targets():
            wrapped = self._wrap(name, orig)
            if isinstance(owner, type):
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write the names table and all spans as one JSON document."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": self.names,
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [n, round(a - t_ref, 9), round(b - t_ref, 9), p, op]
                for n, a, b, p, op in self.spans
            ],
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


# ---------------------------------------------------------------------------
# import time, from ``python -X importtime``

IMPORT_FAMILIES = ("numpy", "scipy", "stackmaps")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds of import time per package family.

    Every module's self time goes to the innermost enclosing module (itself
    included) that belongs to a family, so a stdlib module pulled in only by
    scipy counts as scipy.  ``-X importtime`` prints children before their
    parent, one indentation step deeper.
    """
    roots: list = []
    pending: dict[int, list] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _cum, name = line[len("import time:"):].split("|", 2)
        if not self_us.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2  # two spaces a level
        node = (name.strip(), int(self_us), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    for depth in sorted(pending):
        roots.extend(pending[depth])

    totals = dict.fromkeys(IMPORT_FAMILIES, 0.0)
    todo = [(node, None) for node in roots]
    while todo:
        (name, self_us, children), family = todo.pop()
        for fam in IMPORT_FAMILIES:
            if name == fam or name.startswith(fam + "."):
                family = fam
        if family is not None:
            totals[family] += self_us / 1e6
        todo.extend((child, family) for child in children)
    return totals
