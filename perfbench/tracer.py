"""Span recorder that wraps birdstrike's public functions from outside.

`Tracer.install()` replaces every public function of the traced modules, plus
`ImpactScenario.__init__` and `TestMatrix.scenario`, with a timing wrapper in
every birdstrike namespace that holds it, so calls between modules are seen
too. `restore()` puts the originals back. Nothing in `src/` is edited.

Each call becomes a span (id, parent id, name, start, end). Spans are kept in
memory up to a cap and written out at the end; per-name call counts, total
time and self time (duration minus the time covered by child spans), and
parent/child call counts are kept for every call regardless of the cap.

Run as a script, it is the bootstrap of a traced CLI call:
    python perfbench/tracer.py SRC_DIR OUT_JSON -- ARGV...
runs `birdstrike.cli.main(ARGV)` traced and writes the aggregates to OUT_JSON.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "harness", "kinematics", "impact", "projectile", "species", "materials")
SPAN_CAP = 20_000


def _ingest_rows(result):
    return sum(len(measurement.forces) for measurement in result)


# Work counted at the boundary where it happens: name -> (counter, function of the result).
RESULT_COUNTERS = {
    "harness.ingest_measurements": ("harness.ingest_measurements.rows", _ingest_rows),
    "impact.sensitivity_table": ("impact.sensitivity_table.values", len),
}


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.pairs: dict[tuple, int] = {}     # (parent name, name) -> calls
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []          # (id, parent_id, name, start, end)
        self.dropped = 0
        self._cap = span_cap
        self._stack: list[list] = []          # [name, id, start, child_time]
        self._next_id = 0
        self._patches: list[tuple] = []

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, self._next_id, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, span_id, start, child_time = self._stack.pop()
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_time
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_name, parent_id = parent[0], parent[1]
        else:
            parent_name, parent_id = None, 0
        key = (parent_name, name)
        self.pairs[key] = self.pairs.get(key, 0) + 1
        if len(self.spans) < self._cap:
            self.spans.append((span_id, parent_id, name, start, end))
        else:
            self.dropped += 1

    def add(self, name: str, seconds: float) -> None:
        add_self_time(self.stats, name, seconds)

    def wrap(self, fn, name: str):
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if counter is not None:
                self.counts[counter[0]] = self.counts.get(counter[0], 0) + counter[1](result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions wherever birdstrike's namespaces bind them."""
        import birdstrike
        from birdstrike import harness, impact

        modules = [sys.modules[f"birdstrike.{layer}"] for layer in LAYERS
                   if f"birdstrike.{layer}" in sys.modules]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self.wrap(value, f"{layer}.{value.__name__}")
        for module in [birdstrike] + modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        self._patch(impact.ImpactScenario, "__init__",
                    self.wrap(impact.ImpactScenario.__init__, "impact.ImpactScenario"))
        self._patch(harness.TestMatrix, "scenario",
                    self.wrap(harness.TestMatrix.scenario, "harness.TestMatrix.scenario"))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        return {
            "stats": self.stats,
            "pairs": {f"{parent}>{name}": calls for (parent, name), calls in self.pairs.items()},
            "counts": self.counts,
            "spans": [list(span) for span in self.spans],
            "dropped_spans": self.dropped,
        }


def add_self_time(stats: dict, name: str, seconds: float) -> None:
    """Record time measured outside any span (start-up, import) as one self-time call."""
    stat = stats.setdefault(name, [0, 0.0, 0.0])
    stat[0] += 1
    stat[1] += seconds
    stat[2] += seconds


def empty_aggregate() -> dict:
    return {"stats": {}, "pairs": {}, "counts": {}, "spans": [], "dropped_spans": 0}


def merge(into: dict, snapshot: dict, process: int) -> None:
    """Add one process's snapshot to an aggregate; spans are tagged by process."""
    for name, (calls, total, self_time) in snapshot["stats"].items():
        stat = into["stats"].setdefault(name, [0, 0.0, 0.0])
        stat[0] += calls
        stat[1] += total
        stat[2] += self_time
    for key, calls in snapshot["pairs"].items():
        into["pairs"][key] = into["pairs"].get(key, 0) + calls
    for key, value in snapshot["counts"].items():
        into["counts"][key] = into["counts"].get(key, 0) + value
    room = SPAN_CAP - len(into["spans"])
    into["spans"].extend([process] + span for span in snapshot["spans"][:max(room, 0)])
    into["dropped_spans"] += snapshot["dropped_spans"] + max(len(snapshot["spans"]) - room, 0)


def layer_self_times(aggregate: dict) -> dict[str, float]:
    """Self time per layer; a span's layer is the part of its name before the first dot."""
    layers: dict[str, float] = {}
    for name, (_calls, _total, self_time) in aggregate["stats"].items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_time
    return layers


def _traced_cli(src_dir: str, out_path: str, argv: list[str]) -> int:
    import json

    started = time.perf_counter()
    sys.path.insert(0, src_dir)
    tracer = Tracer(span_cap=2_000)
    before = time.perf_counter()
    import birdstrike.cli
    imported = time.perf_counter()
    tracer.install()
    try:
        code = birdstrike.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.restore()
    sys.stdout.flush()
    tracer.add("import", imported - before)
    result = {"elapsed": time.perf_counter() - started, "trace": tracer.snapshot()}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: tracer.py SRC_DIR OUT_JSON -- ARGV...")
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2], sys.argv[4:]))
