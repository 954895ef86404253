"""In-memory span recording around the simulator's layer boundaries.

The benchmark's traced run wraps the public functions of each layer from
here, without editing the program: every module (and class) that holds
a target function object gets the wrapper, including modules that bound
the name with ``from ... import`` (several modules import
``atomic_write_json`` or ``build_program`` that way, so patching only the
defining module would miss their calls).

A span is ``(layer, parent span, start ns, end ns)``.  Spans stay in
memory during the run and are written out once at the end.  A layer's
self time is the sum over its spans of duration minus the time covered
by their direct child spans; its ``calls`` count entries into the layer
from another layer, so a layer function calling another function of the
same layer (``Kernel.read`` -> ``Kernel.translate``) counts once.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from pathlib import Path

#: Layer name -> ``(module, qualified name)`` of each wrapped function.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "mem.cache": [("repro.mem.cache", "Cache.__init__")],
    "cpu.machine": [("repro.cpu.machine", "Machine.__init__")],
    "cpu.load": [
        ("repro.cpu.machine", "Machine.load_program"),
        ("repro.cpu.machine", "Machine.place_program"),
    ],
    "cpu.isa": [
        ("repro.cpu.isa", "Program.relocate"),
        ("repro.cpu.isa", "Program.encode"),
        ("repro.cpu.isa", "Program.decoded"),
    ],
    "cpu.run": [("repro.cpu.pipeline", "Pipeline.run")],
    "core.predictor": [
        ("repro.core.predictor_unit", "PredictorUnit.predict"),
        ("repro.core.predictor_unit", "PredictorUnit.access"),
    ],
    "osm.kernel": [
        ("repro.osm.kernel", "Kernel.translate"),
        ("repro.osm.kernel", "Kernel.read"),
        ("repro.osm.kernel", "Kernel.write"),
        ("repro.osm.kernel", "Kernel.map_anonymous"),
    ],
    "cpu.reference": [("repro.cpu.reference", "ReferenceInterpreter.run")],
    "fuzz.gen": [("repro.fuzz.gen", "build_program")],
    "fuzz.harness": [("repro.fuzz.harness", "execute_program")],
    "fuzz.compare": [("repro.fuzz.compare", "compare_architectural")],
    "fuzz.oracle.observe": [("repro.fuzz.oracle", "observe_program")],
    "runtime.supervisor": [("repro.runtime.supervisor", "run_supervised")],
    "runtime.atomic": [
        ("repro.runtime.atomic", "atomic_write_json"),
        ("repro.runtime.atomic", "atomic_write_text"),
    ],
    "attacks.collision": [
        ("repro.attacks.collision", "SsbpCollisionFinder.find"),
        ("repro.attacks.spectre_stl", "SpectreSTL.find_collision"),
        ("repro.attacks.spectre_stl", "SpectreSTL._validate"),
    ],
    "attacks.fingerprint": [("repro.attacks.fingerprint", "SsbpFingerprinter.probe_round")],
    "workloads.cnn": [("repro.workloads.cnn", "CnnVictim.inference_pass")],
    "analysis.svm": [
        ("repro.analysis.svm", "OneVsRestSvm.fit"),
        ("repro.analysis.svm", "OneVsRestSvm.score"),
        ("repro.analysis.svm", "train_test_split"),
    ],
}

ROOT = "workload"


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names = [ROOT, *LAYERS]
        self.layer: list[int] = [0]
        self.parent: list[int] = [-1]
        self.start: list[int] = [0]
        self.end: list[int] = [0]
        self.child: list[int] = [0]
        self._stack = [0]
        #: Counts gathered from wrapped calls' arguments and results.
        self.atomic_bytes = 0
        self.collision_candidates = 0
        self.collision_validated = 0

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target everywhere it is bound."""
        observers = {
            "atomic_write_text": self._observe_atomic_text,
            "SpectreSTL._validate": self._observe_validate,
        }
        for layer_id, name in enumerate(self.names[1:], start=1):
            for module_name, qualname in LAYERS[name]:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                self._rebind(original, self._wrap(layer_id, original, observers.get(qualname)))

    @staticmethod
    def _rebind(original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                elif isinstance(value, type) and value.__module__ == module_name:
                    for attr, member in list(vars(value).items()):
                        if member is original:
                            setattr(value, attr, wrapper)

    def _wrap(self, layer_id: int, fn, observe):
        layer, parent, start, end, child = (
            self.layer, self.parent, self.start, self.end, self.child
        )
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(start)
            outer = stack[-1]
            layer.append(layer_id)
            parent.append(outer)
            end.append(0)
            child.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = clock()
                end[index] = stop
                stack.pop()
                child[outer] += stop - start[index]
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observe_atomic_text(self, args, kwargs, result) -> None:
        text = args[1] if len(args) > 1 else kwargs["text"]
        self.atomic_bytes += len(text.encode(kwargs.get("encoding", "utf-8")))

    def _observe_validate(self, args, kwargs, result) -> None:
        self.collision_candidates += 1
        self.collision_validated += bool(result)

    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Open the root span: the workload's timed region."""
        self.start[0] = time.perf_counter_ns()

    def finish(self) -> None:
        self.end[0] = time.perf_counter_ns()

    def aggregate(self) -> dict[str, dict]:
        """Per layer: calls, self seconds, and inclusive span durations (us)."""
        names = self.names
        out = {name: {"calls": 0, "spans": 0} for name in names}
        self_ns = [0] * len(names)
        run_id = names.index("cpu.run")
        run_us: list[float] = []
        layer, parent, start, end, child = (
            self.layer, self.parent, self.start, self.end, self.child
        )
        for index in range(len(start)):
            lid = layer[index]
            duration = end[index] - start[index]
            self_ns[lid] += duration - child[index]
            entry = out[names[lid]]
            entry["spans"] += 1
            if index == 0 or layer[parent[index]] != lid:
                entry["calls"] += 1
            if lid == run_id:
                run_us.append(duration / 1e3)
        for lid, name in enumerate(names):
            out[name]["self_s"] = self_ns[lid] / 1e9
        out["cpu.run"]["us_p50"] = _percentile(run_us, 50)
        out["cpu.run"]["us_p99"] = _percentile(run_us, 99)
        return out

    def wall_s(self) -> float:
        return (self.end[0] - self.start[0]) / 1e9

    def write(self, path: Path) -> None:
        """Dump every span as TSV (times relative to the root's start)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names, layer, parent, start, end = (
            self.names, self.layer, self.parent, self.start, self.end
        )
        origin = start[0]
        with path.open("w", encoding="utf-8") as handle:
            handle.write("span\tparent\tlayer\tstart_ns\tend_ns\n")
            handle.writelines(
                f"{i}\t{parent[i]}\t{names[layer[i]]}\t{start[i] - origin}\t{end[i] - origin}\n"
                for i in range(len(start))
            )


def _percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
