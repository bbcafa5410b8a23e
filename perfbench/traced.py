"""Traced in-process pass of one workload: per-layer calls, self times and counts.

After a warm-up with the reduced operations, runs the workload's
operations in this process three times:

1. untraced, for the in-process wall time;
2. with a span wrapper on every binding of each wrapped public function
   (``triqw.scans.build_monomial_state`` as well as ``triqw.fock``'s) and on
   the constructor and methods of the wrapped classes;
3. with only a counter on ``apply_creation``, whose ~67k calls per walk would
   distort the times of pass 2, so pass 3's times are not reported.

Spans (name, start, end, parent, operation) stay in memory and are written
to ``--spans`` at the end.  Self time is a span's duration minus the time
its child spans cover.  Prints one JSON object: the per-layer metrics and
every pass's operation outputs, which the runner checks.

Usage: python3 perfbench/traced.py --workload W --seed N --spans PATH [--smoke]
"""

import time

_T0 = time.perf_counter()
import triqw.cli  # noqa: E402  (timed: this is setup.import_s)

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import dephased  # noqa: E402
from workloads import cli_ops, dephased_series, dephased_taus  # noqa: E402

LAYERS = ("fock", "dynamics", "entanglement", "observables", "states", "scans", "cli")
FUNCTIONS = {
    "fock": ("enumerate_basis", "build_monomial_state"),
    "dynamics": ("single_particle_propagator", "evolve_state"),
    "entanglement": (
        "entanglement_of_particles",
        "bipartite_negativity",
        "tensor_norm_squared",
        "mode_qubit_tensor",
        "geometric_measure",
    ),
    "observables": (
        "single_particle_density",
        "two_particle_correlation",
        "interparticle_distance",
    ),
    "states": ("phi_weights",),
    "scans": ("phi_scan", "walk_scan", "snapshot", "chi_report"),
    "cli": ("main",),
}
# Classes are wrapped in place, never replaced: a function standing in for
# the class would hide its methods and break isinstance checks.
METHODS = {
    ("fock", "DensityMatrix"): ("__init__",),
    ("entanglement", "SectorDecomposition"): ("__init__", "project_state", "project_density"),
}


def _method_span(layer: str, cls_name: str, method: str) -> str:
    """Constructions report under the class name, methods under class.method."""
    return f"{layer}.{cls_name}" + ("" if method == "__init__" else f".{method}")


SPAN_NAMES = [f"{layer}.{name}" for layer, names in FUNCTIONS.items() for name in names] + [
    _method_span(layer, cls_name, method)
    for (layer, cls_name), methods in METHODS.items()
    for method in methods
]


def _modules():
    return [triqw] + [sys.modules[f"triqw.{layer}"] for layer in LAYERS]


class Patches:
    """Replaces objects at every binding and puts the originals back."""

    def __init__(self):
        self._undo = []

    def rebind(self, original, replacement) -> None:
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def set_method(self, cls, name, replacement) -> None:
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def tensor_norm_flops(psis, gens) -> int:
    """Real flops of the four einsum stages of tensor_norm_squared, from shapes.

    Computed, not measured: a complex multiply-add counts as 8 flops.
    """
    states = math.prod(psis.shape[:-3])
    d, g = psis.shape[-1], gens.shape[0]
    macs = g * d**4 + g * g * d**4 + g * d**4 + g**3 * d**3
    return 8 * states * macs


class Tracer:
    """In-memory spans plus the counts read from arguments and results."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation]
        self._stack = []
        self.op = None
        self.counts = Counter()
        self.decompositions = set()

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self, patches: Patches) -> None:
        for layer, names in FUNCTIONS.items():
            module = sys.modules[f"triqw.{layer}"]
            for name in names:
                fn = getattr(module, name)
                patches.rebind(fn, self.wrap(f"{layer}.{name}", fn, self._observer(name)))
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"triqw.{layer}"], cls_name)
            for method in methods:
                observe = self._observer(f"{cls_name}.{method}")
                wrapper = self.wrap(_method_span(layer, cls_name, method), cls.__dict__[method], observe)
                patches.set_method(cls, method, wrapper)

    def _observer(self, name):
        return {
            "SectorDecomposition.__init__": self._on_decomposition,
            "SectorDecomposition.project_state": self._on_projection,
            "SectorDecomposition.project_density": self._on_projection,
            "bipartite_negativity": self._on_negativity,
            "tensor_norm_squared": self._on_tensor_norm,
        }.get(name)

    def _on_decomposition(self, args, kwargs, result):
        named = dict(zip(("self", "basis", "partition"), args), **kwargs)
        self.decompositions.add((named["basis"], named["partition"]))

    def _on_projection(self, args, kwargs, sector_states):
        floor = triqw.entanglement.PROBABILITY_FLOOR
        self.counts["sectors.projected"] += len(sector_states)
        self.counts["sectors.live"] += sum(
            1 for sec in sector_states if sec.prob > floor and min(sec.dims) > 1
        )

    def _on_negativity(self, args, kwargs, value):
        self.counts["negativity.nonzero"] += value > 0.0

    def _on_tensor_norm(self, args, kwargs, result):
        psis, gens = args[0], args[1]
        self.counts["tensor_norm.states"] += math.prod(psis.shape[:-3])
        self.counts["tensor_norm.flops"] += tensor_norm_flops(psis, gens)

    def metrics(self, wall: float) -> dict[str, float]:
        calls = Counter(span[0] for span in self.spans)
        covered = defaultdict(float)
        self_s = defaultdict(float)
        root_s = 0.0
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[i]
            duration = end - start
            self_s[name] += duration - covered[i]
            if parent is None:
                root_s += duration
            else:
                covered[parent] += duration
        out = {}
        for key in SPAN_NAMES:
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = self_s[key]
        c = self.counts
        constructions = calls["entanglement.SectorDecomposition"]
        negativities = calls["entanglement.bipartite_negativity"]
        out["entanglement.SectorDecomposition.reuse"] = _ratio(len(self.decompositions), constructions)
        out["entanglement.sectors.live_frac"] = _ratio(c["sectors.live"], c["sectors.projected"])
        out["entanglement.bipartite_negativity.nonzero_frac"] = _ratio(c["negativity.nonzero"], negativities)
        out["entanglement.tensor_norm_squared.states"] = c["tensor_norm.states"]
        out["entanglement.tensor_norm_squared.flops_computed"] = c["tensor_norm.flops"]
        out["trace.uncovered_frac"] = _ratio(wall - root_s, wall)
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _cli_op(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = triqw.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, err.getvalue(), out.getvalue()


def _dephased_op(stats, partition, taus):
    return 0, "", dephased.series(stats, partition, taus)


def operations(workload: str, seed: int, smoke: bool):
    """(name, thunk) per operation; a thunk returns (rc, stderr, text)."""
    if workload == "dephased":
        taus = dephased_taus(seed, smoke)
        return [
            (name, functools.partial(_dephased_op, stats, part, taus))
            for name, stats, part in dephased_series()
        ]
    return [(name, functools.partial(_cli_op, argv)) for name, argv in cli_ops(workload, smoke)]


def run_pass(ops, tracer=None):
    results = {}
    start = time.perf_counter()
    for name, thunk in ops:
        if tracer is not None:
            tracer.op = name
        try:
            rc, err, text = thunk()
        except Exception:  # one failing operation must not hide the others
            rc, err, text = 1, traceback.format_exc(), ""
        results[name] = {"rc": rc, "stderr": err, "text": text}
    return time.perf_counter() - start, results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    ops = operations(args.workload, args.seed, args.smoke)
    patches = Patches()

    # The reduced operations take the first-call costs out of the timed passes.
    run_pass(operations(args.workload, args.seed, smoke=True))
    untraced_wall, untraced = run_pass(ops)

    tracer = Tracer()
    tracer.install(patches)
    try:
        traced_wall, traced = run_pass(ops, tracer)
    finally:
        patches.restore()

    creations = Counter()
    original = triqw.fock.apply_creation

    def counted(*a, **k):
        creations["calls"] += 1
        return original(*a, **k)

    patches.rebind(original, counted)
    try:
        _, counted_pass = run_pass(ops)
    finally:
        patches.restore()

    metrics = tracer.metrics(traced_wall)
    metrics["fock.apply_creation.calls"] = creations["calls"]
    cli_names = {name for name, _ in cli_ops(args.workload, args.smoke)}
    metrics["cli.bytes_out"] = sum(len(traced[name]["text"].encode("utf-8")) for name in cli_names)
    metrics["setup.import_s"] = IMPORT_S
    metrics["trace.inprocess_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    args.spans.parent.mkdir(parents=True, exist_ok=True)
    args.spans.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}))
    json.dump({"metrics": metrics, "passes": [untraced, traced, counted_pass]}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
