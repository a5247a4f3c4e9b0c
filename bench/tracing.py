"""Span tracer for the traced benchmark run.

`Tracer.install()` wraps every public function of the seven fockfilter
modules and puts the wrapper at each package attribute that refers to the
function: the module's own name, `from ... import` copies in the other
modules and the package root.  Nothing in the package changes; `uninstall()`
puts the originals back.

A span is (function, start, end, parent span, op id, counts) and stays in
memory until the run ends.  A call nested in a span of the same function gets
no span of its own (recursion), and nor does any `tables` call nested in a
`tables` span: those are per-cell formatting helpers, called up to ~10^6 times
per operation, and their time belongs to the table being written.
Self time is a span's duration minus that of its child spans.
"""

import importlib
import inspect
import json
import time

LAYERS = ("fock", "cavity", "filtering", "cascade", "tomography", "tables", "cli")
FOLDED = {"tables"}


def _estimate_counts(args, result):
    cfg = args["cfg"]
    counts = [int(c) for c in result.counts]
    stages = len(cfg.stages)
    # a trial draws one uniform per stage up to its first click, and one per
    # stage when no stage clicks
    all_off = result.samples - sum(counts)
    draws = sum((k + 1) * c for k, c in enumerate(counts)) + stages * all_off
    return {"trials": result.samples, "draws": draws, "stages": stages,
            "exact": cfg.update_rule == "exact"}


def _json_rows(args, result):
    obj = args["obj"]
    if isinstance(obj, dict) and isinstance(obj.get("tables"), dict):
        return {"rows": sum(len(t["rows"]) for t in obj["tables"].values())}
    return {"rows": 0}


# counts computed from a call's arguments (and, for the estimator, its result)
HOOKS = {
    "fock.displacement_matrix": lambda a, r: {"dim": int(a["dim"])},
    "filtering.filter_pass": lambda a, r: {"dim": len(a["rho"])},
    "cascade.estimate_photon_distribution": _estimate_counts,
    "tomography.reconstruct": lambda a, r: {"systems": a["plan"].max_fock + 1},
    "tables.table_text": lambda a, r: {"rows": len(a["rows"])},
    "tables.json_text": _json_rows,
    # outputs are ASCII, so characters are bytes
    "tables.write_text": lambda a, r: {"bytes": len(a["text"])},
}


# unit of each per-layer metric, by the name BENCHMARK.json lists
UNITS = dict((
    ("cli.calls", "1/op"), ("cli.self_s", "s/op"),
    ("tables.self_s", "s/op"), ("tables.rows", "1/op"), ("tables.bytes", "B/op"),
    ("tables.rows_per_s", "1/s"),
    ("fock.make_state.self_s", "s/op"), ("fock.choose_cutoff.self_s", "s/op"),
    ("fock.make_state.calls", "1/op"),
    ("fock.displacement_matrix.calls", "1/op"), ("fock.displacement_matrix.self_s", "s/op"),
    ("fock.displacement_matrix.elements", "1/op"), ("fock.displace.self_s", "s/op"),
    ("fock.displace.flops", "flop/op"),
    ("tomography.measure_distributions.self_s", "s/op"),
    ("tomography.reconstruct.self_s", "s/op"), ("tomography.lstsq_systems", "1/op"),
    ("tomography.displacements_per_plan", "ratio"),
    ("cavity.calls", "1/op"), ("cavity.self_s", "s/op"),
    ("filtering.filter_pass.calls", "1/op"), ("filtering.filter_pass.self_s", "s/op"),
    ("filtering.filter_pass.elements", "1/op"),
    ("filtering.superposition_synthesis_check.self_s", "s/op"),
    ("cascade.self_s", "s/op"), ("cascade.trials", "1/op"), ("cascade.draws", "1/op"),
    ("cascade.draws_per_s", "1/s"), ("cascade.first_on_distribution.self_s", "s/op"),
    ("cascade.passes_per_stage", "ratio"),
    ("fock.share", "ratio"), ("cavity.share", "ratio"), ("filtering.share", "ratio"),
    ("cascade.share", "ratio"), ("tomography.share", "ratio"), ("tables.share", "ratio"),
    ("cli.share", "ratio"), ("trace.overhead_ratio", "ratio"),
))


class Tracer:
    """Records spans of fockfilter calls while installed."""

    def __init__(self):
        self.names = []
        self.layers = []
        self.spans = []
        self.stack = []
        self.op = -1
        self._patches = []

    def install(self, package="fockfilter"):
        if not self._patches:
            root = importlib.import_module(package)
            modules = {layer: importlib.import_module(f"{package}.{layer}")
                       for layer in LAYERS}
            namespaces = [root, *modules.values()]
            for layer, module in modules.items():
                for attr, fn in sorted(vars(module).items()):
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != module.__name__):
                        continue
                    wrapper = self._wrap(layer, attr, fn)
                    self._patches += [(ns, name, fn, wrapper) for ns in namespaces
                                      for name, value in vars(ns).items() if value is fn]
        for ns, name, _, wrapper in self._patches:
            setattr(ns, name, wrapper)

    def uninstall(self):
        for ns, name, fn, _ in self._patches:
            setattr(ns, name, fn)

    def _wrap(self, layer, attr, fn):
        fid = len(self.names)
        self.names.append(f"{layer}.{attr}")
        self.layers.append(layer)
        hook = HOOKS.get(f"{layer}.{attr}")
        signature = inspect.signature(fn) if hook else None
        spans, stack, layers = self.spans, self.stack, self.layers
        folded = layer in FOLDED
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if stack:
                top = spans[stack[-1]][0]
                if top == fid or (folded and layers[top] == layer):
                    return fn(*args, **kwargs)
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[1] = start
            if hook is not None:
                span[5] = hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["function", "start", "end", "parent", "op", "counts"],
                       "functions": self.names, "spans": self.spans}, fh)

    def metrics(self, n_ops, traced_wall, untraced_wall):
        """Per-layer metrics, per operation unless named a rate or ratio."""
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for fid, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = [s[2] - s[1] - c for s, c in zip(spans, child)]

        def by(name):
            return [i for i, s in enumerate(spans) if names[s[0]] == name]

        def self_of(idx):
            return sum(self_time[i] for i in idx)

        def total(idx, key):
            return sum(spans[i][5][key] for i in idx)

        def ancestor(i, wanted):
            parent = spans[i][3]
            while parent >= 0:
                if names[spans[parent][0]] in wanted:
                    return parent
                parent = spans[parent][3]
            return None

        layer_self = {layer: 0.0 for layer in LAYERS}
        layer_calls = {layer: 0 for layer in LAYERS}
        for i, s in enumerate(spans):
            layer_self[self.layers[s[0]]] += self_time[i]
            layer_calls[self.layers[s[0]]] += 1

        n = max(n_ops, 1)
        tables = [i for i, s in enumerate(spans) if self.layers[s[0]] == "tables"]
        rows = sum(spans[i][5]["rows"] for i in tables
                   if spans[i][5] and "rows" in spans[i][5])
        written = sum(spans[i][5]["bytes"] for i in tables
                      if spans[i][5] and "bytes" in spans[i][5])
        dm, displace = by("fock.displacement_matrix"), by("fock.displace")
        dm_dim = {spans[i][3]: spans[i][5]["dim"] for i in dm}
        flops = sum(16 * dm_dim.get(i, 0) ** 3 for i in displace)  # two complex w^3 products
        estimates = by("cascade.estimate_photon_distribution")
        draws = total(estimates, "draws")
        exact = {i for i in estimates if spans[i][5]["exact"]}
        passes = [i for i in by("filtering.filter_pass")
                  if ancestor(i, {"cascade.estimate_photon_distribution"}) in exact]
        stages = sum(spans[i][5]["stages"] for i in exact)
        reconstructs = by("tomography.reconstruct")
        in_plan = [i for i in dm if ancestor(
            i, {"tomography.measure_distributions", "tomography.reconstruct"}) is not None]
        fp = by("filtering.filter_pass")
        out = {
            "cli.calls": layer_calls["cli"] / n,
            "cli.self_s": layer_self["cli"] / n,
            "tables.self_s": layer_self["tables"] / n,
            "tables.rows": rows / n,
            "tables.bytes": written / n,
            "tables.rows_per_s": rows / layer_self["tables"] if layer_self["tables"] else 0.0,
            "fock.make_state.self_s": self_of(by("fock.make_state")) / n,
            "fock.choose_cutoff.self_s": self_of(by("fock.choose_cutoff")) / n,
            "fock.make_state.calls": len(by("fock.make_state")) / n,
            "fock.displacement_matrix.calls": len(dm) / n,
            "fock.displacement_matrix.self_s": self_of(dm) / n,
            "fock.displacement_matrix.elements": sum(spans[i][5]["dim"] ** 2 for i in dm) / n,
            "fock.displace.self_s": self_of(displace) / n,
            "fock.displace.flops": flops / n,
            "tomography.measure_distributions.self_s":
                self_of(by("tomography.measure_distributions")) / n,
            "tomography.reconstruct.self_s": self_of(reconstructs) / n,
            "tomography.lstsq_systems": total(reconstructs, "systems") / n,
            "tomography.displacements_per_plan":
                len(in_plan) / len(reconstructs) if reconstructs else 0.0,
            "cavity.calls": layer_calls["cavity"] / n,
            "cavity.self_s": layer_self["cavity"] / n,
            "filtering.filter_pass.calls": len(fp) / n,
            "filtering.filter_pass.self_s": self_of(fp) / n,
            "filtering.filter_pass.elements": sum(spans[i][5]["dim"] ** 2 for i in fp) / n,
            "filtering.superposition_synthesis_check.self_s":
                self_of(by("filtering.superposition_synthesis_check")) / n,
            "cascade.self_s": self_of(estimates) / n,
            "cascade.trials": total(estimates, "trials") / n,
            "cascade.draws": draws / n,
            "cascade.draws_per_s": draws / self_of(estimates) if estimates else 0.0,
            "cascade.first_on_distribution.self_s":
                self_of(by("cascade.first_on_distribution")) / n,
            "cascade.passes_per_stage": len(passes) / stages if stages else 0.0,
        }
        for layer in LAYERS:
            out[f"{layer}.share"] = layer_self[layer] / traced_wall
        out["trace.overhead_ratio"] = traced_wall / untraced_wall
        return out
