"""A span tracer that wraps finspan's public functions from outside.

The tracer replaces each listed function at every binding in the loaded
`finspan.*` modules (modules that did `from .simplicial import ...` hold
their own binding) and, for methods, on the class.  Each call records a
span `(function, parent span, start ns, end ns)` in memory; `uninstall`
puts every original binding back.  Self time is a span's duration minus
the durations of its traced children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (layer, attribute path inside finspan.<layer>, reported name)
TRACED = [
    ("spans", "FinMap.then", "FinMap.then"),
    ("spans", "FinMap.__post_init__", "FinMap.validate"),
    ("spans", "compose_spans", "compose_spans"),
    ("spans", "spans_isomorphic", "spans_isomorphic"),
    ("simplicial", "vertex_map", "vertex_map"),
    ("simplicial", "polygon_stack", "polygon_stack"),
    ("simplicial", "segal_witness", "segal_witness"),
    ("simplicial", "check_2segal", "check_2segal"),
    ("simplicial", "check_unitality", "check_unitality"),
    ("simplicial", "check_simplicial_identities", "check_simplicial_identities"),
    ("diagrams", "evaluate", "evaluate"),
    ("diagrams", "apply_rewrite", "apply_rewrite"),
    ("diagrams", "compare_paths", "compare_paths"),
    ("pseudomonoid", "build_pseudomonoid", "build_pseudomonoid"),
    ("pseudomonoid", "verify_pentagon", "verify_pentagon"),
    ("pseudomonoid", "verify_triangle", "verify_triangle"),
    ("pseudomonoid", "search_associator_lift", "search_associator_lift"),
    ("pseudomonoid", "pentagon_flip_discrepancy", "pentagon_flip_discrepancy"),
    ("paracyclic", "frobenius_from_paracyclic", "frobenius_from_paracyclic"),
    ("paracyclic", "paracyclic_from_frobenius", "paracyclic_from_frobenius"),
    ("paracyclic", "check_paracyclic", "check_paracyclic"),
    ("paracyclic", "check_cyclic", "check_cyclic"),
    ("gammaset", "commutative_from_gamma", "commutative_from_gamma"),
    ("gammaset", "gamma_from_commutative", "gamma_from_commutative"),
    ("gammaset", "span_level_commutativity", "span_level_commutativity"),
    ("gammaset", "check_gamma", "check_gamma"),
    ("documents", "load_document", "load_document"),
    ("documents", "dumps_document", "dumps_document"),
    ("cli", "main", "main"),
    ("cli", "cmd_check", "cmd_check"),
    ("cli", "cmd_derive", "cmd_derive"),
    ("cli", "cmd_search_lift", "cmd_search_lift"),
]

# Counters taken at the boundaries above, reported next to the spans.
COUNTERS = [
    ("simplicial.segal_witness.repeat_share", "share"),
    ("simplicial.segal_witness.same_object_share", "share"),
    ("diagrams.evaluate.apex_elements", "count"),
    ("pseudomonoid.search.candidates_tried", "count"),
    ("pseudomonoid.search.candidates_per_s", "1/s"),
    ("documents.bytes", "bytes"),
]


def metric_names() -> list[tuple[str, str]]:
    """Every per-function metric with its unit, in table order."""
    out = []
    for layer, _, name in TRACED:
        out.append((f"{layer}.{name}.calls", "count"))
        out.append((f"{layer}.{name}.self_s", "s"))
    return out + COUNTERS


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{name}" for layer, _, name in TRACED]
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.witness_args: list[tuple] = []
        self.apex_elements = 0
        self.candidates_tried = 0
        self.document_bytes = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function.  A listed function that no longer
        exists is an error: its metrics would read 0, which looks like an
        improvement.  A rename needs a matching change to `TRACED`."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "finspan" or name.startswith("finspan."))]
        missing, targets = [], []
        for layer, path, name in TRACED:
            owner = importlib.import_module(f"finspan.{layer}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                missing.append(f"finspan.{layer}.{path}")
            targets.append((f"{layer}.{name}", owner, cls_path, attr, original))
        if missing:
            raise LookupError(f"traced functions not found: {', '.join(missing)}")
        for fid, (name, owner, cls_path, attr, original) in enumerate(targets):
            wrapper = self._wrap(fid, original, self._hook(name))
            if cls_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _hook(self, name: str):
        """A counter update run after the span has closed, or None."""
        if name == "simplicial.segal_witness":
            return lambda args, result: self.witness_args.append(args)
        if name == "diagrams.evaluate":
            def hook(args, result):
                self.apex_elements += result.span.apex.size
            return hook
        if name == "pseudomonoid.search_associator_lift":
            def hook(args, result):
                self.candidates_tried += result.candidates_tried
            return hook
        if name == "documents.load_document":
            def hook(args, result):
                self.document_bytes += os.path.getsize(args[0])
            return hook
        if name == "documents.dumps_document":
            def hook(args, result):
                self.document_bytes += len(result.encode())
            return hook
        return None

    def _wrap(self, fid: int, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, stack[-1] if stack else -1, start, end)
            if hook is not None:
                hook(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- results ----------------------------------------------------------

    def counts(self) -> dict[str, float]:
        """Additive totals of this process: per-function calls and self
        time, plus the raw counters that `per_layer_metrics` turns into
        shares and rates."""
        child_ns = [0] * len(self.spans)
        for fid, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = [0] * len(TRACED)
        self_ns = [0] * len(TRACED)
        total_ns = [0] * len(TRACED)
        for idx, (fid, parent, start, end) in enumerate(self.spans):
            calls[fid] += 1
            self_ns[fid] += end - start - child_ns[idx]
            total_ns[fid] += end - start
        out: dict[str, float] = {}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[fid]
            out[f"{name}.self_s"] = self_ns[fid] / 1e9
        seen_ids, seen_values = set(), set()
        same_object = repeat = 0
        for args in self.witness_args:
            ids = tuple(id(a) for a in args)
            same_object += ids in seen_ids
            repeat += args in seen_values
            seen_ids.add(ids)
            seen_values.add(args)
        out["simplicial.segal_witness.repeats"] = repeat
        out["simplicial.segal_witness.same_object_repeats"] = same_object
        out["diagrams.evaluate.apex_elements"] = self.apex_elements
        out["pseudomonoid.search.candidates_tried"] = self.candidates_tried
        out["pseudomonoid.search.seconds"] = (
            total_ns[self.names.index("pseudomonoid.search_associator_lift")] / 1e9
        )
        out["documents.bytes"] = self.document_bytes
        return out

    def write_spans(self, path) -> None:
        """Write the span list as JSON: names, then [function, parent, start, end]."""
        with open(path, "w") as fh:
            json.dump({"functions": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def per_layer_metrics(counts: dict[str, float]) -> dict[str, float]:
    """The reported per-layer metrics from (summed) `Tracer.counts`."""
    out = {name: counts[name] for name, _ in metric_names() if name in counts}
    witness_calls = counts["simplicial.segal_witness.calls"]
    out["simplicial.segal_witness.repeat_share"] = (
        counts["simplicial.segal_witness.repeats"] / witness_calls if witness_calls else 0.0
    )
    out["simplicial.segal_witness.same_object_share"] = (
        counts["simplicial.segal_witness.same_object_repeats"] / witness_calls
        if witness_calls else 0.0
    )
    seconds = counts["pseudomonoid.search.seconds"]
    out["pseudomonoid.search.candidates_per_s"] = (
        counts["pseudomonoid.search.candidates_tried"] / seconds if seconds else 0.0
    )
    return out
