"""In-process tracing of the folkmetrics layers, from outside the package.

Inside a `Tracer` block, every public function of each layer module is
replaced, in every folkmetrics module that binds it, by a wrapper that
records a span: name, start, end and the span that called it. Patching every
alias matters: `cli` and `report` import `split_supertaggers` by name, so
patching only `partition` would miss their calls. The trace follows whatever
composition the CLI has, because the benchmark then runs the CLI itself.

A span's self time is its duration minus the time covered by its child
spans. Spans nest by call stack, so the `credit_matrix` and `spear_scores`
calls that a generator makes while `standardize_and_average` consumes it
are children of that call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "corpus", "partition", "similarity", "consensus", "motivation",
          "spear", "expertise", "taxonomy", "stats", "report")

# Helpers called once per user, item or tag (10^4 to 10^5 times in a run): a
# span around each would cost more than the work inside it, so their time
# stays in their caller's self time.
SKIP = frozenset({
    "corpus.user_stats",
    "consensus.item_tag_distribution", "consensus.item_cosine", "consensus.top_tag_match",
    "motivation.user_motivation", "motivation.tpp", "motivation.trr", "motivation.orphan_ratio",
    "expertise.user_consensus_expertise", "expertise.annotation_score",
    "expertise.annotation_weight", "expertise.user_annotation_scores",
    "taxonomy.user_depth_expertise",
    "similarity.spearman_topn", "similarity.cosine_topn",
    "stats.cosine", "stats.spearman", "stats.population_zscores",
})


# Count probes read a wrapped call's arguments and return value. Each returns
# (label, counts); the label splits one function's spans, e.g. by dimension.
def _parse(call, result):
    return None, {"corpus.parse_lines": len(result.annotations) + result.malformed,
                  "corpus.malformed": result.malformed}


def _build_index(call, result):
    return None, {"corpus.dedupe_dropped": len(call["annotations"]) - result.n_annotations}


def _similarity_curve(call, result):
    n_values = call["n_values"]
    return call["dimension"], {
        "similarity.grid_points": len(set(n_values)) if n_values is not None else 0,
        "similarity.points": len(result.points),
    }


def _consensus(call, result):
    return None, {"consensus.shared_items": result.shared_items}


def _spear_scores(call, result):
    return None, {"spear.tags": 1, "spear.iterations": result.iterations,
                  "spear.unconverged": int(not result.converged)}


def _conditional_table(call, result):
    return None, {"taxonomy.pairs": len(result.support)}


def _induce_forest(call, result):
    return None, {"taxonomy.nodes": len(result.nodes)}


PROBES = {
    "corpus.parse_annotations": _parse,
    "corpus.build_index": _build_index,
    "similarity.similarity_curve": _similarity_curve,
    "consensus.consensus_by_bin": _consensus,
    "spear.spear_scores": _spear_scores,
    "taxonomy.conditional_table": _conditional_table,
    "taxonomy.induce_forest": _induce_forest,
}

# binding arguments costs microseconds, too much for the per-tag SPEAR calls
_PROBES_READ_ARGUMENTS = frozenset({"corpus.build_index", "similarity.similarity_curve"})

# metric -> (span name, label): summed self seconds of those spans
SELF_TIME = {
    "corpus.parse_s": ("corpus.parse_annotations", None),
    "corpus.build_index_s": ("corpus.build_index", None),
    "corpus.write_s": ("corpus.write_annotations", None),
    "corpus.summary_s": ("corpus.summary", None),
    "partition.split_s": ("partition.split_supertaggers", None),
    "partition.summary_s": ("partition.partition_summary", None),
    "partition.pareto_s": ("partition.pareto_curve", None),
    "partition.rank_users_s": ("partition.rank_users", None),
    "similarity.freq_dist_s": ("similarity.freq_dist", None),
    "similarity.curve_tag_s": ("similarity.similarity_curve", "tag"),
    "similarity.curve_item_s": ("similarity.similarity_curve", "item"),
    "consensus.by_bin_s": ("consensus.consensus_by_bin", None),
    "motivation.by_bin_s": ("motivation.motivation_by_bin", None),
    "spear.eligible_tags_s": ("spear.eligible_tags", None),
    "spear.credit_matrix_s": ("spear.credit_matrix", None),
    "spear.scores_s": ("spear.spear_scores", None),
    "spear.standardize_self_s": ("spear.standardize_and_average", None),
    "expertise.consensus_by_bin_s": ("expertise.consensus_expertise_by_bin", None),
    "taxonomy.conditional_table_s": ("taxonomy.conditional_table", None),
    "taxonomy.induce_forest_s": ("taxonomy.induce_forest", None),
    "taxonomy.depth_by_bin_s": ("taxonomy.depth_by_bin", None),
    "stats.binned_mean_s": ("stats.binned_mean", None),
}

# metric -> span name: number of calls, which exposes duplicated work
CALLS = {
    "partition.rank_users_calls": "partition.rank_users",
    "similarity.freq_dist_calls": "similarity.freq_dist",
    "spear.eligible_tags_calls": "spear.eligible_tags",
    "stats.binned_mean_calls": "stats.binned_mean",
}

COUNTS = ("corpus.parse_lines", "corpus.malformed", "corpus.dedupe_dropped",
          "similarity.grid_points", "similarity.points", "consensus.shared_items",
          "spear.tags", "spear.iterations", "spear.unconverged",
          "taxonomy.pairs", "taxonomy.nodes")


class Span:
    __slots__ = ("name", "label", "start", "end", "parent", "child_s", "self_s")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.label = None
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Context manager that patches the layer functions and records spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.probe_errors: dict[str, str] = {}
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"folkmetrics.{layer}")
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and name not in SKIP
                        and not inspect.isgeneratorfunction(fn)):
                    wrappers[fn] = self._wrap(name, fn)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "folkmetrics" or key.startswith("folkmetrics."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        signature = inspect.signature(fn)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                duration = span.end - span.start
                span.self_s = duration - span.child_s
                if span.parent is not None:
                    span.parent.child_s += duration
                spans.append(span)
            if probe is not None:
                self._probe(span, probe, signature, args, kwargs, result)
            return result

        return wrapper

    def _probe(self, span, probe, signature, args, kwargs, result) -> None:
        try:
            call = None
            if span.name in _PROBES_READ_ARGUMENTS:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                call = bound.arguments
            span.label, counts = probe(call, result)
        # a probe must never break the traced program; an interface change
        # shows up as a recorded error and a zero count instead
        except Exception as exc:  # noqa: BLE001
            self.probe_errors.setdefault(span.name, f"{type(exc).__name__}: {exc}")
            return
        for key, value in counts.items():
            self.counts[key] += value

    def metrics(self, total_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far, for a run of total_s seconds."""
        self_time: dict[tuple[str, str | None], float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        layer_self = {layer: 0.0 for layer in LAYERS}
        root_s = 0.0
        for span in self.spans:
            self_time[(span.name, span.label)] += span.self_s
            if span.label is not None:
                self_time[(span.name, None)] += span.self_s
            calls[span.name] += 1
            layer_self[span.name.split(".", 1)[0]] += span.self_s
            if span.parent is None:
                root_s += span.end - span.start
        layer_self["cli"] += total_s - root_s

        metrics: dict[str, float] = {}
        for metric, key in SELF_TIME.items():
            metrics[metric] = self_time.get(key, 0.0)
        for metric, name in CALLS.items():
            metrics[metric] = calls.get(name, 0)
        for key in COUNTS:
            metrics[key] = self.counts.get(key, 0)
        tags = self.counts.get("spear.tags", 0)
        metrics["spear.converged_ratio"] = (
            (tags - self.counts.get("spear.unconverged", 0)) / tags if tags else 0.0
        )
        for layer, seconds in layer_self.items():
            metrics[f"{layer}.self_s"] = seconds
        return metrics

    def span_table(self) -> list[dict]:
        """Spans aggregated by name and label: calls, total and self seconds."""
        table: dict[tuple[str, str | None], dict] = {}
        for span in self.spans:
            row = table.setdefault((span.name, span.label), {
                "span": span.name, "label": span.label, "calls": 0, "total_s": 0.0, "self_s": 0.0,
            })
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += span.self_s
        return sorted(table.values(), key=lambda r: -r["self_s"])

    def span_log(self) -> list[list]:
        """Every span as [name, label, start s, end s, index of its parent or None]."""
        position = {id(span): k for k, span in enumerate(self.spans)}
        origin = min((span.start for span in self.spans), default=0.0)
        return [[span.name, span.label, span.start - origin, span.end - origin,
                 None if span.parent is None else position[id(span.parent)]]
                for span in self.spans]
