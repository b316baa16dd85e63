"""In-memory span recording around the public functions of ``tasnsc``.

Tracing is opt-in and lives entirely in the benchmark: while a
:class:`Tracer` is installed, selected module attributes of the program are
replaced by wrappers that record one span per call, and the originals are put
back when it is removed. Only calls that go through a module attribute are
seen, so e.g. ``gp.pattern_log_likelihood`` scoring its own ``posterior``
queries is not split out, while the rollout's ``predictor.posterior`` calls
are.
"""

import time

import numpy as np

from tasnsc import metrics, predictor, synthgen


def _feature_counts(features):
    return {"nnz": int(np.count_nonzero(features)), "entries": int(features.size)}


def _fit_counts(model):
    return {"points": len(model)}


# (module, attribute, span name, measure). The span name is the layer that
# owns the function, so one name covers every module that re-exports it.
TARGETS = [
    (synthgen, "generate", "synthgen.generate", None),
    (predictor, "train", "predictor.train", None),
    (predictor, "predict", "predictor.predict", None),
    (metrics, "predict", "predictor.predict", None),
    (predictor, "load_model", "predictor.load_model", None),
    (predictor, "save_model", "predictor.save_model", None),
    (metrics, "evaluate", "metrics.evaluate", None),
    (metrics, "mhd", "metrics.mhd", None),
    (metrics, "angular_deviation", "metrics.angular_deviation", None),
    (metrics, "split_horizon", "trajectory.split_horizon", None),
    (predictor, "velocities", "trajectory.velocities", None),
    (predictor, "transform_trajectory", "geometry.transform_trajectory", None),
    (predictor, "from_curbside", "geometry.from_curbside", None),
    (predictor, "featurize", "sparse_coding.featurize", _feature_counts),
    (predictor, "learn_dictionary", "sparse_coding.learn_dictionary", None),
    (predictor, "segment", "sparse_coding.segment", None),
    (predictor, "build_transitions", "sparse_coding.build_transitions", None),
    (predictor, "GPModel", "gp.fit", _fit_counts),
    (predictor, "pattern_log_likelihood", "gp.pattern_log_likelihood", None),
    (predictor, "posterior", "gp.posterior", None),
]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name, _ in TARGETS))

# Phases whose spans make the per-layer metrics; "check" is the benchmark's
# own verification work.
MEASURED = ("setup", "timed")

# Spans that open a request: every span below one carries its request id.
_REQUESTS = ("predictor.train", "predictor.predict")


class Tracer:
    """Records spans (name, start, end, parent, request id, phase) in memory.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original attributes, even when the body raises.
    """

    def __init__(self):
        self.spans = []  # dicts, in order of opening
        self.phase = "setup"
        self._stack = []  # indices into self.spans
        self._child_time = []  # per open span: time covered by its children
        self._next_request = 0
        self._saved = []

    def __enter__(self):
        for module, attr, name, measure in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, measure))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn, measure):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                request = self.spans[parent]["request"]
            else:
                request = None
            if name in _REQUESTS and request is None:
                request = self._next_request
                self._next_request += 1
            span = {"name": name, "parent": parent, "request": request, "phase": self.phase}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            self._child_time.append(0.0)
            span["start"] = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                children = self._child_time.pop()
                duration = span["end"] - span["start"]
                span["self"] = duration - children
                span["ok"] = ok
                if self._child_time:
                    self._child_time[-1] += duration
            if measure is not None:
                span.update(measure(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _spans(self, phases):
        return [s for s in self.spans if s["phase"] in phases]

    def summary(self, phases=MEASURED) -> dict:
        """Per span name: call count, total and self time over the given phases."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for span in self._spans(phases):
            agg = out[span["name"]]
            agg["calls"] += 1
            agg["total_s"] += span["end"] - span["start"]
            agg["self_s"] += span["self"]
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metrics over the set-up and timed phases, as name -> (value, unit)."""
        out = {}
        for name, agg in self.summary().items():
            out[f"{name}_calls"] = (agg["calls"], "count")
            out[f"{name}_s"] = (agg["total_s"], "s")
            out[f"{name}_self_s"] = (agg["self_s"], "s")
        spans = self._spans(MEASURED)
        feats = [s for s in spans if s["name"] == "sparse_coding.featurize"]
        kept = [s for s in feats if s["ok"]]
        out["sparse_coding.kept_ratio"] = (len(kept) / len(feats) if feats else 0.0, "ratio")
        entries = sum(s["entries"] for s in kept)
        out["sparse_coding.feature_density"] = (
            sum(s["nnz"] for s in kept) / entries if entries else 0.0,
            "ratio",
        )
        fits = [s["points"] for s in spans if s["name"] == "gp.fit" and s["ok"]]
        out["gp.fit_points_max"] = (max(fits, default=0), "count")
        # Derived: the part of predict not covered by a traced child span,
        # i.e. the Euler loop, softmax and candidate assembly.
        out["predictor.rollout_self_s"] = out["predictor.predict_self_s"]
        return out

    def to_json(self) -> dict:
        origin = self.spans[0]["start"] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "request", "phase"],
            "spans": [
                [s["name"], s["start"] - origin, s["end"] - origin, s["parent"], s["request"], s["phase"]]
                for s in self.spans
            ],
        }
