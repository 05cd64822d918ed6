"""In-memory span tracer that wraps equirank's public functions from outside.

Tracing replaces the names the commands look up (in `equirank.cli`,
`equirank.scaling` and `equirank.dataset`, plus `ComparisonSet.restrict`) with
wrappers that record a span per call: name, start, end and parent. The
originals are restored when the `traced()` block exits, so untraced units run
the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import math
from time import perf_counter

import equirank.cli
import equirank.dataset
import equirank.scaling
from equirank.robust import qr_med

# Public function name -> span name. A span's layer is the text before the dot.
SPANS = {
    "parse_comparisons": "dataset.parse",
    "parse_scaled_comparisons": "dataset.parse",
    "parse_features": "dataset.parse",
    "write_comparisons": "dataset.write",
    "write_scaled_comparisons": "dataset.write",
    "write_features": "dataset.write",
    "split": "dataset.split",
    "fit_gbt": "gbt.fit",
    "br_mean": "robust.br_mean",
    "minmax_scale": "scaling.minmax",
    "normalization_scale": "scaling.normalization",
    "mehestan_scale": "scaling.mehestan",
    "train": "ltr.train",
    "predict_all": "ltr.predict",
    "build_report": "equity.report",
    "generate": "simgen.generate",
}
_MODULES = (equirank.cli, equirank.scaling, equirank.dataset)

# The `_s` metrics are self times (span minus its child spans), except
# `scaling.mehestan_s`, which includes the GBT fits, restricts and BrMean
# calls made inside Mehestan.
SELF_TIMES = {
    "dataset.parse_s": "dataset.parse",
    "dataset.write_s": "dataset.write",
    "dataset.split_s": "dataset.split",
    "dataset.restrict_s": "dataset.restrict",
    "gbt.fit_s": "gbt.fit",
    "robust.br_mean_s": "robust.br_mean",
    "scaling.minmax_s": "scaling.minmax",
    "scaling.normalization_s": "scaling.normalization",
    "scaling.mehestan_self_s": "scaling.mehestan",
    "ltr.train_s": "ltr.train",
    "ltr.predict_s": "ltr.predict",
    "equity.report_s": "equity.report",
    "simgen.generate_s": "simgen.generate",
    "cli.self_s": "cli",
}


class Tracer:
    """Spans and counters of one traced unit, kept in memory."""

    def __init__(self) -> None:
        # [name, start, end, parent index or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts = {
            "dataset.parse_rows": 0,
            "dataset.restrict_calls": 0,
            "gbt.fits": 0,
            "gbt.iters": 0,
            "gbt.unconverged": 0,
            "robust.br_mean_calls": 0,
            "scaling.mehestan_calls": 0,
            "ltr.sgd_steps": 0,
            "equity.report_rows": 0,
        }
        self.epochs = 0
        # BrMean inputs, so clipping is counted after the unit, off the clock.
        self._br_mean_args: list = []

    def run(self, name, fn, *args, **kwargs):
        """Call fn inside a span named `name` and return its result."""
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        self.spans[index][1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.run(name, fn, *args, **kwargs)
            self._count(name, args, result)
            return result

        return wrapper

    def _count(self, name, args, result) -> None:
        c = self.counts
        if name == "dataset.parse":
            c["dataset.parse_rows"] += (
                len(result.features) if hasattr(result, "features") else len(result)
            )
        elif name == "dataset.restrict":
            c["dataset.restrict_calls"] += 1
        elif name == "gbt.fit":
            c["gbt.fits"] += 1
            c["gbt.iters"] += result.n_iter
            c["gbt.unconverged"] += not result.converged
        elif name == "robust.br_mean":
            c["robust.br_mean_calls"] += 1
            self._br_mean_args.append(args)
        elif name == "scaling.mehestan":
            c["scaling.mehestan_calls"] += 1
        elif name == "ltr.train":
            train_set, _, config = args
            self.epochs += config.epochs
            c["ltr.sgd_steps"] += config.epochs * math.ceil(
                len(train_set) / config.batch_size
            )
        elif name == "equity.report":
            c["equity.report_rows"] += len(args[0])

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the unit; the top span is named `cli`."""
        self_time: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        fit_max = 0.0
        for name, start, end, parent in self.spans:
            duration = end - start
            inclusive[name] = inclusive.get(name, 0.0) + duration
            self_time[name] = self_time.get(name, 0.0) + duration
            if parent is not None:
                parent_name = self.spans[parent][0]
                self_time[parent_name] -= duration
            if name == "gbt.fit":
                fit_max = max(fit_max, duration)
        out: dict[str, float] = {
            metric: self_time.get(span, 0.0) for metric, span in SELF_TIMES.items()
        }
        out.update(self.counts)
        out["gbt.fit_s_max"] = fit_max
        out["scaling.mehestan_s"] = inclusive.get("scaling.mehestan", 0.0)
        out["ltr.epoch_s"] = out["ltr.train_s"] / self.epochs if self.epochs else 0.0
        out["robust.clipped"] = sum(
            _clipped(values, params) for values, params in self._br_mean_args
        )
        out["trace.run_s"] = inclusive["cli"]
        return out


def _clipped(values, params) -> int:
    center = qr_med(values, params)
    return sum(abs(v - center) > params.clip_radius for v in values)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route the commands' calls into each layer through `tracer`."""
    saved = []
    try:
        for module in _MODULES:
            for attr, name in SPANS.items():
                if hasattr(module, attr):
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        restrict = equirank.dataset.ComparisonSet.restrict
        saved.append((equirank.dataset.ComparisonSet, "restrict", restrict))
        equirank.dataset.ComparisonSet.restrict = tracer.wrap("dataset.restrict", restrict)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
