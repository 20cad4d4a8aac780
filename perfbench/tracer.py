"""In-memory spans around the public functions of each glfm module.

Tracing wraps module attributes from the outside: a call made through a
module's global name (for example `glfm.engine.sample_z_row` called from
`run_iteration`) is replaced by a wrapper that records a span. Nothing inside
`src/glfm` changes. The wrappers are removed again by `Tracer.uninstall`.

A span is [name, layer, start_ns, end_ns, parent_index, excluded_ns], where
excluded_ns is the time the tracer itself spent inside that span (wrapper
bookkeeping and counting hooks of its children), so that self times do not
include tracing work.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import glfm.cli
import glfm.engine
import glfm.tasks

LAYERS = ("cli", "data", "engine", "randkit", "likelihoods", "tasks")
LIKELIHOOD_FNS = ("prob_categorical", "prob_ordinal", "log_prob_ordinal",
                  "log_prob_count", "loglik_continuous")
SCORING = ("tasks.predictive_loglik", "tasks.predictive_loglik_by_dim")

# (module, attribute): every call site goes through the named module's global,
# so the wrapper sees each call once. A span is named, and assigned to a
# layer, by the module that defines the function.
TRACED = (
    (glfm.cli, "parse_attribute_spec"),
    (glfm.cli, "load_dataset"),
    (glfm.cli, "fit_transforms"),
    (glfm.tasks, "fit_transforms"),
    (glfm.cli, "render_csv"),
    (glfm.cli, "state_to_json"),
    (glfm.cli, "state_from_json"),
    (glfm.cli, "run_chain"),
    (glfm.tasks, "run_chain"),
    (glfm.engine, "init_state"),
    (glfm.engine, "run_iteration"),
    (glfm.engine, "sample_z_row"),
    (glfm.engine, "birth_features"),
    (glfm.engine, "prune_features"),
    (glfm.engine, "sample_weights"),
    (glfm.engine, "sample_thresholds"),
    (glfm.engine, "sample_noise_variance"),
    (glfm.engine, "complete_data_log_joint"),
    (glfm.engine.LatentState, "recompute_natural"),
    (glfm.engine, "trunc_normal_sample"),
    *((glfm.tasks, fn) for fn in LIKELIHOOD_FNS),
    (glfm.cli, "impute_from_states"),
    (glfm.cli, "heldout_benchmark"),
    (glfm.cli, "compute_pdf"),
    (glfm.cli, "extract_patterns"),
    (glfm.cli, "feature_activation_probs"),
    (glfm.tasks, "predictive_loglik"),
    (glfm.tasks, "predictive_loglik_by_dim"),
)


class Tracer:
    """Spans and counters of traced repetitions, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.K_per_sweep: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._scored: list[tuple[object, object]] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str):
        """A span the benchmark opens itself, around code it calls."""
        parent = self.stack[-1] if self.stack else -1
        rec = [name, layer, 0, 0, parent, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[3] = time.perf_counter_ns()
            self.stack.pop()

    def _wrap(self, fn, name: str, layer: str, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            enter = clock()
            parent = stack[-1] if stack else -1
            idx = len(spans)
            rec = [name, layer, 0, 0, parent, 0]
            spans.append(rec)
            stack.append(idx)
            token = before(args) if before is not None else None
            rec[2] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = end = clock()
                stack.pop()
            if after is not None:
                after(args, result, token)
            if parent >= 0:  # the parent's self time leaves this bookkeeping out
                spans[parent][5] += (start - enter) + (clock() - end)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counting hooks: they run outside their call's span, and their time is
    # excluded from the parent's self time ------------------------------------

    def _z_before(self, args):
        state, n = args[1], args[3]
        return state.Z[n].copy(), state.K - state.n_bias

    def _z_after(self, args, _result, token):
        before, scanned = token
        state, n = args[1], args[3]
        self.counts["z_flips"] += int(np.count_nonzero(state.Z[n] != before))
        self.counts["z_entries"] += scanned

    def _birth_before(self, args):
        return args[1].K

    def _birth_after(self, args, _result, K_before):
        self.counts["birth_rows"] += args[1].K > K_before

    def _sweep_after(self, args, _result, _token):
        self.K_per_sweep.append(args[1].K)

    def _trunc_after(self, _args, result, _token):
        self.counts["trunc_draws"] += np.size(result)

    def _impute_before(self, args):
        self.counts["impute_cells"] += int(args[1].missing.sum())

    def _score_before(self, args):
        # the denominator counts each top-level (states, mask) pair once,
        # however many scoring calls go over it; holding the pair keeps its
        # ids from being reused
        parent = self.spans[self.stack[-1]][4]  # this call's span is on the stack
        if parent >= 0 and self.spans[parent][0] in SCORING:
            return
        states, mask = args[0], args[2]
        if not any(s is states and m is mask for s, m in self._scored):
            self._scored.append((states, mask))
            self.counts["score_cell_states"] += int(np.sum(mask)) * len(states)

    # -- install / uninstall ---------------------------------------------

    def install(self):
        hooks = {
            "sample_z_row": (self._z_before, self._z_after),
            "birth_features": (self._birth_before, self._birth_after),
            "run_iteration": (None, self._sweep_after),
            "trunc_normal_sample": (None, self._trunc_after),
            "impute_from_states": (self._impute_before, None),
            "predictive_loglik": (self._score_before, None),
            "predictive_loglik_by_dim": (self._score_before, None),
        }
        for owner, attr in TRACED:
            fn = getattr(owner, attr, None)
            if fn is None:  # renamed or removed upstream: its metrics read 0
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            before, after = hooks.get(attr, (None, None))
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, f"{layer}.{attr}", layer, before, after))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()
        self._scored.clear()

    def write(self, path: Path, first: int = 0):
        """Spans from index `first` on, one JSON list per line: name, layer,
        start_ns, end_ns, parent line (-1 for none), tracer ns excluded."""
        with path.open("w") as fh:
            for name, layer, start, end, parent, excluded in self.spans[first:]:
                parent = parent - first if parent >= first else -1
                fh.write(json.dumps([name, layer, start, end, parent, excluded],
                                    separators=(",", ":")) + "\n")


# -- metrics from spans --------------------------------------------------


def _self_times(spans: list[list]) -> np.ndarray:
    own = np.array([(s[3] - s[2]) - s[5] for s in spans], dtype=float)
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own / 1e9


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


# (name, unit, better) of every per-layer metric, in report order. The last
# five come from the worker (output size, trace file, and the untraced
# repetitions of the same run).
PER_LAYER = (
    ("engine.z_scan_us_per_row_p50", "us", "lower"),
    ("engine.z_scan_us_per_row_p99", "us", "lower"),
    ("engine.z_flips_per_row", "ratio", "lower"),
    ("engine.z_scan_self_share", "ratio", "lower"),
    ("engine.birth_us_per_row_p50", "us", "lower"),
    ("engine.birth_accept_ratio", "ratio", "higher"),
    ("engine.birth_self_share", "ratio", "lower"),
    ("engine.prune_s", "s", "lower"),
    ("engine.recompute_natural_calls", "count", "lower"),
    ("engine.recompute_natural_s", "s", "lower"),
    ("engine.sweep_s_p50", "s", "lower"),
    ("engine.sweep_self_s", "s", "lower"),
    ("engine.weights_s", "s", "lower"),
    ("engine.thresholds_s", "s", "lower"),
    ("engine.noise_var_s", "s", "lower"),
    ("engine.log_joint_s", "s", "lower"),
    ("engine.K_mean", "count", "lower"),
    ("randkit.trunc_normal_calls", "count", "lower"),
    ("randkit.trunc_normal_draws", "count", "lower"),
    ("randkit.trunc_normal_s", "s", "lower"),
    *((f"likelihoods.{fn}.{what}", unit, "lower")
      for fn in LIKELIHOOD_FNS for what, unit in (("calls", "count"), ("us_per_call", "us"))),
    ("tasks.impute_us_per_cell", "us", "lower"),
    ("tasks.pdf_s", "s", "lower"),
    ("tasks.score_s", "s", "lower"),
    ("tasks.score_share", "ratio", "lower"),
    ("tasks.score_evals_per_cell", "ratio", "lower"),
    ("data.load_s", "s", "lower"),
    ("data.fit_transforms_calls", "count", "lower"),
    ("data.fit_transforms_s", "s", "lower"),
    ("data.render_csv_s", "s", "lower"),
    ("cli.state_json_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("cli.out_bytes", "bytes", "lower"),
    ("engine.log_joint_nonfinite_share", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans_per_rep", "count", "lower"),
)


def per_layer_metrics(tracer: Tracer, reps: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics over `reps` traced repetitions.

    Totals and counts are per repetition; percentiles pool every span.
    Shares divide a self time by wall_s, the untraced wall time of one
    repetition, since self times leave the tracer's own work out.
    """
    spans = tracer.spans
    counts = tracer.counts
    own = _self_times(spans)
    dur: dict[str, list[float]] = defaultdict(list)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        dur[s[0]].append((s[3] - s[2]) / 1e9)
        self_by_name[s[0]] += own[i]
        self_by_layer[s[1]] += own[i]

    def total(name):
        return sum(dur.get(name, ())) / reps

    def n_calls(name):
        return len(dur.get(name, ())) / reps

    def ratio(a, b):
        return a / b if b else 0.0

    def span_s(indices):
        return sum((spans[i][3] - spans[i][2]) / 1e9 for i in indices) / reps

    scoring = [i for i, s in enumerate(spans)
               if s[0] in SCORING and (s[4] < 0 or spans[s[4]][0] not in SCORING)]
    evals = sum(1 for i in _descendants(spans, set(scoring)) if spans[i][1] == "likelihoods")
    chains = {i for i, s in enumerate(spans) if s[0] == "engine.run_chain"}
    recompute = [i for i in _descendants(spans, chains) if spans[i][0] == "engine.recompute_natural"]
    z_us = [d * 1e6 for d in dur.get("engine.sample_z_row", ())]
    birth_us = [d * 1e6 for d in dur.get("engine.birth_features", ())]

    m = {
        "engine.z_scan_us_per_row_p50": _pct(z_us, 50),
        "engine.z_scan_us_per_row_p99": _pct(z_us, 99),
        "engine.z_flips_per_row": ratio(counts["z_flips"], counts["z_entries"]),
        "engine.z_scan_self_share": ratio(self_by_name["engine.sample_z_row"] / reps, wall_s),
        "engine.birth_us_per_row_p50": _pct(birth_us, 50),
        "engine.birth_accept_ratio": ratio(counts["birth_rows"], len(birth_us)),
        "engine.birth_self_share": ratio(self_by_name["engine.birth_features"] / reps, wall_s),
        "engine.prune_s": total("engine.prune_features"),
        "engine.recompute_natural_calls": len(recompute) / reps,
        "engine.recompute_natural_s": span_s(recompute),
        "engine.sweep_s_p50": _pct(dur.get("engine.run_iteration", []), 50),
        "engine.sweep_self_s": self_by_name["engine.run_iteration"] / reps,
        "engine.weights_s": total("engine.sample_weights"),
        "engine.thresholds_s": total("engine.sample_thresholds"),
        "engine.noise_var_s": total("engine.sample_noise_variance"),
        "engine.log_joint_s": total("engine.complete_data_log_joint"),
        "engine.K_mean": float(np.mean(tracer.K_per_sweep)) if tracer.K_per_sweep else 0.0,
        "randkit.trunc_normal_calls": n_calls("randkit.trunc_normal_sample"),
        "randkit.trunc_normal_draws": counts["trunc_draws"] / reps,
        "randkit.trunc_normal_s": total("randkit.trunc_normal_sample"),
        "tasks.impute_us_per_cell": ratio(total("tasks.impute_from_states") * 1e6,
                                          counts["impute_cells"] / reps),
        "tasks.pdf_s": total("tasks.compute_pdf"),
        "tasks.score_s": span_s(scoring),
        "tasks.score_share": ratio(span_s(scoring), wall_s),
        "tasks.score_evals_per_cell": ratio(evals, counts["score_cell_states"]),
        "data.load_s": total("data.load_dataset"),
        "data.fit_transforms_calls": n_calls("data.fit_transforms"),
        "data.fit_transforms_s": total("data.fit_transforms"),
        "data.render_csv_s": total("data.render_csv"),
        "cli.state_json_s": total("cli.state_to_json") + total("cli.state_from_json"),
    }
    for fn in LIKELIHOOD_FNS:
        name = f"likelihoods.{fn}"
        m[f"{name}.calls"] = n_calls(name)
        m[f"{name}.us_per_call"] = ratio(total(name) * 1e6, n_calls(name))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer] / reps
    return m


def _descendants(spans: list[list], roots: set[int]) -> list[int]:
    """Indices of spans below any of `roots` (spans are in start order)."""
    inside = set(roots)
    out = []
    for i, s in enumerate(spans):
        if s[4] in inside:
            inside.add(i)
            out.append(i)
    return out
