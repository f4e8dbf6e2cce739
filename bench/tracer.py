"""In-memory span tracing around the program's layer boundaries.

`Tracer.install()` replaces each wrapped function under the name its
caller looks it up by (a module global such as `fairod.training.adam_step`,
or a class attribute such as `Var.backward`) and `uninstall()` puts the
originals back.  A span is (name, start, end, parent); counts are recorded
at the same boundaries.  Nothing is written until `dump()`.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from fairod import claimcheck, cli, dataset, evalmetrics, losses, numgrad, training

_CLAIM_SPAN = ("claimcheck.verify", lambda a, k, r: {"claimcheck.populations_checked": r.populations_checked})

# (owner, attribute, span name, counter(args, kwargs, result) -> {count: n}).
# A function imported by name into another module is patched there too.
PATCHES = [
    (numgrad.Var, "backward", "numgrad.backward", None),
    (training, "eval_loss_grad_components", "numgrad.loss_and_grad", None),
    (training, "adam_step", "numgrad.adam", None),
    (losses, "score_graph", "detector.score_graph", None),
    (training, "score", "detector.score",
     lambda a, k, r: {"detector.rows_scored": int(r.shape[0]) if r.ndim else 1}),
    (losses.TotalLossSpec, "components", "losses.components", None),
    (losses, "loss_sp_graph", "losses.sp", None),
    (losses, "loss_gf_graph", "losses.gf", None),
    (losses, "loss_gf_corr_graph", "losses.gf_corr", None),
    (losses.BaseScoreSet, "from_scores", "losses.base_set", None),
    (training, "_run_fit", "training.loop", None),
    (training, "_slice_base", "training.slice_base", None),
    (training, "fit_fairod", "training.fit", None),
    (training, "fit_base_multi_seed", "training.fit", None),
    (cli, "fit_fairod", "training.fit", None),
    (cli, "fit_base_multi_seed", "training.fit", None),
    (training, "unsupervised_metrics", "training.unsup_metrics", None),
    (evalmetrics, "build_report", "evalmetrics.build_report", None),
    (cli, "build_report", "evalmetrics.build_report", None),
    (evalmetrics.ScoreSet, "from_scores", "evalmetrics.scoreset", None),
    (cli, "load_csv", "dataset.load_csv", lambda a, k, r: {"dataset.rows_parsed": r.n}),
    (dataset, "save_csv", "dataset.save_csv", None),
    (dataset, "make_synth1", "dataset.synth", None),
    (dataset, "make_synth2", "dataset.synth", None),
    (dataset, "standardize", "dataset.standardize", None),
    (cli, "standardize", "dataset.standardize", None),
    (claimcheck, "verify_claim1", *_CLAIM_SPAN),
    (claimcheck, "verify_claim2", *_CLAIM_SPAN),
    (cli, "verify_claim1", *_CLAIM_SPAN),
    (cli, "verify_claim2", *_CLAIM_SPAN),
    (cli, "main", None, None),  # span named per command: cli.eval, cli.replay, ...
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            label = name or "cli." + (args[0][0] if args and args[0] else "none")
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, counter in PATCHES:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, counter)))
            else:
                setattr(owner, attr, self._wrap(raw, name, counter))
        var_init = numgrad.Var.__init__
        counts = self.counts

        def counted_init(self_, *args, **kwargs):
            counts["numgrad.vars_created"] += 1
            var_init(self_, *args, **kwargs)

        self._saved.append((numgrad.Var, "__init__", var_init))
        numgrad.Var.__init__ = counted_init

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (spans nested inside a span
        of the same name are not counted twice) and self seconds (span time
        minus the time of its direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                t["incl_s"] += end - start
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counts": dict(self.counts), "totals": self.totals()}, fh)
