"""In-process traced run of the stage chain, with spans per module.

Run as ``python stagebench/tracing.py JOB.json`` with ``src`` on
PYTHONPATH. It calls the same stage functions the CLI calls, once
untraced and once traced per round, and writes the spans and the
per-layer metrics named in BENCHMARK.json.

Spans are recorded around the public functions of each module, wrapped
where the caller looks them up (``ganfs.gan.forward``,
``ganfs.pipeline.train_gan``, class methods on the class), so nothing
under ``src/`` changes. A span keeps its name, start, end, parent and
run id; the layer is the part of the name before the first dot. A
layer's self time is the time of its spans not covered by their direct
children.
"""

import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from ganfs import classifiers, data, gan, pipeline, sensitivity
from ganfs.classifiers import LogisticRegression, RandomForest

LAYERS = ("pipeline", "data", "nets", "gan", "sensitivity", "baselines",
          "classifiers", "metrics")
STAGE_SPANS = ("preprocess", "train_gan", "rank", "baseline", "evaluate",
               "report", "synth")


class Tracer:
    """Spans in memory; ``refs`` holds objects for after-run counting."""

    def __init__(self, run):
        self.spans = []
        self.stack = []
        self.refs = {}
        self.run = run

    def begin(self, name):
        span = {"id": len(self.spans), "name": name,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "run": self.run, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        if self.stack.pop() is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def parent(self, span):
        pid = span["parent"]
        return None if pid is None else self.spans[pid]


def _wrap(tracer, fn, name, after):
    def traced(*args, **kwargs):
        span = tracer.begin(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            after(span, args, result)
        return result
    return traced


def _flop(net, rows):
    return 2 * rows * sum(layer.w.size for layer in net.layers)


def _patches(tracer):
    """(owner, attribute, span name, after-hook) for every wrapped call."""
    refs = tracer.refs

    def attr(key, value):
        return lambda span, args, result: span.__setitem__(key, value(
            args, result))

    def size(path):
        return Path(path).stat().st_size

    def forward_attrs(span, args, result):
        net, x = args[0], args[1]
        span["work"] = (len(x), _flop(net, len(x)))

    def sensitivity_forward(span, args, result):
        forward_attrs(span, args, result)
        scores = tracer.parent(span)
        if scores["name"] == "sensitivity.scores" and scores["id"] not in \
                refs.get("scored_x", {}):
            refs.setdefault("scored_x", {})[scores["id"]] = args[1]

    def deltas(span, args, result):
        refs.setdefault("deltas", {})[tracer.parent(span)["id"]] = result

    def scores(span, args, result):
        cfg = args[2] if len(args) > 2 else sensitivity.PerturbConfig()
        refs.setdefault("factors", {})[span["id"]] = tuple(cfg.factors)

    def tree(span, args, result):
        refs.setdefault("trees", []).append(result[0])

    return [
        (pipeline, "sha256_file", "pipeline.sha256",
         attr("bytes", lambda a, r: size(a[0]))),
        (pipeline, "train_gan", None, None),  # see _wrap_train_gan
        (pipeline, "save_gan", "gan.save",
         attr("bytes", lambda a, r: size(a[1]))),
        (pipeline, "load_gan", "gan.load", None),
        (pipeline, "write_training_log", "gan.write_training_log", None),
        (pipeline, "sensitivity_scores", "sensitivity.scores", scores),
        (pipeline, "make_report", "sensitivity.make_report", None),
        (pipeline, "write_report_csv", "sensitivity.write_report_csv", None),
        (pipeline, "read_ranking_csv", "sensitivity.read_ranking_csv", None),
        (pipeline, "baseline_scores", lambda a: f"baselines.{a[0]}", None),
        (pipeline, "roc_auc", "metrics.roc_auc", None),
        (pipeline, "prf_scores", "metrics.prf_scores", None),
        (pipeline, "write_metrics_csv", "metrics.write_metrics_csv", None),
        (pipeline, "read_metrics_csv", "metrics.read_metrics_csv", None),
        (pipeline, "forward", "nets.forward", forward_attrs),
        (gan, "discriminator_step", "gan.discriminator_step", None),
        (gan, "generator_step", "gan.generator_step", None),
        (gan, "forward", "nets.forward", forward_attrs),
        (gan, "backward", "nets.backward", None),
        (gan, "backward_from_output", "nets.backward_from_output", None),
        (gan, "adam_step", "nets.adam_step", None),
        (sensitivity, "forward", "nets.forward", sensitivity_forward),
        (sensitivity, "compute_base_deltas", "sensitivity.deltas", deltas),
        (data, "load_csv", "data.load_csv", None),
        (data, "concat_tables", "data.concat_tables", None),
        (data, "preprocess", "data.preprocess",
         attr("cells", lambda a, r: r.n_rows * (r.n_features + 1))),
        (data, "cap_per_class", "data.cap_per_class", None),
        (data, "split", "data.split", None),
        (data, "normalize", "data.normalize", None),
        (data, "apply_scaler", "data.apply_scaler", None),
        (data, "filter_attacks", "data.filter_attacks", None),
        (data, "save_dataset", "data.save_dataset",
         attr("bytes", lambda a, r: size(a[1]) + size(data.meta_path(a[1])))),
        (data, "load_dataset", "data.load_dataset",
         attr("rows", lambda a, r: r.n_rows)),
        (classifiers, "fit_tree", "classifiers.fit_tree", tree),
        (classifiers, "tree_predict_proba", "classifiers.tree_predict", None),
        (LogisticRegression, "fit", "classifiers.logreg_fit",
         attr("iters", lambda a, r: r.n_iter_)),
        (LogisticRegression, "predict_proba", "classifiers.logreg_predict",
         None),
        (RandomForest, "fit", "classifiers.forest_fit", None),
        (RandomForest, "predict_proba", "classifiers.forest_predict", None),
    ]


def _wrap_train_gan(tracer, fn):
    """gan.train_gan with one gan.epoch child span per epoch, cut at the
    progress callback that train_gan makes after every epoch."""
    def traced(*args, progress=None, **kwargs):
        span = tracer.begin("gan.train_gan")
        epoch = [tracer.begin("gan.epoch")]

        def tick(log):
            tracer.end(epoch[0])
            if progress is not None:
                progress(log)
            epoch[0] = tracer.begin("gan.epoch")

        try:
            return fn(*args, progress=tick, **kwargs)
        finally:
            # the span opened after the last epoch holds no epoch
            tracer.end(epoch[0])
            epoch[0]["drop"] = True
            tracer.end(span)
    return traced


def install(tracer):
    """Wrap every listed call; returns the undo list."""
    undo = []
    for owner, name, span_name, after in _patches(tracer):
        if name not in vars(owner):
            continue  # a later version may have dropped the function
        fn = vars(owner)[name]
        wrapped = (_wrap_train_gan(tracer, fn) if span_name is None
                   else _wrap(tracer, fn, span_name, after))
        setattr(owner, name, wrapped)
        undo.append((owner, name, fn))
    return undo


def uninstall(undo):
    for owner, name, fn in reversed(undo):
        setattr(owner, name, fn)


def run_chain(job, cfg, tracer=None):
    """Call every stage function once; returns (wall seconds, errors)."""
    calls = [("preprocess", "preprocess", pipeline.preprocess_stage,
              (job["inputs"],)),
             ("train-gan", "train_gan", pipeline.train_gan_stage, ()),
             ("rank", "rank", pipeline.rank_stage, ())]
    calls += [(f"baseline:{m}", "baseline", pipeline.baseline_stage, (m,))
              for m in job["baselines"]]
    calls += [("evaluate", "evaluate", pipeline.evaluate_stage, ()),
              ("report", "report", pipeline.report_stage, ()),
              ("synth", "synth", pipeline.synth_stage, (job["synth_n"],))]
    errors = {}
    start = time.perf_counter()
    for label, span_name, fn, args in calls:
        span = tracer.begin(f"pipeline.{span_name}") if tracer else None
        try:
            fn(cfg, *args)
        except Exception as exc:  # counted as a failed stage, run goes on
            errors[label] = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.end(span)
    return time.perf_counter() - start, errors


def _duration(span):
    return span["end"] - span["start"]


def _tail(values):
    """Highest percentile with at least ten samples beyond it; below 21
    samples that would not lie above the median, so the maximum."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 21 else ordered[-1]


def _useful_ratio(x, deltas, factors):
    """Share of perturbed cells that clipping does not return to x."""
    live = deltas > 0.0
    if not live.any():
        return 0, 0
    xs, ds = x[:, live], deltas[live]
    useful = 0
    for f in factors:
        for sign in (1.0, -1.0):
            useful += int(np.count_nonzero(np.clip(xs + sign * f * ds, 0.0,
                                                   1.0) != xs))
    return useful, xs.size * len(factors) * 2


def _nodes(root):
    n, stack = 0, [root]
    while stack:
        node = stack.pop()
        n += 1
        if not node.is_leaf:
            stack += [node.left, node.right]
    return n


def chain_metrics(tracer, spans):
    """Per-layer metrics of one traced chain (``spans`` share a run id)."""
    by_id = {s["id"]: s for s in spans}
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def total(name):
        return sum((_duration(s) for s in named.get(name, ())), 0.0)

    def count(name):
        return len(named.get(name, ()))

    def attr_sum(name, key, pick=lambda v: v):
        return sum(pick(s[key]) for s in named.get(name, ()) if key in s)

    def under(span, names):
        p = by_id.get(span["parent"])
        while p is not None:
            if p["name"] in names:
                return True
            p = by_id.get(p["parent"])
        return False

    m = {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        own = _duration(s) - sum(_duration(c) for c in kids.get(s["id"], ()))
        self_time[s["name"].split(".")[0]] += own
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]

    for stage in STAGE_SPANS:
        m[f"pipeline.{stage}_s"] = total(f"pipeline.{stage}")
    m["pipeline.sha256_s"] = total("pipeline.sha256")
    m["pipeline.bytes_hashed"] = attr_sum("pipeline.sha256", "bytes")

    raw = [s for s in named.get("data.preprocess", ())
           if not under(s, {"data.load_dataset"})]
    m["data.load_csv_s"] = sum(
        (_duration(s) for s in named.get("data.load_csv", ())
         if not under(s, {"data.load_dataset"})), 0.0)
    m["data.preprocess_s"] = sum((_duration(s) for s in raw), 0.0)
    m["data.cells_parsed"] = sum(s["cells"] for s in raw)
    m["data.load_dataset_s"] = total("data.load_dataset")
    m["data.load_dataset_calls"] = count("data.load_dataset")
    m["data.rows_reloaded"] = attr_sum("data.load_dataset", "rows")
    m["data.save_dataset_s"] = total("data.save_dataset")
    m["data.bytes_written"] = attr_sum("data.save_dataset", "bytes")

    backward = ("nets.backward", "nets.backward_from_output")
    m["nets.forward_s"] = total("nets.forward")
    m["nets.forward_calls"] = count("nets.forward")
    m["nets.forward_rows"] = attr_sum("nets.forward", "work", lambda w: w[0])
    m["nets.forward_gflop"] = attr_sum("nets.forward", "work",
                                       lambda w: w[1]) / 1e9
    m["nets.backward_s"] = sum(total(n) for n in backward)
    m["nets.backward_calls"] = sum(count(n) for n in backward)
    m["nets.adam_step_s"] = total("nets.adam_step")
    m["nets.adam_steps"] = count("nets.adam_step")

    for key, name in (("discriminator_step", "gan.discriminator_step"),
                      ("generator_step", "gan.generator_step"),
                      ("epoch", "gan.epoch")):
        times = [_duration(s) for s in named.get(name, ())]
        m[f"gan.{key}_s"] = statistics.median(times) if times else 0.0
        m[f"gan.{key}_tail_s"] = _tail(times) if times else 0.0
        m[f"gan.{key}s"] = len(times)
    steps = {"gan.discriminator_step", "gan.generator_step"}
    passes = sum(1 for n in ("nets.forward",) + backward
                 for s in named.get(n, ()) if under(s, steps))
    m["gan.passes_per_step"] = (passes / m["gan.discriminator_steps"]
                                if m["gan.discriminator_steps"] else 0.0)
    m["gan.save_s"] = total("gan.save")
    m["gan.load_s"] = total("gan.load")
    m["gan.checkpoint_bytes"] = attr_sum("gan.save", "bytes")

    m["sensitivity.scores_s"] = total("sensitivity.scores")
    m["sensitivity.deltas_s"] = total("sensitivity.deltas")
    m["sensitivity.forward_calls"] = sum(
        1 for s in named.get("nets.forward", ())
        if under(s, {"sensitivity.scores"}))
    rows = skipped = useful = perturbed = 0
    for s in named.get("sensitivity.scores", ()):
        x = tracer.refs.get("scored_x", {}).get(s["id"])
        d = tracer.refs.get("deltas", {}).get(s["id"])
        if x is None or d is None:
            continue
        rows += len(x)
        skipped += int(np.count_nonzero(d == 0.0))
        u, p = _useful_ratio(x, d, tracer.refs["factors"][s["id"]])
        useful += u
        perturbed += p
    m["sensitivity.rows_scored"] = rows
    m["sensitivity.features_skipped"] = skipped
    m["sensitivity.useful_perturb_ratio"] = (useful / perturbed
                                             if perturbed else 0.0)

    for method in ("mi", "chi2", "anova", "rfe", "rf"):
        m[f"baselines.{method}_s"] = total(f"baselines.{method}")

    m["classifiers.logreg_fit_s"] = total("classifiers.logreg_fit")
    m["classifiers.logreg_fits"] = count("classifiers.logreg_fit")
    m["classifiers.logreg_iters"] = attr_sum("classifiers.logreg_fit",
                                             "iters")
    m["classifiers.forest_fit_s"] = total("classifiers.forest_fit")
    trees = [_duration(s) for s in named.get("classifiers.fit_tree", ())]
    m["classifiers.tree_fit_s"] = statistics.median(trees) if trees else 0.0
    m["classifiers.trees"] = len(trees)
    m["classifiers.tree_nodes"] = sum(_nodes(t)
                                      for t in tracer.refs.get("trees", ()))
    m["classifiers.predict_s"] = (total("classifiers.logreg_predict")
                                  + total("classifiers.forest_predict"))
    m["metrics.roc_auc_s"] = total("metrics.roc_auc")
    m["metrics.roc_auc_calls"] = count("metrics.roc_auc")
    m["trace.spans"] = len(spans)
    return m


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    file_cfg = pipeline.load_config_file(job["config"])
    deadline = time.monotonic() + job["budget_s"]
    out_base = Path(job["out_base"])
    untraced, traced, runs, per_chain, all_spans = [], [], [], [], []
    started = time.monotonic()
    rnd = 0
    while True:
        # alternate which kind goes first, so neither always runs warmer
        for kind in (("untraced", "traced") if rnd % 2 == 0
                     else ("traced", "untraced")):
            run_dir = out_base / f"{kind}-{rnd}"
            shutil.rmtree(run_dir, ignore_errors=True)
            cfg = pipeline.resolve_config(
                file_cfg, {"seed": job["seed"], "out_dir": str(run_dir)})
            if kind == "untraced":
                seconds, errors = run_chain(job, cfg)
                untraced.append(seconds)
            else:
                tracer = Tracer(f"{job['workload']}:{job['seed']}:{rnd}")
                undo = install(tracer)
                try:
                    seconds, errors = run_chain(job, cfg, tracer)
                finally:
                    uninstall(undo)
                traced.append(seconds)
                spans = [s for s in tracer.spans if not s.get("drop")]
                per_chain.append(chain_metrics(tracer, spans))
                all_spans += spans
            runs.append({"dir": str(run_dir), "kind": kind,
                         "errors": errors})
        rnd += 1
        elapsed = time.monotonic() - started
        if (elapsed * (rnd + 1) / rnd > job["seconds"]
                or time.monotonic() + elapsed / rnd > deadline):
            break

    # counts are equal in every chain of one seed; median_low keeps them
    # whole numbers
    metrics = {k: (statistics.median_low if isinstance(v, int)
                   else statistics.median)([c[k] for c in per_chain])
               for k, v in per_chain[0].items()}
    metrics["trace.chain_s"] = statistics.median(traced)
    metrics["trace.untraced_chain_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = (metrics["trace.chain_s"]
                                   - metrics["trace.untraced_chain_s"])
    with open(job["spans"], "w") as fh:
        for s in all_spans:
            fh.write(json.dumps({k: s[k] for k in (
                "id", "name", "start", "end", "parent", "run")}) + "\n")
    Path(job["result"]).write_text(json.dumps(
        {"metrics": metrics, "runs": runs, "traced": traced,
         "untraced": untraced}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
