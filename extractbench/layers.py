"""Span tracing around the engine's layer entry points, from outside the engine.

The traced run rebinds the module attributes the engine looks up when it
builds a pipeline (``pipeline.make_explode_fn``, ``pipeline.OcrStage``,
``pipeline.stitch_block``/``stitch_group``, ``pipeline.make_scorer_fn``) and
wraps the client-side entry points the benchmark calls
(``extraction_pipeline``, ``rank_topk``, ``read_documents_sharded``,
``ShardedParquetMediaStore.from_dir``, ``run_checkpointed``,
``extract_table``). Each wrapper records one span per
call: name, start, end, parent span, run id, and rows in/out at the same
boundary. Wrappers keep the wrapped callable's name, so Ray Data names and
fuses the operators exactly as it does untraced (checked by ``plan_signature``).
Worker spans name the ``pipeline`` span of the pipeline they ran in.

Client spans stay in memory until ``Tracer.close``. Worker spans are written
by the worker process as one JSON line per batch call, appended to
``<span_dir>/<pid>.jsonl``; Ray reuses and kills worker processes at will, so
a worker has no reliable end-of-run hook to flush a buffer from.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
import time
from contextlib import contextmanager


def record(span_dir: str, span: dict) -> None:
    """Append one span from the calling process (worker or client)."""
    span["pid"] = os.getpid()
    with open(os.path.join(span_dir, f"{os.getpid()}.jsonl"), "a") as f:
        f.write(json.dumps(span) + "\n")


def _media_counts(batch):
    """(non-text units, scanned-PDF page units) in an OCR-stage batch."""
    import pyarrow.compute as pc

    if not batch.num_rows:
        return 0, 0
    unit = batch.column("unit")
    media = batch.num_rows - pc.sum(pc.equal(unit, "text")).as_py()
    return int(media), int(pc.sum(pc.equal(unit, "pdf_page")).as_py())


class Tracer:
    """Records client spans and binds the worker-stage wrappers.

    Every client span re-binds the worker-stage wrappers so that the worker
    spans of a pipeline built inside it name it as their parent."""

    def __init__(self, span_dir: str, run_id: str):
        os.makedirs(span_dir, exist_ok=True)
        self.span_dir = span_dir
        self.run_id = run_id
        self.spans: list = []
        self._ids = itertools.count()
        self._stack: list = []
        self._saved: dict = {}

    # -- client spans -------------------------------------------------------
    @contextmanager
    def span(self, name: str, **counts):
        sid = f"d{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "id": sid, "parent": parent, "run": self.run_id,
               "start": time.monotonic(), **counts}
        self._stack.append(sid)
        if self._saved:
            self._bind_stages(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()
            if self._saved:
                self._bind_stages(self._stack[-1] if self._stack else None)
            self.spans.append(rec)

    def close(self) -> None:
        for rec in self.spans:
            record(self.span_dir, dict(rec))
        self.spans = []

    # -- wrapper installation ----------------------------------------------
    @contextmanager
    def installed(self):
        """Rebind every traced entry point for the duration of the block."""
        from resume_ocr_ray.core import extract as X
        from resume_ocr_ray.engine import checkpoint as CK
        from resume_ocr_ray.engine import io as EIO
        from resume_ocr_ray.engine import pipeline as P

        targets = {
            (P, "make_explode_fn"), (P, "OcrStage"), (P, "stitch_block"),
            (P, "stitch_group"), (P, "make_scorer_fn"), (P, "rank_topk"),
            (P, "extraction_pipeline"),
            (EIO, "read_documents_sharded"), (CK, "run_checkpointed"),
            (X, "extract_table"),
        }
        self._saved = {t: getattr(*t) for t in targets}
        store_cls = EIO.ShardedParquetMediaStore
        saved_from_dir = store_cls.__dict__["from_dir"]
        try:
            P.rank_topk = self._client_wrap("rank", P.rank_topk)
            P.extraction_pipeline = self._client_wrap(
                "pipeline", P.extraction_pipeline)
            EIO.read_documents_sharded = self._client_wrap(
                "io.read", EIO.read_documents_sharded)
            CK.run_checkpointed = self._checkpoint_wrap(CK.run_checkpointed)
            X.extract_table = self._oracle_wrap(X.extract_table)
            store_cls.from_dir = classmethod(
                self._client_wrap("io.store_build", saved_from_dir.__func__))
            self._bind_stages(self._stack[-1] if self._stack else None)
            yield self
        finally:
            store_cls.from_dir = saved_from_dir
            for (mod, attr), orig in self._saved.items():
                setattr(mod, attr, orig)
            self._saved = {}

    def _client_wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _oracle_wrap(self, fn):
        @functools.wraps(fn)
        def extract_table(docs, *args, **kwargs):
            with self.span("oracle", rows_in=docs.num_rows) as rec:
                out = fn(docs, *args, **kwargs)
                rec["rows_out"] = out.num_rows
                return out
        return extract_table

    def _checkpoint_wrap(self, fn):
        @functools.wraps(fn)
        def run_checkpointed(*args, **kwargs):
            with self.span("checkpoint") as rec:
                summary = fn(*args, **kwargs)
                rec["processed"] = len(summary["processed"])
                rec["skipped"] = len(summary["skipped"])
                return summary
        return run_checkpointed

    def _bind_stages(self, parent) -> None:
        """Point the pipeline module's stage attributes at wrappers whose
        worker spans name ``parent``."""
        from resume_ocr_ray.engine import pipeline as P

        orig = {attr: self._saved[(P, attr)] for attr in (
            "make_explode_fn", "OcrStage", "stitch_block", "stitch_group",
            "make_scorer_fn")}
        ctx = (self.span_dir, self.run_id, parent)
        P.make_explode_fn = _traced_factory(
            orig["make_explode_fn"], "explode", ctx)
        P.make_scorer_fn = _traced_factory(orig["make_scorer_fn"], "score", ctx)
        P.stitch_block = _traced_fn(orig["stitch_block"], "stitch", ctx)
        P.stitch_group = _traced_fn(orig["stitch_group"], "stitch", ctx)
        P.OcrStage = _traced_ocr_class(orig["OcrStage"], ctx)


def _traced_fn(fn, name, ctx):
    span_dir, run_id, parent = ctx

    @functools.wraps(fn)
    def wrapper(batch):
        t0 = time.monotonic()
        out = fn(batch)
        record(span_dir, {
            "name": name, "parent": parent, "run": run_id, "start": t0,
            "end": time.monotonic(), "rows_in": batch.num_rows,
            "rows_out": out.num_rows, "bytes_in": batch.nbytes,
        })
        return out
    # not importable under the wrapped name, so Ray ships it by value
    # instead of re-importing the untraced original in the worker
    wrapper.__module__ = __name__
    return wrapper


def _traced_factory(factory, name, ctx):
    """Wrap a stage factory: the batch function it returns is traced."""

    @functools.wraps(factory)
    def make(*args, **kwargs):  # runs in the client, at pipeline build
        return _traced_fn(factory(*args, **kwargs), name, ctx)
    return make


def _traced_ocr_class(base, ctx):
    """Subclass of the OCR stage, named like it, that records its actor
    start-up and every batch call."""
    span_dir, run_id, parent = ctx

    def __init__(self, *args, **kwargs):
        t0 = time.monotonic()
        base.__init__(self, *args, **kwargs)
        record(span_dir, {"name": "ocr.init", "parent": parent, "run": run_id,
                          "start": t0, "end": time.monotonic()})

    def __call__(self, batch):
        t0 = time.monotonic()
        out = base.__call__(self, batch)
        media, pages = _media_counts(batch)
        record(span_dir, {
            "name": "ocr", "parent": parent, "run": run_id, "start": t0,
            "end": time.monotonic(), "rows_in": batch.num_rows,
            "rows_out": out.num_rows, "media_units": media, "pages": pages,
        })
        return out

    return type(base.__name__, (base,), {"__init__": __init__,
                                         "__call__": __call__})


def load_spans(span_dir: str) -> list:
    spans = []
    for fname in sorted(os.listdir(span_dir)):
        if fname.endswith(".jsonl"):
            with open(os.path.join(span_dir, fname)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def self_times(spans: list) -> dict:
    """Span id → duration minus the part of it that its children cover.
    Worker spans have no id (nothing nests under them): their self time is
    their duration."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.get("parent"), []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        if "id" not in s:
            continue
        lo, hi = s["start"], s["end"]
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


# ---------------------------------------------------------------------------
# Dataset.stats() text: per-operator wall time, CPU time, rows and bytes
# ---------------------------------------------------------------------------

_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0, "min": 60.0, "h": 3600.0}
_DUR = r"([\d.]+)\s*(ns|us|ms|min|s|h)"
_OP = re.compile(r"^\s*(Operator|Suboperator) \d+ (.*?): (.*)$")


def _secs(v: str, u: str) -> float:
    return float(v) * _UNITS[u]


def _op(name: str, sub: bool) -> dict:
    return {"name": name, "sub": sub, "tasks": 0, "wall_s": 0.0,
            "remote_wall_s": 0.0, "cpu_s": 0.0, "udf_s": 0.0, "rows": 0,
            "bytes": 0}


def parse_stats(text: str) -> list:
    """Operators and sub-operators of one ``Dataset.stats()`` string, each as
    {name, sub, tasks, wall_s, remote_wall_s, cpu_s, udf_s, rows, bytes};
    plus the iterator's blocked time as a pseudo-operator ``iter.blocked``."""
    ops, cur = [], None
    for line in text.splitlines():
        m = _OP.match(line)
        if m:
            cur = _op(m.group(2), m.group(1) == "Suboperator")
            rest = m.group(3)
            t = re.search(r"(\d+) tasks executed", rest)
            if t:
                cur["tasks"] = int(t.group(1))
            w = re.search(r"(?:executed|produced) in " + _DUR, rest)
            if w:
                cur["wall_s"] = _secs(*w.groups())
            ops.append(cur)
            continue
        if "user thread is blocked by Ray Data iter_batches" in line:
            d = re.search(_DUR + r"\s*$", line.strip())
            if d:
                ops.append(dict(_op("iter.blocked", False),
                                wall_s=_secs(*d.groups())))
            cur = None
            continue
        if cur is None:
            continue
        s = line.strip()
        for key, label in (("remote_wall_s", "Remote wall time:"),
                           ("cpu_s", "Remote cpu time:"),
                           ("udf_s", "UDF time:")):
            if s.startswith("* " + label):
                d = re.search(_DUR + r" total", s)
                if d:
                    cur[key] = _secs(*d.groups())
        if s.startswith("* Output num rows per block:"):
            d = re.search(r"(\d+) total", s)
            if d:
                cur["rows"] = int(d.group(1))
        if s.startswith("* Output size bytes per block:"):
            d = re.search(r"(\d+) total", s)
            if d:
                cur["bytes"] = int(d.group(1))
    return ops


def plan_signature(ds) -> dict:
    """What the traced run must not change: the executed operator chain with
    its fusion (from ``stats()``), and each logical operator's compute
    strategy (task pool or actor pool with its size), partition count and
    shuffle keys."""
    physical = [op["name"] for op in parse_stats(ds.stats())
                if op["name"] != "iter.blocked"]
    logical, stack = [], [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        compute = getattr(op, "_compute", None)
        logical.append([
            type(op).__name__, op.name,
            repr(compute).split("num_workers")[0] if compute else None,
            getattr(op, "_num_outputs", None), getattr(op, "_keys", None),
        ])
        stack.extend(op.input_dependencies)
    return {"operators": physical, "logical": logical}


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------

#: name → (unit, better, end-to-end metric it should move, on which workload).
#: Counts and times are per unit of work (one pass, query or cycle).
LAYER_METRICS = {
    "io.store_build_s": ("s", "lower", "setup_s", "all"),
    "io.read_s": ("s", "lower", "docs_per_s", "all"),
    "io.read_rows": ("rows", "lower", "docs_per_s", "all; job_resume also reads its output back"),
    "explode.calls": ("count", "lower", "query_p50_s", "rank_text"),
    "explode.rows_in": ("rows", "lower", "query_p50_s", "rank_text"),
    "explode.units_out": ("rows", "lower", "query_p50_s", "rank_text"),
    "explode.self_s": ("s", "lower", "query_p50_s", "rank_text"),
    "ocr.calls": ("count", "lower", "docs_per_s", "scan_skew, job_resume"),
    "ocr.units": ("rows", "lower", "docs_per_s", "scan_skew, job_resume"),
    "ocr.media_units": ("rows", "lower", "docs_per_s", "scan_skew, job_resume"),
    "ocr.pages": ("pages", "lower", "docs_per_s", "scan_skew, job_resume"),
    "ocr.self_s": ("s", "lower", "docs_per_s", "scan_skew, job_resume"),
    "ocr.ms_per_media_unit": ("ms", "lower", "docs_per_s", "scan_skew, job_resume"),
    "ocr.actors_max": ("count", "higher", "docs_per_s", "scan_skew, job_resume"),  # in one pipeline
    "ocr.actor_init_s": ("s", "lower", "docs_per_s", "scan_skew, job_resume"),
    "shuffle.rows": ("rows", "lower", "docs_per_s", "scan_skew, rank_text"),
    "shuffle.bytes": ("bytes", "lower", "docs_per_s", "scan_skew, rank_text"),
    "shuffle.busy_s": ("s", "lower", "query_p50_s", "scan_skew, rank_text"),
    "shuffle.wait_s": ("s", "lower", "query_p50_s", "scan_skew, rank_text"),
    "shuffle.partitions": ("count", "lower", "query_p50_s", "scan_skew, rank_text"),
    "shuffle.skew": ("ratio", "lower", "docs_per_s", "scan_skew, job_resume"),
    "stitch.docs": ("docs", "lower", "query_p50_s", "rank_text, scan_skew"),
    "stitch.rows_in": ("rows", "lower", "query_p50_s", "rank_text, scan_skew"),
    "stitch.self_s": ("s", "lower", "query_p50_s", "rank_text, scan_skew"),
    "stitch.max_block_rows": ("rows", "lower", "query_p50_s", "rank_text, scan_skew"),
    "score.docs": ("docs", "lower", "query_p50_s", "rank_text"),
    "score.self_s": ("s", "lower", "query_p50_s", "rank_text"),
    "rank.self_s": ("s", "lower", "query_p50_s", "rank_text"),
    "checkpoint.shards_processed": ("count", "lower", "docs_per_s", "job_resume"),
    "checkpoint.shards_skipped": ("count", "higher", "docs_per_s", "job_resume"),
    "checkpoint.shard_wall_p50_s": ("s", "lower", "docs_per_s", "job_resume"),
    "checkpoint.commit_s": ("s", "lower", "docs_per_s", "job_resume"),
    "checkpoint.noop_rerun_s": ("s", "lower", "docs_per_s", "job_resume"),
    "checkpoint.bytes_written": ("bytes", "lower", "docs_per_s", "job_resume"),
    "oracle.docs_per_s": ("docs/s", "higher", "none: single-process baseline", "all"),
    "ray.session_start_s": ("s", "lower", "setup_s", "all"),
    "ray.tasks": ("count", "lower", "docs_per_s", "all"),
    "ray.actors_started": ("count", "lower", "docs_per_s", "all"),
    "client.wait_s": ("s", "lower", "query_p50_s", "scan_skew, rank_text"),
    "trace.overhead_frac": ("fraction", "lower", "none: cost of tracing", "all"),
}


def _unit_of(spans: list) -> dict:
    """Client span id → id of the enclosing ``unit`` span (or None)."""
    parent = {s["id"]: s.get("parent") for s in spans if "id" in s}
    units = {s["id"] for s in spans if s.get("name") == "unit"}
    out = {}
    for sid in parent:
        cur = sid
        while cur is not None and cur not in units:
            cur = parent.get(cur)
        out[sid] = cur
    return out


def per_layer(spans: list, unit_ops: list, extra: dict) -> dict:
    """Per-layer metrics from the traced run's spans, the parsed
    ``Dataset.stats()`` of each traced unit (``unit_ops``, one list of
    operators per unit) and run-level values measured by the caller
    (``extra``). A layer the workload does not use reports 0."""
    import statistics

    n = max(1, len(unit_ops))
    unit_of = _unit_of(spans)
    selfs = self_times(spans)
    in_units = [s for s in spans
                if unit_of.get(s.get("id") or s.get("parent")) is not None]

    def of(name):
        return [s for s in in_units if s["name"] == name]

    def dur(ss):
        return sum(s["end"] - s["start"] for s in ss)

    def tot(ss, key):
        return sum(s.get(key, 0) for s in ss)

    ops = [op for unit in unit_ops for op in unit]

    def op_sum(key, pred):
        return sum(op[key] for op in ops if pred(op))

    def is_shuffle(op):
        return "key_columns=('doc_id',)" in op["name"]

    explode, ocr, stitch, score = of("explode"), of("ocr"), of("stitch"), of("score")
    ocr_pids: dict = {}  # pipeline span → its OCR actor processes
    for s in ocr:
        ocr_pids.setdefault(s["parent"], set()).add(s["pid"])
    stitch_rows: dict = {}
    for s in stitch:
        stitch_rows.setdefault(unit_of[s["parent"]], []).append(s["rows_in"])
    skews = [max(r) * len(r) / sum(r) for r in stitch_rows.values() if sum(r)]
    shuffle_busy = op_sum("remote_wall_s", lambda o: is_shuffle(o) and o["sub"])
    shuffle_wall = op_sum("wall_s", lambda o: is_shuffle(o) and not o["sub"])
    parts = [int(m) for o in ops if is_shuffle(o) and not o["sub"]
             for m in re.findall(r"num_partitions=(\d+)", o["name"])]
    stitch_s, score_s = dur(stitch), dur(score)
    fused_post = op_sum("udf_s", lambda o: not o["sub"] and (
        "ok_rows" in o["name"] or "_blk" in o["name"]))
    rank_s = (sum(selfs[s["id"]] for s in of("rank"))
              + max(0.0, fused_post - stitch_s - score_s)
              + op_sum("remote_wall_s", lambda o: o["name"] == "RepartitionReduce"))
    write_udf = op_sum("udf_s", lambda o: not o["sub"] and "Write" in o["name"])
    ckpt = of("checkpoint")
    media_units = tot(ocr, "media_units")
    inits = of("ocr.init")
    m = {
        "io.store_build_s": statistics.median(
            [s["end"] - s["start"] for s in spans if s["name"] == "io.store_build"] or [0.0]),
        "io.read_s": (dur(of("io.read"))
                      + op_sum("remote_wall_s", lambda o: "ReadParquet" in o["name"])) / n,
        "io.read_rows": op_sum("rows", lambda o: "ReadParquet" in o["name"]) / n,
        "explode.calls": len(explode) / n,
        "explode.rows_in": tot(explode, "rows_in") / n,
        "explode.units_out": tot(explode, "rows_out") / n,
        "explode.self_s": dur(explode) / n,
        "ocr.calls": len(ocr) / n,
        "ocr.units": tot(ocr, "rows_in") / n,
        "ocr.media_units": media_units / n,
        "ocr.pages": tot(ocr, "pages") / n,
        "ocr.self_s": dur(ocr) / n,
        "ocr.ms_per_media_unit": 1000.0 * dur(ocr) / media_units if media_units else 0.0,
        "ocr.actors_max": max((len(p) for p in ocr_pids.values()), default=0),
        "ocr.actor_init_s": dur(inits) / len(inits) if inits else 0.0,
        "shuffle.rows": op_sum("rows", lambda o: is_shuffle(o) and o["name"].endswith("_shuffle")) / n,
        "shuffle.bytes": op_sum("bytes", lambda o: is_shuffle(o) and o["name"].endswith("_shuffle")) / n,
        "shuffle.busy_s": shuffle_busy / n,
        "shuffle.wait_s": max(0.0, shuffle_wall - shuffle_busy) / n,
        "shuffle.partitions": statistics.mean(parts) if parts else 0.0,
        "shuffle.skew": statistics.mean(skews) if skews else 0.0,
        "stitch.docs": tot(stitch, "rows_out") / n,
        "stitch.rows_in": tot(stitch, "rows_in") / n,
        "stitch.self_s": stitch_s / n,
        "stitch.max_block_rows": max((s["rows_in"] for s in stitch), default=0),
        "score.docs": tot(score, "rows_in") / n,
        "score.self_s": score_s / n,
        "rank.self_s": rank_s / n,
        "checkpoint.shards_processed": tot(ckpt, "processed") / n,
        "checkpoint.shards_skipped": tot(ckpt, "skipped") / n,
        "checkpoint.commit_s": max(0.0, write_udf - stitch_s) / n if ckpt else 0.0,
        "ray.tasks": op_sum("tasks", lambda o: True) / n,
        "client.wait_s": op_sum("wall_s", lambda o: o["name"] == "iter.blocked") / n,
    }
    m.update(extra)
    return {name: m.get(name, 0.0) for name in LAYER_METRICS}
