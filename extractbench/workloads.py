"""The three workloads: seeded corpora, set-up, timed units, oracle checks.

Each workload runs in a fixed 4-CPU Ray session (the smallest session that
takes the production ``repartition`` stitch path; a 1-CPU session never
finishes a pipeline). The load generator is this single-threaded client process.

Corpus sizes are chosen so that per-doc work, not the fixed cost of launching
pipelines, is the larger share of a unit. On a 4-vCPU VM (median of 3 warm
units) a unit over 20 docs took 2.5 s on scan_skew and rank_text and 5.3 s on
job_resume (two shard pipelines, a no-op re-run, a read-back); at the sizes
below units took 8.4 / 7.3 / 12.0 s, so per-doc work was 0.70 / 0.65 / 0.56
of a unit.

A *unit* is one blocking request of the workload, timed from submit until
its result is in hand: one extraction pass over the corpus (``scan_skew``),
one ranked job query (``rank_text``), or one kill / resume / re-run / read
cycle (``job_resume``). Every unit's output is compared with the
single-process oracle ``core.extract.extract_table``, computed before the
timed window.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext

import numpy as np
import pyarrow as pa

from resume_ocr_ray.core import corpus as CORPUS
from resume_ocr_ray.core import extract as X
from resume_ocr_ray.core import llm as L
from resume_ocr_ray.core import schema as S
from resume_ocr_ray.engine import checkpoint as CK
from resume_ocr_ray.engine import io as EIO
from resume_ocr_ray.engine import pipeline as P

from . import layers

RAY_CPUS = 4
OBJECT_STORE_BYTES = 512 << 20
#: seconds between samples of the process tree's memory
RSS_SAMPLE_S = 0.2
TOP_K = 5

SCAN_DOCS = 3600
RANK_DOCS = 2400
JOB_DOCS = 7200
#: input shards per workload; job_resume is killed after half of them
SHARDS = {"scan_skew": 4, "rank_text": 4, "job_resume": 2}


# ---------------------------------------------------------------------------
# seeded corpora
# ---------------------------------------------------------------------------

def _docs_table(ids, spans) -> pa.Table:
    return pa.Table.from_pydict({"doc_id": ids, "spans": spans},
                                schema=S.DOCUMENTS_SCHEMA)


def build_scan_skew(seed: int, n: int = SCAN_DOCS):
    """Scanned 3-8 page PDFs (``multipage_media``) and single-page image
    resumes, half and half as ``corpus_from_documents`` draws them, plus 1%
    of 100-page docs at seeded positions."""
    rng = np.random.default_rng(seed)
    n_skew = max(1, n // 100)
    skew_at = set(rng.choice(n, size=n_skew, replace=False).tolist())
    ids, spans, media = [], [], []
    for i in range(n):
        doc_id = f"scan-{seed}-{i:05d}"
        if i in skew_at:
            sp, rows = CORPUS.make_skew_doc(doc_id, n_pages=100)
        else:
            family = "multipage_media" if rng.random() < 0.5 else "media_only_single"
            sp, rows = CORPUS._build_doc(doc_id, family, CORPUS._rng_for(doc_id))
        ids.append(doc_id)
        spans.append(sp)
        media.extend(rows)
    return _docs_table(ids, spans), CORPUS._media_table(media)


def _rank_vocab() -> list:
    return list(CORPUS._VOCAB) + [f"skill{k:03d}" for k in range(400)]


def build_rank_text(seed: int, n: int = RANK_DOCS):
    """Text-only docs stored in shuffled span order. A doc has as many words
    as the fixture's ``text_only`` family (3-10 spans of 20-60 words), cut
    into resume lines of 2-6 words: 45-85 spans (quartiles). Words follow
    Zipf's law (exponent 1.1, near natural text's 1) over the fixture's 44
    resume words plus 400 rarer skill tokens, so docs differ in which skills
    they name."""
    rng = np.random.default_rng(seed)
    vocab = _rank_vocab()
    rng.shuffle(vocab)
    ids, spans = [], []
    for i in range(n):
        n_words = sum(int(rng.integers(20, 61))
                      for _ in range(int(rng.integers(3, 11))))
        ranks = np.minimum(rng.zipf(1.1, size=n_words), len(vocab)) - 1
        words = [vocab[r] for r in ranks]
        doc, at = [], 0
        while at < n_words:
            k = int(rng.integers(2, 7))
            doc.append({"kind": "text", "media_ref": "", "offset": len(doc),
                        "text": " ".join(words[at:at + k])})
            at += k
        ids.append(f"rank-{seed}-{i:05d}")
        spans.append([doc[j] for j in rng.permutation(len(doc))])
    return _docs_table(ids, spans), CORPUS._media_table([])


def rank_queries(seed: int, count: int) -> list:
    """Distinct seeded job queries of 3-6 words (the engine's own bench
    query has 5), drawn uniformly from the vocabulary. Over 1600 docs a
    median of 4 docs shares a query's top score; Zipf-drawn queries would
    name the common words every doc has and tie ~280 docs at the top."""
    rng = np.random.default_rng(seed + 1_000_003)
    vocab = _rank_vocab()
    out, seen = [], set()
    while len(out) < count:
        q = " ".join(vocab[j] for j in rng.integers(0, len(vocab), int(rng.integers(3, 7))))
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


def build_job_resume(seed: int, n: int = JOB_DOCS):
    """All ten fixture families (error rows, HTML pages, bad refs) plus the
    100-page skew doc."""
    return CORPUS.generate_corpus(n, seed)


BUILDERS = {"scan_skew": build_scan_skew, "rank_text": build_rank_text,
            "job_resume": build_job_resume}


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------

def _doc_key(spans_out, error):
    return (tuple((s["kind"], s["text"], s["media_ref"], s["offset"])
                  for s in spans_out or []), error)


def expected_docs(oracle: pa.Table) -> dict:
    return {r["doc_id"]: _doc_key(r["spans_out"], r["error"])
            for r in oracle.to_pylist()}


def count_doc_failures(rows: list, expected: dict) -> int:
    """Docs whose spans or error differ from the oracle, plus docs missing
    from or duplicated in the output."""
    seen, failed = set(), 0
    for r in rows:
        doc_id = r["doc_id"]
        if doc_id in seen or expected.get(doc_id) != _doc_key(r["spans_out"], r["error"]):
            failed += 1
        seen.add(doc_id)
    return failed + len(set(expected) - seen)


def oracle_topk(doc_texts: dict, query: str, k: int = TOP_K) -> list:
    """The oracle ranking: successful docs by score desc, doc_id asc, as
    (doc_id, score, summary). The summary opens with the doc's first 120
    characters, so it also checks the span order of the ranked docs."""
    scored = []
    for doc_id, text in doc_texts.items():
        res = L.analyze(text, query)
        if not isinstance(res, L.AnalysisError):
            scored.append((-(res.score or 0.0), doc_id, res.summary))
    return [(d, -s, summary) for s, d, summary in sorted(scored)[:k]]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Shared state of one workload run. ``unit`` returns (latency_s, docs,
    attempted, failed, datasets executed); ``verify`` checks what the units
    do not, outside the timed window, and returns (attempted, failed)."""

    def __init__(self, corpus_dir: str, docs: pa.Table, oracle: pa.Table,
                 seed: int, work: str):
        self.docs_dir = os.path.join(corpus_dir, "documents")
        self.media_dir = os.path.join(corpus_dir, "media")
        self.n_docs = docs.num_rows
        self.expected = expected_docs(oracle)
        self.seed = seed
        self.work = work
        self.store = None
        self.trace = False

    def verify(self):
        return 0, 0


class ScanSkew(Workload):
    def _pass(self):
        ds = P.extraction_pipeline(EIO.read_documents_sharded(self.docs_dir),
                                   self.store)
        return ds, ds.take_all()

    def warm(self):
        self._pass()

    def unit(self, i: int):
        t0 = time.monotonic()
        ds, rows = self._pass()
        lat = time.monotonic() - t0
        return lat, self.n_docs, self.n_docs, count_doc_failures(rows, self.expected), [ds]


class RankText(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.doc_texts = {d: "\n".join(s[1] for s in spans)
                          for d, (spans, err) in self.expected.items()
                          if err is None}
        self.queries = rank_queries(self.seed, 64)
        self.answers = []  # (query, top-k rows), checked after the timed window

    def _query(self, q: str):
        t0 = time.monotonic()
        if not L.validate_query(q):
            raise ValueError(f"query rejected: {q!r}")
        ds = P.rank_topk(P.extraction_pipeline(
            EIO.read_documents_sharded(self.docs_dir), self.store,
            analyzed=True, query=q), TOP_K)
        rows = ds.take_all()
        return time.monotonic() - t0, rows, ds

    def warm(self):
        self._query("warmup python backend")

    def unit(self, i: int):
        q = self.queries[i % len(self.queries)]
        lat, rows, ds = self._query(q)
        self.answers.append((q, [(r["doc_id"], r["score"], r["summary"])
                                 for r in rows]))
        return lat, self.n_docs, 1, 0, [ds]

    def verify(self):
        """Every doc's stitched spans, from the same read, explode, shuffle
        and stitch the queries run, unranked."""
        rows = P.extraction_pipeline(EIO.read_documents_sharded(self.docs_dir),
                                     self.store).take_all()
        return self.n_docs, count_doc_failures(rows, self.expected)

    def check_answers(self) -> int:
        failed = sum(got != oracle_topk(self.doc_texts, q) for q, got in self.answers)
        self.answers = []
        return failed


class JobResume(Workload):
    """Kill after half the shards, resume, re-run with every shard skipped,
    read back."""

    def __init__(self, *args):
        super().__init__(*args)
        self.shard_walls: list = []
        self.noop_s: list = []
        self.bytes_written: list = []

    def warm(self):
        out = os.path.join(self.work, "warm")
        CK.run_checkpointed(self.docs_dir, self.store, out, max_parts=1)
        CK.read_output(out).take_all()
        shutil.rmtree(out, ignore_errors=True)

    def unit(self, i: int):
        out = os.path.join(self.work, f"job-{i}")
        shards = SHARDS["job_resume"]
        half = shards // 2
        pipelines: list = []
        with _capture_pipelines(pipelines) if self.trace else nullcontext():
            t0 = time.monotonic()
            s1 = CK.run_checkpointed(self.docs_dir, self.store, out, max_parts=half)
            s2 = CK.run_checkpointed(self.docs_dir, self.store, out)
            t_noop = time.monotonic()
            s3 = CK.run_checkpointed(self.docs_dir, self.store, out)
            noop = time.monotonic() - t_noop
            ds = CK.read_output(out)
            rows = ds.take_all()
            lat = time.monotonic() - t0
        failed = count_doc_failures(rows, self.expected)
        if (len(s1["processed"]), len(s2["processed"]), len(s2["skipped"]),
                len(s3["processed"]), len(s3["skipped"])) != (
                half, shards - half, half, 0, shards):
            failed = self.n_docs  # the resume contract broke: trust no doc
        self.noop_s.append(noop)
        self.bytes_written.append(sum(
            os.path.getsize(os.path.join(dp, f))
            for dp, _, fs in os.walk(out) if "part=" in dp for f in fs))
        for m in os.listdir(os.path.join(out, "_manifest")):
            with open(os.path.join(out, "_manifest", m)) as f:
                self.shard_walls.append(json.load(f)["wall_sec"])
        shutil.rmtree(out, ignore_errors=True)
        return lat, self.n_docs, self.n_docs, failed, pipelines + [ds]


WORKLOADS = {"scan_skew": ScanSkew, "rank_text": RankText,
             "job_resume": JobResume}


# ---------------------------------------------------------------------------
# environment and process accounting
# ---------------------------------------------------------------------------

def cpu_stat() -> list:
    with open("/proc/stat") as f:
        return list(map(int, f.readline().split()[1:9]))


def cpu_share(s0: list, s1: list) -> dict:
    """Steal % and busy-core share over an interval, from /proc/stat."""
    d = [b - a for a, b in zip(s0, s1)]
    tot = max(1, sum(d))
    busy = d[0] + d[1] + d[2]  # user + nice + system
    return {"steal_pct": round(100 * d[7] / tot, 2),
            "idle_pct": round(100 * d[3] / tot, 2),
            "busy_cores": round((os.cpu_count() or 1) * busy / tot, 3)}


def descendants(pid: int) -> list:
    children: dict = {}
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(p))
    out, stack = [], [pid]
    while stack:
        for c in children.get(stack.pop(), []):
            out.append(c)
            stack.append(c)
    return out


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current RSS."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def rss_mb() -> float:
    """Sum of VmHWM over this client process and every live process under
    it (the Ray head processes and workers)."""
    total_kb = 0
    for pid in [os.getpid()] + descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


class PeakRss:
    """The highest ``rss_mb`` seen while the block runs, sampled from a
    thread. Shuffle actors and task workers come and go within a pipeline,
    so a single reading at the end would depend on which happen to be alive."""

    def __init__(self):
        self.peak = 0.0
        self._stop = threading.Event()

    def _sample(self):
        while True:
            self.peak = max(self.peak, rss_mb())
            if self._stop.wait(RSS_SAMPLE_S):
                return

    def __enter__(self):
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, rss_mb())


def environment(root: str) -> dict:
    """Machine and software identity. The commit is read from ``.git`` when
    the checkout has one; ``source_crc`` identifies the engine's code either
    way."""
    import zlib

    import pyarrow
    import ray

    crc = 0
    pkg = os.path.join(root, "resume_ocr_ray")
    for dp, _, fs in sorted(os.walk(pkg)):
        for fname in sorted(f for f in fs if f.endswith(".py")):
            with open(os.path.join(dp, fname), "rb") as f:
                crc = zlib.crc32(f.read(), crc)
    commit = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as f:
            ref = f.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as f:
                    commit = f.read().strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "ray_cpus": RAY_CPUS, "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "commit": commit,
            "source_crc": f"{crc:08x}"}


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs: list):
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are too few samples for one."""
    xs = sorted(xs)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    idx = n - 11
    return xs[idx], round(100.0 * (idx + 1) / n, 2)


def run(name: str, seed: int, seconds: float, trace: bool, root: str,
        work: str, ray_tmp: str) -> dict:
    import ray
    from ray.data import DataContext

    res = {"workload": name, "seed": seed, "env": environment(root)}
    tracer = layers.Tracer(os.path.join(work, "spans"), f"{name}-{seed}") if trace else None
    traced = tracer.installed if trace else nullcontext

    t = time.monotonic()
    docs, media = BUILDERS[name](seed)
    corpus_dir = os.path.join(work, "corpus")
    EIO.write_corpus(corpus_dir, docs, media, num_shards=SHARDS[name])
    res["generate_s"] = time.monotonic() - t

    lookup = dict(zip(media.column("media_ref").to_pylist(),
                      media.column("payload").to_pylist()))
    with traced():
        t = time.monotonic()
        oracle = X.extract_table(docs, lookup)
        oracle_s = time.monotonic() - t
    res["oracle_docs_per_s"] = docs.num_rows / oracle_s
    wl = WORKLOADS[name](corpus_dir, docs, oracle, seed, work)
    wl.trace = trace
    # peak memory is the engine's: drop the generator's and oracle's tables
    # and their high-water mark
    del docs, media, lookup, oracle
    gc.collect()
    reset_peak_rss()

    # set-up, cold: Ray start, store build, one warm-up pass
    with traced():
        t = time.monotonic()
        ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
                 logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES,
                 _temp_dir=ray_tmp)
        session_start_s = time.monotonic() - t
        DataContext.get_current().enable_progress_bars = False
        wl.store = EIO.ShardedParquetMediaStore.from_dir(wl.media_dir)
        wl.warm()
        setup_s = time.monotonic() - t
    res["ray_session_start_s"] = session_start_s

    attempted = failed = 0
    lats, docs_done, steal = [], [], []
    s0 = cpu_stat()
    t0 = time.monotonic()
    with PeakRss() as rss:
        while not lats or time.monotonic() - t0 < seconds:
            u0 = cpu_stat()
            lat, n, a, f, dsets = wl.unit(len(lats))
            steal.append(cpu_share(u0, cpu_stat())["steal_pct"])
            lats.append(lat)
            docs_done.append(n)
            attempted += a
            failed += f
    res["cpu"] = cpu_share(s0, cpu_stat())
    res["timed_s"] = time.monotonic() - t0
    a, f = wl.verify()
    attempted += a
    failed += f

    if trace:
        # the same number of units again, traced
        untraced_plan = _plans(dsets)
        actors0 = _actor_count()
        unit_ops, traced_lats = [], []
        with tracer.installed():
            for j in range(len(lats)):
                with tracer.span("unit"):
                    lat, n, a, f, dsets = wl.unit(len(lats) + j)
                traced_lats.append(lat)
                attempted += a
                failed += f
                unit_ops.append([op for d in dsets
                                 for op in layers.parse_stats(d.stats())])
        res["ray_actors_started"] = (_actor_count() - actors0) / len(lats)
        res["plan_untraced"] = untraced_plan
        res["plan_traced"] = _plans(dsets)
        res["plan_match"] = res["plan_untraced"] == res["plan_traced"]
        res["traced_latencies_s"] = traced_lats
        res["trace_overhead_frac"] = _median(traced_lats) / _median(lats) - 1.0
        tracer.close()
        # per-operator stats of each traced unit, beside the spans
        with open(os.path.join(tracer.span_dir, "operators.json"), "w") as f:
            json.dump(unit_ops, f)

    ray.shutdown()

    if isinstance(wl, RankText):
        failed += wl.check_answers()
    res["attempted"] = attempted
    res["failed"] = failed
    res["unit_latencies_s"] = lats
    res["unit_steal_pct"] = steal
    tail_s, res["query_tail_percentile"] = tail(lats)
    res["metrics"] = {
        "docs_per_s": _median(docs_done) / _median(lats),
        "query_p50_s": _median(lats),
        "query_tail_s": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": rss.peak,
        "failed_frac": failed / max(1, attempted),
    }
    if trace:
        extra = {
            "oracle.docs_per_s": res["oracle_docs_per_s"],
            "ray.session_start_s": session_start_s,
            "ray.actors_started": res["ray_actors_started"],
            "trace.overhead_frac": res["trace_overhead_frac"],
        }
        if isinstance(wl, JobResume):
            extra.update({
                "checkpoint.shard_wall_p50_s": _median(wl.shard_walls),
                "checkpoint.noop_rerun_s": _median(wl.noop_s),
                "checkpoint.bytes_written": _median(wl.bytes_written),
            })
        res["layers"] = layers.per_layer(
            layers.load_spans(tracer.span_dir), unit_ops, extra)
    return res


@contextmanager
def _capture_pipelines(sink: list):
    """Collect every Dataset ``extraction_pipeline`` builds inside the
    checkpoint runner (one per shard), for their stats and plans."""
    orig = P.extraction_pipeline

    def extraction_pipeline(*args, **kwargs):
        ds = orig(*args, **kwargs)
        sink.append(ds)
        return ds

    P.extraction_pipeline = extraction_pipeline
    try:
        yield
    finally:
        P.extraction_pipeline = orig


def _plans(dsets: list) -> list:
    return [layers.plan_signature(d) for d in dsets]


def _actor_count() -> int:
    from ray._private import state

    return len(state.actors())
