"""Run one benchmark workload and print its metrics.

    python3 extractbench/run.py --workload scan_skew --seed 1 --seconds 10 --trace 0

Run from the repository root. The workload runs in a child process under a
wall-clock timeout; this parent adopts every process the child's Ray session
leaves behind (it is a child subreaper) and stops them all before it exits,
so a run that hangs or crashes is reported as failed instead of stalling.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the gated end-to-end metrics of an untraced run; with
``--trace 1`` they are the per-layer metrics of a traced run. The line before
it holds the details: every end-to-end metric by name and unit (throughput,
median and tail latency with its percentile, set-up time, memory,
``failed_frac``), the environment with steal and busy cores, per-unit
latencies and steal, Ray start time, and for a traced run the plan check and
tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("scan_skew", "rank_text", "job_resume")

#: unit of every end-to-end metric an untraced run measures; all are printed
#: on the details line
END_TO_END = {"docs_per_s": "docs/s", "query_p50_s": "s", "query_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "fraction"}
#: the ones on the result line. Wall-clock throughput and latency are left
#: off: on a shared 4-vCPU host their spread across ten seeded runs followed
#: the hypervisor's steal (0-14%) and reached 0.34 of the median.
GATED = ("setup_s", "peak_rss_mb")

CHILD_TIMEOUT_S = 150
STOP_TIMEOUT_S = 20
#: Unix socket paths under the Ray temp dir must stay below 108 bytes
MAX_RAY_TMP_LEN = 44


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--ray-tmp", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _become_subreaper() -> None:
    """Orphans of the child (Ray head processes, workers) get reparented to
    this process, so they can all be found and stopped."""
    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stop_descendants() -> None:
    """SIGTERM, then SIGKILL, every process under this one; wait until all
    have ended."""
    from extractbench.workloads import descendants

    deadline = time.monotonic() + STOP_TIMEOUT_S
    sig = signal.SIGTERM
    while True:
        _reap()
        pids = descendants(os.getpid())
        if not pids:
            return
        if time.monotonic() > deadline - STOP_TIMEOUT_S / 2:
            sig = signal.SIGKILL
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes would not stop: {pids}")
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.1)


def _ray_tmp(work: str) -> str:
    path = os.path.join(work, "ray")
    if len(path) <= MAX_RAY_TMP_LEN:
        return path
    return tempfile.mkdtemp(prefix="xb-ray-")


def _child(args) -> None:
    from extractbench import workloads

    work = os.path.dirname(args.child)
    res = workloads.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), ROOT, work, args.ray_tmp)
    with open(args.child + ".tmp", "w") as f:
        json.dump(res, f)
    os.replace(args.child + ".tmp", args.child)


def _metric(res: dict, name: str) -> dict:
    return {"value": res["metrics"][name], "unit": END_TO_END[name]}


def _final(res: dict, trace: bool) -> dict:
    from extractbench.layers import LAYER_METRICS

    if trace:
        metrics = {name: {"value": res["layers"][name], "unit": spec[0]}
                   for name, spec in LAYER_METRICS.items()}
        correct = res["failed"] == 0 and res["plan_match"]
    else:
        metrics = {name: _metric(res, name) for name in GATED}
        correct = res["failed"] == 0
    return {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv) -> int:
    args = _parse(argv)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    if args.child:
        _child(args)
        return 0
    if not os.path.isdir(os.path.join(ROOT, "resume_ocr_ray")):
        print(f"no resume_ocr_ray package under {ROOT}: run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".xb")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ray_tmp = _ray_tmp(work)
    result_path = os.path.join(work, "result.json")
    log_path = os.path.join(work, "child.log")

    _become_subreaper()
    env = dict(os.environ, PYTHONPATH=ROOT)
    cmd = [sys.executable, os.path.abspath(__file__), "--child", result_path,
           "--ray-tmp", ray_tmp, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    timed_out = False
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            timed_out = True
        _stop_descendants()
        proc.wait()
    if not ray_tmp.startswith(work):
        shutil.rmtree(ray_tmp, ignore_errors=True)

    if os.path.exists(result_path):
        with open(result_path) as f:
            res = json.load(f)
        detail = {k: v for k, v in res.items() if k not in ("metrics", "layers")}
        detail["end_to_end"] = {name: _metric(res, name) for name in END_TO_END}
        print(json.dumps({"detail": detail}))
        print(json.dumps(_final(res, bool(args.trace))))
        return 0
    # the run hung or crashed: every doc it was given counts as failed
    with open(log_path) as f:
        sys.stderr.write(f.read()[-4000:])
    why = "timed out" if timed_out else f"exited with code {proc.returncode}"
    print(json.dumps({"detail": {"workload": args.workload, "seed": args.seed,
                                 "error": f"workload run {why}"}}))
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
