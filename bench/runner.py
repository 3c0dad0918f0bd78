"""Run one job in a child process forked from the benchmark process.

The benchmark process imports ``openstrings`` once and then forks a child
per job, so every job starts from freshly imported program state, as a
CLI call does, without paying interpreter start-up.  The child sends its
exit status, stdout, stderr and (when traced) its span summary back
through a pipe and leaves with ``os._exit``; the parent reads the pipe to
the end and reaps the child, taking CPU time and peak RSS from ``wait4``.
"""

from __future__ import annotations

import gc
import io
import json
import os
import select
import signal
import sys
import time
import traceback
from fractions import Fraction

import spans

JOB_TIMEOUT_S = 90
UNEXPECTED = 99


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cli(mods, job):
    return mods["cli"].main(job["argv"])


def _homotopic_map(mods, job):
    ai = mods["ainfty"]
    obj = _load(job["path"])
    c = ai.assemble_differential(ai.datum_from_json(obj["target"]))
    cp = ai.assemble_differential(ai.datum_from_json(obj["source"]))
    h0 = ai.map_from_json({"H": obj["h0"]})
    k = ai.map_from_json({"K": obj["k"]})
    h1 = ai.homotopic_map(c, cp, h0, k)
    rows = sorted(({"inputs": list(e.inputs), "output": e.output,
                    "coeff": mods["novikov"].format_series(e.coeff)} for e in h1.h),
                  key=lambda r: (r["inputs"], r["output"]))
    sys.stdout.write(json.dumps(rows, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def _invert(mods, job):
    nov = mods["novikov"]
    obj = _load(job["path"])
    a = nov.parse_series(obj["series"], ring=obj["ring"])
    sys.stdout.write(nov.format_series(nov.invert(a, Fraction(obj["cutoff"]))) + "\n")
    return 0


CALLS = {"cli": _cli, "homotopic_map": _homotopic_map, "invert": _invert}


def _child(mods, job, trace, fd):
    code, out, err, summary = UNEXPECTED, "", "", None
    buf_out, buf_err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = buf_out, buf_err
    try:
        rec = spans.install(job["id"], mods) if trace else None
        try:
            code = CALLS[job["call"]](mods, job)
        except SystemExit as exc:          # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            if rec is not None:
                summary = rec.finish()
        out, err = buf_out.getvalue(), buf_err.getvalue()
    except BaseException:
        code, out, err = UNEXPECTED, buf_out.getvalue(), traceback.format_exc()
    msg = json.dumps({"code": code, "out": out, "err": err, "trace": summary})
    with os.fdopen(fd, "wb") as fh:
        fh.write(msg.encode())
    os._exit(code & 0xFF)


def run(mods, job, trace=False, timeout=JOB_TIMEOUT_S):
    """Fork, run ``job`` in the child, wait for it; returns a result dict.

    A child still running after ``timeout`` seconds is killed and the job
    counts as failed.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    # A CLI process starts with only the imported modules on its heap.  Move
    # everything this process holds to the permanent generation, so the
    # child's collections never walk the benchmark's own objects and start
    # from the same counts every time.
    gc.freeze()
    rfd, wfd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        try:
            _child(mods, job, trace, wfd)
        finally:
            os._exit(UNEXPECTED)
    os.close(wfd)
    chunks, timed_out, finished = [], False, False
    try:
        with os.fdopen(rfd, "rb") as fh:
            deadline = start + timeout
            while True:
                left = deadline - time.perf_counter()
                if left <= 0 or not select.select([fh], [], [], left)[0]:
                    timed_out = True
                    os.kill(pid, signal.SIGKILL)
                    break
                chunk = os.read(fh.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        finished = True
    finally:
        if not finished:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    base = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}
    if timed_out or not chunks:
        why = "timed out" if timed_out else f"child died with status {status}"
        return dict(base, code=UNEXPECTED, out="", err=why, trace=None)
    msg = json.loads(b"".join(chunks))
    if os.waitstatus_to_exitcode(status) != msg["code"] & 0xFF:
        msg["err"] += f"\nexit status {status} disagrees with {msg['code']}"
        msg["code"] = UNEXPECTED
    return dict(base, **msg)
