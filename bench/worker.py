"""One benchmark round in a fresh process: import the package, run the
workload's task list once, one task at a time, and write what happened.

    PYTHONPATH=src python3 bench/worker.py TASKS_JSON OUT_JSON TRACE(0|1) \
        PROBE_FD RESUME_FD

Set-up ends when `import birkhoffsym` and `load_exceptional_c6()` have
finished; the worker records that moment on the system-wide monotonic
clock so the parent can subtract its spawn time.  Each task is timed from
its call to its verdict (the `cli.main` return, with the report printed
into a buffer, or the library call's return).  Checking the outputs is
the parent's job and happens after this process has exited.

Before the first task and after every task the worker writes one byte to
the PROBE pipe and waits for one byte on the RESUME pipe; meanwhile the
parent times its host-speed reference (`reference.py`).
"""

import sys
import time

from birkhoffsym import cli, reppoly  # imports the whole package

reppoly.load_exceptional_c6()
READY = time.monotonic()

import contextlib  # noqa: E402  (after the set-up mark on purpose)
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


# A library task's time includes parsing its matrix-group documents, as a
# caller's would.
def _uniqueness(args):
    catalog = [reppoly.matrix_group_from_document(json.loads(Path(p).read_text()))
               for p in args["docs"]]
    return reppoly.uniqueness_check(args["n"], catalog)


def _gamma_acts(args):
    doc = json.loads(Path(args["doc"]).read_text())
    return reppoly.verify_gamma_acts(
        reppoly.matrix_group_from_document(doc).matrix_group)


LIBRARY_CALLS = {"uniqueness": _uniqueness, "gamma_acts": _gamma_acts}


def run_task(task):
    """Run one task; returns (seconds, raw outcome)."""
    out, err = io.StringIO(), io.StringIO()
    outcome = {}
    start = time.perf_counter()
    try:
        if task["kind"] == "cli":
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                outcome["rc"] = cli.main(task["argv"])
        else:
            outcome["result"] = LIBRARY_CALLS[task["call"]](task["args"])
    except SystemExit as exc:
        outcome["rc"] = exc.code
    except Exception:
        outcome["error"] = traceback.format_exc()
    seconds = time.perf_counter() - start
    outcome["stdout"] = out.getvalue()
    outcome["stderr"] = err.getvalue()[-2000:]
    if dataclasses.is_dataclass(outcome.get("result")):
        outcome["result"] = dataclasses.asdict(outcome["result"])
    return seconds, outcome


def probe_host_speed(probe_fd, resume_fd):
    """Let the parent time its reference while this process waits."""
    os.write(probe_fd, b"p")
    if os.read(resume_fd, 1) != b"r":
        raise RuntimeError("benchmark parent went away")


def main(tasks_path, out_path, trace, probe_fd, resume_fd):
    tasks = json.loads(Path(tasks_path).read_text())
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    latencies, outcomes = [], []
    probe_host_speed(probe_fd, resume_fd)
    for task in tasks:
        seconds, outcome = run_task(task)
        probe_host_speed(probe_fd, resume_fd)
        latencies.append(seconds)
        outcomes.append(outcome)
    doc = {"ready": READY, "latency_s": latencies, "outcomes": outcomes,
           "rss_kb": peak_rss_kb()}
    if tracer is not None:
        tracer.uninstall()
        doc["layers"] = tracer.summary()
        ratio = _hit_ratio(tracer.originals.get("perm.indexed"))
        if ratio is not None:
            doc["layers"]["perm.indexed.hit_ratio"] = ratio
        doc["spans"] = tracer.spans()
    with open(out_path, "w") as fh:
        json.dump(doc, fh, default=list)


def peak_rss_kb():
    """This process's peak resident set size.  On Linux `ru_maxrss` keeps
    the spawning parent's peak across exec, so read VmHWM, which belongs to
    this process's own address space."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _hit_ratio(cached):
    info = getattr(cached, "cache_info", None)
    if info is None:
        return None
    info = info()
    total = info.hits + info.misses
    return info.hits / total if total else 0.0


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1", int(sys.argv[4]),
         int(sys.argv[5]))
