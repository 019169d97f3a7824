"""Benchmark of birkhoffsym: time to verdict, end to end and per layer.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --all --seed N [--seconds S]

Run from the repository root.  One run is a fixed number of rounds, one
after another; before each round this process writes that round's inputs,
drawn from the seed.  A round is one fresh worker process (PYTHONPATH=src)
that imports the package and runs the workload's task list once, closed
loop: one client, one task at a time.  The number of rounds is the run's
length in seconds divided by the workload's nominal round time, so both
sides of a comparison do identical work; only on a host so slow that the
run has already taken LATE_FACTOR times its length are no more rounds
started.  Every task's output is checked after its worker has exited.

The host's speed drifts, so before the first task and after every task
the worker pauses while this process times a fixed reference
(`reference.py`); each reported time is scaled by REFERENCE_S over the
reference time measured next to it, i.e. given at the reference host's
speed.  The uncorrected figures are printed too.

With --trace 0 the last line reports the end-to-end metrics (medians over
rounds; latency percentiles over all tasks of the run).  With --trace 1,
odd rounds run with the per-layer tracer installed and even rounds
without it; the last line reports the per-layer metrics of the traced
rounds and the tracing overhead.  --all runs every workload both ways and
prints all metrics by name and unit, fail_frac included.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Checker
from inputs import WORKLOADS, write_workload
from reference import Reference

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path("bench") / ".work"

# Fixes the number of rounds per run: round(seconds / nominal).  At 30 s
# that is 18, 6 and 20 rounds, which puts task_ms_tail inside the samples
# of one task (the middle of verify-symmetry-group 4's, of cd-lattice S_5
# and sn-cent-est 5's, of uniqueness n = 4's) rather than at the edge
# between two tasks.  On the 2-vCPU Intel Xeon host with Python 3.11.7
# where the benchmark was defined, a 30 s run takes 25 to 45 s.
NOMINAL_ROUND_S = {"bn-symmetry": 1.65, "group-tables": 5.0, "rep-hull": 1.5}
MIN_ROUNDS = 2
# A run starts no new round once it has taken LATE_FACTOR times its
# length, so that a long spell of a slow host cannot stretch the
# benchmark's runs past their time limit.  A 30 s run normally takes 25 to
# 45 s, so this only cuts runs on a host far slower than usual.
LATE_FACTOR = 1.6
# Reported times are given at the speed of a host on which one
# reference.Reference.time takes REFERENCE_S: each is scaled by REFERENCE_S
# over the reference time measured next to it (on that host, 4 to 9 ms).
REFERENCE_S = 0.005
RUN_DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = (("wall_s", "s"), ("task_ms_p50", "ms"), ("task_ms_tail", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

LAYER_METRICS = (
    "exact.rank.calls", "exact.rank.ms", "exact.inverse.calls",
    "exact.inverse.ms", "exact.dot.calls", "exact.dot.ms",
    "exact.primitive_vector.calls", "exact.primitive_vector.ms",
    "exact.affine_dimension.calls", "exact.affine_dimension.ms",
    "exact.vec_sub.calls", "exact.as_fraction_vector.calls",
    "exact.parse_rational.calls", "exact.parse_rational.ms",
    "exact.format_rational.calls", "exact.format_rational.ms",
    "exact.self_ms",
    "hull.facet_enumeration.calls", "hull.facet_enumeration.ms",
    "hull.facet_enumeration.facets", "hull.incidence_of.calls",
    "hull.incidence_of.ms", "hull.certify_vertices.calls",
    "hull.certify_vertices.ms", "hull.polytope_from_document.ms",
    "hull.polytope_to_document.ms", "hull.self_ms",
    "combiso.comb_automorphisms.calls", "combiso.comb_automorphisms.ms",
    "combiso.comb_automorphisms.found", "combiso.comb_equivalent.calls",
    "combiso.comb_equivalent.ms", "combiso.comb_equivalent.hit_ratio",
    "combiso.self_ms",
    "birkhoff.sn_enumeration.calls", "birkhoff.sn_enumeration.ms",
    "birkhoff.permutation_matrix.calls", "birkhoff.permutation_matrix.ms",
    "birkhoff.birkhoff_vertices.calls", "birkhoff.birkhoff_vertices.ms",
    "birkhoff.analytic_facet_sets.calls", "birkhoff.analytic_facet_sets.ms",
    "birkhoff.decompose_symmetry.calls", "birkhoff.decompose_symmetry.ms",
    "birkhoff.reconstruct_symmetry.calls", "birkhoff.reconstruct_symmetry.ms",
    "birkhoff.inversion_vertex_map.calls", "birkhoff.inversion_vertex_map.ms",
    "birkhoff.verify_intersection_table.ms",
    "birkhoff.verify_transformation_law.ms",
    "birkhoff.verify_symmetry_group.ms", "birkhoff.self_ms",
    "perm.parse_cycles.calls", "perm.parse_cycles.ms", "perm.closure.calls",
    "perm.closure.ms", "perm.closure.elements", "perm.symmetric_group.calls",
    "perm.symmetric_group.ms", "perm.indexed.calls", "perm.indexed.ms",
    "perm.indexed.hit_ratio", "perm.all_subgroups.calls",
    "perm.all_subgroups.ms", "perm.all_subgroups.subgroups",
    "perm.regular_subgroups.calls", "perm.regular_subgroups.ms",
    "perm.group_from_generator_lines.calls",
    "perm.group_from_generator_lines.ms", "perm.self_ms",
    "gamma.left_translation.calls", "gamma.left_translation.ms",
    "gamma.right_translation.calls", "gamma.right_translation.ms",
    "gamma.inversion_map.calls", "gamma.inversion_map.ms",
    "gamma.build_gamma.calls", "gamma.build_gamma.ms", "gamma.center.calls",
    "gamma.center.ms", "gamma.is_elementary_abelian_2.ms",
    "gamma.automorphisms.calls", "gamma.automorphisms.ms",
    "gamma.verify_wreath_quotient.ms", "gamma.commuting_regular_pairs.ms",
    "gamma.normalizer_in_full_symmetric.ms", "gamma.self_ms",
    "cd.cd_lattice.ms", "cd.verify_centralizer_estimate.ms", "cd.self_ms",
    "reppoly.matrix_closure.calls", "reppoly.matrix_closure.ms",
    "reppoly.matrix_closure.elements", "reppoly.matrix_from_rows.calls",
    "reppoly.matrix_from_rows.ms", "reppoly.matrix_group_from_document.calls",
    "reppoly.matrix_group_from_document.ms",
    "reppoly.representation_polytope.calls",
    "reppoly.representation_polytope.ms",
    "reppoly.translation_vertex_maps.ms", "reppoly.verify_gamma_acts.ms",
    "reppoly.uniqueness_check.ms", "reppoly.self_ms",
    "reports.render_report.ms", "reports.jsonable.calls",
    "reports.jsonable.ms", "reports.self_ms",
    "cli.main.ms", "cli.build_parser.ms", "cli.verify-symmetry-group.ms",
    "cli.verify-transform.ms", "cli.verify-table.ms", "cli.decompose.ms",
    "cli.hull.ms", "cli.regular-pairs.ms", "cli.wreath.ms",
    "cli.normalizer.ms", "cli.cd-lattice.ms", "cli.sn-cent-est.ms",
    "cli.rep-polytope.ms", "cli.self_ms",
    "py.gc.collections", "py.gc.pause_ms",
    "bench.trace_overhead_s",
)


def layer_unit(name: str) -> str:
    if name.endswith(("ms", "self_ms")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def is_exact(name: str) -> bool:
    """Machine-independent work counts: equal on two runs of one seed."""
    return name.endswith((".calls", ".found", ".facets", ".elements",
                          ".subgroups"))


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it
    (nearest-rank), or 50 when there are too few samples for a tail."""
    for p in range(99, 50, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p * len(sorted_values) / 100) - 1)]


def run_round(tasks_path: Path, out_path: Path, hash_seed: int, trace: bool,
              deadline: float, reference: Reference):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"]
                                 if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    probe_r, probe_w = os.pipe()
    resume_r, resume_w = os.pipe()
    err_path = out_path.with_suffix(".stderr")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(tasks_path),
           str(out_path), "1" if trace else "0", str(probe_w), str(resume_r)]
    reference_s = []
    with open(err_path, "w") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                stderr=err, pass_fds=(probe_w, resume_r))
    os.close(probe_w)
    os.close(resume_r)
    try:
        # The worker stops at each probe until the reference has been timed.
        while True:
            ready, _, _ = select.select([probe_r], [], [],
                                        max(0.0, deadline - time.monotonic()))
            if not ready:
                raise RuntimeError("round ran past the run's deadline")
            if not os.read(probe_r, 1):
                break
            reference_s.append(reference.time())
            os.write(resume_w, b"r")
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        os.close(probe_r)
        os.close(resume_w)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           + err_path.read_text().strip()[-500:])
    doc = json.loads(out_path.read_text())
    doc["reference_s"] = reference_s
    correct_for_host_speed(doc, doc["ready"] - spawn)
    return doc


def correct_for_host_speed(doc: dict, raw_setup_s: float) -> None:
    """Scale the round's times to the reference host's speed.

    `reference_s[k]` is the reference timed just before task k (and, for
    the last entry, after the last task).  A task's factor is
    REFERENCE_S over the mean of the reference times just before and just
    after it; set-up uses the median of the first three, traced layer
    times the round's median."""
    ref = doc["reference_s"]
    raw = doc["latency_s"]
    doc["task_s"] = [x * REFERENCE_S * 2 / (ref[i] + ref[i + 1])
                     for i, x in enumerate(raw)]
    doc["wall_s"] = sum(doc["task_s"])
    doc["raw_wall_s"] = sum(raw)
    doc["setup_s"] = raw_setup_s * REFERENCE_S / statistics.median(ref[:3])
    doc["raw_setup_s"] = raw_setup_s
    doc["host_slowness"] = statistics.median(ref) / REFERENCE_S
    for name, value in doc.get("layers", {}).items():
        if name.endswith("ms"):
            doc["layers"][name] = value / doc["host_slowness"]


def pin_to_one_cpu() -> None:
    """Keep this process and its workers on one CPU, so the reference is
    timed on the CPU that runs the tasks.  The two take turns, never run
    at once, and the other CPUs are left free."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pin_to_one_cpu()
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    checker = Checker()
    reference = Reference()
    rounds = rounds_for(workload, seconds)
    plain, traced, failures = [], [], []
    attempted = 0
    try:
        for r in range(rounds):
            late = time.monotonic() - start > LATE_FACTOR * seconds
            if r >= MIN_ROUNDS and late:
                rounds = r
                break
            use_trace = trace and r % 2 == 1
            # Each round draws its own inputs from the seed, so a run averages
            # over many inputs, and its own hash seed, because set iteration
            # order steers the searches.  A traced round repeats its untraced
            # partner's draw, so the tracing overhead compares like with like.
            draw = r // 2 if trace else r
            inputs_dir = work / f"inputs{draw}"
            tasks = write_workload(workload, seed, inputs_dir, draw)
            doc = run_round(inputs_dir / "tasks.json", work / f"round{r}.json",
                            draw + 1, use_trace, deadline, reference)
            for task, outcome in zip(tasks, doc.pop("outcomes")):
                attempted += 1
                reason = checker.check(task, outcome)
                if reason is not None:
                    failures.append(f"round {r} task {task['id']}: {reason}")
            (traced if use_trace else plain).append(doc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"workload": workload, "seed": seed, "rounds": rounds,
              "attempted": attempted, "failures": failures,
              "run_s": time.monotonic() - start}
    latencies = sorted(x for doc in plain for x in doc["task_s"])
    p_tail = tail_percentile(len(latencies))
    result["tail"] = {"percentile": p_tail, "tasks": len(latencies),
                      "beyond": len(latencies) - math.ceil(p_tail * len(latencies) / 100)}
    result["end_to_end"] = {
        "wall_s": statistics.median(d["wall_s"] for d in plain),
        "task_ms_p50": 1000 * statistics.median(latencies),
        "task_ms_tail": 1000 * nearest_rank(latencies, p_tail),
        "setup_s": statistics.median(d["setup_s"] for d in plain),
        "peak_rss_mb": statistics.median(d["rss_kb"] / 1024 for d in plain),
        "fail_frac": len(failures) / attempted,
    }
    result["uncorrected"] = {
        "wall_s": statistics.median(d["raw_wall_s"] for d in plain),
        "setup_s": statistics.median(d["raw_setup_s"] for d in plain),
        "host_slowness": statistics.median(d["host_slowness"] for d in plain),
    }
    record = {"per_round": [{k: d[k] for k in (
        "wall_s", "raw_wall_s", "setup_s", "raw_setup_s", "task_s", "latency_s",
        "reference_s", "rss_kb")} for d in plain]}
    if trace:
        result.update(layer_metrics(plain, traced))
        record["exact"] = [m for m in LAYER_METRICS if is_exact(m)]
        record["traced_rounds"] = [{"wall_s": d["wall_s"], "layers": d["layers"],
                                    "spans": d["spans"]} for d in traced]
    # Spans and per-round samples stay in memory until here.
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    result["record"] = str(WORK_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json")
    Path(result["record"]).write_text(json.dumps(dict(result, **record)))
    return result


def layer_metrics(plain, traced) -> dict:
    """Per-layer numbers of the traced rounds: times are medians over the
    traced rounds; counts come from the first one, because each round
    draws its own inputs and some counts depend on them."""
    per_round = [d["layers"] for d in traced]
    first = per_round[0]
    for layers in per_round:
        if "combiso.comb_equivalent.hits" in layers:
            eq = layers["combiso.comb_equivalent.calls"]
            layers["combiso.comb_equivalent.hit_ratio"] = (
                layers["combiso.comb_equivalent.hits"] / eq if eq else 0.0)
    out, absent, input_dependent = {}, [], []
    for name in LAYER_METRICS:
        if name == "bench.trace_overhead_s":
            continue
        if name not in first:
            absent.append(name)
            out[name] = 0
        elif is_exact(name):
            out[name] = first[name]
            if any(layers.get(name) != first[name] for layers in per_round):
                input_dependent.append(name)
        else:
            out[name] = statistics.median(layers[name] for layers in per_round)
    out["bench.trace_overhead_s"] = (
        statistics.median(d["wall_s"] for d in traced)
        - statistics.median(d["wall_s"] for d in plain))
    return {"layers": out, "absent": absent, "input_dependent_counts": input_dependent}


def final_line(result: dict, trace: bool) -> str:
    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": layer_unit(name)}
                   for name in LAYER_METRICS}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    failed = len(result["failures"])
    return json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                       "failed": failed, "metrics": metrics})


def describe(result: dict, trace: bool) -> list[str]:
    """Human-readable lines printed before the result line."""
    e2e = result["end_to_end"]
    tail = result["tail"]
    lines = [f"# {result['workload']} seed={result['seed']} "
             f"rounds={result['rounds']} run_s={result['run_s']:.1f}"]
    if trace:
        lines.append(f"# trace overhead {result['layers']['bench.trace_overhead_s']:+.4f} s "
                     "per round")
        if result["absent"]:
            lines.append("# absent: " + " ".join(result["absent"]))
        if result["input_dependent_counts"]:
            lines.append("# counts that vary with the round's inputs (reported "
                         "from the first traced round): "
                         + " ".join(result["input_dependent_counts"]))
    else:
        for name, unit in END_TO_END + (("fail_frac", "ratio"),):
            lines.append(f"{name} = {e2e[name]:.6g} {unit}")
        lines.append(f"# task_ms_tail is p{tail['percentile']} of {tail['tasks']} "
                     f"tasks ({tail['beyond']} beyond it)")
        raw = result["uncorrected"]
        lines.append(f"# before host-speed correction: wall_s = {raw['wall_s']:.6g} s, "
                     f"setup_s = {raw['setup_s']:.6g} s; host slowness "
                     f"{raw['host_slowness']:.3f} x reference")
    lines.extend(f"# FAIL {f}" for f in result["failures"][:20])
    lines.append(f"# record: {result['record']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path("src") / "birkhoffsym" / "__init__.py").is_file():
        print("bench: run from the repository root; src/birkhoffsym not found",
              file=sys.stderr)
        return 2
    if args.all:
        for workload in WORKLOADS:
            for trace in (False, True):
                result = run_workload(workload, args.seed, args.seconds, trace)
                print("\n".join(describe(result, trace)))
                if trace:
                    for name in LAYER_METRICS:
                        value = result["layers"][name]
                        if value:
                            mark = " (exact)" if is_exact(name) else ""
                            print(f"  {name} = {value:.6g} {layer_unit(name)}{mark}")
        return 0
    if args.workload is None:
        parser.error("--workload or --all is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(describe(result, bool(args.trace))))
    print(final_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
