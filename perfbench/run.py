"""qmspace benchmark: seeded closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload cli-batch|transport-mix|cd-check \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  One client runs the workload's fixed
operation list again and again for ``--seconds`` and checks every answer.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it runs each operation untraced and traced back to back and reports the
per-layer metrics and the tracing overhead.  A table goes to standard output, and
the last line is one JSON object: correct, attempted, failed, metrics.
Answers and spans are written under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOAD_NAMES = ("cli-batch", "transport-mix", "cd-check")
DEFAULT_SEED = 0
#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 9
#: passes a run makes even when one outlasts --seconds; a traced run's
#: first two passes put the traced and the untraced run of each
#: operation first once each
MIN_PASSES = 2

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", metavar="DIR", default=None,
                    help=argparse.SUPPRESS)  # internal: one timed set-up
    return ap.parse_args(argv)


# ----------------------------------------------------------------- set-up

def probe(args) -> int:
    """Child side of a set-up probe: import, build the inputs, say ready."""
    t0 = time.perf_counter()
    import qmspace  # noqa: F401
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS
    build, _ = WORKLOADS[args.workload]
    build(args.seed, args.probe)
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


def time_setup(args, workdir: str, speed):
    """Medians over fresh processes: set-up (raw, at reference speed), import.

    The raw median is scaled by the median of the speed samples taken
    between the processes.  Scaling each process by its own sample pair
    was not steadier: over batches of cd-check set-ups on the 2-vCPU
    baseline machine it spread 17% against 5% in one test and 10%
    against 11% in another.
    """
    raw, samples, imports = [], [speed.sample()], []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"probe{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--probe", probe_dir,
               "--workload", args.workload, "--seed", str(args.seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        samples.append(speed.sample())
        raw.append(seconds)
        imports.append(json.loads(line)["import_s"])
        shutil.rmtree(probe_dir, ignore_errors=True)
    setup_raw = statistics.median(raw)
    return setup_raw, setup_raw / speed.factor(*samples), statistics.median(imports)


# -------------------------------------------------------------- operations

@dataclass
class Rep:
    wall_s: float       # wall time of the operations
    time_s: float       # the same at the machine's reference speed
    outcomes: list
    child_kb: int       # largest CLI child's peak RSS


def run_pass(ops, speed, tracer=None, traced_first=False) -> list:
    """One pass over the operation list; checks run untimed after each op.

    Without a tracer each operation runs once and one Rep comes back.
    With one, each operation runs twice back to back, untraced and traced
    (traced first if ``traced_first``), and two Reps come back, untraced
    then traced.  The machine's speed drifts over seconds to minutes, so
    pairing each operation with itself measures the tracing overhead far
    more tightly than timing whole repetitions one after the other.
    """
    import qmspace
    import tracing
    from checks import CheckFailed, fmt_answer, known_defect

    modes = [None] if tracer is None else [None, tracer]
    reps = {id(m): Rep(0.0, 0.0, [], 0) for m in modes}
    done = {id(m): {} for m in modes}
    if traced_first:
        modes.reverse()
    before = speed.sample()
    for op in ops:
        for mode in modes:
            rep, result, error, rec = reps[id(mode)], None, None, None
            undo = None if mode is None else tracing.install(mode, qmspace)
            t0 = time.perf_counter()
            try:
                if mode is None:
                    result = op.call(None)
                else:
                    extra = {"group": "cli.process"} if op.cli else {}
                    with mode.span(op.name, "cli" if op.cli else "bench",
                                   op=op.name, **extra) as rec:
                        result = op.call(mode)
            except Exception as exc:  # a raising operation is a measured failure
                error = f"{type(exc).__name__}: {exc}"
            finally:
                seconds = time.perf_counter() - t0
                if undo is not None:
                    tracing.uninstall(undo)
            after = speed.sample()
            rep.wall_s += seconds
            rep.time_s += seconds / speed.factor(before, after)
            before = after

            answer = None
            if error is None:
                try:
                    answer = op.check(result, done[id(mode)])
                except CheckFailed as exc:
                    error = f"check: {exc}"
                except Exception as exc:  # the answer broke the checker
                    error = f"check: {type(exc).__name__}: {exc}"
            if op.cli and result is not None:
                rep.child_kb = max(rep.child_kb, result.maxrss_kb)
                if rec is not None:
                    rec["attrs"]["exit_unexpected"] = result.code != 0
            done[id(mode)][op.name] = answer if error is None else error
            rep.outcomes.append({
                "op": op.name, "s": seconds, "ok": error is None, "error": error,
                "defect": None if error is None else known_defect(op.name, error, op.problems),
                "answer": fmt_answer(answer)})
    return [reps[id(m)] for m in sorted(modes, key=lambda m: m is not None)]


def another_pass(plain: list, elapsed: float, seconds: float, traced: bool) -> bool:
    """Closed loop: start a pass only if it should end in time, after at
    least MIN_PASSES (a traced pass runs every operation twice)."""
    if len(plain) < MIN_PASSES:
        return True
    per_op_runs = 2 if traced else 1
    return elapsed + per_op_runs * statistics.median(r.wall_s for r in plain) <= seconds


def overhead(plain: list, traced: list) -> dict:
    """Tracing overhead from the paired passes, and whether it is resolved.

    The overhead is the reported traced run_s over the reported untraced
    run_s, minus 1.  Its noise is the range of the per-pass ratios; passes
    alternate which mode runs first, so the range also holds any bias
    from running second.  The overhead counts as resolved only if every
    pass agrees on its sign and it exceeds that range.
    """
    run_s = statistics.median(r.time_s for r in plain)
    traced_s = statistics.median(r.time_s for r in traced)
    ratios = [t.time_s / u.time_s - 1.0 for u, t in zip(plain, traced)]
    frac = traced_s / run_s - 1.0
    noise = max(ratios) - min(ratios)
    agree = all(r > 0 for r in ratios) or all(r < 0 for r in ratios)
    return {"trace.run_s": traced_s, "trace.untraced_run_s": run_s,
            "trace.overhead_frac": frac, "trace.overhead_noise_frac": noise,
            "trace.overhead_resolved": float(agree and abs(frac) > noise)}


def answers_changed(outcomes, workload: str) -> int | None:
    """Operations whose answer differs from the stored seed-0 reference."""
    from checks import same_answer

    with open(REFERENCE) as fh:
        ref = json.load(fh).get(workload)
    if ref is None:
        return None
    return sum(1 for o in outcomes if ref.get(o["op"]) is not None and (
        o["answer"] is None or not same_answer(o["answer"], ref[o["op"]])))


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qmspace", "__init__.py")):
        print(f"error: no qmspace package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe is not None:
        return probe(args)

    import tracing
    from speed import Speed
    from workloads import WORKLOADS

    build, make_ops = WORKLOADS[args.workload]
    speed = Speed()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, layer_reps = [], [], []
    try:
        setup_raw, setup_s, import_s = time_setup(args, workdir, speed)
        ops = make_ops(build(args.seed, workdir))
        if any(op.cli for op in ops):
            # The speed kernel runs in this process, and a child process
            # may run on another CPU, whose speed differs on a shared
            # machine: unpinned, cli-batch operation times followed the
            # kernel with a correlation of 0.1.  Children inherit the
            # mask, so pinning puts both on one CPU: correlation 0.6-0.8,
            # and the spread of run_s over five seeds fell from 15% to 5%.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        start = time.perf_counter()
        while another_pass(plain, time.perf_counter() - start, args.seconds,
                           tracer is not None):
            if tracer is None:
                plain += run_pass(ops, speed)
                continue
            first = len(tracer.spans)
            untraced, rep = run_pass(ops, speed, tracer, traced_first=len(traced) % 2 == 1)
            plain.append(untraced)
            traced.append(rep)
            m = tracing.rep_layer_metrics(
                tracer.spans[first:], {o["op"]: o["ok"] for o in rep.outcomes})
            m["trace.accounted_frac"] = sum(
                m[f"layer.{name}.self_s"] for name in tracing.LAYERS) / rep.wall_s
            layer_reps.append(m)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = plain + traced
    attempted = sum(len(r.outcomes) for r in reps)
    failures = [o for r in reps for o in r.outcomes if not o["ok"]]
    first = plain[0].outcomes
    unstable = [o["op"] for i, o in enumerate(first) if any(
        (r.outcomes[i]["answer"], r.outcomes[i]["ok"]) != (o["answer"], o["ok"])
        for r in reps)]
    unexpected = [o for o in failures if o["defect"] is None]
    changed = answers_changed(first, args.workload) if args.seed == DEFAULT_SEED else None
    correct = not unexpected and not unstable and not changed
    run_s = statistics.median(r.time_s for r in plain)
    run_raw = statistics.median(r.wall_s for r in plain)
    in_process = not any(op.cli for op in ops)
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if in_process
               else max(r.child_kb for r in plain))

    os.makedirs(WORK, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    with open(os.path.join(WORK, f"answers-{tag}.json"), "w") as fh:
        json.dump({o["op"]: o["answer"] for o in first}, fh, indent=1, sort_keys=True)

    print(f"qmspace benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if tracer else 'untraced'}, {len(plain)} untraced "
          f"repetition(s) of {len(ops)} operations, one closed-loop client")
    print("  times are wall seconds at the machine's reference speed "
          "(perfbench/speed.py); raw wall seconds in brackets")
    print(f"  setup_s          {setup_s:10.4f} s      [{setup_raw:.4f}] median of "
          f"{SETUP_PROBES} fresh processes")
    print(f"  run_s            {run_s:10.4f} s      [{run_raw:.4f}]"
          f" median over {len(plain)} repetitions")
    print(f"  peak_rss_mb      {peak_kb / 1024:10.1f} MB     "
          + ("workload process" if in_process else "largest CLI child"))
    print(f"  ops_failed_frac  {len(failures) / attempted:10.4f} ratio  "
          f"{len(failures)} of {attempted} attempted")
    print("  answers_changed  " + (
        f"{changed:10d} count  against the stored seed-{DEFAULT_SEED} answers"
        if changed is not None else
        f"{'n/a':>10} count  answers are stored for seed {DEFAULT_SEED} only"))
    for i, o in enumerate(first):
        op_s = statistics.median(r.outcomes[i]["s"] for r in plain)
        print(f"    {o['op']:34s} {op_s:8.4f} s raw")
    for o in first:
        if not o["ok"]:
            kind = f"known defect ({o['defect']})" if o["defect"] else "UNEXPECTED"
            print(f"  failed: {o['op']}: {kind}: {o['error'][:160]}")
    for name in unstable:
        print(f"  UNEXPECTED: {name}: answer differs between repetitions")
    if changed:
        print(f"  UNEXPECTED: {changed} answer(s) differ from the stored seed-"
              f"{DEFAULT_SEED} answers")

    if tracer is None:
        values = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_kb / 1024}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        tracer.write(os.path.join(WORK, f"trace-{tag}.jsonl"))
        layer = tracing.median_metrics(layer_reps)
        layer["cli.import_s"] = import_s
        layer.update(overhead(plain, traced))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        for name, m in metrics.items():
            print(f"  {name:42s} {m['value']:16.6g} {m['unit']}")
        if not layer["trace.overhead_resolved"]:
            print("  trace.overhead_frac is unresolved: within the range of the "
                  f"{len(traced)} paired passes' ratios, or of no one sign")
    print(json.dumps({"correct": correct,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
