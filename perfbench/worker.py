"""One benchmark run of one workload, started by run.py.

The worker is the single client of the closed loop: it runs whole rounds
of operations, one at a time, until --seconds have passed, then checks
nothing more and prints one JSON object.  Outputs are checked after each
round, outside the round's wall time.  With --setup-only it stops at the
point where the first timed operation would start and prints its set-up
time, measured from --started (the parent's clock when it spawned us).
"""

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median

import tracing
from procs import Children

CALL_LIMIT_S = 60.0


class Tally:
    """Per-run counts, latencies of untraced successful operations, and
    round walls split by whether the round was traced."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.latencies = []
        self.walls = {False: [], True: []}
        self.problems = []

    def record(self, error, wrong, seconds, traced):
        self.attempted += 1
        if error:
            self.failed += 1
            self.wrong += wrong
            if len(self.problems) < 5:
                self.problems.append(error)
        elif not traced:
            self.latencies.append(seconds)

    def end_to_end(self):
        lat = sorted(self.latencies)
        n = len(lat)
        # the mean, not the median: the machine's speed drifts between a
        # fast and a slow state, and the mean follows the share of time
        # spent in each where a median would jump between them
        walls = self.walls[False]
        out = {"wall_s": sum(walls) / len(walls),
               "op_p50_ms": median(lat) * 1e3 if lat else 0.0,
               "samples": n}
        # the highest percentile with at least ten samples beyond it; a run
        # attempts at least 40 operations, and only when many of them
        # failed does this fall back to the largest latency
        i = n - 11 if n >= 40 else n - 1
        out["op_tail_ms"] = lat[i] * 1e3 if lat else 0.0
        out["tail_percentile"] = 100.0 * (i + 1) / n if lat else 0.0
        return out


def _check(check, out):
    try:
        return check(out)
    except Exception as exc:  # a malformed output is a wrong output
        return f"check raised {type(exc).__name__}: {exc}"


def _run_pass(ops, tally, tracer):
    """Run every op of a round once, then check the outputs."""
    results = []
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        for op in ops:
            a = time.perf_counter()
            try:
                out, error = op.call(), None
            except Exception as exc:  # the program failed this operation
                out, error = None, f"{op.layer}: {type(exc).__name__}: {exc}"
            results.append((out, error, time.perf_counter() - a))
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    traced = tracer is not None
    tally.walls[traced].append(wall)
    for op, (out, error, seconds) in zip(ops, results):
        wrong = False
        if error is None:
            error = _check(op.check, out)
            wrong = error is not None
            if wrong:
                error = f"{op.layer}: {error}"
        tally.record(error, wrong, seconds, traced)


def run_inprocess(args, started):
    import workloads
    make = workloads.ROUNDS[args.workload]
    ops = make(args.seed, 0)
    setup = time.monotonic() - started
    if args.setup_only:
        return {"setup_s": setup}
    tracer = tracing.Tracer() if args.trace else None
    tally = Tally()
    deadline = time.monotonic() + args.seconds
    rnd = cold_traced = 0
    while True:
        if tracer is None:
            _run_pass(ops, tally, None)
        elif rnd % 2 == 0:
            # the same inputs untraced and traced, in alternating order, so
            # that a cache the first pass fills (sympy keeps every number it
            # factored) favours neither side of trace.overhead_s
            _run_pass(ops, tally, tracer)
            cold_traced += 1
            _run_pass(ops, tally, None)
        else:
            _run_pass(ops, tally, None)
            kept = len(tracer.spans)
            _run_pass(ops, tally, tracer)
            # the layer figures come from cold passes only
            del tracer.spans[kept:]
        rnd += 1
        if time.monotonic() >= deadline:
            break
        ops = make(args.seed, rnd)
    result = {"setup_s": setup, "rounds": rnd, **_counts(tally)}
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        spans = tracer.records()
        _dump_spans(args, spans)
        result["layers"] = tracing.layer_metrics(
            spans, cold_traced,
            tracing.overhead(tally.walls[True], tally.walls[False]),
            {"cli.call_s": (0.0, "s"), "cli.child_rss_mib": (0.0, "MiB")})
    else:
        result.update(tally.end_to_end())
    return result


def _counts(tally):
    for problem in tally.problems:
        print(f"failed: {problem}", file=sys.stderr)
    return {"attempted": tally.attempted, "failed": tally.failed,
            "wrong": tally.wrong}


def _dump_spans(args, spans):
    path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def run_cli(args, started, children):
    import cli_session
    here = os.path.dirname(os.path.abspath(__file__))
    work = tempfile.mkdtemp(prefix="cli-", dir=args.out)
    try:
        ops = cli_session.build(args.seed, work)
        # one untimed call, so that the first timed call does not pay for
        # compiling weinkit's bytecode or reading its imports from disk
        code = _spawn(children, [sys.executable, "-m", "weinkit.cli", "--help"],
                      work)[0]
        if code != 0:
            raise SystemExit(f"weinkit --help exited with {code}")
        setup = time.monotonic() - started
        if args.setup_only:
            return {"setup_s": setup}
        tally = Tally()
        spans, calls, rss = [], [], []
        deadline = time.monotonic() + args.seconds
        rnd = 0
        while True:
            traced = bool(args.trace) and rnd % 2 == 1
            t0 = time.perf_counter()
            results = []
            for i, op in enumerate(ops):
                span_file = os.path.join(work, f"spans-{rnd}-{i}.jsonl")
                prefix = ([sys.executable, os.path.join(here, "cli_shim.py"), span_file]
                          if traced else [sys.executable, "-m", "weinkit.cli"])
                results.append(_spawn(children, prefix + op.args, work))
                if traced and os.path.exists(span_file):
                    spans += [dict(s, call=f"{rnd}-{i}") for s in tracing.load(span_file)]
                    os.unlink(span_file)
            tally.walls[traced].append(time.perf_counter() - t0)
            for op, (code, kib, seconds, stdout) in zip(ops, results):
                error, wrong = _check_call(op, code, stdout), False
                if error is not None:
                    wrong = code is not None
                    error = f"{' '.join(op.args[:2])}: {error}"
                tally.record(error, wrong, seconds, traced)
                if not traced and code is not None:
                    calls.append(seconds)
                    rss.append(kib / 1024)
            rnd += 1
            if time.monotonic() >= deadline and rnd >= 2:
                break
        result = {"setup_s": setup, "rounds": rnd, **_counts(tally),
                  "peak_rss_mib": max(rss)}
        if args.trace:
            _dump_spans(args, spans)
            result["layers"] = tracing.layer_metrics(
                spans, len(tally.walls[True]),
                tracing.overhead(tally.walls[True], tally.walls[False]),
                {"cli.call_s": (median(calls), "s"),
                 "cli.child_rss_mib": (median(rss), "MiB")})
        else:
            result.update(tally.end_to_end())
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _spawn(children, argv, cwd):
    """Run one process to its end: (exit code or None on timeout, peak RSS
    KiB, wall seconds, stdout text)."""
    with open(os.path.join(cwd, "stdout"), "w+") as out, \
            open(os.path.join(cwd, "stderr"), "w") as err:
        t0 = time.perf_counter()
        proc = children.start(argv, cwd=cwd, stdout=out, stderr=err,
                              stdin=subprocess.DEVNULL)
        code, kib = children.wait(proc, CALL_LIMIT_S)
        seconds = time.perf_counter() - t0
        out.seek(0)
        return code, kib, seconds, out.read()


def _check_call(op, code, stdout):
    if code is None:
        return f"killed after {CALL_LIMIT_S:.0f} s"
    if code != op.code:
        return f"exit code {code}, want {op.code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    return _check(op.check, report)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    children = Children()
    try:
        if args.workload == "cli-session":
            result = run_cli(args, args.started, children)
        else:
            result = run_inprocess(args, args.started)
    finally:
        children.kill_all()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
