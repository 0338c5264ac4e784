"""weinkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload {cli-session,algebra,surgery}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; weinkit is loaded from src/ (it need not
be installed).  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See perfbench/README.md.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from procs import Children

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-session", "algebra", "surgery")
SETUP_SAMPLES = 3      # the worker's own set-up plus two set-up-only probes
RUN_LIMIT_S = 170.0    # the whole command must end within 180 s
IMPORT_PROBES = 3


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _worker(children, args, out_dir, deadline, setup_only=False):
    """Start worker.py and wait for it: (its JSON result, its peak RSS)."""
    log = out_dir / f"worker-{os.getpid()}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out_dir)]
    if setup_only:
        argv.append("--setup-only")
    try:
        with open(log, "w+") as fh:
            # a session of its own, so that its CLI children can be killed
            # with it as one process group
            proc = children.start(argv + ["--started", repr(time.monotonic())],
                                  stdout=fh, stdin=subprocess.DEVNULL,
                                  env=_env(), cwd=ROOT, start_new_session=True)
            code, kib = children.wait(proc, max(deadline - time.monotonic(), 1.0))
            fh.seek(0)
            lines = fh.read().splitlines()
    finally:
        log.unlink(missing_ok=True)
    if code != 0 or not lines:
        raise SystemExit(f"worker exited with {code}")
    return json.loads(lines[-1]), kib / 1024


def _import_probes(children, out_dir, deadline):
    """A fresh `import weinkit`, timed in its own process (median of
    IMPORT_PROBES), and the cumulative import time of sympy, scipy and
    numpy from one `-X importtime` run."""
    times = []
    code = ("import time; t = time.perf_counter(); import weinkit; "
            "print(time.perf_counter() - t)")
    for _ in range(IMPORT_PROBES):
        out = _capture(children, [sys.executable, "-c", code], out_dir, deadline)
        times.append(float(out[0].splitlines()[-1]))
    _, err = _capture(children, [sys.executable, "-X", "importtime", "-c",
                                 "import weinkit"], out_dir, deadline)
    cumulative = _top_level_import_us(err)
    metrics = {"cli.import_s": (median(times), "s")}
    for package in ("sympy", "scipy", "numpy"):
        metrics[f"cli.import.{package}_s"] = (cumulative.get(package, 0) / 1e6, "s")
    return metrics


def _capture(children, argv, out_dir, deadline):
    out_path, err_path = out_dir / f"probe-{os.getpid()}.out", out_dir / f"probe-{os.getpid()}.err"
    try:
        with open(out_path, "w+") as out, open(err_path, "w+") as err:
            proc = children.start(argv, stdout=out, stderr=err, env=_env(),
                                  cwd=ROOT, stdin=subprocess.DEVNULL)
            code, _ = children.wait(proc, max(deadline - time.monotonic(), 1.0))
            if code != 0:
                raise SystemExit(f"{argv[1:]} exited with {code}")
            out.seek(0)
            err.seek(0)
            return out.read(), err.read()
    finally:
        out_path.unlink(missing_ok=True)
        err_path.unlink(missing_ok=True)


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)")


def _top_level_import_us(text):
    """{package: microseconds} summing the cumulative time of each
    package's imports that are not nested inside another of its own."""
    rows = [(len(m.group(2)), int(m.group(1)), m.group(3))
            for m in map(_IMPORT_LINE.match, text.splitlines()) if m]
    totals, stack = {}, []
    # -X importtime prints children before their parent; walk it backwards
    for depth, cum, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.split(".")[0]
        if not any(p == package for _, p in stack):
            totals[package] = totals.get(package, 0) + cum
        stack.append((depth, package))
    return totals


def run(args, children):
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(children, args, out_dir, deadline, True)[0]["setup_s"])
    result, worker_rss = _worker(children, args, out_dir, deadline)
    setups.append(result["setup_s"])
    if args.trace:
        layers = dict(result["layers"])
        layers.update(_import_probes(children, out_dir, deadline))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
    else:
        rss = result["peak_rss_mib"] if args.workload == "cli-session" else worker_rss
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "op_p50_ms": {"value": result["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": result["op_tail_ms"], "unit": "ms"},
            "peak_rss_mib": {"value": rss, "unit": "MiB"},
        }
        print(f"{args.workload}: {result['rounds']} rounds; op_tail_ms is the "
              f"p{result['tail_percentile']:.1f} latency of {result['samples']} "
              f"operations; setup_s is the median of {setups}")
    doc = {"correct": result["wrong"] == 0, "attempted": result["attempted"],
           "failed": result["failed"], "metrics": metrics}
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(doc, fh, indent=1)
    print(json.dumps(doc))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "weinkit" / "__init__.py").is_file():
        print(f"no weinkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    children = Children()
    try:
        run(args, children)
    except KeyboardInterrupt:
        return 130
    finally:
        children.kill_all()
    return 0


if __name__ == "__main__":
    sys.exit(main())
