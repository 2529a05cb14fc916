"""ripsim benchmark: one closed-loop caller, one process, one thread.

    python3 bench/run.py --workload swing_nominal --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --compare before.jsonl after.jsonl

A run sets up (fresh import of ripsim, load_config, input build) several
times and reports the median, makes one untimed warm-up operation, then
repeats the workload's operation, each one starting after the last has
finished, for --seconds. A fixed reference computation runs right
before each set-up and operation, and times are reported in reference
seconds (see reference.py). Every operation's outputs are checked; one
that fails a check counts in `failed`. The last line of stdout is a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1
(a separate run that alternates traced and untraced operations). The
line before it is the full record: environment, sample counts,
quartiles, the times as measured and the first problems found; --out
appends it to a JSON-lines file, which --compare reads. See
bench/README.md.
"""
from __future__ import annotations

import os

# Single-threaded numerics, before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7     # set-ups per run; setup_s is their median
MIN_TIMED_OPS = 3
MAX_PROBLEMS = 5      # problem messages kept in the record


def quartiles(values: list) -> tuple[float, float, float] | None:
    """(first quartile, median, third quartile), or None without samples."""
    if len(values) < 2:
        return (values[0],) * 3 if values else None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    p = math.floor(100 - 1000 / n) if n else 0
    if p < 50:
        return None
    return {"p": p, "value": statistics.quantiles(values, n=100)[p - 1], "samples": n}


def git_sha(root: Path) -> str:
    """HEAD commit read from .git/ in the checkout, without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": git_sha(ROOT), "seed": seed, "loadavg": list(os.getloadavg())}


class Outcome:
    """Attempted and failed operations of a run, with the first problems."""

    def __init__(self, w, seed):
        self.w, self.seed = w, seed
        self.attempted = self.failed = 0
        self.first_digest = None
        self.problems: list[str] = []

    def _count(self, found: list[str]):
        self.attempted += 1
        if found:
            self.failed += 1
            self.problems += found[:MAX_PROBLEMS - len(self.problems)]

    def check(self, r: workloads.OpResult):
        self._count(workloads.check(self.w, self.seed, r, self.first_digest))
        if self.first_digest is None:
            self.first_digest = r.digest

    def attempt(self, mods, inp, out_dir, tracer=None) -> workloads.OpResult | None:
        """The reference, then one operation (traced with a tracer), checked.

        Returns None when the operation raised.
        """
        ref_wall, ref_cpu = reference.measure()
        try:
            with tracing.instrument(mods, tracer) if tracer else contextlib.nullcontext():
                r = workloads.operate(mods, self.w, inp, out_dir)
        except Exception as e:  # a failing operation is counted; the run goes on
            self._count([f"{type(e).__name__}: {e}"])
            return None
        r.ref_wall, r.ref_cpu = ref_wall, ref_cpu
        self.check(r)
        return r


def measure(mods, inp, seconds, out_dir, outcome, tracer=None):
    """Closed loop for `seconds` after one warm-up; returns (untraced, traced) OpResults.

    With a tracer, operations alternate between untraced and traced.
    Operations that raised are counted in `outcome` but not returned.
    """
    outcome.attempt(mods, inp, out_dir)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < MIN_TIMED_OPS + (tracer is not None):
        if tracer is not None and i % 2:
            traced.append(outcome.attempt(mods, inp, out_dir, tracer))
        else:
            untraced.append(outcome.attempt(mods, inp, out_dir))
        i += 1
    return [r for r in untraced if r], [r for r in traced if r]


def end_to_end(setup_s: list, ops: list) -> dict:
    """Medians over the run; times in reference seconds (see reference.py)."""
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(r.wall_s * r.scale for r in ops),
        "cpu_s": statistics.median(r.cpu_s * reference.REF_S / r.ref_cpu for r in ops),
        "steps_per_s": statistics.median(r.steps / (r.run_s * r.scale) for r in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def region_peak_bytes(mods, inp) -> int:
    """Peak bytes numpy allocates in one region_report scan (verify only)."""
    params, gains, opts = inp
    tracemalloc.start()
    try:
        mods.verify.region_report(params, gains, opts.scan_cells)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bench(args) -> int:
    w = workloads.WORKLOADS[args.workload]
    src, preset = ROOT / "src", ROOT / "presets" / w.preset
    if not (src / "ripsim" / "__init__.py").is_file() or not preset.is_file():
        print(f"error: no ripsim sources or preset under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = environment(args.seed)
        setup_s, load_s, raw_setup_s = [], [], []
        for _ in range(SETUP_REPEATS):
            ref_wall, _ = reference.measure()
            total, load, mods, inp = workloads.set_up(str(preset), w, args.seed)
            scale = reference.REF_S / ref_wall
            raw_setup_s.append(total)
            setup_s.append(total * scale)
            load_s.append(load * scale)
        if not Path(mods.config.__file__).resolve().is_relative_to(src):
            print(f"error: imported ripsim from {mods.config.__file__}", file=sys.stderr)
            return 2
        outcome = Outcome(w, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        untraced, traced = measure(mods, inp, args.seconds, str(work), outcome, tracer)
        if not untraced or (tracer is not None and not traced):
            values = None
        elif tracer is None:
            values = end_to_end(setup_s, untraced)
        else:
            if args.spans:
                tracer.write(args.spans)
            peak = region_peak_bytes(mods, inp) if w.kind == "verify" else 0
            values = tracing.layer_metrics(tracer.reduce(), traced, untraced, load_s, peak)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = ({m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in spec["per_layer" if args.trace else "end_to_end"]}
               if values else {})
    walls = [r.wall_s * r.scale for r in untraced]
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "inputs": (list(inp.q0) if w.kind == "simulate" else {"verify_seed": inp[2].seed}),
        "attempted": outcome.attempted, "failed": outcome.failed,
        "error_rate": outcome.failed / outcome.attempted,
        "problems": outcome.problems, "output_sha256": outcome.first_digest,
        "samples": {"setup": len(setup_s), "untraced": len(untraced), "traced": len(traced)},
        "quartiles": {"setup_s": quartiles(setup_s), "wall_s": quartiles(walls),
                      "cpu_s": quartiles([r.cpu_s * reference.REF_S / r.ref_cpu
                                          for r in untraced])},
        "wall_s_tail": tail(walls),
        "measured_s": {"setup": statistics.median(raw_setup_s),
                       "wall": quartiles([r.wall_s for r in untraced]),
                       "cpu": quartiles([r.cpu_s for r in untraced]),
                       "reference": quartiles([r.ref_wall for r in untraced + traced])},
        "loadavg_end": list(os.getloadavg()),
        "metrics": metrics,
    }
    for name, m in metrics.items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    line = json.dumps(record)
    print(line)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def compare(path_a: str, path_b: str) -> int:
    """Per workload and end-to-end metric: medians, quartiles, verdict against the bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def load(path):
        runs = {}
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if not rec["trace"]:
                    runs.setdefault(rec["workload"], []).append(rec)
        return runs

    a, b = load(path_a), load(path_b)
    print(f"{'workload':<16} {'metric':<12} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'change':>8}  verdict")
    for wname in [n for n in workloads.WORKLOADS if n in a and n in b]:
        for m in spec["end_to_end"]:
            qa = quartiles([r["metrics"][m["name"]]["value"] for r in a[wname]])
            qb = quartiles([r["metrics"][m["name"]]["value"] for r in b[wname]])
            change = (qb[1] - qa[1]) / qa[1]
            worse = change if m["better"] == "lower" else -change
            spread = (qa[2] - qa[0]) / qa[1]
            if worse > m["bound"]:
                verdict = "worse"
            elif spread > m["bound"]:
                verdict = "unresolved"
            elif -worse > spread:
                verdict = "better"
            else:
                verdict = "same"
            fa = f"{qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] n={len(a[wname])}"
            fb = f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b[wname])}"
            print(f"{wname:<16} {m['name']:<12} {fa:<34} {fb:<34} {change:>+8.2%}  {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE", help="append the full record to FILE")
    parser.add_argument("--spans", metavar="FILE", help="with --trace 1, write all spans to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
