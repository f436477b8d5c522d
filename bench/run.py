"""ugckit benchmark: times the `ugc` CLI the way users run it.

    python3 bench/run.py --workload fit_loo --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout is the directory above this file and the CLI
is always `python -m ugckit.cli` with PYTHONPATH set to its `src`, so an
installed copy is never measured. Every timed subprocess and the in-process
traced run use one BLAS thread, and invocations run one at a time.

--trace 0 times CLI subprocesses (closed loop, one client) until --seconds
have passed and reports the end-to-end metrics: medians of wall times
rescaled to one machine speed by interleaved reference probes (see
Timeline). --trace 1 runs the same argv in-process through ugckit.cli.main,
alternating untraced and traced passes, and reports the per-layer metrics.
Both modes check every output against the numpy oracle in oracle.py. The
last stdout line is the result JSON; the lines before it list every metric
with its unit and the run environment.
"""

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads in this process

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("fit_loo", "tune_curve", "query")
SWEEP = (10.0, 170.0, 0.1)  # start, stop, step: 1,601 angles
SWEEP_SAMPLES = 32  # sweep rows compared with the oracle, plus both ends
SETUP_PROBES = 6  # bare-import timings behind setup_s, each between two reference probes
IMPORT_ARGV = [sys.executable, "-c", "import ugckit.cli"]
REFERENCE_ARGV = [sys.executable, str(Path(__file__).resolve().parent / "reference.py")]
REFERENCE_S = 0.33  # probe median in quiet stretches on the 2-core machine behind the bounds
PROBE_EVERY_S = 2.0  # timed-loop seconds between reference probes
DESIGNS_PER_SWEEP = 3  # query: a sweep before every 3 designs, so 6 sweeps per 18 specs

E2E_UNITS = {"main_s": "s", "cmd_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    **{name: "s" for name in spans.TIME_METRICS},
    "cli.import_s": "s", "cli.import_scipy_s": "s",
    **{name: "count" for name in spans.CALL_METRICS},
    "data.rows": "count", "archive.bytes": "bytes",
    "joints.loo_fits_per_point": "ratio", "trace.overhead_frac": "ratio", "fail_frac": "ratio",
}


class Call:
    """One CLI invocation of a pass and the check of its output."""

    def __init__(self, label, argv, check):
        self.label, self.argv, self.check = label, argv, check


def cli_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    env.pop("UGC_CONFIG", None)
    return env


def spawn(argv, env, work):
    """Run one subprocess to exit, its output going to work/stdout.txt and
    work/stderr.txt; returns (wall s, exit code, max RSS in KiB). If the wait
    is interrupted, the child is killed and reaped before the error propagates."""
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=work)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def stdout_of(work) -> str:
    return (work / "stdout.txt").read_text(encoding="utf-8")


def fit_call(label, work, csv_path, family, angle_bin, prefix, tune=False, keep=False):
    """A `ugc fit` call; unless keep, its check deletes the archives it read,
    so an invocation that writes nothing cannot pass on a previous one's files."""
    force, back = work / f"{prefix}_force.json", work / f"{prefix}_return.json"
    argv = ["fit", "--data", str(csv_path), "--family", family, "--angle-bin", repr(angle_bin),
            "--out", str(force), "--return-out", str(back), "--json"]
    if tune:
        argv.insert(1, "--tune")

    def check(code, stdout):
        if code != 0:
            return [f"{label}: exit {code}"]
        problems = oracle.check_fit(stdout, force, back, csv_path, angle_bin)
        if not keep:
            force.unlink(missing_ok=True)
            back.unlink(missing_ok=True)
        return problems

    return Call(label, argv, check), force, back


def query_calls(work, paths, force_path, return_path, seed):
    force, back = oracle.DenseGP(force_path), oracle.DenseGP(return_path)
    start, stop, step = SWEEP
    count = int(round((stop - start) / step)) + 1
    rng = np.random.default_rng(seed)
    rows = sorted({0, count - 1, *rng.choice(count, SWEEP_SAMPLES, replace=False).tolist()})
    models = ["--model", str(force_path), "--return-model", str(return_path)]
    sweep = Call(
        "sweep", ["predict", *models, "--sweep", f"{start!r}:{stop!r}:{step!r}"],
        lambda code, out: [f"sweep: exit {code}"] if code else oracle.check_sweep(
            out, force, back, start, step, count, rows),
    )
    calls = []
    for i, (ratio, spec) in enumerate(paths["specs"]):
        if i % DESIGNS_PER_SWEEP == 0:
            calls.append(sweep)
        report = work / f"{spec.stem}_report.json"
        expected = 0 if ratio >= inputs.FOLD_LIMIT_RATIO - 1e-9 else 1

        def check(code, out, ratio=ratio, report=report, expected=expected):
            problems = oracle.check_design(code, expected, report, ratio, force)
            if expected and report.exists():
                problems.append(f"design ratio {ratio}: failed run wrote a report")
            report.unlink(missing_ok=True)
            return problems

        calls.append(Call("design", ["design", "--spec", str(spec), *models,
                                     "--out", str(report), "--json"], check))
    return calls


def build_workload(name, work, paths, seed, env):
    """The calls of one pass; the query workload fits its archives here."""
    if name == "fit_loo":
        call, _, _ = fit_call("fit", work, paths["square_csv"], "square_sym",
                              inputs.SQUARE_ANGLE_BIN, "fit")
        return [call]
    if name == "tune_curve":
        call, _, _ = fit_call("fit", work, paths["curve_csv"], "curve",
                              inputs.CURVE_ANGLE_BIN, "fit", tune=True)
        return [call]
    setup, force, back = fit_call("setup fit", work, paths["square_csv"], "square_sym",
                                  inputs.SQUARE_ANGLE_BIN, "archive", keep=True)
    _, code, _ = spawn(cli_argv(setup.argv), env, work)
    problems = setup.check(code, stdout_of(work))
    if problems:
        raise SystemExit("query set-up fit failed: " + "; ".join(problems))
    return query_calls(work, paths, force, back, seed)


def cli_argv(argv):
    return [sys.executable, "-m", "ugckit.cli", *argv]


def spawn_ok(argv, env, work) -> float:
    """Wall time of a subprocess that must succeed; a failure ends the run."""
    wall, code, _ = spawn(argv, env, work)
    if code != 0:
        raise SystemExit(f"{argv[1:]} failed: "
                         + (work / "stderr.txt").read_text(encoding="utf-8")[-500:])
    return wall


class Timeline:
    """Timed subprocesses and reference probes (reference.py), in run order.

    Other load on this kind of shared machine slows every process by up to
    about 50%, for stretches of a second to minutes. Probes run between the
    timed calls (see timed_run), and rescaled() expresses each call's wall
    time at the speed at which a probe takes REFERENCE_S, using the mean of
    the probes just before and just after that call.
    """

    def __init__(self, env, work):
        self.env, self.work = env, work
        self.events = []  # (label, wall s); label "probe" for reference probes
        self.since_probe = 0.0

    def call(self, label, argv):
        """Run and record one call; returns (exit code, max RSS in KiB)."""
        wall, code, kib = spawn(argv, self.env, self.work)
        self.events.append((label, wall))
        self.since_probe += wall
        return code, kib

    def probe(self):
        self.events.append(("probe", spawn_ok(REFERENCE_ARGV, self.env, self.work)))
        self.since_probe = 0.0

    def probe_if_due(self):
        if self.since_probe >= PROBE_EVERY_S:
            self.probe()

    def walls(self, labels) -> list:
        return [wall for label, wall in self.events if label in labels]

    def rescaled(self, labels) -> list:
        at = [i for i, (label, _) in enumerate(self.events) if label == "probe"]
        out = []
        for i, (label, wall) in enumerate(self.events):
            if label in labels:
                k = bisect.bisect(at, i)
                near = [self.events[j][1] for j in at[max(k - 1, 0):k + 1]]
                out.append(wall * REFERENCE_S / statistics.fmean(near))
        return out


class Tally:
    """Attempted and failed invocations; prints the first few problems."""

    def __init__(self):
        self.attempted = self.failed = 0

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print("check failed: " + "; ".join(problems[:3]), file=sys.stderr)


def timed_run(calls, timeline, seconds, tally):
    """Closed loop of CLI subprocesses, one at a time, until the deadline;
    returns the peak max-RSS in KiB. Reference probes run just before and
    after every call of the main command, which is sampled least often, and
    otherwise every PROBE_EVERY_S seconds."""
    main = calls[0].label
    peak_kib = 0
    deadline = time.perf_counter() + seconds
    while True:
        for call in calls:
            if call.label == main and timeline.since_probe > 0:
                timeline.probe()
            code, kib = timeline.call(call.label, cli_argv(call.argv))
            peak_kib = max(peak_kib, kib)
            tally.record(call.check(code, stdout_of(timeline.work)))
            done = time.perf_counter() >= deadline
            if done or call.label == main:
                timeline.probe()
            else:
                timeline.probe_if_due()
            if done:
                return peak_kib


def end_to_end_run(name, paths, seed, env, work, seconds, tally):
    """Set-up imports, then the timed loop; end-to-end metrics from rescaled walls."""
    timeline = Timeline(env, work)
    timeline.probe()
    for _ in range(SETUP_PROBES):
        code, _ = timeline.call("import", IMPORT_ARGV)
        if code != 0:
            raise SystemExit("import ugckit.cli failed")
        timeline.probe()
    calls = build_workload(name, work, paths, seed, env)
    peak_kib = timed_run(calls, timeline, seconds, tally)
    labels = {call.label for call in calls}
    frequent = max(sorted(labels), key=[call.label for call in calls].count)
    for label in ("import", "probe", *sorted(labels)):
        walls = timeline.walls({label})
        if walls:
            print(f"# raw {label}: {len(walls)} calls, median {statistics.median(walls):.6g} s")
    print(f"# fail_frac {tally.failed / tally.attempted:.6g} ratio")
    return {
        "main_s": statistics.median(timeline.rescaled({calls[0].label})),
        "cmd_s": statistics.median(timeline.rescaled({frequent})),
        "setup_s": statistics.median(timeline.rescaled({"import"})),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def in_process(cli, call):
    """Run one call through ugckit.cli.main; returns (exit code, stdout). An
    exception escaping main is reported and counts as exit code -1, as a
    traceback would make the subprocess fail."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(call.argv)
    except Exception:
        traceback.print_exc()
        code = -1
    return code, out.getvalue()


def traced_run(calls, env, seconds, tally):
    """Alternate untraced and traced in-process passes, after one untraced
    warm-up pass, while another pair fits before the deadline (at least one
    pair); per-layer values are medians over the traced passes."""
    metrics = spans.import_breakdown(env)
    sys.path.insert(0, str(SRC))
    import ugckit
    import ugckit.cli as cli
    modules = {"cli": cli, "ugckit": ugckit}
    for layer in ("data", "gpr", "joints", "archive", "mechanics"):
        modules[layer] = sys.modules[f"ugckit.{layer}"]

    def one_pass(tracer=None):
        if tracer:
            tracer.install(modules)
        start = time.perf_counter()
        try:
            results = [in_process(cli, call) for call in calls]
        finally:
            wall = time.perf_counter() - start
            if tracer:
                tracer.uninstall()
        for call, (code, out) in zip(calls, results):
            tally.record(call.check(code, out))
        return wall

    one_pass()
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() + plain[-1] + traced[-1] <= deadline:
        plain.append(one_pass())
        tracer = spans.Tracer()
        traced.append(one_pass(tracer))
        layers.append(tracer.rollup())
    for name in layers[0]:
        metrics[name] = statistics.median(layer[name] for layer in layers)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["fail_frac"] = tally.failed / tally.attempted
    return metrics


def environment(seed, seconds, trace_flag) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed, "seconds": seconds, "trace": trace_flag, "commit": commit,
        "cli": f"{sys.executable} -m ugckit.cli with PYTHONPATH={SRC}",
        "blas_threads": BLAS_ENV,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still removes its work directory and stops its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ugckit" / "cli.py").is_file():
        print(f"error: no ugckit sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = cli_env()
        tally = Tally()
        paths = inputs.write_inputs(work, args.seed)
        spawn_ok(IMPORT_ARGV, env, work)  # warm-up: writes the bytecode cache
        if args.trace:
            calls = build_workload(args.workload, work, paths, args.seed, env)
            metrics = traced_run(calls, env, args.seconds, tally)
        else:
            metrics = end_to_end_run(args.workload, paths, args.seed, env, work,
                                     args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print("# env " + json.dumps(environment(args.seed, args.seconds, args.trace), sort_keys=True))
    units = LAYER_UNITS if args.trace else E2E_UNITS
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
