"""Whole-pipeline benchmark of ``python -m repro``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measured operation is one
``python -m repro`` process started from this one; it sets the
workload up, runs operations until ``--seconds`` have passed,
checks every operation's output, and prints one JSON object as the last
line of stdout.  With ``--trace 0`` it reports the end-to-end metrics
(medians over the run's operations); with ``--trace 1`` it alternates
untraced operations with traced ones (``child.py trace``) and reports
per-layer self times and counters.  See ``perfbench/README.md`` for
why each workload exists and what each metric is meant to judge.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from child import ANALYSIS_SEED, CYCLES, DESIGN, WORKLOADS
from spans import inclusive, self_times

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

#: The paper's flow on the largest built-in design at the default
#: budget, plus a deterministic explainer sample.
ANALYZE = ["analyze", DESIGN, "--workloads", str(WORKLOADS),
           "--cycles", str(CYCLES), "--explain-sample", "3",
           "--seed", str(ANALYSIS_SEED)]

#: Every process a run starts is killed once the run is this old, so
#: a hung operation still leaves time to report it.
RUN_LIMIT_S = 170.0
OP_TIMEOUT_S = 100.0
#: Pool jobs for ``--eco``: one per usable CPU, never more.
JOBS = len(os.sched_getaffinity(0))

WORKLOAD_NAMES = ("cold-analyze", "warm-replay", "eco-edit")

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "gcn_val_acc": "fraction", "gcn_margin": "fraction",
    "score_conformity": "fraction",
}

#: Layer spans whose summed self time is reported as ``<name>_s``.
LAYER_SPANS = (
    "repro.import", "sim.workloads", "fi.campaign", "fi.eco_campaign",
    "features.extract", "features.patch", "graph.build",
    "netlist.read_verilog", "nn.classifier_train", "nn.regressor_train",
    "models.baselines", "models.transfer", "explain.explain",
    "store.replay", "store.put", "cli.main",
)
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    "fi.fault_cycles": "count", "fi.fault_cycles_per_s": "1/s",
    "fi.campaign_parallelism": "ratio", "fi.failures": "count",
    "nn.epochs_run": "count", "nn.epoch_s": "s",
    "explain.nodes_per_s": "1/s", "fi.eco_dirty_faults": "count",
    "fi.eco_reuse_fraction": "fraction", "store.hits": "count",
    "store.misses": "count", "store.hit_ratio": "fraction",
    "store.bytes_written": "bytes", "trace.total_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The workload could not be set up; no result is printed."""


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def child_env(work: Path) -> dict:
    """The children's environment: this checkout's ``src`` first on
    the path, no ambient store, temp files inside the work directory,
    and bytecode cached in the checkout (set-up writes it before any
    timing, as an installed package would have it).  Thread-count
    variables are passed through unpinned on purpose."""
    env = dict(os.environ)
    env.pop("REPRO_STORE", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(work / "tmp")
    return env


def run_process(argv, out: Path, env: dict, timeout: float) -> dict:
    """Run one process to completion and measure it.

    ``os.wait4`` returns the resource use of the child and of every
    descendant it reaped (pool workers), so ``cpu_s`` covers the whole
    process tree and ``peak_rss_mb`` is the largest RSS in it.  The
    child leads its own process group, which a timeout kills whole.
    """
    err = out.with_suffix(".err")
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr,
                                env=env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, [proc.pid])
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # SIGTERM/^C: take the tree down too
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # orphaned workers, if any
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": out.read_text(encoding="utf-8", errors="replace"),
        "stderr_tail": err.read_text(encoding="utf-8",
                                     errors="replace")[-2000:],
    }


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def repro_argv(*args: str):
    return [sys.executable, "-m", "repro", *args]


def child_argv(*args: str):
    return [sys.executable, str(HERE / "child.py"), *args]


def require_ok(result: dict, what: str) -> dict:
    """``result`` of a set-up process, or :class:`BenchError`."""
    if result["exit_code"] != 0:
        raise BenchError(f"{what} exited {result['exit_code']}:\n"
                         f"{result['stderr_tail']}")
    return result


def last_json(result: dict, what: str) -> dict:
    """The JSON object a helper process printed last."""
    return json.loads(
        require_ok(result, what)["stdout"].strip().splitlines()[-1])


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
#: Host-timing fields of the CLI's stdout, masked before hashing.
TIMING_COLUMNS = {"fi_seconds", "base_fi_seconds"}
TIMING_TEXT = re.compile(r"((?:re-simulated in|campaign took) )[0-9.]+s")


def masked(stdout: str) -> str:
    """The stdout with host timings blanked.

    Table borders are dropped because column widths follow the width
    of the timing values; the cells of the timing columns are replaced
    by ``*``.
    """
    lines, columns, header = [], set(), True
    for line in stdout.splitlines():
        if line.startswith("+"):
            continue
        if line.startswith("|"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if header:
                columns = {i for i, cell in enumerate(cells)
                           if cell in TIMING_COLUMNS}
                header = False
            else:
                cells = ["*" if i in columns else cell
                         for i, cell in enumerate(cells)]
            lines.append("|".join(cells))
            continue
        header = True
        lines.append(TIMING_TEXT.sub(r"\1*s", line))
    return "\n".join(lines)


def digest(stdout: str) -> str:
    return hashlib.sha256(masked(stdout).encode("utf-8")).hexdigest()


QUALITY = ("gcn_val_acc", "gcn_margin", "score_conformity")


def quality(stdout: str) -> dict:
    """The paper's result shape, parsed from ``analyze`` stdout."""
    bars = dict(re.findall(r"^  (\w+) +\|[# ]*\| ([0-9.]+)$", stdout,
                           re.MULTILINE))
    conformity = re.search(r"conformity_with_classifier: ([0-9.]+)",
                           stdout)
    if "GCN" not in bars or len(bars) < 2 or conformity is None:
        raise ValueError("analyze stdout lacks the accuracy chart or "
                         "the regression block")
    gcn = float(bars.pop("GCN"))
    return {
        "gcn_val_acc": gcn,
        # The chart prints 4 significant digits; round off the
        # float subtraction's last-bit noise.
        "gcn_margin": round(gcn - max(float(v) for v in bars.values()),
                            4),
        "score_conformity": float(conformity.group(1)),
    }


def shape_problem(stdout: str) -> str:
    """Empty when ``analyze`` stdout keeps the paper's result shape."""
    try:
        shape = quality(stdout)
    except ValueError as error:
        return str(error)
    if shape["gcn_margin"] <= 0:
        return "GCN does not beat the best baseline"
    return ""


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """One workload's set-up, operation and output checks."""

    def __init__(self, name: str, seed: int, work: Path,
                 deadline: float) -> None:
        self.name = name
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = child_env(work)
        self.serial = 0
        self.reference = None        # populate stdout (warm, eco)
        self.dirty_faults = None     # eco-edit: faults the edit dirties
        self.setup_checks: dict = {}
        self.setup_failures: list = []

    def path(self, stem: str) -> Path:
        return self.work / stem

    def fresh(self, stem: str) -> Path:
        """A new, numbered path in the work directory."""
        self.serial += 1
        return self.path(f"{stem}{self.serial}")

    def run(self, argv, out: Path) -> dict:
        """Run one process, killed at the operation or run time limit."""
        left = self.deadline - time.perf_counter()
        return run_process(argv, out, self.env,
                           max(1.0, min(OP_TIMEOUT_S, left)))

    # -- set-up ----------------------------------------------------------
    def setup_repeats(self) -> int:
        """Cold set-up is cheap enough to repeat; the others populate
        a store, which costs a whole cold analysis."""
        return 3 if self.name == "cold-analyze" else 1

    def setup(self) -> None:
        if self.name == "cold-analyze":
            # Fill the page cache and the bytecode cache, so the first
            # measured op pays for neither.
            require_ok(self.run([sys.executable, "-c",
                                 "import repro.__main__"],
                                self.fresh("warmup")), "import warm-up")
            return
        store = self.path("store")
        shutil.rmtree(store, ignore_errors=True)
        populate = require_ok(
            self.run(repro_argv(*ANALYZE, "--store", str(store)),
                     self.path("populate.out")), "store populate")
        self.reference = populate["stdout"]
        problem = shape_problem(self.reference)
        if problem:
            raise BenchError(f"populate run: {problem}")
        if self.name == "eco-edit":
            check_store = self.path("check-store")
            shutil.copytree(store, check_store)
            check = last_json(self.run(
                child_argv("eco-setup", "--seed", str(self.seed),
                           "--store", str(check_store),
                           "--verilog", str(self.path("edited.v")),
                           "--jobs", str(JOBS)),
                self.path("eco-setup.out")), "eco set-up")
            self.dirty_faults = check["dirty_faults"]
            self.setup_checks = {
                "eco_edits": check["edits"],
                "eco_dirty_faults": check["dirty_faults"],
                "eco_merged_equals_scratch": check["ok"],
            }
            if not check["ok"]:
                self.setup_failures.append(
                    "eco merged campaign differs from a from-scratch "
                    "campaign on the edited netlist")

    # -- one operation ---------------------------------------------------
    def op_argv(self) -> list:
        """The CLI arguments of the next operation (its store ready)."""
        if self.name == "cold-analyze":
            return [*ANALYZE, "--store", str(self.fresh("store"))]
        if self.name == "warm-replay":
            return [*ANALYZE, "--store", str(self.path("store"))]
        # Each ECO op starts from the populated store: a copy, so an
        # earlier op's writes never turn the next one into a replay.
        store = self.fresh("eco-store")
        shutil.copytree(self.path("store"), store)
        return [*ANALYZE, "--store", str(store), "--jobs", str(JOBS),
                "--eco", str(self.path("edited.v"))]

    def check(self, stdout: str) -> str:
        """Empty when ``stdout`` is a correct result, else why not."""
        if self.name == "warm-replay":
            return ("" if stdout == self.reference
                    else "warm stdout differs from the populate run")
        if self.name == "eco-edit":
            summary = re.search(r"\d+/\d+ cached rows merged, (\d+) "
                                r"re-simulated", stdout)
            if summary is None:
                return "eco stdout lacks the fault-reuse line"
            if int(summary.group(1)) != self.dirty_faults:
                return "eco re-simulated a different fault count"
            return ""
        return shape_problem(stdout)

    def quality(self, passed: list) -> dict:
        """The result shape of the analysis this workload ran: the op's
        own on cold-analyze, the populated baseline's otherwise."""
        if self.reference is not None:
            return quality(self.reference)
        if passed:
            return quality(passed[0]["stdout"])
        return dict.fromkeys(QUALITY, 0.0)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def measure(workload: Workload, seconds: float, traced: bool) -> dict:
    """Run operations for ``seconds``; return samples and checks.

    An operation fails when it exits nonzero or times out, when its
    output fails the workload's check, or when its masked stdout
    digest differs from the run's first one.
    """
    ops, traces, failures, digests = [], [], [], []

    def verdict(exit_code: int, stdout: str, stderr: str) -> bool:
        problem = (f"exit {exit_code}: {stderr[-300:]}" if exit_code
                   else workload.check(stdout))
        if not problem:
            digests.append(digest(stdout))
            if digests[-1] != digests[0]:
                problem = "stdout digest differs from the first op's"
        if problem:
            failures.append(problem)
        return not problem

    started = time.perf_counter()
    while True:
        result = workload.run(repro_argv(*workload.op_argv()),
                              workload.fresh("op"))
        result["ok"] = verdict(result["exit_code"], result["stdout"],
                               result["stderr_tail"])
        ops.append(result)
        if traced:
            trace = traced_op(workload)
            if verdict(trace["exit_code"], trace["stdout"],
                       trace["stderr_tail"]):
                traces.append(trace)
        if time.perf_counter() - started >= seconds:
            break
    return {"ops": ops, "traces": traces, "failures": failures,
            "digests": sorted(set(digests))}


def traced_op(workload: Workload) -> dict:
    """One operation in the traced child, with its spans."""
    argv = workload.op_argv()
    spans_path = workload.fresh("spans")
    stdout_path = workload.fresh("traced")
    result = workload.run(
        child_argv("trace", "--spans", str(spans_path),
                   "--stdout", str(stdout_path), "--", *argv),
        workload.fresh("tracer"))
    if result["exit_code"] == 0:
        result["stdout"] = stdout_path.read_text(encoding="utf-8")
        result.update(json.loads(spans_path.read_text(encoding="utf-8")))
    return result


def layer_metrics(trace: dict) -> dict:
    """Per-layer numbers of one traced operation."""
    spans, counters = trace["spans"], trace["counters"]
    own = self_times(spans)
    metrics = {f"{name}_s": own.get(name, 0.0) for name in LAYER_SPANS}
    fi_wall = (inclusive(spans, "fi.campaign")
               + inclusive(spans, "fi.eco_campaign"))
    fi_cpu = (inclusive(spans, "fi.campaign", "cpu_s")
              + inclusive(spans, "fi.eco_campaign", "cpu_s"))
    fault_cycles = counters.get("fi.fault_cycles", 0)
    epochs = counters.get("nn.epochs_run", 0)
    train = inclusive(spans, "nn.classifier_train") + inclusive(
        spans, "nn.regressor_train")
    explain = inclusive(spans, "explain.explain")
    eco_faults = counters.get("fi.eco_faults", 0)
    dirty = counters.get("fi.eco_dirty_faults", 0)
    hits, misses = counters.get("store.hits", 0), counters.get(
        "store.misses", 0)
    metrics.update({
        "fi.fault_cycles": fault_cycles,
        "fi.fault_cycles_per_s": fault_cycles / fi_wall if fi_wall else 0.0,
        "fi.campaign_parallelism": fi_cpu / fi_wall if fi_wall else 0.0,
        "fi.failures": counters.get("fi.failures", 0),
        "nn.epochs_run": epochs,
        "nn.epoch_s": train / epochs if epochs else 0.0,
        "explain.nodes_per_s": (counters.get("explain.nodes", 0) / explain
                                if explain else 0.0),
        "fi.eco_dirty_faults": dirty,
        "fi.eco_reuse_fraction": (1 - dirty / eco_faults
                                  if eco_faults else 0.0),
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.bytes_written": counters.get("store.bytes_written", 0),
        "trace.total_s": trace["wall_s"],
    })
    return metrics


def report(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def run(args) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = (ROOT / ".perfbench_work"
            / f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    try:
        workload = Workload(args.workload, args.seed, work, deadline)
        host = last_json(workload.run(child_argv("host"),
                                      workload.path("host.out")),
                         "host probe")
        setup_samples = []
        for _ in range(1 if args.trace else workload.setup_repeats()):
            started = time.perf_counter()
            workload.setup()
            setup_samples.append(time.perf_counter() - started)
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops, traces = result["ops"], result["traces"]
    failures = workload.setup_failures + result["failures"]
    # Failed operations are reported, not hidden: if none passed, the
    # metrics come from the failed ones and ``correct`` is false.
    passed = [op for op in ops if op["ok"]] or ops
    if args.trace:
        per_op = [layer_metrics(trace) for trace in traces] or [
            dict.fromkeys(PER_LAYER_UNITS, 0.0)]
        values = {name: statistics.median(m[name] for m in per_op)
                  for name in per_op[0]}
        values["trace.overhead_s"] = values["trace.total_s"] - \
            statistics.median(op["wall_s"] for op in passed)
        metrics = report(values, PER_LAYER_UNITS)
    else:
        values = {key: statistics.median(op[key] for op in passed)
                  for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setup_samples)
        values.update(workload.quality(
            [op for op in ops if op["ok"]]))
        metrics = report(values, END_TO_END_UNITS)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "host": host,
        "samples": len(ops), "traced_samples": len(traces),
        "wall_s_samples": [op["wall_s"] for op in ops],
        "setup_s_samples": setup_samples,
        "stdout_digests": result["digests"],
        "setup_checks": workload.setup_checks,
        "failures": failures,
    }))
    attempted = len(ops) * (2 if args.trace else 1)
    return {"correct": not failures, "attempted": attempted,
            "failed": len(result["failures"]), "metrics": metrics}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [path for path in ("src/repro/__main__.py",
                                 "benchmarks/hostinfo.py")
               if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: run from the root of a repro checkout "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    try:
        result = run(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
