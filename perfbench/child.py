"""Fit server: imports pathfact once, then forks one process per fit job.

Usage: python3 child.py PLAN_JSON

Every fit runs ``pathfact.cli.main(["fit", ...])`` in a process forked from
this interpreter right after its imports, so each fit starts from the same
just-imported state and no fit pays, or is timed with, the import cost.
One boundary timer around the ``fit`` call that the CLI makes splits the
command into set-up (parsing, alignment, hyperparameters), fit, and write
(summaries and the seven outputs). Timings are CPU seconds of the fit
process (user and system): with BLAS on one thread and the inputs in the
page cache a fit never waits, so this equals its wall time on an idle
machine, but it leaves out the time a shared host gives to other tenants.
The wall time of the whole command is recorded alongside. A traced fit also wraps the functions in
TARGETS and writes its spans next to its result.

On a shared host the speed of a CPU also changes from one second to the
next, by up to a half, as other tenants load the core it shares; a slow
spell can last ten seconds and more. So an
untraced fit of a probed plan samples that speed as it runs: every
PROBE_PERIOD_S of CPU time a profiling timer runs ``probe()``, a fixed
job that uses no pathfact code, and records how long it took.
The fit's timings leave out the probes' own time, and the result carries
the median probe time, by which run.py scales the timings to a fixed
reference speed. The probe shares the fit's process, so what the fit does
between probes moves it a little too: inside sweeps-wide fits, which are
BLAS-heavy, it runs about 30% slower than inside sweeps-small fits.

The plan names the fit arguments of each input set, the output directory,
and the loop: fits are started until ``seconds`` have passed and at least
``min_fits`` have run, each input set in turn; with ``trace`` every set is
fitted untraced and then traced, and with ``probed`` the untraced fits
sample the CPU's speed. No fit is started, and a running one is
killed, once ``limit`` seconds have passed since this process started.
"""

import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback

import numpy
import scipy

import pathfact.cli as cli
from spans import Tracer, install


def _cluster_variant(args, kwargs):
    return ":value" if kwargs.get("with_grad", True) is False else ""


# (module, attribute, variant): the public functions of each layer on the
# fit path, plus the two coupling line-search objectives
TARGETS = (
    ("cli", "main", None),
    ("dataio", "load_expression", None),
    ("dataio", "load_gmt", None),
    ("dataio", "load_edge_list", None),
    ("dataio", "align", None),
    ("dataio", "write_labeled_matrix", None),
    ("graph", "normalized_laplacian", None),
    ("model", "factor_moments", None),
    ("model", "regularized_objective", None),
    ("model", "summarize", None),
    ("inference", "fit", None),
    ("inference", "update_cluster", None),
    ("inference", "cluster_objective_and_grad", _cluster_variant),
    ("inference", "update_coupling", None),
    ("inference", "_CouplingProblem.value", None),
    ("inference", "_CouplingProblem.value_and_grad", None),
    ("dist", "trunc_norm_moments", None),
)


PROBE_PERIOD_S = 0.01  # CPU seconds between two speed probes
_PROBE_MATRIX = numpy.random.default_rng(0).standard_normal((64, 64))
_PROBE_VECTOR = numpy.linspace(0.0, 1.0, 40)
# preallocated, so that a probe allocates no memory and its time does not
# depend on the state of the fit's heap
_PROBE_PRODUCTS = numpy.empty((2, 64, 64))
_PROBE_TERMS = numpy.empty((2, 40))


def probe():
    """A fixed job of about 0.2 ms: a chain of small matrix products, then a
    few ufunc calls on a short vector that take about a sixth of the time.

    On a shared host the ufunc calls slow down more than a fit does when the
    CPU is contended, and the products less; this blend slowed down about as
    much as fits of both workloads did (checked against fits of each, with an
    interpreter loop, ufunc calls and matrix products timed separately)."""
    current, spare = _PROBE_PRODUCTS
    current[...] = _PROBE_MATRIX
    for _ in range(12):
        numpy.matmul(current, _PROBE_MATRIX, out=spare)
        numpy.multiply(spare, 0.1, out=current)
    total = 0.0
    terms, scratch = _PROBE_TERMS
    for _ in range(10):
        numpy.negative(_PROBE_VECTOR, out=scratch)
        numpy.exp(scratch, out=terms)
        numpy.multiply(terms, _PROBE_VECTOR, out=terms)
        numpy.add(terms, 0.5, out=terms)
        total += float(terms.sum())
    return total


class SpeedProbe:
    """Runs probe() from a profiling timer and records how long each took."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        probe()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)


def environment():
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def run_fit(argv, result_path, run_id, traced, probed):
    """Body of a forked fit process: run the command, write the result."""
    modules = {
        name.rpartition(".")[2]: module
        for name, module in sys.modules.items()
        if name == "pathfact" or name.startswith("pathfact.")
    }
    tracer = None
    missing = []
    reports = []
    fit_call = cli.fit
    if traced:
        tracer = Tracer(run_id)
        missing = install(tracer, modules, TARGETS)
        traced_fit = cli.fit

        def fit_call(*args, **kwargs):
            report = traced_fit(*args, **kwargs)
            reports.append(report)
            return report

    speed = SpeedProbe()

    def clock():
        """CPU seconds of the process, less the probes' own time."""
        return time.process_time() - speed.spent

    marks = []

    def boundary(*args, **kwargs):
        marks.append(clock())
        try:
            return fit_call(*args, **kwargs)
        finally:
            marks.append(clock())

    cli.fit = boundary
    if probed:
        speed.start()
    wall_start = time.perf_counter()
    start = clock()
    code = cli.main(argv)
    end = clock()
    wall_end = time.perf_counter()
    speed.stop()

    result = {
        "exit": code,
        "boundary_marks": len(marks),
        "total_s": end - start,
        "wall_total_s": wall_end - wall_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "probes": len(speed.samples),
        "probe_s": statistics.median(speed.samples) if speed.samples else None,
    }
    if len(marks) == 2:
        result.update(
            setup_s=marks[0] - start, fit_s=marks[1] - marks[0], write_s=end - marks[1]
        )
    if tracer is not None:
        spans_path = result_path + ".spans.json"
        tracer.dump(spans_path)
        result["spans"] = spans_path
        result["missing"] = missing
        if reports:
            report = reports[0]
            result["report"] = {
                "sweeps": report.sweeps,
                "block_seconds": dict(report.block_seconds),
            }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


class _Expired(Exception):
    pass


def _expire(signum, frame):
    raise _Expired


def fork_fit(argv, result_path, run_id, traced, probed, time_left):
    """Run one fit in a forked process; returns a problem or None."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            sys.stdout = open(os.devnull, "w")
            run_fit(argv, result_path, run_id, traced, probed)
        except BaseException:
            traceback.print_exc()
            status = 1
        finally:
            sys.stderr.flush()
            os._exit(status)
    signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, max(time_left, 0.001))
    try:
        _, status = os.waitpid(pid, 0)
    except _Expired:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        return "fit did not finish before the run's time limit"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if status != 0:
        return f"fit process ended with status {status}"
    return None


def main():
    started = time.perf_counter()
    with open(sys.argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    sets, out, trace = plan["sets"], plan["out"], plan["trace"]
    fits = []
    loop_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if len(fits) >= plan["min_fits"] and now - loop_start >= plan["seconds"]:
            break
        time_left = plan["limit"] - (now - started)
        if time_left <= 0:
            break
        index = len(fits)
        set_index = (index // 2 if trace else index) % len(sets)
        traced = bool(trace) and index % 2 == 1
        result_path = os.path.join(out, f"fit{index}.json")
        argv = [*sets[set_index], "--out", os.path.join(out, f"fit{index}")]
        problem = fork_fit(
            argv, result_path, f"{plan['run_id']}-{index}", traced, plan["probed"], time_left
        )
        fits.append(
            {
                "input_set": set_index,
                "traced": traced,
                "result": result_path,
                "out": os.path.join(out, f"fit{index}"),
                "problems": [problem] if problem else [],
            }
        )
    with open(os.path.join(out, "fits.json"), "w", encoding="utf-8") as handle:
        json.dump({"env": environment(), "fits": fits}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
