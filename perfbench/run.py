"""pathfact benchmark: `pathfact fit` jobs on seeded planted-partition inputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

A run draws its input sets from --seed, writes them as TSV/GMT/edge files,
and then starts one fit after another until --seconds have passed, with at
least MIN_FITS fits and at least one repeat of an input set. Every fit runs
``pathfact.cli.main(["fit", ...])`` in its own process, forked from a fresh
interpreter that has only imported pathfact (see child.py), with BLAS and
OpenMP pinned to one thread; import time is excluded.

With --trace 0 the run reports the end-to-end metrics: medians over the
fits for timings and memory, means over the input sets for the
deterministic quality scores. Timings are CPU seconds of the fit process,
which leave out time a shared host gives to other tenants, scaled to a
reference CPU speed by the speed probes each fit takes (see child.py): a
fit's seconds are multiplied by PROBE_REF_S over the median probe time
during that fit. The unscaled CPU seconds are kept as cpu_* in the fit
records. With --trace 1 every input set is fitted untraced and then traced,
without probes, and the run reports the per-layer metrics of the traced
fits (see layers.py) plus the tracing overhead, the median over these pairs
of traced minus untraced total_s, in unscaled CPU seconds.

Each fit is checked (checks.py) and fits of one input set must produce
byte-identical outputs. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the full record,
including environment, input sizes and sha256 digests, is written to
perfbench/results/. The run exits 2 without a result when the pathfact
sources are not in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import gen
import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_FITS = 3
PAIRS = 2  # untraced/traced pairs at least, with --trace 1
# every run must end within 180 s; fits still running at this point are
# killed and counted as failed
HARD_LIMIT_S = 165.0
BLAS_THREADS = "1"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
FIT_FLAGS = ("--xi", "10", "--beta-a", "2")
# child.probe() takes this long at the reference speed, to which the timings
# of untraced fits are scaled. On a 2-vCPU Intel Xeon host under Python 3.11
# and OpenBLAS the probe takes about 0.2 ms when the host is quiet and
# 0.3-0.6 ms inside fits on a contended host.
PROBE_REF_S = 2.8e-4
SCALED = ("total_s", "setup_s", "fit_s", "write_s")
EXIT_MAX_SWEEPS = 3  # the CLI's exit code when a fit stops at its sweep budget


@dataclass(frozen=True)
class Workload:
    shape: gen.Shape
    flags: tuple
    panel: int  # input sets drawn per run


# Why each workload exists is recorded in BENCHMARK.json. Both run a fixed
# number of sweeps: the sweeps to convergence vary by about 15% between
# input sets of one shape, more than a timing bound can absorb. A panel of
# input sets per run averages out how line-search work varies with the data.
WORKLOADS = {
    "sweeps-small": Workload(
        shape=gen.Shape(120, 4, 60, 10),
        flags=("--max-sweeps", "20"),
        panel=8,
    ),
    "sweeps-wide": Workload(
        shape=gen.Shape(500, 10, 2000, 50),
        flags=("--max-sweeps", "1"),
        panel=3,
    ),
}

END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "fit_s": "s",
    "peak_rss_mb": "MB",
    "objective": "nats",
    "mask_auc": "auc",
    "rmse": "expr",
}
# Printed and recorded but left out of the result line and its bounds: on
# sweeps-small the write phase takes about 8 ms, and its run medians spread
# 14-22% across seeds, too close to the largest bound allowed (25%); the
# unscaled CPU seconds and the probe time show what the scaling did.
SUMMARY_ONLY = {"write_s": "s", "cpu_total_s": "s", "probe_s": "s"}
TIMINGS = ("total_s", "setup_s", "fit_s", "write_s", "peak_rss_mb")
QUALITY = ("objective", "mask_auc", "rmse")


@dataclass(frozen=True)
class InputSet:
    directory: Path
    files: dict  # name -> {"bytes", "sha256"}
    ids: checks.AlignedIds
    truth: gen.Truth


def child_env():
    env = dict(os.environ)
    env.pop("PATHFACT_THREADS", None)
    env.update(dict.fromkeys(THREAD_VARS, BLAS_THREADS))
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def machine():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "commit": commit or "unknown",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
    }


def make_inputs(workload, seed, work):
    sets = []
    for index in range(workload.panel):
        files, truth = gen.planted(workload.shape, [seed, index])
        directory = work / f"inputs{index}"
        record = gen.write_inputs(files, directory)
        sets.append(InputSet(directory, record, checks.aligned_ids(files), truth))
    return sets


def fit_args(inputs, workload, seed):
    d = inputs.directory
    return [
        "fit",
        "--expression", str(d / "expression.tsv"),
        "--labels", str(d / "labels.tsv"),
        "--gmt", str(d / "sets.gmt"),
        "--edges", str(d / "edges.tsv"),
        "--seed", str(seed),
        *FIT_FLAGS,
        *workload.flags,
    ]  # fmt: skip


def run_fits(plan, work, env, time_left):
    """Run the fit server on a plan; returns (software versions, fit records)."""
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    server = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), str(plan_path)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, errors = server.communicate(timeout=time_left)
    except subprocess.TimeoutExpired:
        os.killpg(server.pid, signal.SIGKILL)
        server.communicate()
        raise RuntimeError("fit server did not stop in time")
    index = work / "fits.json"
    if server.returncode != 0 or not index.is_file():
        tail = errors.strip().splitlines()[-1:] or [""]
        raise RuntimeError(f"fit server exited {server.returncode}: {tail[0]}")
    listing = json.loads(index.read_text())
    return listing["env"], listing["fits"]


def check_record(record, inputs):
    """Checks one fit and adds its timings, quality and per-layer metrics."""
    result_path = Path(record.pop("result"))
    out = Path(record.pop("out"))
    if record["problems"]:
        return
    if not result_path.is_file():
        record["problems"].append("fit wrote no result")
        return
    result = json.loads(result_path.read_text())
    record["exit"] = result["exit"]
    if result["boundary_marks"] != 2:
        record["problems"].append(
            f"fit boundary fired {result['boundary_marks'] // 2} times, expected once"
        )
        return
    problems, quality, digest = checks.check_fit(
        out, result["exit"], EXIT_MAX_SWEEPS, inputs.ids, inputs.truth
    )
    record["problems"] += problems
    record.update(digest=digest, quality=quality)
    record.update({key: result[key] for key in (*TIMINGS, "wall_total_s", "probes", "probe_s")})
    if result["probe_s"]:
        scale = PROBE_REF_S / result["probe_s"]
        for key in SCALED:
            record["cpu_" + key] = record[key]
            record[key] *= scale
    if record["traced"] and not problems:
        spans = json.loads(Path(result["spans"]).read_text())
        matrix_bytes = sum((out / name).stat().st_size for name in checks.MATRICES)
        input_bytes = sum(f["bytes"] for f in inputs.files.values())
        record["layers"] = layers.fit_metrics(
            spans, set(result["missing"]), result.get("report"), input_bytes, matrix_bytes
        )
        record["missing"] = result["missing"]


def metric(values, unit, statistic):
    """A metric's value over its samples; None marks it absent."""
    values = [v for v in values if v is not None]
    aggregate = statistics.median if statistic == "median" else statistics.fmean
    return {
        "value": aggregate(values) if values else None,
        "unit": unit,
        "statistic": statistic,
        "samples": len(values),
    }


def run_workload(name, seed, seconds, trace, started):
    workload = WORKLOADS[name]
    work = BENCH_DIR / "work" / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        sets = make_inputs(workload, seed, work)
        plan = {
            "sets": [fit_args(inputs, workload, seed) for inputs in sets],
            "out": str(work),
            "trace": trace,
            "probed": not trace,
            "seconds": seconds,
            "min_fits": 2 * PAIRS if trace else max(MIN_FITS, workload.panel + 1),
            "limit": HARD_LIMIT_S - (time.perf_counter() - started),
            "run_id": f"{name}-{seed}",
        }
        software, fits = run_fits(plan, work, child_env(), plan["limit"] + 10.0)
        for record in fits:
            check_record(record, sets[record["input_set"]])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = {}
    for record in fits:
        if record["problems"]:
            continue
        first = digests.setdefault(record["input_set"], record["digest"])
        if record["digest"] != first:
            record["problems"].append("outputs differ from an earlier fit of the same inputs")
    ok = [r for r in fits if not r["problems"]]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]

    if trace:
        samples = {
            key: [r["layers"][key] for r in traced]
            for key in layers.UNITS
            if key != layers.OVERHEAD
        }
        samples[layers.OVERHEAD] = [
            t["total_s"] - u["total_s"]
            for u, t in zip(fits[::2], fits[1::2])
            if not u["problems"] and not t["problems"]
        ]
        metrics = {key: metric(v, layers.UNITS[key], "median") for key, v in samples.items()}
    else:
        quality = {}
        for record in ok:
            quality.setdefault(record["input_set"], record["quality"])
        units = {**END_TO_END, **SUMMARY_ONLY}
        metrics = {key: metric([r[key] for r in untraced], units[key], "median") for key in TIMINGS}
        for key in QUALITY:
            metrics[key] = metric([q[key] for q in quality.values()], END_TO_END[key], "mean")
        # unscaled, for reading the scaled timings against
        metrics["cpu_total_s"] = metric([r.get("cpu_total_s") for r in untraced], "s", "median")
        metrics["probe_s"] = metric([r["probe_s"] for r in untraced], "s", "median")

    failed = sum(1 for r in fits if r["problems"])
    reported = bool(traced) if trace else all(m["value"] is not None for m in metrics.values())
    correct = failed == 0 and bool(untraced) and reported
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "software": software,
        "inputs": [s.files for s in sets],
        "fits": fits,
        "correct": correct,
        "attempted": len(fits),
        "failed": failed,
        "metrics": metrics,
    }
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return record


def print_summary(record):
    attempted, failed = record["attempted"], record["failed"]
    print(f"== {record['workload']} seed {record['seed']} trace {record['trace']}")
    print(f"   machine {json.dumps(record['machine'])}")
    print(f"   software {json.dumps(record['software'])}")
    for index, files in enumerate(record["inputs"]):
        for file_name, info in files.items():
            print(f"   input{index} {file_name} {info['bytes']} bytes sha256 {info['sha256']}")
    for fit in record["fits"]:
        for problem in fit["problems"]:
            print(f"   FAILED fit on input{fit['input_set']}: {problem}")
    print(f"   {'failed_frac':34s} {failed / attempted:.4g} ({failed} of {attempted} fits)")
    for key, m in record["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"   {key:34s} {value} {m['unit']} ({m['statistic']} of {m['samples']})")


def result_line(correct, attempted, failed, metrics):
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                k: {"value": m["value"], "unit": m["unit"]}
                for k, m in metrics.items()
                if k.rpartition("/")[2] not in SUMMARY_ONLY
            },
        }
    )


def main(argv=None):
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pathfact" / "cli.py").is_file():
        print(f"error: no pathfact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        record = run_workload(args.workload, args.seed, args.seconds, args.trace, started)
        print_summary(record)
        print(result_line(record["correct"], record["attempted"], record["failed"], record["metrics"]))
        return 0

    records = []
    for name in WORKLOADS:
        records.append(run_workload(name, args.seed, args.seconds, args.trace, time.perf_counter()))
        print_summary(records[-1])
    print(
        result_line(
            all(r["correct"] for r in records),
            sum(r["attempted"] for r in records),
            sum(r["failed"] for r in records),
            {f"{r['workload']}/{k}": m for r in records for k, m in r["metrics"].items()},
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
