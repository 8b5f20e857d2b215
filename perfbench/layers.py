"""Per-layer metrics of one traced fit, derived from its spans.

Times are CPU seconds, summed over a function's spans including its
callees unless the name says ``self``. ``inference.objective_checks_s`` is
the time of the objective evaluations that ``fit`` itself makes after each
block. ``inference.block.*_s`` come from ``FitReport.block_seconds``, which
the program measures in wall seconds; they and ``inference.sweep_s`` are per
sweep, everything else is per fit. Ratios whose base is zero (no line-search
evaluation happened, as in the cluster block at ``zeta = 1``) read 0, and
``*_evals_per_block`` gives their base. A metric whose wrapped function no
longer exists reads None, which the benchmark reports as absent.
"""

from spans import self_times

OVERHEAD = "trace.overhead_s"  # traced minus untraced total_s, set by run.py
BLOCKS = ("noise", "association", "basis", "cluster", "coupling")

# line-search blocks: block span, trial-evaluation span, gradient-evaluation
# span; text after ':' names a variant of one wrapped function
LINE_SEARCHES = {
    "cluster": (
        "inference.update_cluster",
        "inference.cluster_objective_and_grad:value",
        "inference.cluster_objective_and_grad",
    ),
    "coupling": (
        "inference.update_coupling",
        "inference._CouplingProblem.value",
        "inference._CouplingProblem.value_and_grad",
    ),
}

UNITS = {
    "cli.self_s": "s",
    "dataio.load_expression_s": "s",
    "dataio.load_gmt_s": "s",
    "dataio.load_edge_list_s": "s",
    "dataio.align_s": "s",
    "dataio.read_mb_per_s": "MB/s",
    "dataio.write_labeled_matrix_s": "s",
    "dataio.write_mb_per_s": "MB/s",
    "graph.normalized_laplacian_s": "s",
    "graph.normalized_laplacian.calls": "count",
    "model.factor_moments.calls": "count",
    "model.factor_moments_s": "s",
    "model.regularized_objective.calls": "count",
    "model.regularized_objective_s": "s",
    "model.summarize_s": "s",
    "inference.sweeps": "count",
    "inference.sweep_s": "s",
    "inference.objective_checks_s": "s",
    **{f"inference.block.{b}_s": "s" for b in BLOCKS},
    **{
        name: unit
        for kind in LINE_SEARCHES
        for name, unit in (
            (f"inference.{kind}_evals_per_block", "count"),
            (f"inference.{kind}_eval_s", "s"),
            (f"inference.{kind}_accept_ratio", "ratio"),
        )
    },
    "dist.trunc_norm_moments.calls": "count",
    "dist.trunc_norm_moments_s": "s",
    OVERHEAD: "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def line_search_stats(spans, kind):
    """(evaluations per block, seconds per evaluation, accepted steps per
    trial) for one line-search block. A block evaluates the gradient once
    at its start and once after each accepted step."""
    block_name, trial_name, grad_name = LINE_SEARCHES[kind]
    blocks = {i for i, s in enumerate(spans) if s["name"] == block_name}
    grads = {}
    trials = evals = 0
    eval_seconds = 0.0
    for s in spans:
        if s["parent"] in blocks and s["name"] in (trial_name, grad_name):
            evals += 1
            eval_seconds += s["end"] - s["start"]
            if s["name"] == trial_name:
                trials += 1
            else:
                grads[s["parent"]] = grads.get(s["parent"], 0) + 1
    accepted = sum(count - 1 for count in grads.values())
    return _ratio(evals, len(blocks)), _ratio(eval_seconds, evals), _ratio(accepted, trials)


def fit_metrics(spans, missing, report, input_bytes, matrix_bytes):
    """Every per-layer metric except the tracing overhead, for one fit."""
    seconds, calls = {}, {}
    for s in spans:
        seconds[s["name"]] = seconds.get(s["name"], 0.0) + s["end"] - s["start"]
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    selfs = self_times(spans)

    def total(name):
        return None if name in missing else seconds.get(name, 0.0)

    def count(name):
        return None if name in missing else calls.get(name, 0)

    loads = [total(f"dataio.{n}") for n in ("load_expression", "load_gmt", "load_edge_list")]
    write_s = total("dataio.write_labeled_matrix")
    out = {
        "cli.self_s": None
        if "cli.main" in missing
        else sum(t for s, t in zip(spans, selfs) if s["name"] == "cli.main"),
        "dataio.load_expression_s": loads[0],
        "dataio.load_gmt_s": loads[1],
        "dataio.load_edge_list_s": loads[2],
        "dataio.align_s": total("dataio.align"),
        "dataio.read_mb_per_s": None if None in loads else _ratio(input_bytes / 1e6, sum(loads)),
        "dataio.write_labeled_matrix_s": write_s,
        "dataio.write_mb_per_s": None if write_s is None else _ratio(matrix_bytes / 1e6, write_s),
        "graph.normalized_laplacian_s": total("graph.normalized_laplacian"),
        "graph.normalized_laplacian.calls": count("graph.normalized_laplacian"),
        "model.factor_moments.calls": count("model.factor_moments"),
        "model.factor_moments_s": total("model.factor_moments"),
        "model.regularized_objective.calls": count("model.regularized_objective"),
        "model.regularized_objective_s": total("model.regularized_objective"),
        "model.summarize_s": total("model.summarize"),
        "dist.trunc_norm_moments.calls": count("dist.trunc_norm_moments"),
        "dist.trunc_norm_moments_s": total("dist.trunc_norm_moments"),
    }

    sweeps = report["sweeps"] if report else None
    blocks = report["block_seconds"] if report else {}
    fit_s = total("inference.fit")
    out["inference.sweeps"] = sweeps
    out["inference.sweep_s"] = None if not sweeps or fit_s is None else fit_s / sweeps
    for block in BLOCKS:
        value = blocks.get(block)
        out[f"inference.block.{block}_s"] = None if value is None or not sweeps else value / sweeps
    fits = {i for i, s in enumerate(spans) if s["name"] == "inference.fit"}
    out["inference.objective_checks_s"] = (
        None
        if fit_s is None or "model.regularized_objective" in missing
        else sum(
            s["end"] - s["start"]
            for s in spans
            if s["parent"] in fits and s["name"] == "model.regularized_objective"
        )
    )
    for kind, span_names in LINE_SEARCHES.items():
        names = (
            f"inference.{kind}_evals_per_block",
            f"inference.{kind}_eval_s",
            f"inference.{kind}_accept_ratio",
        )
        if any(name.partition(":")[0] in missing for name in span_names):
            out.update(dict.fromkeys(names))
        else:
            out.update(zip(names, line_search_stats(spans, kind)))
    return out
