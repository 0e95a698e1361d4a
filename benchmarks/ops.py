"""One op of each in-process workload, through the package's public entry points."""

from __future__ import annotations

IN_PROCESS = ("batch_rank", "trace_json", "ingest")


def run_op(api, workload: str, data: bytes, alpha: float, normalization: str):
    """Run one document through the workload's path.

    ``api`` is the ``intervalfusion`` package (or anything exposing the same
    names). Returns ``(problem, report, output bytes)``; ``report`` and
    ``output`` are None for ``ingest``, which only loads.
    """
    problem = api.load_problem(data, alpha=alpha)
    if workload == "ingest":
        return problem, None, None
    report = api.rank_alternatives(problem, criterion_normalization=normalization)
    if workload == "trace_json":
        return problem, report, api.emit_report(report, mode=api.FULL_TRACE, fmt=api.JSON_FORMAT)
    return problem, report, api.emit_report(report)
