"""CSV and JSON artifact writers. Float formatting round-trips exactly, so
identical runs produce byte-identical files."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .networks import params_to_jsonable


def _fmt(v):
    return f"{float(v):.17g}"


def write_loss_history(path, records):
    lines = ["step,round,total,interior,overlap,l2_error,phase"]
    for r in records:
        lines.append(f"{r.step},{r.round},{_fmt(r.total)},{_fmt(r.interior)},"
                     f"{_fmt(r.overlap)},{_fmt(r.l2_error)},{r.phase}")
    Path(path).write_text("\n".join(lines) + "\n")


def _write_float_rows(path, header, columns):
    """CSV of float columns, written row by row: the dense solution grids
    have tens of thousands of rows, and holding their whole text at once
    would set the run's peak memory. "%.17g" gives the text of _fmt for
    every float64."""
    row_fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(row_fmt % row)


def write_solution(path, x, pred, exact):
    _write_float_rows(path, "x,u_pred,u_exact", (x, pred, exact))


def write_summary(path, report, extra=None):
    final = report.final_loss
    results = {
        "initial_loss": report.initial_loss,
        "final_loss": None if final is None else {
            "total": final.total, "interior": final.interior,
            "overlap": final.overlap, "boundary": final.boundary},
        "final_l2_error": report.final_l2,
        "steps": max((r.step for r in report.records), default=0),
        "records": len(report.records),
        "phases": report.phases,
        "wall_time_s": report.wall_time_s,
    }
    if extra:
        results.update(extra)
    payload = {"config": report.config, "results": results}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_checkpoints(outdir, state):
    ckpt = Path(outdir) / "checkpoints"
    ckpt.mkdir(parents=True, exist_ok=True)
    for j, params in enumerate(state.params, start=1):
        (ckpt / f"subdomain_{j:02d}.json").write_text(
            json.dumps(params_to_jsonable(params)) + "\n")
    if state.coarse_params is not None:
        (ckpt / "coarse.json").write_text(
            json.dumps(params_to_jsonable(state.coarse_params)) + "\n")


def write_run_artifacts(outdir, report, state=None):
    """loss_history.csv, solution.csv, summary.json, plus parameter
    checkpoints and the decomposition layout when a state is given."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_loss_history(out / "loss_history.csv", report.records)
    if report.solution_x is not None:
        write_solution(out / "solution.csv", report.solution_x,
                       report.solution_pred, report.solution_exact)
    write_summary(out / "summary.json", report)
    if state is not None:
        write_checkpoints(out, state)
        (out / "decomposition.json").write_text(
            json.dumps(state.decomposition.to_jsonable(), indent=2) + "\n")
    return out


def write_sweep_summary(path, rows):
    """rows: (J, p, final_loss, final_l2_error, steps, status)."""
    lines = ["J,p,final_loss,final_l2_error,steps,status"]
    for J, p, loss, l2, steps, status in rows:
        loss_s = _fmt(loss) if loss is not None else ""
        l2_s = _fmt(l2) if l2 is not None else ""
        lines.append(f"{J},{p},{loss_s},{l2_s},{steps},{status}")
    Path(path).write_text("\n".join(lines) + "\n")


def scalability_trends(rows):
    """Per communication interval, order completed sweep cells by subdomain
    count and flag adjacent pairs where more subdomains reached a lower
    final loss. An inversion [a, b] means J=b undercut J=a."""
    by_p = {}
    for J, p, loss, _l2, _steps, status in rows:
        if status == "ok":
            by_p.setdefault(p, []).append((J, loss))
    trends = []
    for p in sorted(by_p):
        cells = sorted(by_p[p])
        inversions = [[a, b] for (a, la), (b, lb) in zip(cells, cells[1:])
                      if lb < la]
        trends.append({
            "communication_interval": p,
            "final_loss_by_subdomains": {str(J): loss for J, loss in cells},
            "inversions": inversions,
        })
    return trends


def write_trends(path, trends):
    Path(path).write_text(json.dumps(trends, indent=2) + "\n")


def write_coarse_solution(path, x, coarse, local, combined, exact):
    _write_float_rows(path, "x,u_coarse,u_local,u_combined,u_exact",
                      (x, coarse, local, combined, exact))
