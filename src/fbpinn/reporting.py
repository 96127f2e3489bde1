"""CSV and JSON artifact writers. Float formatting round-trips exactly, so
identical runs produce byte-identical files: every float is written as
"%.17g" writes it (_fmt), and the solution CSVs get the same bytes from
whole-array arithmetic (_text)."""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import numpy as np

from .networks import params_to_jsonable

# Names below a run's directory that the CLI's output path check reads too
COARSE_SOLUTION = "coarse_solution.csv"
CHECKPOINTS, SUBDOMAIN_CHECKPOINT = "checkpoints", "subdomain_{:02d}.json"


def _fmt(v):
    return f"{float(v):.17g}"


def write_loss_history(path, records):
    lines = ["step,round,total,interior,overlap,l2_error,phase"]
    for r in records:
        lines.append(f"{r.step},{r.round},{_fmt(r.total)},{_fmt(r.interior)},"
                     f"{_fmt(r.overlap)},{_fmt(r.l2_error)},{r.phase}")
    Path(path).write_text("\n".join(lines) + "\n")


# _text gives the "%.17g" text of a whole array at once; "%.17g" costs
# about half a microsecond a value, as 17 digits take dtoa's bignum path.
# For finite v with 1e-6 < |v| < 1e17 it builds the text in two steps.
# Every other value goes through _fmt: zeros, subnormals, infinities, NaN,
# |v| >= 1e17, |v| < 1e-6 and the double 1e-6 itself, whose decimal
# exponent is -7.
#
# 1. Digits. With X the decimal exponent of v, 10**X <= |v| < 10**(X+1),
#    "%.17g" prints the integer nearest |v| * 10**(16 - X), ties to even,
#    as dtoa rounds the exact binary value. X is floor(log10|v|),
#    corrected by at most one step. 16 - X lies in 0..22, so 10**(16 - X)
#    is an exact double, and Dekker's product gives
#    |v| * 10**(16 - X) = p + err exactly. p lies in [1e16, 1e17], where
#    every double is an even integer, so the digits are p + rint(err), and
#    rint rounds ties to even too. No double of the range lies close
#    enough below a power of ten to round up to 10**17.
# 2. Text. The 17 digits, in ASCII, are bytes 1..17 of three little-endian
#    uint64 words; byte 0 takes the sign. A gap goes in among the digits:
#    "." after X + 1 of them in fixed notation (X >= 0), "." after one in
#    exponent notation (X = -6, -5), or "0." and -X - 1 zeros before all
#    of them (X = -4..-1). The fraction's trailing zeros, and a point with
#    no fraction left, become NULs, and "e-06" or "e-05" takes bytes
#    19..22. Each step is a lookup by X or a mask by the count of
#    significant digits.
# No text holds a NUL, so dropping every NUL of a block leaves its text.
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLITTER = 2.0 ** 27 + 1


def _split(a):
    """Veltkamp's split a = hi + lo into halves whose products are exact."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a, k):
    """(p, err) with a * 10**k = p + err exactly, p the rounded product
    (Dekker's product: nothing here overflows or underflows)."""
    p = a * _POW10.take(k)
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _words(texts):
    """(3, len(texts)) uint64 table of byte strings of at most 24 bytes,
    NUL-padded: byte i of a string is byte i % 8 of word i // 8."""
    return np.array(texts, "S24").view("<u8").reshape(-1, 3).T.astype(np.uint64)


def _group_tables():
    """By group of four digits, 0000..9999: its ASCII bytes as a word, and
    its digits up to its last nonzero one, -16 for 0000 so that it never
    counts."""
    groups = np.arange(10000, dtype=np.int32)
    chars = np.empty((10000, 4), np.uint8)
    significant = np.full(10000, -16, np.int8)
    for k, unit in enumerate((1000, 100, 10, 1)):
        chars[:, k] = groups // unit % 10 + ord("0")
        significant[chars[:, k] != ord("0")] = k + 1
    return chars.view("<u4").ravel().astype(np.uint64), significant


_ASCII4, _SIGNIFICANT4 = _group_tables()
_GROUP_START = np.array([[1], [5], [9], [13]])
_LOW_BYTES = _words([b"\xff" * k for k in range(25)])
# by X + 6, X = -6..16: digits before the gap, the gap, its bytes in place
# and the exponent suffix
_EXPONENTS = range(-6, 17)
_BEFORE = np.array([1 if x < -4 else max(x + 1, 0) for x in _EXPONENTS])
_GAPS = [b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"." for x in _EXPONENTS]
_GAP_LEN = np.array([len(gap) for gap in _GAPS])
_GAP_WORDS = _words([b"\0" * (1 + n) + gap for n, gap in zip(_BEFORE, _GAPS)])
_SUFFIX = _words([b"\0" * 19 + {-6: b"e-06", -5: b"e-05"}.get(x, b"")
                  for x in _EXPONENTS])[2]


def _vector_text(v):
    """(3, len(v)) words of the "%.17g" text of v, 1e-6 < |v| < 1e17, as
    the comment above describes."""
    a = np.abs(v)
    x = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)
    p, err = _times_pow10(a, 16 - x)
    step = (((p > 1e17) | ((p == 1e17) & (err >= 0))).astype(np.intp)
            - ((p < 1e16) | ((p == 1e16) & (err < 0))))
    moved = np.flatnonzero(step)
    if moved.size:
        x[moved] += step[moved]
        p[moved], err[moved] = _times_pow10(a[moved], 16 - x[moved])
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    # the first digit, then four groups of four
    groups = np.empty((4, len(v)), np.int64)
    for k in (3, 2, 1, 0):
        rest = digits // 10**4
        groups[k] = digits - rest * 10**4
        digits = rest
    ascii4 = _ASCII4.take(groups)
    w = np.empty((3, len(v)), np.uint64)
    w[0] = ((digits + ord("0")) << 8).astype(np.uint64) | (ascii4[0] << 16) | (ascii4[1] << 48)
    w[1] = (ascii4[1] >> 16) | (ascii4[2] << 16) | (ascii4[3] << 48)
    w[2] = ascii4[3] >> 16
    significant = np.max(_SIGNIFICANT4.take(groups) + _GROUP_START, axis=0, initial=1)

    e = x + 6
    before = _BEFORE.take(e)
    head = _LOW_BYTES.take(1 + before, axis=1)
    tail = w & ~head
    shift = (8 * _GAP_LEN.take(e)).astype(np.uint64)
    w &= head
    w |= tail << shift
    w[1:] |= tail[:-1] >> (64 - shift)
    w |= _GAP_WORDS.take(e, axis=1)
    length = np.where(significant > before, 1 + _GAP_LEN.take(e) + significant, 1 + before)
    w &= _LOW_BYTES.take(length, axis=1)
    w[0] |= (v < 0) * np.uint64(ord("-"))
    w[2] |= _SUFFIX.take(e)
    return w


def _text(values):
    """The "%.17g" text of each float64 of values as 24 bytes, NUL-padded;
    NULs may sit inside the text's bytes as well."""
    a = np.abs(values)
    fast = (a > 1e-6) & (a < 1e17)
    words = np.empty((len(values), 3), np.uint64)
    words[fast] = _vector_text(values[fast]).T
    rest = ~fast
    words[rest] = _words([_fmt(v).encode() for v in values[rest].tolist()]).T
    return words.astype("<u8", copy=False).view(np.uint8)


# Rows written per block: a block's temporaries stay small beside the
# run's peak memory, and blocks are long enough for whole-array work.
_ROWS = 2048


def write_solution(outdir, x, pred, exact, coarse=None):
    """solution.csv (x, u_pred, u_exact) and, when coarse is given,
    coarse_solution.csv (x, u_coarse, u_local = pred - coarse,
    u_combined = pred, u_exact), written together _ROWS rows at a time:
    the dense grids have tens of thousands of rows, and holding their
    whole text at once would set the run's peak memory. Each value's text
    comes from _text, the bytes of "%.17g" (_fmt), and takes 25 bytes of
    the block's row matrix, 24 for the text and one for the comma or
    newline after it; dropping the matrix's NULs leaves the block's CSV
    text. x, pred and exact are formatted once for both files."""
    out = Path(outdir)
    with contextlib.ExitStack() as files:
        sol = files.enter_context(open(out / "solution.csv", "wb"))
        sol.write(b"x,u_pred,u_exact\n")
        if coarse is not None:
            parts = files.enter_context(open(out / COARSE_SOLUTION, "wb"))
            parts.write(b"x,u_coarse,u_local,u_combined,u_exact\n")
        ends = np.frombuffer(b",,\n" if coarse is None else b",,,,\n", np.uint8)
        for start in range(0, len(x), _ROWS):
            block = slice(start, start + _ROWS)
            if coarse is None:
                columns = [x[block], pred[block], exact[block]]
            else:
                c = coarse[block]
                columns = [x[block], c, pred[block] - c, pred[block], exact[block]]
            rows = np.empty((len(columns[0]), len(columns), 25), np.uint8)
            rows[:, :, 24] = ends
            for j, column in enumerate(columns):
                rows[:, j, :24] = _text(column)
            if coarse is not None:
                parts.write(rows[rows != 0])
                rows = rows[:, [0, 3, 4]]   # x, pred, exact
            sol.write(rows[rows != 0])


def write_summary(path, report):
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
    payload = {"config": report.config, "results": results}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_checkpoints(outdir, state):
    ckpt = Path(outdir) / CHECKPOINTS
    ckpt.mkdir(parents=True, exist_ok=True)
    for j, params in enumerate(state.params, start=1):
        (ckpt / SUBDOMAIN_CHECKPOINT.format(j)).write_text(
            json.dumps(params_to_jsonable(params)) + "\n")
    if state.coarse_params is not None:
        (ckpt / "coarse.json").write_text(
            json.dumps(params_to_jsonable(state.coarse_params)) + "\n")


def write_run_artifacts(outdir, report, state):
    """loss_history.csv, solution.csv, summary.json, the state's parameter
    checkpoints and decomposition layout, and coarse_solution.csv when the
    report has a coarse part."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_loss_history(out / "loss_history.csv", report.records)
    if report.solution_x is not None:
        write_solution(out, report.solution_x, report.solution_pred,
                       report.solution_exact, report.solution_coarse)
    write_summary(out / "summary.json", report)
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
