"""Self-contained HTML audit dashboard (``repro report --html``).

Renders one parsed audit JSONL stream (:class:`~repro.obs.report.AuditRun`)
into a single HTML file with **no external assets** — inline CSS only, no scripts, no
network fetches — so the artifact can be archived from CI and opened
anywhere:

* hero tiles (files / verdicts / wall time),
* a verdict table (``id="verdicts"``) with per-file drill-down
  ``<details>`` blocks (stage timings, solver counters, warnings,
  summaries, per-file slow queries),
* per-stage latency histograms (``id="stage-latency"``) as direct-labeled
  CSS bars over the same buckets the ``/metrics`` histograms use, plus
  the bucket-interpolated p50/p90/p99 estimates,
* the run-wide slow-query table (``id="slow-queries"``).

Same stdlib string-building approach as
:mod:`repro.websari.htmlreport`; output is deterministic for a given
stream.
"""

from __future__ import annotations

import html as _html

from repro.obs.metrics import DEFAULT_BUCKETS
from repro.obs.report import AuditRun, stage_order, summarize_run, verdict_of

__all__ = ["render_dashboard"]

_STYLE = """
body { font-family: monospace; margin: 2em; background: #fdfdfd; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.8em; }
.warn { background: #fff3cd; border: 1px solid #e6d9a0; padding: 0.4em 0.8em;
        border-radius: 4px; margin: 0.6em 0; }
.tiles { display: flex; flex-wrap: wrap; gap: 0.8em; margin: 1em 0; }
.tile { border: 1px solid #ccc; border-radius: 4px; background: #fff;
        padding: 0.6em 1.2em; min-width: 7em; }
.tile .num { font-size: 1.5em; font-weight: bold; display: block; }
.tile .cap { color: #777; font-size: 0.85em; }
table.data { border-collapse: collapse; background: #fff; }
table.data th, table.data td { border: 1px solid #ddd; padding: 0.25em 0.7em;
        text-align: left; }
table.data th { background: #f0f0f0; }
table.data tr:hover td { background: #f5f9ff; }
td.num, th.num { text-align: right; }
.badge { display: inline-block; padding: 0 0.5em; border-radius: 3px;
         font-size: 0.9em; font-weight: bold; }
.v-safe { background: #e2f2e7; color: #0a7d32; }
.v-vulnerable { background: #f8d7da; color: #b00020; }
.v-failed { background: #eee; color: #555; }
details.file { border: 1px solid #ccc; border-radius: 4px; background: #fff;
               margin: 0.5em 0; padding: 0.3em 0.8em; }
details.file summary { cursor: pointer; }
details.file pre { background: #f7f7f7; padding: 0.5em; overflow-x: auto; }
.chart { margin: 0.8em 0 1.4em 0; }
.chart .row { display: flex; align-items: center; margin: 2px 0; }
.chart .lbl { width: 9em; text-align: right; padding-right: 0.8em; color: #555; }
.chart .track { flex: 1; max-width: 32em; }
.chart .bar { background: #3973ac; border-radius: 0 3px 3px 0; height: 14px;
              min-width: 2px; }
.chart .bar.zero { background: transparent; min-width: 0; }
.chart .cnt { padding-left: 0.6em; color: #222; }
.quantiles { color: #555; margin: 0.2em 0 0.8em 0; }
.fp { color: #777; }
footer { margin-top: 2.5em; color: #999; font-size: 0.85em; }
"""


def _esc(value) -> str:
    return _html.escape(str(value))


def _badge(verdict: str) -> str:
    css = {"safe": "v-safe", "vulnerable": "v-vulnerable"}.get(verdict, "v-failed")
    return f"<span class='badge {css}'>{_esc(verdict)}</span>"


def _replay_cell(record: dict) -> str:
    """Concretely-confirmed cell: ``confirmed/traces`` or an em-dash."""
    replay = record.get("replay")
    if not isinstance(replay, dict) or not replay:
        return "—"
    confirmed = int(replay.get("confirmed") or 0)
    total = confirmed + int(replay.get("refuted") or 0) + int(
        replay.get("unsupported") or 0
    )
    text = f"{confirmed}/{total}"
    if int(replay.get("refuted") or 0) and verdict_of(record) == "vulnerable":
        return f"<span class='badge v-vulnerable'>{_esc(text)}</span>"
    return _esc(text)


def _fmt_seconds(value) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{float(value):.3f}s"
    return "—"


def _bucket_rows(counts: list[int]) -> list[tuple[str, int]]:
    """Label per-bucket counts over the shared metric buckets."""
    labels = []
    previous = 0.0
    for bound in DEFAULT_BUCKETS:
        labels.append(f"{previous:g}–{bound:g}s")
        previous = bound
    labels.append(f">{DEFAULT_BUCKETS[-1]:g}s")
    return list(zip(labels, counts))


def _bar_chart(rows: list[tuple[str, int]]) -> list[str]:
    peak = max((count for _label, count in rows), default=0)
    out = ["<div class='chart'>"]
    for label, count in rows:
        width = (100.0 * count / peak) if peak else 0.0
        bar_class = "bar" if count else "bar zero"
        out.append(
            "<div class='row'>"
            f"<span class='lbl'>{_esc(label)}</span>"
            "<span class='track'>"
            f"<div class='{bar_class}' style='width:{width:.1f}%' "
            f"title='{_esc(label)}: {count} file(s)'></div></span>"
            f"<span class='cnt'>{count}</span>"
            "</div>"
        )
    out.append("</div>")
    return out


def render_dashboard(run: AuditRun, top: int = 10) -> str:
    """Render one audit run as a standalone HTML dashboard page."""
    summary = summarize_run(run, top)
    by_name = run.by_filename()
    tally = summary["verdicts"]
    wall = summary["wall_seconds"]

    out: list[str] = []
    out.append("<!DOCTYPE html><html><head><meta charset='utf-8'>")
    out.append(f"<title>repro audit dashboard — {_esc(run.path)}</title>")
    out.append(f"<style>{_STYLE}</style></head><body>")
    out.append(f"<h1>repro audit dashboard — {_esc(run.path)}</h1>")
    if summary["truncated"]:
        out.append(
            "<div class='warn'>stream has no stats trailer "
            "(truncated or interrupted run)</div>"
        )
    if summary["interrupted"]:
        out.append("<div class='warn'>run was interrupted before completion</div>")

    # -- hero tiles --------------------------------------------------------
    tiles = [
        (str(summary["files_audited"]), "files"),
        (str(tally["safe"]), "safe"),
        (str(tally["vulnerable"]), "vulnerable"),
        (str(tally["failed"]), "failed"),
        (f"{wall:.2f}s" if isinstance(wall, (int, float)) else "—", "wall time"),
        (str(tally["cached"]), "cache hits"),
    ]
    if summary["replay"]:
        tiles.append((str(summary["replay"].get("confirmed", 0)), "confirmed"))
    out.append("<section class='tiles'>")
    for number, caption in tiles:
        out.append(
            f"<div class='tile'><span class='num'>{_esc(number)}</span>"
            f"<span class='cap'>{_esc(caption)}</span></div>"
        )
    out.append("</section>")

    # -- verdict table -----------------------------------------------------
    out.append("<h2>Verdicts</h2>")
    out.append("<table class='data' id='verdicts'>")
    out.append(
        "<tr><th>file</th><th>verdict</th><th class='num'>confirmed</th>"
        "<th class='num'>duration</th>"
        "<th class='num'>assertions</th><th>cached</th></tr>"
    )
    for index, filename in enumerate(sorted(by_name)):
        record = by_name[filename]
        anchor = f"file-{index}"
        out.append(
            "<tr>"
            f"<td><a href='#{anchor}'>{_esc(filename)}</a></td>"
            f"<td>{_badge(verdict_of(record))}</td>"
            f"<td class='num'>{_replay_cell(record)}</td>"
            f"<td class='num'>{_fmt_seconds(record.get('duration'))}</td>"
            f"<td class='num'>{record.get('num_ai_assertions', 0)}</td>"
            f"<td>{'yes' if record.get('cached') else 'no'}</td>"
            "</tr>"
        )
    out.append("</table>")
    disagreements = summary["replay_disagreements"]
    if disagreements:
        out.append(
            "<div class='warn' id='replay-disagreements'>"
            f"{len(disagreements)} vulnerable verdict(s) with refuted replays "
            "(candidate false positives): "
            + ", ".join(_esc(item["filename"]) for item in disagreements)
            + "</div>"
        )

    # -- per-file drill-down ----------------------------------------------
    out.append("<h2>Per-file detail</h2>")
    for index, filename in enumerate(sorted(by_name)):
        record = by_name[filename]
        anchor = f"file-{index}"
        out.append(f"<details class='file' id='{anchor}'>")
        out.append(
            f"<summary>{_esc(filename)} {_badge(verdict_of(record))} "
            f"{_fmt_seconds(record.get('duration'))}</summary>"
        )
        timings = record.get("timings") or {}
        if timings:
            parts = " · ".join(
                f"{_esc(stage)} {_fmt_seconds(timings[stage])}"
                for stage in stage_order(timings)
            )
            out.append(f"<div>stages: {parts}</div>")
        solver = record.get("solver") or {}
        if solver:
            parts = " · ".join(
                f"{_esc(name)} {_esc(value)}" for name, value in sorted(solver.items())
            )
            out.append(f"<div>solver: {parts}</div>")
        replay = record.get("replay") or {}
        if replay:
            out.append(
                "<div>replay: "
                f"{int(replay.get('confirmed') or 0)} confirmed · "
                f"{int(replay.get('refuted') or 0)} refuted · "
                f"{int(replay.get('unsupported') or 0)} unsupported</div>"
            )
            for trace in (replay.get("traces") or [])[:5]:
                if not isinstance(trace, dict):
                    continue
                patched = trace.get("patched")
                patched_text = f", patched: {patched}" if patched else ""
                out.append(
                    f"<div>· assert#{_esc(trace.get('assert_id', '?'))} "
                    f"{_esc(trace.get('verdict', '?'))}"
                    f"{_esc(patched_text)} — {_esc(trace.get('reason', ''))}</div>"
                )
        queries = record.get("slow_queries") or []
        if queries:
            out.append("<div>hardest queries:</div><ul>")
            for query in queries[:5]:
                out.append(
                    f"<li>{_fmt_seconds(query.get('seconds'))} — "
                    f"assertion {_esc(query.get('assert_id', '?'))}, "
                    f"{_esc(query.get('decisions', 0))} decisions</li>"
                )
            out.append("</ul>")
        for warning in record.get("warnings") or []:
            out.append(f"<div class='warn'>{_esc(warning)}</div>")
        if record.get("error"):
            out.append(f"<pre>{_esc(record['error'])}</pre>")
        if record.get("summary"):
            out.append(f"<pre>{_esc(record['summary'])}</pre>")
        out.append("</details>")

    # -- stage latency -----------------------------------------------------
    out.append("<section id='stage-latency'><h2>Stage latency</h2>")
    quantiles = summary["stage_quantiles"]
    if not quantiles:
        out.append("<p>no stage timings in this stream (fully cached run?)</p>")
    for stage, latency in quantiles.items():
        out.append(f"<h3>{_esc(stage)}</h3>")
        out.append(
            "<div class='quantiles'>"
            f"p50 {_fmt_seconds(latency['p50'])} · "
            f"p90 {_fmt_seconds(latency['p90'])} · "
            f"p99 {_fmt_seconds(latency['p99'])} · "
            f"n={latency['count']} (bucket-interpolated)</div>"
        )
        out.extend(_bar_chart(_bucket_rows(latency["buckets"])))
    out.append("</section>")

    # -- slow queries ------------------------------------------------------
    slow = summary["slow_queries"]
    out.append("<h2>Slow SAT queries</h2>")
    if slow:
        out.append("<table class='data' id='slow-queries'>")
        out.append(
            "<tr><th class='num'>seconds</th><th>file</th>"
            "<th class='num'>assertion</th><th class='num'>decisions</th>"
            "<th class='num'>conflicts</th><th>fingerprint</th></tr>"
        )
        for query in slow:
            fingerprint = query.get("fingerprint")
            fp_text = fingerprint[:12] if isinstance(fingerprint, str) else "—"
            out.append(
                "<tr>"
                f"<td class='num'>{_fmt_seconds(query.get('seconds'))}</td>"
                f"<td>{_esc(query.get('file') or '?')}</td>"
                f"<td class='num'>{_esc(query.get('assert_id', '?'))}</td>"
                f"<td class='num'>{_esc(query.get('decisions', '—'))}</td>"
                f"<td class='num'>{_esc(query.get('conflicts', '—'))}</td>"
                f"<td class='fp'>{_esc(fp_text)}</td>"
                "</tr>"
            )
        out.append("</table>")
    else:
        out.append("<p id='slow-queries'>no slow-query ledger in this stream</p>")

    out.append(
        "<footer>generated by <code>repro report --html</code> — "
        "quantiles are bucket-interpolated estimates over the shared "
        "metrics buckets, not exact order statistics</footer>"
    )
    out.append("</body></html>")
    return "\n".join(out)
