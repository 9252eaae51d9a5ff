"""ASCII Gantt rendering of a schedule timeline (for terminals/CLI).

A dependency-free companion to the Chrome-trace exporter: draws the SA /
softmax / LayerNorm tracks as text bars so ``python -m repro schedule
--gantt`` shows the Algorithm 1 overlap structure directly in the
terminal.
"""

from __future__ import annotations


from ..errors import ScheduleError
from .scheduler import ScheduleResult

#: Track order and their bar glyphs.
_TRACKS = (("sa", "#"), ("softmax", "s"), ("layernorm", "L"))


def render_gantt(
    result: ScheduleResult,
    width: int = 100,
    label_width: int = 14,
    max_events_labeled: int = 24,
) -> str:
    """Render the timeline as fixed-width text.

    Args:
        result: A scheduler result.
        width: Character width of the time axis.
        label_width: Left column reserved for track names.
        max_events_labeled: Above this event count, the per-event legend
            is summarized instead of enumerated.
    """
    if not result.events:
        raise ScheduleError("schedule has no events")
    if width < 10:
        raise ScheduleError("width must be at least 10 characters")
    total = result.total_cycles
    scale = width / total

    lines = [
        f"{result.block.upper()} schedule — {total:,} cycles "
        f"({len(result.events)} events; 1 char ~ {total / width:,.0f} cycles)"
    ]
    for unit, glyph in _TRACKS:
        row = [" "] * width
        for event in result.events:
            if event.unit != unit:
                continue
            start = min(int(event.start * scale), width - 1)
            end = min(max(int(event.end * scale), start + 1), width)
            for i in range(start, end):
                row[i] = glyph
        lines.append(f"{unit:<{label_width}}|{''.join(row)}|")
    axis = [" "] * width
    for frac in (0.0, 0.25, 0.5, 0.75):
        axis[int(frac * (width - 1))] = "+"
    axis[width - 1] = "+"
    lines.append(f"{'':<{label_width}}+{''.join(axis)}+")
    quarters = "  ".join(
        f"{int(frac * total):,}" for frac in (0.0, 0.25, 0.5, 0.75, 1.0)
    )
    lines.append(f"{'':<{label_width}} cycles: {quarters}")

    sa_events = result.sa_events
    if len(sa_events) <= max_events_labeled:
        lines.append("")
        for event in sa_events:
            lines.append(
                f"{'':<{label_width}}{event.name:<16} "
                f"[{event.start:>7,} - {event.end:>7,})"
            )
    else:
        lines.append(
            f"{'':<{label_width}}({len(sa_events)} SA passes; "
            f"utilization {result.sa_utilization:.1%})"
        )
    return "\n".join(lines)
