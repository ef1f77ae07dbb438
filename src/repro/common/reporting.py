"""Lightweight tabular reporting used by the benchmark harness.

The paper's evaluation section is a collection of tables and bar charts;
the harness renders each as an aligned ASCII table so results can be
eyeballed in a terminal and diffed across runs.
"""


def format_table(headers, rows, title=None, floatfmt="{:.2f}"):
    """Render ``rows`` (sequences of cells) under ``headers`` as a string.

    Numeric cells are formatted with ``floatfmt``; everything else via
    ``str``. Column widths are computed from content.
    """
    def fmt(cell):
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, float):
            return floatfmt.format(cell)
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    parts = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(headers))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in text_rows)
    return "\n".join(parts)


#: Column order for degradation accounting tables.
DEGRADATION_HEADERS = [
    "run", "degraded", "reason", "retries", "wasted cost", "meter drift",
    "MSO inflation", "notes",
]


def degradation_rows(items):
    """Rows for a degradation accounting table.

    ``items`` is an iterable of ``(label, extras)`` pairs where
    ``extras`` is the accounting a
    :class:`repro.robustness.guard.DiscoveryGuard` records in
    ``RunResult.extras`` (``degraded``, ``degraded_reason``,
    ``retries``, ``wasted_cost``, ``meter_drift``,
    ``effective_mso_inflation``, ``violations``).
    """
    rows = []
    for label, extras in items:
        violations = extras.get("violations") or []
        notes = "; ".join(violations) if violations else (
            "fallback=%s" % extras["fallback"]
            if extras.get("degraded") else "-")
        rows.append((
            label,
            "yes" if extras.get("degraded") else "no",
            extras.get("degraded_reason") or "-",
            int(extras.get("retries", 0)),
            float(extras.get("wasted_cost", 0.0)),
            float(extras.get("meter_drift", 0.0)),
            float(extras.get("effective_mso_inflation", 1.0)),
            notes,
        ))
    return rows


def sweep_degradation(extras):
    """Normalise a sweep's degradation tally to ``(count, reasons)``.

    ``extras`` is a :class:`repro.metrics.mso.SweepResult` extras dict.
    Current sweeps always carry both keys; older journal payloads may
    omit either, so both fall back to an empty tally rather than raising.
    """
    degraded = int(extras.get("degraded") or 0)
    reasons = dict(extras.get("degraded_reasons") or {})
    return degraded, reasons


def format_degradation(items, title="Degradation accounting"):
    """Render guard accounting for one or more runs as a table."""
    return format_table(DEGRADATION_HEADERS, degradation_rows(items),
                        title=title)


class Report:
    """Accumulates named result tables for an experiment run."""

    def __init__(self, name):
        self.name = name
        self.tables = []
        self.notes = []

    def add_table(self, title, headers, rows):
        """Record a table; returns the rows for chaining."""
        self.tables.append((title, list(headers), [list(r) for r in rows]))
        return rows

    def add_note(self, text):
        """Record a free-form line rendered after the tables."""
        self.notes.append(str(text))
        return text

    def add_degradation(self, title, items):
        """Record a degradation accounting table (see
        :func:`degradation_rows`)."""
        return self.add_table(title, DEGRADATION_HEADERS,
                              degradation_rows(items))

    def render(self):
        """Render every recorded table, separated by blank lines."""
        chunks = ["# %s" % self.name]
        for title, headers, rows in self.tables:
            chunks.append(format_table(headers, rows, title=title))
        if self.notes:
            chunks.append("\n".join(self.notes))
        return "\n\n".join(chunks)

    def __str__(self):
        return self.render()
