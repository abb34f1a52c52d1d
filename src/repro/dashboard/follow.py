"""Live-refresh terminal status: ``campaign/fleet status --follow``.

The same :class:`~repro.dashboard.view.CampaignView` the HTTP server
polls, driven from a plain loop and rendered with the existing
``render_status`` — so the watcher substrate is exercised outside the
server too, and a terminal follower shows byte-for-byte the aggregates
the dashboard serves. Redraws only when a poll actually folded new
records; exits on campaign completion or Ctrl-C.
"""

import sys
import time

from repro.campaign.status import render_status
from repro.dashboard.view import CampaignView

#: move cursor home + clear to end of screen (not full clear: no flicker)
_REDRAW = "\x1b[H\x1b[J"


def render_fleet_lines(fleet):
    """Terminal lines for the ledger-derived fleet health dict."""
    lines = [
        f"leases: {fleet['leases_granted']} granted, "
        f"{fleet['leases_completed']} completed, "
        f"{fleet['leases_revoked']} revoked, "
        f"{len(fleet['open_leases'])} open; "
        f"steals: {len(fleet['steals'])}; "
        f"scale events: {len(fleet['scale_events'])}"
    ]
    for name, info in sorted(fleet["workers"].items()):
        lines.append(
            f"  worker {name}: {info['draws']} draws, "
            f"{info['granted']} leased, {info['completed']} completed, "
            f"{info['revoked']} revoked, "
            f"stolen from {info['stolen_from']}x"
        )
    audit = fleet.get("audit")
    if audit:
        shown = ", ".join(f"{k}={v}" for k, v in sorted(audit.items()))
        lines.append(f"  audit: {shown}")
    return lines


def render_view(view, fleet=False):
    """``render_status`` of ``view``, plus the fleet-health lines if ``fleet``.

    What ``--follow`` redraws and what offline ``fleet status`` prints.
    """
    text = render_status(view.status())
    if fleet:
        text += "\n" + "\n".join(render_fleet_lines(view.fleet_status()))
    return text


def follow_status(directory, fleet=False, interval=0.5, max_updates=None,
                  stream=None, ansi=None):
    """Follow a campaign directory until it completes (or Ctrl-C).

    ``max_updates`` bounds the number of redraws (None = until done) —
    the testability hook the CLI leaves unset. ``ansi`` forces the
    cursor-home redraw on or off (default: only when ``stream`` is a
    tty). Returns 0 on completion, 130 on Ctrl-C (the shell convention).
    """
    stream = stream or sys.stdout
    view = CampaignView(directory)
    if ansi is None:
        ansi = bool(getattr(stream, "isatty", lambda: False)())
    updates = 0
    try:
        while True:
            changed = view.refresh()
            if changed or updates == 0:
                updates += 1
                text = render_view(view, fleet)
                prefix = _REDRAW if ansi else ("\n" if updates > 1 else "")
                stream.write(prefix + text + "\n")
                stream.flush()
            if view.state.done:
                return 0
            if max_updates is not None and updates >= max_updates:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        stream.write("\n")
        return 130
