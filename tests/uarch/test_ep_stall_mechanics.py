"""Whole-pipeline stall mechanics (`_shift_in_flight` and consumption)."""

from repro.uarch.regfile import INFINITE

from tests.conftest import make_core


def _core_at_cycle(cycle=100):
    core = make_core()
    core.cycle = cycle
    return core


def test_consume_returns_false_without_pending():
    core = _core_at_cycle()
    assert core._consume_ep_stall() is False
    assert core.stats.ep_stalls == 0


def test_single_stall_consumed_once():
    core = _core_at_cycle(50)
    core._ep_stalls[50] = 1
    assert core._consume_ep_stall() is True
    assert core.stats.ep_stalls == 1
    assert 50 not in core._ep_stalls


def test_multiple_stalls_serialize():
    core = _core_at_cycle(50)
    core._ep_stalls[50] = 3
    assert core._consume_ep_stall() is True
    # the remaining two shifted to the next cycle
    assert core._ep_stalls == {51: 2}


def test_shift_moves_future_events_only():
    core = _core_at_cycle(50)
    inst_like = type("I", (), {"squashed": False, "version": 0})()
    core._events = {49: ["past"], 50: [("k", inst_like, 0)], 60: ["future"]}
    core._shift_in_flight()
    assert core._events == {49: ["past"], 51: [("k", inst_like, 0)],
                            61: ["future"]}


def test_shift_delays_pending_broadcasts():
    core = _core_at_cycle(50)
    core.rename.set_ready(40, 45)   # already visible
    core.rename.set_ready(41, 55)   # in flight
    core._shift_in_flight()
    assert core.rename.ready_cycle[40] == 45
    assert core.rename.ready_cycle[41] == 56
    assert core.rename.ready_cycle[50] == INFINITE


def test_shift_delays_fu_reservations():
    core = _core_at_cycle(50)
    unit = core.fus.units[next(iter(core.fus.units))][0]
    unit.next_issue = 55
    core._shift_in_flight()
    assert unit.next_issue == 56


def test_shift_delays_writeback_reservations():
    core = _core_at_cycle(50)
    core._wb_count = {49: 2, 55: 4}
    core._shift_in_flight()
    assert core._wb_count == {49: 2, 56: 4}


def test_shift_delays_fetch_resume():
    core = _core_at_cycle(50)
    core._fetch_resume_at = 58
    core._shift_in_flight()
    assert core._fetch_resume_at == 59


def test_stall_cycle_freezes_commit_and_fetch():
    # end-to-end: inject a stall mid-run and confirm the cycle count
    # grows by exactly the stall count on an otherwise identical run
    core_a = make_core(seed=5)
    core_b = make_core(seed=5)
    core_a.run(300)
    core_b._ep_stalls[40] = 7
    core_b.run(300)
    assert core_b.stats.cycles == core_a.stats.cycles + 7


def test_replay_without_recovery_bubbles_schedules_no_stall():
    """A selective replay with ``recovery_bubbles=0`` costs no cycle, so
    it leaves no zero-length entry that ``run`` would poll every cycle
    and every whole-pipeline stall would shift."""
    from repro.core.schemes import SchemeKind
    from repro.harness.runner import RunSpec, warm_core
    from repro.uarch.config import CoreConfig

    spec = RunSpec("astar", SchemeKind.RAZOR, 0.97, warmup=300,
                   config=CoreConfig(recovery_bubbles=0))
    core = warm_core(spec)
    assert core.stats.replays > 0
    assert core._ep_stalls == {}
