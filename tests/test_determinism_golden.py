"""Golden determinism test for the hot-path optimizations.

The event core, indexed trader, compiled constraints, and vectorized
usage grids are all required to preserve *bit-identical* deterministic
behaviour.  This test replays a mixed-profile scenario (three office
workers, a student lab, two night owls; three checkpointed jobs) and
compares a sha256 over every clock advance, plus job outcomes and GRM
protocol counters, against ``tests/data/golden_determinism.json`` —
captured from the unoptimized seed code.  Any reordering, extra event,
or dropped tick changes the digest.
"""

import hashlib
import json
import os

from repro import ApplicationSpec, Grid
from repro.core.ncc import VACATE_POLICY
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.sim.usage import NIGHT_OWL, OFFICE_WORKER, STUDENT_LAB

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_determinism.json"
)


def run_golden_scenario(fast_local=False):
    grid = Grid(seed=1234, policy="pattern_aware", lupa_enabled=True,
                lupa_min_history_days=2, update_interval=120.0,
                tick_interval=60.0, fast_local=fast_local)
    times = []
    real_advance = grid.loop.clock.advance_to

    def recording_advance(when):
        times.append(when)
        real_advance(when)

    grid.loop.clock.advance_to = recording_advance
    grid.add_cluster("c0")
    profiles = [OFFICE_WORKER] * 3 + [STUDENT_LAB, NIGHT_OWL, NIGHT_OWL]
    for i, profile in enumerate(profiles):
        grid.add_node("c0", f"n{i:02}", profile=profile, sharing=VACATE_POLICY)
    grid.run_for(3 * SECONDS_PER_DAY)
    job_ids = [
        grid.submit(ApplicationSpec(
            name=f"job{j}", work_mips=1.8e6,
            metadata={"checkpoint_interval_s": 900.0},
        ))
        for j in range(3)
    ]
    grid.run_for(12 * SECONDS_PER_HOUR)
    digest = hashlib.sha256(
        ",".join(f"{t:.9g}" for t in times).encode()
    ).hexdigest()
    grm = grid.clusters["c0"].grm
    return {
        "sequence_sha256": digest,
        "advance_calls": len(times),
        "events_fired": grid.loop.events_fired,
        "final_now": grid.loop.now,
        "jobs": [
            {
                "job_id": j,
                "state": grid.job(j).state.value,
                "completed_at": grid.job(j).completed_at,
                "progress": grid.job(j).progress_fraction(),
            }
            for j in job_ids
        ],
        "stats": {
            "updates_received": grm.stats.updates_received,
            "negotiation_rounds": grm.stats.negotiation_rounds,
            "placements": grm.stats.placements,
            "evictions_handled": grm.stats.evictions_handled,
            "completions": grm.stats.completions,
        },
    }


def test_golden_determinism():
    """The in-process fast path skips marshalling, not behaviour: the
    digest holds with it off and on."""
    with open(GOLDEN_PATH) as f:
        golden = json.load(f)
    for fast_local in (False, True):
        assert run_golden_scenario(fast_local) == golden, \
            f"fast_local={fast_local}"
