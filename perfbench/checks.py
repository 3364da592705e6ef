"""Output checks applied to every episode the benchmark plays."""

from __future__ import annotations

import hashlib
import math


def check_episode(result, cfg) -> list[str]:
    """Return a list of problems with one EpisodeResult; empty means it passed.

    Checks: exactly B records; distinct, in-range locations; the records' y
    sum to r_total; every trace field finite; sr_term in [0, 1].
    """
    problems = []
    records = result.records
    if len(records) != cfg.budget:
        problems.append(f"{len(records)} records, expected budget {cfg.budget}")
    rows, cols, block = cfg.scene.rows, cfg.scene.cols, cfg.scene.block
    n_locations = (rows // block) * (cols // block)
    locations = [r.location for r in records]
    if len(set(locations)) != len(locations):
        problems.append("a location was measured twice")
    outside = [q for q in locations if not 0 <= q < n_locations]
    if outside:
        problems.append(f"locations outside 0..{n_locations - 1}: {outside}")
    total = math.fsum(r.y for r in records)
    if not math.isclose(total, result.r_total, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"sum of y {total!r} != r_total {result.r_total!r}")
    for r in records:
        values = (r.t, r.tau, r.location, r.expl, r.likeli, r.reward_sum,
                  r.exploit, r.combined, r.y, r.entropy)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite trace field at t={r.t}")
            break
    sr = result.sr_term
    if not (math.isfinite(sr) and 0.0 <= sr <= 1.0):
        problems.append(f"sr_term {sr!r} outside [0, 1]")
    return problems


def trace_sha256(trace_text: str) -> str:
    return hashlib.sha256(trace_text.encode()).hexdigest()
