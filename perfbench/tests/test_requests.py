"""The serve-closed request stream plans its twins and repeats exactly."""

from __future__ import annotations

import json

import worker


def key(req) -> tuple[str, str]:
    name, params, _twin = req
    return name, json.dumps(params, sort_keys=True)


def test_round_makeup_repeats_across_seeds():
    for seed in (1, 2, 97):
        stream = worker.RequestStream(seed)
        seen: set[tuple[str, str]] = set()
        for _ in range(3):
            phase1, phase2 = stream.next_round()
            first = [key(r) for r in phase1]
            assert len(phase1) == worker.SERVE_PHASE1
            assert sum(r[2] for r in phase1) == worker.SERVE_TWINS
            assert not any(r[2] for r in phase2)
            fresh = [key(r) for r in phase2 if key(r) not in first]
            assert len(phase2) - len(fresh) == worker.SERVE_REPEATS
            distinct = first + fresh
            assert len(set(distinct)) == worker.SERVE_DISTINCT
            assert seen.isdisjoint(distinct)
            seen.update(distinct)


def test_same_seed_same_requests():
    a, b = worker.RequestStream(5), worker.RequestStream(5)
    assert [a.next_round() for _ in range(2)] == \
        [b.next_round() for _ in range(2)]
