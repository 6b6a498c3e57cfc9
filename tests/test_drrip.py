"""Tests for DRRIP (set-dueling) LLC replacement."""

from repro.replacement.drrip import DrripPolicy


def test_drrip_leader_sets_disjoint():
    policy = DrripPolicy(64, 4)
    assert not (policy._srrip_leaders & policy._brrip_leaders)
    assert policy._srrip_leaders and policy._brrip_leaders


def test_drrip_psel_moves_toward_better_leader():
    policy = DrripPolicy(64, 4)
    start = policy.psel
    srrip_leader = next(iter(policy._srrip_leaders))
    for _ in range(20):
        policy.on_fill(srrip_leader, 0)  # misses in SRRIP leaders
    assert policy.psel < start


def test_drrip_brrip_inserts_mostly_distant():
    policy = DrripPolicy(64, 4, seed=1)
    policy.psel = 0  # force followers to BRRIP
    follower = next(
        s for s in range(64)
        if s not in policy._srrip_leaders and s not in policy._brrip_leaders
    )
    distant = 0
    for _ in range(64):
        policy.on_fill(follower, 0)
        if policy._rrpv[follower][0] == policy.max_rrpv:
            distant += 1
    assert distant > 48  # ~ (1 - 1/32) of fills


def test_drrip_works_inside_cache():
    from repro.memory.cache import Cache

    cache = Cache("d", 4096, 4, policy="drrip")
    for line in range(100):
        if not cache.access(line).hit:
            cache.fill(line)
    assert cache.occupancy() <= 64
