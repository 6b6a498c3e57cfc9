"""Unit tests for the Hawkeye predictor and policy."""

from repro.replacement.hawkeye import MAX_RRPV, HawkeyePolicy, HawkeyePredictor


def test_predictor_starts_friendly():
    predictor = HawkeyePredictor()
    assert predictor.predict(0x400)


def test_predictor_training_flips_prediction():
    predictor = HawkeyePredictor()
    for _ in range(5):
        predictor.train(0x400, opt_hit=False)
    assert not predictor.predict(0x400)
    for _ in range(8):
        predictor.train(0x400, opt_hit=True)
    assert predictor.predict(0x400)


def test_predictor_counters_saturate():
    predictor = HawkeyePredictor()
    for _ in range(100):
        predictor.train(0x400, opt_hit=True)
    predictor.train(0x400, opt_hit=False)
    assert predictor.predict(0x400)  # one miss cannot flip a saturated pc


def test_predictor_distinguishes_pcs():
    predictor = HawkeyePredictor()
    for _ in range(8):
        predictor.train(0x100, opt_hit=False)
        predictor.train(0x2000, opt_hit=True)
    assert not predictor.predict(0x100)
    assert predictor.predict(0x2000)


def test_policy_averse_lines_evicted_first():
    policy = HawkeyePolicy(4, 4)
    for _ in range(8):
        policy.predictor.train(0xBAD, opt_hit=False)
    policy.set_line_key(0, 0, 100)
    policy.on_fill(0, 0, pc=0x900)  # friendly
    policy.set_line_key(0, 1, 101)
    policy.on_fill(0, 1, pc=0xBAD)  # averse -> distant RRPV
    assert policy.victim(0) == 1


def test_policy_detrains_on_friendly_eviction():
    policy = HawkeyePolicy(4, 4, auto_observe=False)
    pc = 0x700
    for way in range(4):
        policy.set_line_key(0, way, way)
        policy.on_fill(0, way, pc=pc)
    before = policy.predictor.predict(pc)
    for _ in range(10):
        policy.victim(0)
    assert before  # sanity: started friendly
    assert not policy.predictor.predict(pc)


def test_sampler_trains_from_reuse():
    policy = HawkeyePolicy(1, 4)  # single set: always sampled
    pc = 0x880
    # Reuse within capacity: OPT hits -> PC stays/becomes friendly.
    for _ in range(10):
        policy.observe(0, 55, pc)
    assert policy.predictor.predict(pc)


def test_sampler_trains_averse_from_thrash():
    policy = HawkeyePolicy(1, 2, history_mult=8)
    pc = 0x990
    # Cycle far more keys than capacity: OPT misses dominate.
    for _ in range(40):
        for key in range(12):
            policy.observe(0, key, pc)
    assert not policy.predictor.predict(pc)


def test_auto_observe_off_skips_sampler():
    policy = HawkeyePolicy(1, 2, auto_observe=False)
    pc = 0x440
    policy.set_line_key(0, 0, 7)
    for _ in range(30):
        policy.on_hit(0, 0, pc)
    # No observe() calls: the sampler never saw reuse, prediction is the
    # initialization default.
    assert policy.predictor.predict(pc)
    assert policy._samplers[0].accesses == 0


def test_resize_ways_extends_state():
    policy = HawkeyePolicy(2, 2)
    policy.resize_ways(4)
    policy.on_fill(0, 3, pc=1)
    # Per-way state is flat: set 0's way 3 is slot 0 * num_ways + 3.
    assert len(policy._rrpv) == 2 * 4
    assert policy._rrpv[0 * policy.num_ways + 3] in (0, MAX_RRPV)
