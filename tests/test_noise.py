import math
import pickle

import numpy as np
import pytest
from numpy.random import Generator, Philox

from allencahn.noise import NoiseSpec, NoiseStream


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("pink", 4)
    with pytest.raises(ValueError):
        NoiseSpec("white", 0)
    with pytest.raises(ValueError):
        NoiseSpec("white", 4, scale=-1.0)


def test_spec_refuses_a_non_finite_scale():
    for scale in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"^noise scale .*, got {scale}$"):
            NoiseSpec("white", 4, scale=scale)


def test_increments_refuse_a_non_finite_dt():
    stream = NoiseStream(NoiseSpec("white", 4), 0, 0)
    for dt in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"^dt .*, got {dt}$"):
            stream.increments(0, dt, 2)


def test_mode_variances():
    tc = NoiseSpec("trace-class", 4)
    assert np.allclose(tc.mode_variances, [1.0, 0.25, 1.0 / 9.0, 1.0 / 16.0])
    assert np.allclose(NoiseSpec("white", 3).mode_variances, [1.0, 1.0, 1.0])


def test_stream_validation():
    spec = NoiseSpec("white", 2)
    with pytest.raises(ValueError):
        NoiseStream(spec, -1, 0)
    with pytest.raises(ValueError):
        NoiseStream(spec, 2**64, 0)
    with pytest.raises(ValueError):
        NoiseStream(spec, 0, 2**32)
    stream = NoiseStream(spec, 0, 0)
    with pytest.raises(ValueError):
        stream.increments(0, 0.0)
    with pytest.raises(ValueError):
        stream.increments(0, 0.1, 0)
    with pytest.raises(ValueError):
        stream.increments(-1, 0.1)


def test_r1_coarse_equals_fine():
    stream = NoiseStream(NoiseSpec("trace-class", 8), 7, 3)
    fine, coarse = stream.increments(5, 0.125, 1)
    assert fine.shape == (1, 8)
    assert np.array_equal(fine[0], coarse)


def test_coupling_exact_sum():
    stream = NoiseStream(NoiseSpec("trace-class", 16), 42, 0)
    for r in (2, 3, 7):
        fine, coarse = stream.increments(0, 0.2, r)
        assert fine.shape == (r, 16)
        assert np.array_equal(fine.sum(axis=0), coarse)


def test_determinism_and_order_independence():
    spec = NoiseSpec("white", 4)
    # drawing path 9 step 13 cold equals drawing it after unrelated draws
    cold = NoiseStream(spec, 123, 9).increments(13, 0.05, 3)
    warm_stream = NoiseStream(spec, 123, 9)
    NoiseStream(spec, 123, 0).increments(0, 0.4, 2)
    warm_stream.increments(2, 0.7, 1)
    warm = warm_stream.increments(13, 0.05, 3)
    assert np.array_equal(cold[0], warm[0])
    assert np.array_equal(cold[1], warm[1])


def test_distinct_keys_give_distinct_draws():
    spec = NoiseSpec("white", 4)
    base = NoiseStream(spec, 0, 0).increments(0, 1.0)[1]
    assert not np.array_equal(base, NoiseStream(spec, 0, 1).increments(0, 1.0)[1])
    assert not np.array_equal(base, NoiseStream(spec, 1, 0).increments(0, 1.0)[1])
    assert not np.array_equal(base, NoiseStream(spec, 0, 0).increments(1, 1.0)[1])


def test_cross_path_correlation_small():
    spec = NoiseSpec("white", 1)
    draws = 10_000
    a = np.empty(draws)
    b = np.empty(draws)
    sa = NoiseStream(spec, 5, 100)
    sb = NoiseStream(spec, 5, 101)
    for k in range(draws):
        a[k] = sa.increments(k, 1.0)[1][0]
        b[k] = sb.increments(k, 1.0)[1][0]
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 4.0 / np.sqrt(draws)


def test_variance_matches_mode_law():
    # 1e5 coarse draws of mode 2, trace-class, dt = 0.1: variance q_2*dt = 0.025
    spec = NoiseSpec("trace-class", 2)
    stream = NoiseStream(spec, 77, 0)
    draws = 100_000
    vals = np.empty(draws)
    for k in range(draws):
        vals[k] = stream.increments(k, 0.1)[1][1]
    target = 0.025
    sample_var = vals.var()
    se = target * np.sqrt(2.0 / draws)
    assert abs(sample_var - target) < 3.0 * se


def test_scale_is_linear():
    spec1 = NoiseSpec("trace-class", 8, scale=1.0)
    spec2 = NoiseSpec("trace-class", 8, scale=2.0)
    f1, c1 = NoiseStream(spec1, 3, 4).increments(2, 0.3, 3)
    f2, c2 = NoiseStream(spec2, 3, 4).increments(2, 0.3, 3)
    assert np.allclose(f2, 2.0 * f1, atol=0.0, rtol=1e-15)
    assert np.allclose(c2, 2.0 * c1, atol=0.0, rtol=1e-15)
    f0, c0 = NoiseStream(NoiseSpec("white", 3, scale=0.0), 0, 0).increments(0, 1.0, 2)
    assert np.all(f0 == 0) and np.all(c0 == 0)


def test_mode_prefix_shared_across_widths():
    # a wider stream reproduces a narrower one's modes on the same key,
    # which is what lets different resolutions couple to one reference
    wide = NoiseStream(NoiseSpec("trace-class", 32), 11, 2).increments(4, 0.2, 3)
    narrow = NoiseStream(NoiseSpec("trace-class", 8), 11, 2).increments(4, 0.2, 3)
    assert np.array_equal(wide[0][0, :8], narrow[0][0, :8])


def test_fine_rows_have_substep_variance():
    # the r rows are the substep increments: each row must carry q_i*dt/r,
    # checked against a wide-sample variance estimate
    spec = NoiseSpec("trace-class", 2)
    fine, _ = NoiseStream(spec, 9, 1).increments(0, 0.3, 50_000)
    var_mode1 = fine[:, 0].var()
    target = 1.0 * 0.3 / 50_000
    assert var_mode1 == pytest.approx(target, rel=0.05)


def test_reused_philox_draws_equal_fresh_generators():
    spec = NoiseSpec("trace-class", 16, 1.0)
    seed, path = 2**63 + 5, 77
    stream = NoiseStream(spec, seed, path)
    twin = NoiseStream(spec, seed, path)
    assert stream == twin and hash(stream) == hash(twin)

    def fresh(step, r):
        key = np.array([seed, (path << 32) | step], dtype=np.uint64)
        draw = Generator(Philox(key=key)).standard_normal((r, spec.n_modes))
        return draw * np.sqrt(spec.mode_variances * (0.1 / r))

    def same(s, step, r):
        fine, coarse = s.increments(step, 0.1, r)
        expected = fresh(step, r)
        assert np.array_equal(fine, expected)
        assert np.array_equal(coarse, expected.sum(axis=0))

    for step in (5, 2, 5, 0):  # out of order, and a step drawn twice
        same(stream, step, 3)
    same(stream, 2, 1)  # another r: a partly used Philox buffer is reset
    same(stream, 2, 3)
    same(stream, 9, 2)

    assert stream == twin and hash(stream) == hash(twin)
    assert repr(stream) == repr(twin)
    # the reused Philox stays out of the pickle, and a copy draws the same
    assert pickle.dumps(stream) == pickle.dumps(NoiseStream(spec, seed, path))
    copy = pickle.loads(pickle.dumps(stream))
    assert copy == stream and hash(copy) == hash(stream)
    for step in (9, 5, 0):
        same(copy, step, 3)


def test_kept_draws_replay_read_only_and_stay_out_of_pickles():
    spec = NoiseSpec("white", 8, 0.5)
    stream = NoiseStream(spec, 3, 4)
    assert stream.keep_draws() is stream
    plain = NoiseStream(spec, 3, 4)
    for r in (1, 3):
        fine, coarse = stream.increments(2, 0.25, r)
        # a second ask replays the very arrays drawn first
        again = stream.increments(2, 0.25, r)
        assert again[0] is fine and again[1] is coarse
        expected = plain.increments(2, 0.25, r)
        assert np.array_equal(fine, expected[0])
        assert np.array_equal(coarse, expected[1])
        for kept in (fine, coarse):
            with pytest.raises(ValueError):
                kept[0] = 1.0
    # another step length is another draw
    assert stream.increments(2, 0.125)[0] is not stream.increments(2, 0.25)[0]
    # the kept draws are a cache: no pickle carries them
    fresh = NoiseStream(spec, 3, 4)
    assert pickle.dumps(stream) == pickle.dumps(fresh)
    copy = pickle.loads(pickle.dumps(stream))
    assert "_kept" not in copy.__dict__
    assert copy == fresh and hash(copy) == hash(fresh)
    assert stream == fresh and hash(stream) == hash(fresh)
    assert repr(stream) == repr(fresh)
