import numpy as np
import pytest

from changeplane import FamilyKind, Scenario, build_theta_grid, sst_test, wast_test
from changeplane import sst as sst_module
from changeplane import wast as wast_module
from changeplane.errors import ParameterError
from changeplane.rng import check_seed, child_rng, child_rngs, child_seed_sequence
from changeplane.sst import sst_blocks
from changeplane.wast import wast_blocks

from conftest import random_dataset, refit_block_widths
from test_sst import loop_resampled
from test_wast import loop_boot_stats


def test_same_key_same_stream():
    a = child_rng(7, 1, 2).standard_normal(5)
    b = child_rng(7, 1, 2).standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_disjoint_keys_differ():
    a = child_rng(7, 1, 2).standard_normal(5)
    b = child_rng(7, 1, 3).standard_normal(5)
    c = child_rng(8, 1, 2).standard_normal(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seed_sequence_state_is_stable():
    s1 = child_seed_sequence(42, 0, 9).generate_state(2)
    s2 = child_seed_sequence(42, 0, 9).generate_state(2)
    np.testing.assert_array_equal(s1, s2)


SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3, np.int64(7)]


def draws(rng):
    """A few draws of each kind the package takes from a stream."""
    return np.concatenate([rng.standard_normal(3), rng.random(2), rng.poisson(4.0, 2)])


@pytest.mark.parametrize("prefix", [(), (1,), (1, 2)])
@pytest.mark.parametrize("seed", SEEDS)
def test_batched_streams_match_child_rng(seed, prefix):
    # 2^130 + 3 is five words of run entropy, more than SeedSequence's pool.
    for keys in (range(0, 71), range(2**32 - 1, 2**32), range(0)):
        got = [draws(rng) for rng in child_rngs(seed, *prefix, keys=keys)]
        want = [draws(child_rng(seed, *prefix, k)) for k in keys]
        assert len(got) == len(keys)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("keys", [range(2**32, 2**32 + 2), range(2**32 - 1, 2**32 + 1),
                                  range(-1, 3)])
def test_keys_outside_one_word_are_rejected(keys):
    with pytest.raises(ParameterError, match="stream keys"):
        child_rngs(5, keys=keys)


@pytest.mark.parametrize("seed", [-1, -3, 1.5, "7"])
def test_seed_rule(seed):
    with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
        check_seed(seed)
    with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
        child_rngs(seed, keys=range(3))


@pytest.mark.parametrize("entry", [wast_test, wast_blocks, sst_test, sst_blocks])
def test_negative_seed_rejected_before_the_null_fit(entry, monkeypatch):
    fits = []
    for module in (wast_module, sst_module):
        monkeypatch.setattr(module, "fit_null", lambda *args: fits.append(args))
    ds = random_dataset(np.random.default_rng(0), n=30)
    with pytest.raises(ParameterError, match="seed must be a non-negative integer, got -3"):
        entry(ds, FamilyKind("gaussian"), seed=-3)
    assert fits == []


def test_negative_scenario_seed_rejected():
    with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
        Scenario(FamilyKind("gaussian"), (2, 2, 3), 50, seed=-1)


def test_wast_replicate_streams_match_per_replicate_loop():
    # B = 200 runs the blocks 16, 16, 32, 64, 64 and 8.
    assert refit_block_widths(200) == [16, 16, 32, 64, 64, 8]
    ds = random_dataset(np.random.default_rng(21), n=60, family="binomial")
    fam = FamilyKind("binomial")
    ref, _ = loop_boot_stats(ds, fam, 200, seed=13)
    out = wast_test(ds, fam, n_boot=200, seed=13)
    assert out.n_boot == ref.size
    np.testing.assert_allclose(out.boot_stats, ref, rtol=1e-10, atol=0)


def test_sst_multiplier_streams_match_per_draw_loop():
    # B = 65 runs three draw blocks: 32, 32 and 1.
    assert -(-65 // sst_module.DRAW_BLOCK) == 3
    ds = random_dataset(np.random.default_rng(22), n=90, family="poisson")
    fam = FamilyKind("poisson")
    out = sst_test(ds, fam, k_directions=40, n_resample=65, seed=14)
    thetas = build_theta_grid(ds, k_directions=40, seed=14).thetas
    np.testing.assert_allclose(out.boot_stats, loop_resampled(ds, fam, thetas, 65, 14),
                               rtol=1e-12, atol=0)
