import operator
import re
from functools import partial

import numpy as np
import pytest

from changeplane import FamilyKind, Scenario, build_theta_grid, run_power, sst_test, wast_test
from changeplane import sim as sim_module
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


@pytest.mark.parametrize("seed", [-1, -3, 1.5, "7", True, False])
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


GAUSS = FamilyKind("gaussian")


def count_entries():
    """Each entry point that takes a count: name -> (call taking the counts
    by keyword, the counts it checks, its output's numbers)."""
    ds = random_dataset(np.random.default_rng(0), n=30)
    sc = Scenario(GAUSS, (2, 2, 3), 40, seed=1)
    def boot(out):
        return out.statistic, out.boot_stats.tolist()

    rows = operator.attrgetter("rows")
    return {
        "wast_test": (partial(wast_test, ds, GAUSS), ("n_boot",), boot),
        "wast_blocks": (partial(wast_blocks, ds, GAUSS), ("n_boot",),
                        lambda out: (out[0], [b.tolist() for b, _ in out[1]])),
        "sst_test": (partial(sst_test, ds, GAUSS),
                     ("n_resample", "k_directions", "grid_per_direction"), boot),
        "build_theta_grid": (partial(build_theta_grid, ds),
                             ("k_directions", "grid_per_direction"),
                             lambda grid: grid.thetas.tolist()),
        "run_power": (partial(run_power, sc, [0.0]), ("reps", "n_boot", "threads"), rows),
        "run_power_sst": (partial(run_power, sc, [0.0], methods=("sst",)),
                          ("k_directions", "grid_per_direction"), rows),
    }


@pytest.mark.parametrize("value", [2.5, True, 0, -1])
@pytest.mark.parametrize("entry, name", [(entry, name)
                                         for entry, (_, names, _) in count_entries().items()
                                         for name in names])
def test_count_rule_at_every_entry(entry, name, value, monkeypatch):
    # Each bad count is a usage error naming it, raised before any fit or dataset.
    made = []
    for module in (wast_module, sst_module):
        monkeypatch.setattr(module, "fit_null", lambda *args: made.append(args))
    monkeypatch.setattr(sim_module, "generate", lambda *args: made.append(args))
    call = count_entries()[entry][0]
    with pytest.raises(ParameterError,
                       match=re.escape(f"{name} must be an integer >= 1, got {value!r}")):
        call(**{name: value})
    assert made == []


@pytest.mark.parametrize("entry", list(count_entries()))
def test_numpy_integer_counts_accepted(entry):
    # Two of each count: run_power's threads = 2 runs its two jobs on two workers.
    call, names, numbers = count_entries()[entry]
    got, want = (numbers(call(**dict.fromkeys(names, count)))
                 for count in (np.int64(2), 2))
    assert got == want


@pytest.mark.parametrize("seed", [True, False])
def test_bool_seed_rejected_at_every_entry(seed):
    # A bool is an int, so seed=True used to run as seed 1.
    ds = random_dataset(np.random.default_rng(0), n=30)
    calls = [lambda: wast_test(ds, GAUSS, n_boot=5, seed=seed),
             lambda: sst_test(ds, GAUSS, k_directions=5, n_resample=5, seed=seed),
             lambda: Scenario(GAUSS, (2, 2, 3), 50, seed=seed)]
    for call in calls:
        with pytest.raises(ParameterError,
                           match=f"seed must be a non-negative integer, got {seed}"):
            call()


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
