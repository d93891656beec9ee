"""Tests for the set-theoretic column models."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dellac.grid import Config, Params, enumerate_configs
from dellac.embed import xi1
from dellac.tuples import (
    config_to_i,
    config_to_k,
    count_i,
    count_k,
    enumerate_i,
    enumerate_k,
    i_from_json,
    i_to_config,
    i_to_json,
    k_from_json,
    k_to_config,
    k_to_json,
    validate_i,
    validate_k,
)

SMALL = [Params(1, 2, 3), Params(2, 2, 2), Params(1, 3, 2), Params(2, 2, 1)]


def all_configs(params):
    return list(enumerate_configs(params))


# ---------------------------------------------------------------------------
# I-model
# ---------------------------------------------------------------------------

def test_i_pairs_of_the_two_smallest_configs():
    params = Params(1, 2, 2)
    low = Config(params, ((1, 2), (3, 4)))
    high = Config(params, ((1, 3), (2, 4)))
    assert config_to_i(low) == (((), (0, 0)), ((2,), (1, 1)))
    assert config_to_i(high) == (((), (0, 0)), ((1,), (1, 0)))


def test_i_single_column_case_is_forced():
    params = Params(1, 2, 1)
    only = Config(params, ((1, 2),))
    entries = config_to_i(only)
    assert entries == (((), (0,)),)
    assert i_to_config(entries, params) == only
    assert list(enumerate_i(params)) == [entries]


@pytest.mark.parametrize("params", SMALL, ids=str)
def test_i_round_trips_and_validates(params):
    for c in all_configs(params):
        entries = config_to_i(c)
        assert validate_i(entries, params) == []
        assert i_to_config(entries, params) == c


@pytest.mark.parametrize(
    "params,count",
    [(Params(1, 2, 3), 7), (Params(2, 2, 2), 6), (Params(1, 3, 2), 6),
     (Params(2, 2, 1), 1), (Params(1, 2, 2), 2),
     # count_i gives 108: 18 collections that validate_i accepts do not
     # map back to configurations
     pytest.param(Params(2, 3, 2), 90, marks=pytest.mark.xfail(
         strict=True, raises=AssertionError,
         reason="count_i overcounts at l = 2, m = 3"))],
    ids=str,
)
def test_i_generation_matches_configs(params, count):
    generated = set(enumerate_i(params))
    images = {config_to_i(c) for c in all_configs(params)}
    assert len(images) == count
    assert generated == images
    assert count_i(params) == count


def test_i_counters_ignore_wrapped_labels():
    # the second column holds a wrapped dot (row 4, recorded as label 1);
    # counter 1 must stay at its cap instead of moving past it
    params = Params(1, 2, 3)
    c = Config(params, ((1, 2), (4, 5), (3, 6)))
    entries = config_to_i(c)
    assert entries == (
        ((), (0, 0, 0)),
        ((2,), (1, 1, 0)),
        ((1, 2), (1, 1, 0)),
    )
    assert validate_i(entries, params) == []
    assert i_to_config(entries, params) == c


def test_i_counters_survive_repeated_retirements():
    params = Params(2, 2, 3)
    c = Config(params, ((1, 2), (1, 2), (3, 4), (3, 4), (5, 6), (5, 6)))
    entries = config_to_i(c)
    assert entries[-1] == ((1, 1, 2, 3, 3), (2, 2, 2))
    assert validate_i(entries, params) == []
    assert i_to_config(entries, params) == c


def test_i_last_block_has_no_free_counter_step():
    # column 3 sits in the last block and has no dot in row 2, so the
    # second counter must not move there
    params = Params(2, 2, 2)
    c = Config(params, ((1, 2), (1, 2), (3, 4), (3, 4)))
    entries = config_to_i(c)
    assert entries == (
        ((), (0, 0)),
        ((2,), (1, 1)),
        ((2, 2), (2, 2)),
        ((1, 2, 2), (2, 2)),
    )
    assert validate_i(entries, params) == []
    assert i_to_config(entries, params) == c


def test_validate_i_names_the_broken_condition():
    params = Params(1, 2, 2)
    good = (((), (0, 0)), ((2,), (1, 1)))
    assert validate_i(good, params) == []

    wrong_length = (((), (0, 0)),)
    assert any("must have" in msg for msg in validate_i(wrong_length, params))

    bad_start = (((), (1, 0)), ((2,), (1, 1)))
    assert any(msg.startswith("(3)") for msg in validate_i(bad_start, params))

    too_many = (((), (0, 0)), ((1, 2), (1, 1)))
    assert any(msg.startswith("(1)") for msg in validate_i(too_many, params))

    counter_jump = (((), (0, 0)), ((2,), (2, 1)))
    assert any(msg.startswith("(2)")
               for msg in validate_i(counter_jump, params))

    stale_counter = (((), (0, 0)), ((2,), (0, 1)))
    assert any(msg.startswith("(2)")
               for msg in validate_i(stale_counter, params))

    wrong_bump = (((), (0, 0)), ((1,), (1, 1)))
    assert any(msg.startswith("(9)") for msg in validate_i(wrong_bump, params))


def test_validate_i_rejects_vanishing_labels():
    params = Params(2, 2, 2)
    entries = list(config_to_i(Config(params, ((1, 2), (1, 2), (3, 4), (3, 4)))))
    entries[2] = ((1, 1), entries[2][1])
    assert any(msg.startswith("(4)") for msg in validate_i(entries, params))


def test_i_json_round_trip():
    params = Params(2, 2, 2)
    for c in all_configs(params):
        entries = config_to_i(c)
        data = json.loads(json.dumps(i_to_json(entries)))
        assert i_from_json(data) == entries


# ---------------------------------------------------------------------------
# K-model
# ---------------------------------------------------------------------------

def test_k_sets_of_a_repeating_config():
    params = Params(2, 2, 2)
    c = Config(params, ((1, 2), (1, 2), (3, 4), (3, 4)))
    assert config_to_k(c) == ((3,), (3, 4), (1, 3, 4))
    assert k_to_config(((3,), (3, 4), (1, 3, 4)), params) == c


@pytest.mark.parametrize("params", SMALL, ids=str)
def test_k_round_trips_and_validates(params):
    for c in all_configs(params):
        entries = config_to_k(c)
        assert validate_k(entries, params) == []
        assert k_to_config(entries, params) == c


@pytest.mark.parametrize(
    "params,count",
    [(Params(1, 2, 3), 7), (Params(2, 2, 2), 6), (Params(1, 3, 2), 6),
     (Params(2, 2, 1), 1), (Params(2, 3, 2), 90)],
    ids=str,
)
def test_k_generation_matches_configs(params, count):
    generated = set(enumerate_k(params))
    images = {config_to_k(c) for c in all_configs(params)}
    assert len(images) == count
    assert generated == images
    assert count_k(params) == count


def test_k_is_insensitive_to_row_spreading():
    # spreading a configuration out to one dot per row does not change
    # its K-sets, only the block size they are read against
    for params in (Params(2, 2, 2), Params(1, 3, 2)):
        for c in all_configs(params):
            assert config_to_k(xi1(c)) == config_to_k(c)


def test_validate_k_names_the_broken_condition():
    params = Params(2, 2, 2)
    good = ((3,), (3, 4), (1, 3, 4))
    assert validate_k(good, params) == []

    assert any("must have" in msg
               for msg in validate_k(((3,), (3, 4)), params))

    skipped_prefix = ((4,), (3, 4), (1, 3, 4))
    assert any(msg.startswith("(3a)")
               for msg in validate_k(skipped_prefix, params))

    too_big = ((3, 4), (3, 4), (1, 3, 4))
    assert any(msg.startswith("(1)") for msg in validate_k(too_big, params))

    dropped = ((3,), (1, 2), (1, 3, 4))
    assert any(msg.startswith("(2)") for msg in validate_k(dropped, params))


def test_validate_k_rejects_colliding_leftovers():
    # passes every stepwise check but leaves two rows of one block to the
    # forced last column
    params = Params(2, 2, 2)
    entries = ((3,), (1, 3), (1, 2, 4))
    messages = validate_k(entries, params)
    assert messages == ["(3b): two wrapped rows of one block are left for"
                        " the last column"]


def test_k_json_round_trip():
    params = Params(1, 3, 2)
    for c in all_configs(params):
        entries = config_to_k(c)
        data = json.loads(json.dumps(k_to_json(entries)))
        assert k_from_json(data) == entries


POOL = [c for params in (Params(2, 2, 2), Params(1, 3, 2), Params(1, 2, 3))
        for c in enumerate_configs(params)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(POOL))
def test_both_models_invert_on_sampled_configs(c):
    assert i_to_config(config_to_i(c), c.params) == c
    assert k_to_config(config_to_k(c), c.params) == c
