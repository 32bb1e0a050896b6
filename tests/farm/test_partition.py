"""Properties of the job partitioner and the per-job seed derivation.

The partitioner feeds the work-stealing scheduler's initial decks, so its
contract — every job appears exactly once, deterministically — is what the
farm's byte-identical aggregation ultimately rests on.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.farm import FarmJob, derive_seed, partition_jobs
from repro.verify.fuzz import fuzz_seed_job


@given(n_jobs=st.integers(0, 200), n_workers=st.integers(1, 17))
def test_partition_is_disjoint_complete_and_deterministic(n_jobs, n_workers):
    decks = partition_jobs(n_jobs, n_workers)
    assert len(decks) == n_workers
    flat = [i for deck in decks for i in deck]
    # complete and disjoint: every job index exactly once
    assert sorted(flat) == list(range(n_jobs))
    # deterministic: a second call produces the identical layout
    assert partition_jobs(n_jobs, n_workers) == decks


@given(n_jobs=st.integers(1, 200), n_workers=st.integers(1, 17))
def test_partition_is_balanced(n_jobs, n_workers):
    sizes = [len(deck) for deck in partition_jobs(n_jobs, n_workers)]
    assert max(sizes) - min(sizes) <= 1


def test_partition_rejects_bad_inputs():
    with pytest.raises(ValueError):
        partition_jobs(-1, 2)
    with pytest.raises(ValueError):
        partition_jobs(4, 0)


@given(seed=st.integers(0, 2**32), parts=st.lists(
    st.one_of(st.integers(-5, 5), st.text(max_size=8)), max_size=4))
def test_derive_seed_is_stable_and_bounded(seed, parts):
    a = derive_seed(seed, *parts)
    assert a == derive_seed(seed, *parts)
    assert 0 <= a < 2**63


def test_derive_seed_separates_identities():
    # stable job identity, not sequential RNG state: neighbours differ
    seeds = {derive_seed(0, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(0, "a", "b") != derive_seed(0, "ab")
    assert derive_seed(1, "a") != derive_seed(0, "a")


def test_farm_job_describe():
    job = FarmJob(index=3, run=fuzz_seed_job, params={"seed": 1})
    assert job.describe() == "job#3 fuzz_seed_job"
