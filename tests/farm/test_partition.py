"""Properties of the per-job seed derivation and job description.

A job's randomness is a pure function of its identity, never of the
worker or the order it runs in — what the farm's byte-identical
aggregation rests on.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.farm import FarmJob, derive_seed
from repro.verify.fuzz import fuzz_seed_job


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
