"""Tests for the deterministic RNG wrapper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import SeededRNG, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_labels_change_seed(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_parent_changes_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_seed_is_non_negative_63_bit(self):
        seed = derive_seed(7, "x")
        assert 0 <= seed < 2**63


class TestSeededRNG:
    def test_same_seed_same_stream(self):
        a = SeededRNG(5)
        b = SeededRNG(5)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seed_different_stream(self):
        assert SeededRNG(1).random() != SeededRNG(2).random()

    def test_child_streams_are_independent_and_reproducible(self):
        parent = SeededRNG(9)
        child_a = parent.child("placement", 0)
        child_b = parent.child("placement", 1)
        assert child_a.seed != child_b.seed
        assert SeededRNG(9).child("placement", 0).random() == pytest.approx(
            SeededRNG(9).child("placement", 0).random()
        )

    def test_integers_respect_bounds(self):
        rng = SeededRNG(3)
        draws = [rng.integers(0, 10) for _ in range(200)]
        assert all(0 <= value < 10 for value in draws)
        assert len(set(draws)) > 1

    def test_normal_and_lognormal_are_seeded(self):
        a, b = SeededRNG(13), SeededRNG(13)
        normals = [a.normal(10.0, 2.0) for _ in range(50)]
        assert normals == [b.normal(10.0, 2.0) for _ in range(50)]
        assert 8.0 < sum(normals) / len(normals) < 12.0
        lognormals = [a.lognormal(0.0, 0.5) for _ in range(50)]
        assert lognormals == [b.lognormal(0.0, 0.5) for _ in range(50)]
        assert all(value > 0.0 for value in lognormals)

    def test_uniform_bounds(self):
        rng = SeededRNG(3)
        draws = [rng.uniform(2.0, 4.0) for _ in range(100)]
        assert all(2.0 <= value < 4.0 for value in draws)

    def test_sample_without_replacement_distinct(self):
        rng = SeededRNG(11)
        sample = rng.sample_without_replacement(50, 12)
        assert len(sample) == 12
        assert len(set(sample)) == 12
        assert all(0 <= index < 50 for index in sample)

    def test_sample_without_replacement_too_many_raises(self):
        with pytest.raises(ValueError):
            SeededRNG(1).sample_without_replacement(5, 6)

    def test_choice_single(self):
        rng = SeededRNG(4)
        options = ["a", "b", "c"]
        assert rng.choice(options) in options

    def test_choice_multiple(self):
        rng = SeededRNG(4)
        options = ["a", "b", "c"]
        picks = rng.choice(options, size=5)
        assert len(picks) == 5
        assert all(pick in options for pick in picks)

    def test_shuffle_preserves_elements(self):
        rng = SeededRNG(8)
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_bounded_zipf_range_and_skew(self):
        rng = SeededRNG(21)
        draws = [rng.bounded_zipf(100, 1.2) for _ in range(2000)]
        assert all(0 <= rank < 100 for rank in draws)
        # Rank 0 must be the most common outcome for a Zipf law.
        counts = {rank: draws.count(rank) for rank in set(draws)}
        assert max(counts, key=counts.get) == 0

    def test_log_uniform_bounds(self):
        rng = SeededRNG(5)
        draws = [rng.log_uniform(1e3, 1e9) for _ in range(500)]
        assert all(1e3 <= value <= 1e9 for value in draws)
        # Spread over orders of magnitude: both small and large values appear.
        assert min(draws) < 1e5
        assert max(draws) > 1e7

    def test_log_uniform_invalid(self):
        with pytest.raises(ValueError):
            SeededRNG(1).log_uniform(10, 1)

    def test_poisson_non_negative(self):
        rng = SeededRNG(6)
        draws = [rng.poisson(0.5) for _ in range(100)]
        assert all(value >= 0 for value in draws)

    def test_exponential_positive(self):
        rng = SeededRNG(6)
        assert all(rng.exponential(2.0) >= 0 for _ in range(50))

    def test_repr_contains_seed(self):
        assert "1234" in repr(SeededRNG(1234))


#: One step: (operation, which RNG of the pool, a label or bound).
_steps = st.lists(
    st.tuples(
        st.sampled_from(["child", "random", "integers", "exponential", "bounded_zipf"]),
        st.integers(0, 15),
        st.integers(1, 9),
    ),
    max_size=40,
)


def _interleave(steps, eager: bool):
    """Run ``steps`` over a growing pool of RNGs; ``eager`` builds every
    numpy generator the moment its RNG exists, as ``SeededRNG`` used to."""
    pool = [SeededRNG(2020)]
    if eager:
        pool[0]._gen  # noqa: B018
    drawn = []
    drew = set()
    for operation, which, value in steps:
        rng = pool[which % len(pool)]
        if operation == "child":
            pool.append(rng.child("stream", value))
            if eager:
                pool[-1]._gen  # noqa: B018
            continue
        drew.add(which % len(pool))
        if operation == "random":
            drawn.append(rng.random())
        elif operation == "integers":
            drawn.append(rng.integers(0, value))
        elif operation == "exponential":
            drawn.append(rng.exponential(value))
        else:
            drawn.append(rng.bounded_zipf(value, 1.1))
    return drawn, pool, drew


class TestLazyGenerator:
    @settings(max_examples=80, deadline=None)
    @given(steps=_steps)
    def test_eager_and_lazy_agree_draw_for_draw(self, steps):
        lazy, pool, drew = _interleave(steps, eager=False)
        eager, _, _ = _interleave(steps, eager=True)
        assert lazy == eager
        for index, rng in enumerate(pool):
            assert ("_gen" in vars(rng)) == (index in drew)

    def test_a_child_that_never_draws_builds_no_generator(self):
        rng = SeededRNG(7)
        child = rng.child("retry")
        assert "_gen" not in vars(rng) and "_gen" not in vars(child)
        assert child.random() == SeededRNG(child.seed).random()
        assert "_gen" in vars(child)
