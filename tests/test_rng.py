import numpy as np
import pytest

from noise_forge import rng
from noise_forge.optim import BatchStreams, sample_minibatch_pair
from noise_forge.rng import named_stream, stream_names

# Every stream name and its id. The ids seed every run, so this table is
# part of the reproducibility contract: a change here must be deliberate.
GOLDEN_STREAM_IDS = {
    "init": 0,
    "primary-batch": 1,
    "enhancement-batch": 2,
    "split": 3,
    "subset": 4,
    "synthetic": 7,
    "projection": 8,
    "noise-primary-v2": 9,
    "noise-enhancement-v2": 10,
}


class TestNamedStreams:
    def test_same_triple_same_sequence(self):
        a = named_stream(7, "init").random(16)
        b = named_stream(7, "init").random(16)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_by_name(self):
        a = named_stream(7, "init").random(16)
        b = named_stream(7, "primary-batch").random(16)
        assert not np.array_equal(a, b)

    def test_streams_differ_by_seed(self):
        a = named_stream(1, "split").random(16)
        b = named_stream(2, "split").random(16)
        assert not np.array_equal(a, b)

    def test_streams_differ_by_index(self):
        a = named_stream(7, "noise-primary-v2", 0).random(16)
        b = named_stream(7, "noise-primary-v2", 1).random(16)
        assert not np.array_equal(a, b)

    def test_consuming_one_stream_leaves_others_alone(self):
        # draw from one stream, then check another still starts fresh
        lead = named_stream(7, "enhancement-batch")
        lead.random(1000)
        a = named_stream(7, "primary-batch").random(8)
        b = named_stream(7, "primary-batch").random(8)
        np.testing.assert_array_equal(a, b)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown stream"):
            named_stream(0, "nonsense")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            named_stream(-1, "init")

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            named_stream(0, "init", -2)

    def test_registry_contains_core_streams(self):
        names = stream_names()
        for needed in ("init", "primary-batch", "enhancement-batch", "split",
                       "noise-primary-v2", "noise-enhancement-v2"):
            assert needed in names

    def test_stream_ids_are_pinned(self):
        assert rng._STREAM_IDS == GOLDEN_STREAM_IDS
        assert stream_names() == tuple(sorted(GOLDEN_STREAM_IDS))

    def test_retired_ids_are_never_handed_out(self):
        retired = {stream_id for stream_id, _ in rng._RETIRED_STREAMS.values()}
        assert retired == {5, 6}
        assert not retired & set(rng._STREAM_IDS.values())

    @pytest.mark.parametrize(
        "name, successor",
        [("noise-primary", "noise-primary-v2"), ("noise-enhancement", "noise-enhancement-v2")],
    )
    def test_retired_names_point_to_their_successor(self, name, successor):
        with pytest.raises(ValueError, match=f"'{name}' is retired; use '{successor}'"):
            named_stream(0, name)


class TestTrainingDrawsArePinned:
    def test_minibatch_pairs_match_recorded_values(self):
        # Index arrays recorded before the enhancement draw moved into
        # rng.uniform_batch. Three calls on N = 10, B = 4 cross an epoch
        # boundary, so both the permutation and the B' draw are covered.
        streams = BatchStreams(
            10, 4, named_stream(3, "primary-batch"), named_stream(3, "enhancement-batch")
        )
        expected = [
            ([7, 0, 6, 2], [2, 5, 1, 3]),
            ([3, 5, 4, 9], [1, 3, 9, 5]),
            ([1, 8, 4, 6], [0, 8, 2, 7]),
        ]
        for want_p, want_e in expected:
            primary, enhancement = sample_minibatch_pair(streams)
            assert primary.dtype == enhancement.dtype == np.int64
            assert primary.tolist() == want_p
            assert enhancement.tolist() == want_e
