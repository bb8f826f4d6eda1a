"""Direct unit tests for snapshot sampling."""

from repro.pipeline.prediction import sample_snapshots

SNAPSHOTS = list(range(10))


class TestSampleSnapshots:
    def test_one_keeps_only_pure_ata_endpoint(self):
        # max_predictions == 1 used to ZeroDivisionError in the general
        # formula; it must keep exactly the first (pure-ATA) snapshot.
        assert sample_snapshots(SNAPSHOTS, 1) == [0]

    def test_two_keeps_both_endpoints(self):
        assert sample_snapshots(SNAPSHOTS, 2) == [0, 9]

    def test_exact_length_returns_everything(self):
        assert sample_snapshots(SNAPSHOTS, len(SNAPSHOTS)) == SNAPSHOTS

    def test_more_than_length_returns_everything(self):
        assert sample_snapshots(SNAPSHOTS, len(SNAPSHOTS) + 5) == SNAPSHOTS

    def test_sample_is_evenly_spaced_and_sorted(self):
        sampled = sample_snapshots(list(range(100)), 5)
        assert sampled[0] == 0 and sampled[-1] == 99
        assert sampled == sorted(sampled)
        assert len(sampled) == 5
        gaps = [b - a for a, b in zip(sampled, sampled[1:])]
        assert max(gaps) - min(gaps) <= 1

    def test_no_duplicates_on_tiny_inputs(self):
        for k in range(1, 6):
            sampled = sample_snapshots([0, 1, 2], k)
            assert len(sampled) == len(set(sampled))
