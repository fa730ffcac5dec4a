"""Tests for the campaign plan, payload and splice (:mod:`repro.campaign`)."""

import pytest

from repro.campaign import (
    campaign_fingerprint,
    decode_chunk,
    default_chunksize,
    encode_chunk,
    make_chunks,
    splice,
)
from repro.errors import ExperimentError


def _square(x):
    return x * x


def _other(x):
    return x + 1


class TestChunkGeometry:
    def test_make_chunks_covers_every_item_in_order(self):
        items = list(range(10))
        chunks = make_chunks(items, 3)
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_make_chunks_rejects_bad_chunksize(self):
        with pytest.raises(ExperimentError):
            make_chunks([1, 2], 0)

    def test_default_chunksize_scales_with_jobs(self):
        assert default_chunksize(100, 4, chunks_per_worker=4) == 7
        assert default_chunksize(0, 4) == 1  # never zero
        assert default_chunksize(5, 1, chunks_per_worker=1) == 5


class TestPayloadEncoding:
    def test_roundtrip(self):
        results = [1, "two", (3, 4), None]
        assert decode_chunk(encode_chunk(results)) == results

    def test_payload_is_ascii(self):
        encode_chunk([b"\xff\x00"]).encode("ascii")  # must not raise


class TestSplice:
    def test_reassembles_in_index_order(self):
        assert splice(3, {1: [3, 4], 0: [1, 2], 2: [5]}) == [1, 2, 3, 4, 5]

    def test_missing_chunk_raises_with_indices(self):
        with pytest.raises(ExperimentError, match=r"chunk\(s\) \[1\]"):
            splice(2, {0: [1]}, where="unit test")


class TestFingerprint:
    def test_stable_for_same_campaign(self):
        assert campaign_fingerprint(_square, [1, 2, 3]) == campaign_fingerprint(
            _square, [1, 2, 3]
        )

    def test_differs_for_different_fn_or_items(self):
        base = campaign_fingerprint(_square, [1, 2, 3])
        assert campaign_fingerprint(_other, [1, 2, 3]) != base
        assert campaign_fingerprint(_square, [1, 2]) != base

    def test_journal_fingerprint_delegates_here(self, tmp_path):
        # The pool and the fabric must agree on campaign identity, or
        # their journals stop being interchangeable.
        import json

        from repro.parallel import resilient_map

        journal = tmp_path / "campaign.jsonl"
        resilient_map(_square, [5, 6], jobs=1, journal=journal)
        header = json.loads(journal.read_text().splitlines()[0])
        assert header["fingerprint"] == campaign_fingerprint(_square, [5, 6])
