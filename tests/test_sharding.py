"""Deterministic corpus sharding (repro.engine.sharding): spec parsing
and content-hash shard assignment."""

import pytest

from repro.engine.sharding import assign_shard, parse_shard


def corpus(count=40):
    """A synthetic corpus of (filename, content) pairs."""
    return [
        (f"app/module{i:02d}.php", f"<?php echo $x + {i}; ?>")
        for i in range(count)
    ]


class TestParseShard:
    def test_one_based_spec_to_zero_based_pair(self):
        assert parse_shard("1/1") == (0, 1)
        assert parse_shard("2/4") == (1, 4)
        assert parse_shard("16/16") == (15, 16)

    @pytest.mark.parametrize(
        "spec", ["", "3", "a/b", "1/0", "0/4", "5/4", "-1/4", "1/-2", "1//2"]
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_shard(spec)


class TestAssignShard:
    def test_deterministic_and_in_range(self):
        for _, content in corpus():
            first = assign_shard(content, 7)
            assert first == assign_shard(content, 7)
            assert 0 <= first < 7

    def test_str_and_bytes_agree(self):
        assert assign_shard("<?php ?>", 5) == assign_shard(b"<?php ?>", 5)

    def test_single_shard_owns_everything(self):
        assert all(assign_shard(c, 1) == 0 for _, c in corpus())

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            assign_shard("x", 0)
