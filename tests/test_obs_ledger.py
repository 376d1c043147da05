"""The bounded slow-query ledger: top-K retention, ordering, merging."""

from repro.obs.ledger import SlowQueryLedger


def query(seconds, **extra):
    record = {"seconds": seconds, "file": "a.php", "assert_id": 1}
    record.update(extra)
    return record


class TestSlowQueryLedger:
    def test_records_sorted_most_expensive_first(self):
        ledger = SlowQueryLedger()
        for seconds in (0.2, 0.9, 0.5):
            ledger.observe(query(seconds))
        assert [q["seconds"] for q in ledger.records()] == [0.9, 0.5, 0.2]

    def test_capacity_evicts_cheapest(self):
        ledger = SlowQueryLedger(capacity=3)
        for seconds in (0.1, 0.4, 0.2, 0.9, 0.05):
            ledger.observe(query(seconds))
        assert [q["seconds"] for q in ledger.records()] == [0.9, 0.4, 0.2]
        assert len(ledger) == 3

    def test_merge_unions_and_rebounds(self):
        a = SlowQueryLedger(capacity=2)
        a.observe(query(0.3, file="a.php"))
        b = SlowQueryLedger(capacity=2)
        b.observe(query(0.7, file="b.php"))
        b.observe(query(0.1, file="b.php"))
        a.merge(b.records())
        assert [q["seconds"] for q in a.records()] == [0.7, 0.3]

    def test_merge_tolerates_none_and_junk(self):
        ledger = SlowQueryLedger()
        ledger.merge(None)
        ledger.merge([None, "nope", query(0.2)])
        assert len(ledger) == 1

    def test_missing_seconds_treated_as_zero(self):
        ledger = SlowQueryLedger(capacity=1)
        ledger.observe({"file": "a.php"})
        ledger.observe(query(0.5))
        assert ledger.records()[0]["seconds"] == 0.5

    def test_empty_ledger_is_falsy(self):
        ledger = SlowQueryLedger()
        assert not ledger and ledger.records() == [] and list(ledger) == []

    def test_insertion_order_breaks_ties(self):
        ledger = SlowQueryLedger()
        ledger.observe(query(0.5, tag="first"))
        ledger.observe(query(0.5, tag="second"))
        assert [q["tag"] for q in ledger.records()] == ["first", "second"]
