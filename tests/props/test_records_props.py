"""Property-based test: the record plane's one merge is a join.

``learn`` over fact sets that do not contradict each other (one value,
one result per request — what the protocol produces) is idempotent,
commutative and associative and never lowers a fact, so every path that
calls it converges whatever order the facts arrive in.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.requests import BOTTOM, OpRecord
from repro.net.records import facts, learn
from repro.ops.recovery import merge_records

# a request has one value and one result; copies differ in how much of
# that (and of the flags) they have seen so far
VALUE, RESULT = 17, BOTTOM
fact_sets = st.tuples(
    st.sampled_from([None, VALUE]),
    st.sampled_from([None, RESULT]),
    st.booleans(),
    st.booleans(),
)


def record(known=(None, None, False, False)) -> OpRecord:
    rec = OpRecord(5, 0, 0, 1, None, 0.0)
    learn(rec, *known)
    return rec


def join(*sets) -> tuple:
    rec = record()
    for known in sets:
        learn(rec, *known)
    return facts(rec)


@given(fact_sets, fact_sets, fact_sets)
def test_learn_is_a_join(a, b, c):
    assert join(a, a) == join(a) == a  # idempotent
    assert join(a, b) == join(b, a)  # commutative
    assert join(join(a, b), c) == join(a, join(b, c))  # associative


@given(fact_sets, fact_sets)
def test_learn_never_lowers_and_reports_change(a, b):
    rec = record(a)
    changed = learn(rec, *b)
    after = facts(rec)
    assert changed == (after != a)
    for had, has in zip(a, after):
        assert has == had or not had  # a fact, once known, stays as it was
    for offered, has in zip(b, after):
        assert has or not offered  # and everything offered is now known


@given(st.lists(st.lists(fact_sets, max_size=4), max_size=4), st.randoms())
def test_merge_records_ignores_dump_and_copy_order(dumps, rng):
    copies = [[record(known) for known in dump] for dump in dumps]
    merged = merge_records(copies)
    shuffled = [list(dump) for dump in copies]
    rng.shuffle(shuffled)
    for dump in shuffled:
        rng.shuffle(dump)
    again = merge_records(shuffled)
    assert {k: facts(r) for k, r in merged.items()} == {
        k: facts(r) for k, r in again.items()
    }
    if merged:
        assert facts(merged[5]) == join(*(k for dump in dumps for k in dump))
