"""Differential test of the partition space against the blocks oracle.

`PartitionSpace` holds each partition as its restricted-growth label
tuple; `partition_oracle.BlocksPartitionSpace` is the blocks
representation it replaced.  Each primitive must give the same answer
in both, compared through serialization, or raise the same error type.
"""

from collections.abc import Iterator

import pytest

from partition_oracle import BlocksPartitionSpace, blocks, fin_below_by_cuts
from ramspace import Approximation, Stem, partition_space
from ramspace.errors import ParseError

NEW, OLD = partition_space(6), BlocksPartitionSpace(6)
STEMS = NEW.stems()
SMALL = [a for a in STEMS if len(a.payload) <= 5]
# Each stem's counterpart in the oracle.
OLD_OF = {a: OLD.make(blocks(a)) for a in STEMS}


def _outcome(space, fn, *args):
    """What `fn(*args)` gives, serialized, or the type of its error.  A
    lazy child list is read out after the call, so an error it raises
    only when read is not taken for the answer."""
    try:
        r = fn(*args)
    except Exception as e:  # the error type is part of the answer
        return type(e)
    if isinstance(r, Stem):
        r = r.top
    if isinstance(r, Approximation):
        return space.serialize(r)
    if isinstance(r, (list, Iterator)):
        return [space.serialize(x) for x in r]
    return r


def _check(name, *args):
    """Ask `name` of both spaces; the approximations in `args` are the
    package's, and the oracle gets their counterparts."""
    old_args = [OLD_OF[x] if isinstance(x, Approximation) else x for x in args]
    got = _outcome(NEW, getattr(NEW, name), *args)
    want = _outcome(OLD, getattr(OLD, name), *old_args)
    assert got == want, (name, [NEW.serialize(x) for x in args if x in OLD_OF])


def test_stems_and_enumerations_match_the_oracle(partitions_by_shape):
    assert [NEW.serialize(a) for a in STEMS] == [OLD.serialize(a) for a in OLD.stems()]
    full = 1 + 1 + 2 + 5 + 15 + 52 + 203
    assert NEW.count_below(NEW.full_stem().top) == full
    assert OLD.count_below(OLD.full_stem().top) == full
    _check("full_stem")
    assert NEW.full_stem() == NEW.discrete_stem()
    old_stems = OLD.stems()
    for n in range(7):
        for k in range(n + 1):
            want = [
                OLD.serialize(a)
                for a in old_stems
                if a.length == k and sum(map(len, a.payload)) == n
            ]
            assert [NEW.serialize(a) for a in partitions_by_shape[n, k]] == want


def test_make_and_parse_match_the_oracle():
    for a in STEMS:
        text = NEW.serialize(a)
        assert NEW.make(blocks(a)) == a
        assert NEW.parse(text) == a
        assert OLD.serialize(OLD.parse(text)) == text
    for text in ["()", "({0})", "({0,2},{1})", "({0}, {1})", "({1},{0})",
                 "({00},{1})", "({0},{1}", "{0},{1}", "({})", "({0},{})",
                 "({0},{2})", "({0,1,2,3,4,5,6})", "( {0})", "({0}{1})"]:
        assert _outcome(NEW, NEW.parse, text) == _outcome(OLD, OLD.parse, text), text


def test_restriction_and_down_sets_match_at_domain_six():
    for a in STEMS:
        for n in range(-1, a.length + 2):
            _check("restrict", a, n)
        _check("fin_below", a)
        _check("count_below", a)


def test_length_groups_match_the_cut_route_up_to_domain_seven():
    # Each group is built in one pass over the top's labels, unsorted;
    # the route it replaced filters every cut's coarsenings and sorts.
    space = partition_space(7)
    tops = space.stems()
    assert len(tops) == 1 + 1 + 2 + 5 + 15 + 52 + 203 + 877
    for top in tops:
        for k in range(-1, top.length + 2):
            assert space.fin_below(top, k) == fin_below_by_cuts(top, k), (top, k)
        assert space.fin_below(top) == fin_below_by_cuts(top), top


def test_order_matches_at_domain_six():
    olds = [OLD_OF[b] for b in STEMS]
    for a in STEMS:
        old_a = OLD_OF[a]
        got = [NEW.fin_leq(a, b) for b in STEMS]
        assert got == [OLD.fin_leq(old_a, b) for b in olds], NEW.serialize(a)


def test_neighborhoods_match_up_to_domain_five():
    for a in SMALL:
        for b in SMALL:
            _check("extensions_below", a, b)
            _check("open_beyond", a, b)


def test_extensions_below_the_discrete_stem_match_at_domain_six():
    top = NEW.full_stem().top
    for a in NEW.fin_below(top):
        _check("extensions_below", a, top)


def test_oracle_blocks_are_the_serialized_blocks():
    p = partition_space(4)
    a = p.parse("({0,2},{1},{3})")
    assert a.payload == (0, 1, 0, 2)
    assert blocks(a) == ((0, 2), (1,), (3,))
    with pytest.raises(ParseError):
        p.parse("({0,2},{1},{4})")
