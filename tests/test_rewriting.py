
import pytest
from hypothesis import given, settings, strategies as st

from walkdelta.rewriting import (
    Alphabet,
    RewriteError,
    RewritingSystem,
    Rule,
    WalkSpace,
    WalkVector,
    step,
    symmetric_close,
    three_term,
)

from oracles import BudgetExceeded, brute_force_count, count_walks

AB = Alphabet(("a", "b"))


def four_cycle():
    # Single-cell flip rules on length-2 strings: aa-ab-bb-ba-aa, a 4-cycle.
    return RewritingSystem(AB, 1, [Rule((0,), (1,))])


def enc(word):
    return AB.encode(tuple(word))


class TestBasics:
    def test_alphabet_rejects_duplicates(self):
        with pytest.raises(RewriteError):
            Alphabet(("a", "a"))

    def test_rule_rejects_unequal_lengths(self):
        with pytest.raises(RewriteError):
            Rule((0,), (0, 1))

    def test_rule_rejects_self_loop(self):
        with pytest.raises(RewriteError):
            Rule((0, 1), (0, 1))

    def test_symmetric_close_idempotent(self):
        rules = [Rule((0,), (1,))]
        once = symmetric_close(rules)
        assert symmetric_close(once) == once
        assert Rule((1,), (0,)) in once

    def test_json_round_trip(self):
        sys_a = RewritingSystem(AB, 2, [Rule((0, 1), (1, 0)), Rule((0, 0), (1, 1))])
        doc = sys_a.to_json()
        # one stored direction per symmetric pair
        assert len(doc["rules"]) == 2
        sys_b = RewritingSystem.from_json(doc)
        assert sys_b.rules == sys_a.rules
        assert sys_b.window == sys_a.window
        assert sys_b.alphabet.tokens == sys_a.alphabet.tokens


class TestFourCycle:
    def test_neighbors(self):
        sys_ = four_cycle()
        assert sys_.neighbors(enc("aa")) == {enc("ab"), enc("ba")}

    def test_two_step_counts(self):
        sys_ = four_cycle()
        # (A^2)_{aa,aa} = 2 and (A^2)_{aa,bb} = 2 on the 4-cycle
        assert count_walks(sys_, enc("aa"), enc("aa"), 2) == 2
        assert count_walks(sys_, enc("aa"), enc("bb"), 2) == 2
        assert count_walks(sys_, enc("aa"), enc("ab"), 2) == 0

    def test_multiply_drops_cancelled_entries(self):
        sys_ = four_cycle()
        space = WalkSpace(sys_)
        aa, bb, ab = (space.intern(enc(w)) for w in ("aa", "bb", "ab"))
        ba = space.intern(enc("ba"))
        # aa and bb share both neighbours, so A (e_aa - e_bb) = 0
        for times_a in (
            lambda w: three_term(w, {}, space.adjacency),
            lambda w: step(sys_, WalkVector(space, w)).entries,
        ):
            assert times_a({aa: 1, bb: -1}) == {}
            assert times_a({aa: 1, ab: -1}) == {ab: 1, ba: 1, aa: -1, bb: -1}


class TestGuards:
    def test_brute_force_budget(self):
        sys_ = four_cycle()
        with pytest.raises(BudgetExceeded):
            brute_force_count(sys_, enc("aa"), enc("aa"), 40, node_limit=100)

    def test_short_string_rejected(self):
        sys_ = RewritingSystem(AB, 2, [Rule((0, 0), (1, 1))])
        with pytest.raises(RewriteError):
            sys_.neighbors(enc("a"))


def random_system(draw):
    n_sym = draw(st.integers(2, 3))
    alphabet = Alphabet(tuple("abc"[:n_sym]))
    width = draw(st.integers(1, 2))
    sym = st.integers(0, n_sym - 1)
    side = st.tuples(*([sym] * width))
    pairs = draw(
        st.lists(
            st.tuples(side, side).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=4,
        )
    )
    rules = [Rule(a, b) for a, b in pairs]
    return RewritingSystem(alphabet, width, rules)


@st.composite
def system_and_string(draw):
    sys_ = random_system(draw)
    length = draw(st.integers(sys_.window, 4))
    s = tuple(draw(st.integers(0, len(sys_.alphabet) - 1)) for _ in range(length))
    return sys_, s


@settings(max_examples=60, deadline=None)
@given(system_and_string())
def test_neighbor_symmetry(pair):
    sys_, s = pair
    for t in sys_.neighbors(s):
        assert s in sys_.neighbors(t)


@settings(max_examples=40, deadline=None)
@given(system_and_string(), st.integers(0, 4))
def test_matches_brute_force(pair, n):
    sys_, s = pair
    space = WalkSpace(sys_)
    v = WalkVector(space, {space.intern(s): 1})
    for _ in range(n):
        v = step(sys_, v)
    targets = {space.strings[sid] for sid in v.entries} | {s}
    for t in targets:
        assert count_walks(sys_, s, t, n) == brute_force_count(sys_, s, t, n)


@settings(max_examples=40, deadline=None)
@given(system_and_string(), st.integers(0, 3), st.integers(0, 3))
def test_chapman_kolmogorov(pair, n1, n2):
    # (A^(n1+n2))_{s,t} = sum_u (A^n1)_{s,u} (A^n2)_{u,t}
    sys_, s = pair
    space = WalkSpace(sys_)
    v = WalkVector(space, {space.intern(s): 1})
    for _ in range(n1):
        v = step(sys_, v)
    mid = {space.strings[sid]: c for sid, c in v.entries.items()}
    w = v
    for _ in range(n2):
        w = step(sys_, w)
    for sid, total in list(w.entries.items())[:5]:
        t = space.strings[sid]
        split = sum(c * count_walks(sys_, u, t, n2) for u, c in mid.items())
        assert split == total

