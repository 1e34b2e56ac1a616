"""Unit tests for Team membership and tree helpers."""

import pytest

from repro.runtime.team import Team


class TestMembership:
    def test_basic_ranks(self):
        t = Team([10, 20, 30])
        assert t.size == 3
        assert len(t) == 3
        assert list(t) == [10, 20, 30]
        assert t.rank_of(20) == 1
        assert t.world_rank(2) == 30
        assert 20 in t and 99 not in t

    def test_rank_errors(self):
        t = Team([0, 1])
        with pytest.raises(ValueError):
            t.rank_of(5)
        with pytest.raises(ValueError):
            t.world_rank(2)
        with pytest.raises(ValueError):
            t.world_rank(-1)

    def test_empty_and_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Team([])
        with pytest.raises(ValueError):
            Team([1, 1])

    def test_unique_ids(self):
        a, b = Team([0]), Team([0])
        assert a.id != b.id

    def test_subset(self):
        world = Team(range(8))
        sub = Team([1, 3, 5])
        assert sub.is_subset_of(world)
        assert not world.is_subset_of(sub)
        assert sub.is_subset_of(sub)

    @pytest.mark.parametrize("mine, theirs, expected", [
        (range(8), range(8), True),          # equal ranges, distinct objects
        (range(2, 5), range(8), True),       # nested ranges
        (range(0, 8), range(2, 5), False),   # range strictly contains
        (range(3, 9), range(0, 6), False),   # overlapping ranges
        (range(6, 9), range(0, 6), False),   # disjoint ranges
        (range(0, 1), range(0, 1), True),    # singletons
        ([5, 1, 3], range(8), True),         # list inside range
        ([5, 1, 9], range(8), False),        # list leaves the range
        (range(2, 4), [9, 3, 2, 0], True),   # range inside list
        (range(2, 5), [9, 3, 2, 0], False),  # range leaves the list
        ([4, 2], [1, 2, 3, 4], True),        # list inside list
        ([4, 5], [1, 2, 3, 4], False),       # list leaves the list
    ])
    def test_subset_table(self, mine, theirs, expected):
        assert Team(mine).is_subset_of(Team(theirs)) is expected


class TestTreeShape:
    def test_root_has_no_parent(self):
        t = Team(range(7))
        assert t.tree_parent(0) is None
        assert t.tree_parent(3, root=3) is None

    def test_binary_tree_children(self):
        t = Team(range(7))
        assert t.tree_children(0) == [1, 2]
        assert t.tree_children(1) == [3, 4]
        assert t.tree_children(2) == [5, 6]
        assert t.tree_children(3) == []

    def test_parent_child_consistency(self):
        t = Team(range(13))
        for root in (0, 5):
            for radix in (2, 4):
                for r in range(t.size):
                    for c in t.tree_children(r, root, radix):
                        assert t.tree_parent(c, root, radix) == r

    def test_every_nonroot_has_parent_path_to_root(self):
        t = Team(range(10))
        root = 4
        for r in range(t.size):
            cur, hops = r, 0
            while cur != root:
                cur = t.tree_parent(cur, root)
                hops += 1
                assert hops <= t.size
        # depth is logarithmic for radix 2
        assert hops <= 5

    @pytest.mark.parametrize("members", [range(11), [7, 3, 9, 0, 4, 12, 5]])
    def test_tree_links_match_tree_shape(self, members):
        t = Team(members)
        for root in (0, 2):
            for radix in (1, 2, 3):
                for tr in range(t.size):
                    w = t.world_rank(tr)
                    parent, children = t.tree_links(w, root, radix)
                    p_tr = t.tree_parent(tr, root, radix)
                    assert parent == (None if p_tr is None
                                      else t.world_rank(p_tr))
                    assert children == tuple(
                        t.world_rank(c)
                        for c in t.tree_children(tr, root, radix))
                    # computed once, then served from the cache
                    assert t.tree_links(w, root, radix) is t.tree_links(
                        w, root, radix)

    def test_rotated_root_tree_covers_all(self):
        t = Team(range(6))
        seen = {3}
        frontier = [3]
        while frontier:
            r = frontier.pop()
            for c in t.tree_children(r, root=3):
                assert c not in seen
                seen.add(c)
                frontier.append(c)
        assert seen == set(range(6))


class TestHypercube:
    def test_neighbors_power_of_two(self):
        t = Team(range(8))
        assert t.hypercube_neighbors(0) == [1, 2, 4]
        assert t.hypercube_neighbors(5) == [4, 7, 1]

    def test_neighbors_non_power_of_two(self):
        t = Team(range(6))
        # offsets 1, 2, 4; neighbors >= size are dropped
        assert t.hypercube_neighbors(0) == [1, 2, 4]
        # 5^1=4 kept, 5^2=7 dropped (>= 6), 5^4=1 kept
        assert t.hypercube_neighbors(5) == [4, 1]

    def test_neighbor_relation_is_symmetric(self):
        t = Team(range(12))
        for r in range(12):
            for n in t.hypercube_neighbors(r):
                assert r in t.hypercube_neighbors(n)
