import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from sftoric.disks import (
    DiskClass,
    _chain_parts,
    enumerate_admissible,
    maslov_index,
    open_gw,
)
from sftoric.errors import ParameterMismatch, WrongMaslov
from sftoric.fan import Fan, P2_RAYS
from sftoric.homology import linear_relations
from step_sequences import step_filter_classes
from test_fan import chain_comparison_fans


def dc(fan, i, **mult):
    alpha = [0] * fan.d
    for key, v in mult.items():
        alpha[int(key[1:]) - 1] = v
    return DiskClass(i, tuple(alpha))


def brute_force_admissible(s, center):
    """Independent transcription of the three defining conditions."""
    if not s:
        return True
    keys = sorted(s)
    if any(s[k] < 1 for k in keys):
        return False
    if s[keys[0]] > 1 or s[keys[-1]] > 1:
        return False
    for i in keys[:-1]:
        step = s[i + 1] - s[i]
        if i < center and step not in (0, 1):
            return False
        if i >= center and step not in (0, -1):
            return False
    return True


def test_sequence_brute_force_oracle():
    # criterion: exhaustive agreement on all chains of length <= 4, entries <= 5
    for length in range(1, 5):
        for center in range(length):
            admissible = {
                values
                for values in product(range(1, 6), repeat=length)
                if brute_force_admissible(dict(enumerate(values)), center)
            }
            generated = {part for part in _chain_parts(length, center) if all(part)}
            assert generated == admissible, (length, center)


def semi_fano_comparison_fans():
    """The distinct semi-Fano fans among ``chain_comparison_fans``."""
    return list(dict.fromkeys(fan for fan in chain_comparison_fans() if fan.is_semi_fano()))


def test_classes_match_the_step_filter():
    # the rises and falls give the classes the 2^n step filter keeps, in order
    fans = semi_fano_comparison_fans()
    assert len(fans) == 218
    for fan in fans:
        assert enumerate_admissible(fan) == step_filter_classes(fan), fan


def test_class_counts_are_the_edge_binomials():
    # between consecutive corners a < b, ray a + j carries C(b - a, j) counted
    # classes, the basic one included: the terms of q^{C_a} prod_j (1 + m_j x)
    for fan in semi_fano_comparison_fans():
        counts = Counter(b.i for b in enumerate_admissible(fan))
        for a, b in fan._corner_pairs():
            assert counts[a] == 1, fan
            for j in range(1, b - a):
                assert counts[(a + j - 1) % fan.d + 1] == comb(b - a, j), (fan, a, j)


def test_maslov_examples(bundled):
    x3 = bundled["X3"][0]
    for i in range(1, 7):
        assert maslov_index(x3, DiskClass.basic(x3, i)) == 2
    assert maslov_index(x3, dc(x3, 1, D1=1)) == 2
    assert maslov_index(x3, dc(x3, 2, D6=1)) == 4


def test_maslov_index_takes_exact_integer_classes(bundled):
    x3 = bundled["X3"][0]
    for b in (DiskClass(1, (0.5, 0, 0, 0, 0, 0)), DiskClass(1, (1.0, 0, 0, 0, 0, 0)),
              DiskClass(1.5, (0,) * 6), DiskClass(7, (0,) * 6), DiskClass(1, (0, 0, 0, 1, 1))):
        with pytest.raises(ParameterMismatch):
            maslov_index(x3, b)
    assert maslov_index(x3, DiskClass(Fraction(1), (Fraction(1), 0, 0, 0, 0, 0))) == 2


def test_admissible_class_examples(bundled):
    x3 = bundled["X3"][0]
    assert open_gw(x3, dc(x3, 1, D1=1)) == 1
    assert open_gw(x3, dc(x3, 4, D4=1, D5=1)) == 1
    assert open_gw(x3, dc(x3, 2, D1=1)) == 0
    # support must be an interval containing the basic index
    assert open_gw(x3, dc(x3, 4, D5=1)) == 0
    assert open_gw(x3, dc(x3, 5, D5=1)) == 1


def test_open_gw_examples(bundled):
    x3 = bundled["X3"][0]
    for i in range(1, 7):
        assert open_gw(x3, DiskClass.basic(x3, i)) == 1
    assert open_gw(x3, dc(x3, 5, D4=1, D5=1)) == 1
    assert open_gw(x3, dc(x3, 1, D1=2)) == 0
    # D5 + L1 is the class of D5, so beta_5 + alpha counts one for both
    d5, (l1, _) = dc(x3, 5, D5=1).alpha, linear_relations(x3)
    assert open_gw(x3, DiskClass(5, tuple(m + x for m, x in zip(d5, l1)))) == 1
    with pytest.raises(WrongMaslov):
        open_gw(x3, dc(x3, 2, D6=1))
    # the basic index must name a ray, and alpha needs one entry per ray
    for b in (dc(x3, 11, D5=1), dc(x3, 0, D5=1), DiskClass.basic(x3, 0),
              DiskClass.basic(x3, 7), DiskClass(5, (0, 0, 0, 1, 1))):
        with pytest.raises(ParameterMismatch):
            open_gw(x3, b)


def test_open_gw_depends_on_the_class_only(bundled):
    # every sphere part that counts one for some basic index, under every
    # basic index (Maslov index two throughout), shifted by random m1 L1 + m2 L2
    rng = random.Random(7)
    for name, (fan, _) in bundled.items():
        l1, l2 = linear_relations(fan)
        alphas = {b.alpha for b in enumerate_admissible(fan)}
        values = set()
        for alpha in alphas:
            for i in range(1, fan.d + 1):
                n = open_gw(fan, DiskClass(i, alpha))
                values.add(n)
                for _ in range(3):
                    m1, m2 = rng.randrange(-3, 4), rng.randrange(-3, 4)
                    shifted = tuple(a + m1 * x + m2 * y for a, x, y in zip(alpha, l1, l2))
                    assert open_gw(fan, DiskClass(i, shifted)) == n, (name, i, alpha, shifted)
        assert values == ({1} if alphas == {(0,) * fan.d} else {0, 1}), name



def test_enumerate_examples(bundled):
    p2 = Fan(P2_RAYS)
    assert enumerate_admissible(p2) == [DiskClass.basic(p2, i) for i in (1, 2, 3)]
    x1 = bundled["X1"][0]
    out = enumerate_admissible(x1)
    assert len(out) == 5
    assert dc(x1, 4, D4=1) in out
    x3 = bundled["X3"][0]
    assert len(enumerate_admissible(x3)) == 11


def test_enumerate_order_and_invariants(bundled):
    for name, (fan, _) in bundled.items():
        out = enumerate_admissible(fan)
        keys = [(b.i, b.total_multiplicity(), b.alpha) for b in out]
        assert keys == sorted(keys), name
        assert len(out) == len(set(out)), name
        for b in out:
            assert maslov_index(fan, b) == 2, name
            assert open_gw(fan, b) == 1, name
        chains = fan.minus_two_chains()
        max_len = max((len(c) for c in chains), default=0)
        assert len(out) <= fan.d * max_len**2 + fan.d, name


def test_fano_fans_have_only_basic_classes(bundled):
    for name in ("P2", "F0", "F1", "dP2", "dP3"):
        fan = bundled[name][0]
        assert enumerate_admissible(fan) == [
            DiskClass.basic(fan, i) for i in range(1, fan.d + 1)
        ]
