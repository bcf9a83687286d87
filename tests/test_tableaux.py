from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from krspectra.glrep import build_irrep
from krspectra.tableaux import (
    CrystalError,
    CrystalGraph,
    Tableau,
    build_crystal,
    canonical_weight,
    decompose_normal,
    enumerate_ssyt,
    reading_words,
    row_counts,
    signature_rule,
    ssyt_count,
    string_positions,
)

from oracles import (
    character_eval,
    content,
    crystal_by_tableaux,
    e_op,
    f_op,
    schur_polynomial,
)


def tab(rows, n):
    return Tableau(rows, n)


class TestOperators:
    def test_f1_undefined_when_no_unmatched(self):
        # no SSYT of shape 2x2 has content (1,3,0,0): f_1 must vanish here
        t = tab([[1, 1], [2, 2]], 4)
        assert f_op(1, t) is None

    def test_f3_single_three(self):
        t = tab([[1, 1], [2, 3]], 4)
        assert f_op(3, t) == tab([[1, 1], [2, 4]], 4)

    def test_f1_one_box(self):
        assert f_op(1, tab([[1]], 2)) == tab([[2]], 2)

    def test_e2_spec_example(self):
        # reading word of [[1,1],[2,3]] is 2,1,3,1; e_2 turns the 3 into 2
        t = tab([[1, 1], [2, 3]], 4)
        assert e_op(2, t) == tab([[1, 1], [2, 2]], 4)

    def test_e1_highest_weight(self):
        assert e_op(1, tab([[1]], 3)) is None

    def test_e_f_inverse_exhaustive_on_2x2(self):
        g = build_crystal(4, (2, 2))
        for t in g.labels:
            for i in (1, 2, 3):
                ft = f_op(i, t)
                if ft is not None:
                    assert e_op(i, ft) == t
                et = e_op(i, t)
                if et is not None:
                    assert f_op(i, et) == t

    def test_results_stay_semistandard(self):
        for t in enumerate_ssyt((3, 1), 3):
            for i in (1, 2):
                for im in (f_op(i, t), e_op(i, t)):
                    if im is not None:
                        assert im.is_semistandard()


def partitions(cells, parts):
    """Every partition of at most `cells` cells into at most `parts` parts,
    the empty one included."""
    out = [()]
    for lam in out:
        top = lam[-1] if lam else cells
        if len(lam) < parts:
            out += [lam + (x,) for x in range(1, min(top, cells - sum(lam)) + 1)]
    return out


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_enumerated_tableau_is_semistandard(self, n):
        # enumerate_ssyt skips Tableau's check: its search bounds every cell
        for lam in partitions(6, n):
            for t in enumerate_ssyt(lam, n):
                assert type(t) is Tableau and t.shape == lam and t.n == n
                assert t.is_semistandard(), (n, lam, t)
                assert Tableau(t.rows, n) == t

    def test_tableau_still_checks_its_input(self):
        with pytest.raises(CrystalError):
            Tableau([[2, 1]], 2)
        with pytest.raises(CrystalError):
            Tableau([[1], [1]], 2)


class TestSignatureRule:
    """`build_crystal` reads e_i and f_i off arrays of reading words; the
    per-tableau rule of `tests/oracles.py` is its oracle."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_shape_of_at_most_six_cells(self, n):
        shapes = partitions(6, n)
        assert () in shapes and len(shapes) == {1: 7, 2: 16, 3: 23, 4: 27, 5: 29, 6: 30}[n]
        for lam in shapes:
            g = build_crystal(n, lam)
            labels, E, F, wt = crystal_by_tableaux(n, lam)
            assert g.labels == tuple(labels), (n, lam)
            assert g.E.tolist() == E and g.F.tolist() == F, (n, lam)
            assert g.wt.tolist() == wt, (n, lam)

    def test_a_column_of_62_cells_in_64_letters(self):
        # a word of 62 letters from 1..64 is no digit string of one int64
        # key, so the targets are matched on ranks
        n = 64
        assert (n + 1) ** 62 > 2**63
        g = build_crystal(n, (1,) * 62)
        assert len(g) == 2016
        column = [frozenset(t.rows[r][0] for r in range(62)) for t in g.labels]
        ids = {s: k for k, s in enumerate(column)}
        assert len(ids) == 2016
        for r, i in enumerate(g.indices):
            # the reading word runs down the letters, so an i+1 brackets an i
            F = [ids[s - {i} | {i + 1}] if i in s and i + 1 not in s else -1 for s in column]
            E = [ids[s - {i + 1} | {i}] if i + 1 in s and i not in s else -1 for s in column]
            assert g.F[r].tolist() == F and g.E[r].tolist() == E, i
        assert g.wt.tolist() == [list(content(t)) for t in g.labels]
        for b in range(0, 2016, 97):
            t = g.labels[b]
            for i in g.indices:
                for op, maps in ((e_op, g.E), (f_op, g.F)):
                    image = op(i, t)
                    got = int(maps[g.row(i), b])
                    assert got == (-1 if image is None else g.id(image)), (b, i)

    def test_a_missing_element_is_refused(self):
        # negative control: without one tableau some target is no row, and
        # the rule must say so rather than return another id
        for n, lam in [(2, (1,)), (3, (2, 1)), (4, (2, 2)), (5, (3, 1, 1))]:
            words = reading_words(lam, enumerate_ssyt(lam, n))
            E, F = signature_rule(words, n)
            assert (E >= 0).any()
            for b in range(len(words)):
                with pytest.raises(CrystalError, match="not an element"):
                    signature_rule(np.delete(words, b, axis=0), n)

    def test_reading_words(self):
        # columns bottom to top, left to right
        t = tab([[1, 1, 3], [2, 3]], 4)
        assert reading_words((3, 2), [t]).tolist() == [[2, 1, 3, 1, 3]]
        assert reading_words((), [tab([], 3)]).shape == (1, 0)


class TestBuild:
    def test_2w2_has_20_elements(self):
        g = build_crystal(4, (2, 2))
        assert len(g) == 20

    def test_w1_n2(self):
        g = build_crystal(2, (1,))
        assert len(g) == 2
        assert [g.labels[b] for b in g.F[g.row(1)].tolist() if b >= 0] == [tab([[2]], 2)]

    def test_shape_21_n3(self):
        g = build_crystal(3, (2, 1))
        assert len(g) == 8

    def test_cap(self):
        with pytest.raises(CrystalError):
            build_crystal(4, (2, 2), cap=5)
        assert len(build_crystal(4, (2, 2), cap=20)) == 20

    def test_ssyt_count_is_the_enumerated_count(self):
        # the cap is checked from the hook-content count before enumerating
        for n in range(1, 6):
            for lam in [(), (1,), (3,), (1, 1), (2, 1), (2, 2), (3, 1), (2, 2, 1), (3, 2, 1)]:
                if len(lam) <= n:
                    assert ssyt_count(lam, n) == len(enumerate_ssyt(lam, n)), (n, lam)

    def test_axioms_hold(self):
        for (n, lam) in [(2, (2,)), (3, (2, 1)), (4, (2, 2))]:
            g = build_crystal(n, lam)
            assert g.check_axioms() is None

    def test_cardinality_matches_glrep_dim(self):
        for (n, l, r) in [(3, 2, 1), (3, 2, 2), (4, 2, 2)]:
            g = build_crystal(n, (l,) * r)
            assert len(g) == build_irrep(n, l, r).dim

    def test_weight_multiset_matches_glrep(self):
        for (n, l, r) in [(3, 2, 1), (4, 2, 2)]:
            g = build_crystal(n, (l,) * r)
            counts = {}
            for t in g.elements:
                counts[tuple(g.wt[t])] = counts.get(tuple(g.wt[t]), 0) + 1
            assert counts == Counter(build_irrep(n, l, r).weight_basis)


class TestStrings:
    def test_one_box_strings(self):
        g = build_crystal(2, (1,))
        one = tab([[1]], 2)
        two = tab([[2]], 2)
        eps, phi = string_positions(g, 1)
        assert (eps[g.id(one)], phi[g.id(one)]) == (0, 1)
        assert (eps[g.id(two)], phi[g.id(two)]) == (1, 0)

    def test_2x2_f2_string(self):
        g = build_crystal(4, (2, 2))
        t = tab([[1, 1], [2, 2]], 4)
        eps, phi = string_positions(g, 2)
        assert (eps[g.id(t)], phi[g.id(t)]) == (0, 2)

    def test_an_id_on_no_string_is_an_error(self):
        # f_1 swaps a and b, a 2-cycle with no top and no bottom; id 2 is a
        # string of its own
        g = CrystalGraph(2, ["a", "b", "c"], [[1, 0, -1]], [[1, 0, -1]], [(1, 0), (0, 1), (0, 0)])
        with pytest.raises(CrystalError, match=r"\(i, id\) = \(1, 0\)"):
            string_positions(g, 1)

    def test_positions_are_walked_once(self):
        g = build_crystal(3, (2, 1))
        assert g.positions() is g.positions()
        eps, phi = string_positions(g, 2)
        assert np.array_equal(eps, g.positions()[0][g.row(2)])
        assert np.array_equal(phi, g.positions()[1][g.row(2)])


class TestReadOnly:
    def test_in_place_writes_raise(self):
        # cached string positions cannot go stale
        g = build_crystal(3, (2, 1))
        for a in (g.E, g.F, g.wt, *g.positions()):
            with pytest.raises(ValueError):
                a[0, 0] = 1

    def test_a_callers_array_keeps_its_flags(self):
        wt = np.array([[1, 0], [0, 1]])
        g = CrystalGraph(2, ["1", "2"], [[-1, 0]], [[1, -1]], wt)
        assert wt.flags.writeable and not g.wt.flags.writeable


class TestDecompose:
    def test_single_component(self):
        g = build_crystal(2, (1,))
        comps = decompose_normal(g)
        assert len(comps) == 1
        assert comps[0]["normal"]
        assert comps[0]["lambda"] == (1, 0)
        assert [g.labels[b] for b in comps[0]["sources"]] == [tab([[1]], 2)]

    def test_each_component_unique_source_sink(self):
        g = build_crystal(3, (2, 1))
        for comp in decompose_normal(g):
            assert comp["normal"]

    def test_component_character_matches_schur(self):
        g = build_crystal(3, (2, 1))
        comps = decompose_normal(g)
        xs = [Fraction(2), Fraction(1, 3), Fraction(5, 7)]
        for comp in comps:
            lam = [x for x in comp["lambda"] if x]
            assert character_eval(g, comp["elements"], xs) == schur_polynomial(
                lam, xs
            )


class TestRowCounts:
    def test_rows_of_any_width_and_size(self):
        # neither 41 entries below 3 nor an entry of 10**12 fits a base-(max+1)
        # int64 key
        rng = np.random.default_rng(5)
        for rows in (rng.integers(0, 3, size=(60, 41)), rng.integers(0, 2, size=(50, 3)) * 10**12):
            assert row_counts(rows) == Counter(map(tuple, rows.tolist()))
            assert list(row_counts(rows)) == sorted(set(map(tuple, rows.tolist())))

    def test_no_rows(self):
        assert row_counts(np.zeros((0, 4), dtype=int)) == Counter()


class TestCanonicalWeight:
    def test_subtract_min(self):
        assert canonical_weight((3, 1, 2)).tolist() == [2, 0, 1]
        assert canonical_weight((0, 0)).tolist() == [0, 0]
