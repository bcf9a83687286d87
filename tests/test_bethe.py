import gc
import hashlib
import math
import re
import weakref
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from krspectra import bethe, gaudin, scalars
from krspectra.bethe import (
    BetheError,
    BetheFamily,
    TorusElement,
    bethe_family,
    degeneration_report,
    exp_tail_bound,
    exp_truncated,
    quantum_minors,
    rotate_weight,
    shift_residue_generators,
    standard_torus,
    tau_members,
    tau_ratfun,
    wall_pair,
)
from krspectra.gaudin import GaudinConfig, residue_generators, wall_family
from krspectra.glrep import build_defining, build_tensor
from krspectra.pipeline import build_spectral_config, default_shift, kr_rep
from krspectra.scalars import Mat, QQi, RatFun, unit_circle_point

from oracles import (
    antisymmetrizer,
    center_members,
    commutator,
    embed_aux,
    is_regular,
    mat_rank,
    mat_rows,
    normalized,
    oracle_minors,
    oracle_t_grid,
    pole_term,
    scalar_part,
    scaled,
    scaled_config,
    spans_equal,
    tau_kron_direct,
    tau_trace_direct,
)


def config_c2_pair(z=(QQi(0, 3), QQi(0, 1)), d=(-2, -2)):
    c2 = build_defining(2)
    return GaudinConfig(
        build_tensor([(c2, QQi.of(z[0]), QQi.of(d[0])), (c2, QQi.of(z[1]), QQi.of(d[1]))]),
        (0, 0),
    )


def config_single(n, z=QQi(Fraction(1, 3))):
    cn = build_defining(n)
    return GaudinConfig(build_tensor([(cn, QQi.of(z), QQi(0))]), (0,) * n)


def config_at(n, factors, points):
    """KR factors (l, r) at the given points, each at its normality shift."""
    parts = [
        (kr_rep(n, l, r), QQi.of(z), QQi(default_shift(n, l, r)))
        for (l, r), z in zip(factors, points)
    ]
    return GaudinConfig(build_tensor(parts), (0,) * n)


def tau_from_members(fam, a):
    """tau_a rebuilt from the family's tagged Laurent coefficients."""
    terms = []
    for tag, g in fam.members():
        if tag == ("tau-inf", a):
            terms.append(RatFun.const(g))
        elif tag[:2] == ("tau-res", a):
            terms.append(pole_term(g, QQi.parse(tag[2]), tag[3] + 1))
    return RatFun.sum(terms)


class TestTorus:
    def test_standard_regular(self):
        C = standard_torus(3)
        assert is_regular(C)
        for c in C.entries:
            assert c.abs2() == 1

    def test_wall_merges_adjacent(self):
        C = standard_torus(3, wall=1)
        assert gaudin.coincidence_classes(C.entries) == [[1, 2], [3]]
        C = standard_torus(3, wall=3)
        assert gaudin.coincidence_classes(C.entries) == [[1, 3], [2]]

    # the regular entries of standard_torus(n), and at wall j the index of
    # the regular entry that each slot holds
    PINNED = {
        2: (["5/13+12/13*i", "4/5+3/5*i"], {1: (0, 0), 2: (0, 0)}),
        3: (
            ["7/25+24/25*i", "3/5+4/5*i", "15/17+8/17*i"],
            {1: (0, 0, 2), 2: (0, 1, 1), 3: (0, 1, 0)},
        ),
        4: (
            ["9/41+40/41*i", "8/17+15/17*i", "21/29+20/29*i", "12/13+5/13*i"],
            {1: (0, 0, 2, 3), 2: (0, 1, 1, 3), 3: (0, 1, 2, 2), 4: (0, 1, 2, 0)},
        ),
        5: (
            ["11/61+60/61*i", "5/13+12/13*i", "3/5+4/5*i", "4/5+3/5*i", "35/37+12/37*i"],
            {
                1: (0, 0, 2, 3, 4),
                2: (0, 1, 1, 3, 4),
                3: (0, 1, 2, 2, 4),
                4: (0, 1, 2, 3, 3),
                5: (0, 1, 2, 3, 0),
            },
        ),
    }

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_entries_are_pinned(self, n):
        regular, walls = self.PINNED[n]
        assert [str(c) for c in standard_torus(n).entries] == regular
        for j in range(1, n + 1):
            want = [regular[k] for k in walls[j]]
            assert [str(c) for c in standard_torus(n, wall=j).entries] == want, j

    def test_wall_pair_is_the_ordered_pair_of_each_wall(self):
        assert [wall_pair(4, j) for j in range(1, 5)] == [(1, 2), (2, 3), (3, 4), (4, 1)]
        assert wall_pair(2, 2) == (2, 1)
        for n, j in [(1, 1), (0, 1), (3, 0), (3, 4)]:
            with pytest.raises(BetheError):
                wall_pair(n, j)
        with pytest.raises(BetheError, match="gl_1 has no alcove walls"):
            standard_torus(1, wall=1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_the_rotation_carries_wall_1_to_every_wall(self, n):
        def root(pair):
            i, j = pair
            return tuple((m == i) - (m == j) for m in range(1, n + 1))

        for j in range(1, n + 1):
            # wall_pair(n, j) = P^(j-1) wall_pair(n, 1), with P e_m = e_{m+1}
            assert rotate_weight(root(wall_pair(n, 1)), j - 1) == root(wall_pair(n, j)), j
        w = tuple(range(10, 10 + n))
        assert rotate_weight(w, 1) == (w[-1],) + w[:-1]
        assert rotate_weight(w, n) == rotate_weight(w, 0) == w
        assert rotate_weight(rotate_weight(w, 1), -1) == w

    def test_normalized_class(self):
        C = standard_torus(3)
        N = normalized(C)
        assert N.entries[0] == QQi(1)

    def test_rejects_non_unit(self):
        with pytest.raises(BetheError):
            TorusElement([QQi(2), QQi(1)])


class TestAntisymmetrizer:
    def test_a1_identity(self):
        assert antisymmetrizer(3, 1) == Mat.identity(3)

    def test_a2_rank_one_on_c2(self):
        m = antisymmetrizer(2, 2)
        assert mat_rank([list(r) for r in mat_rows(m)]) == 1

    @pytest.mark.parametrize("n,a", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 4)])
    def test_idempotent_with_binomial_rank(self, n, a):
        from math import comb

        m = antisymmetrizer(n, a)
        assert m * m == m
        assert mat_rank([list(r) for r in mat_rows(m)]) == comb(n, a)


class TestTauHandOracle:
    def test_a1_k1_formula(self):
        # tau_1(u, C) on C^2(z) = (c1+c2) 1 + diag(c1, c2)-weighted E / (u - z)
        z = QQi(Fraction(2, 7))
        cfg = config_single(2, z)
        C = standard_torus(2)
        c1, c2 = C.entries
        f = tau_ratfun(1, C, cfg)
        u = QQi(Fraction(31, 5))
        e11 = cfg.rep.e_slot(0, 1, 1)
        e22 = cfg.rep.e_slot(0, 2, 2)
        expected = Mat.identity(2) * (c1 + c2) + (
            e11 * c1 + e22 * c2
        ) * (u - z).inverse()
        assert f.eval(u) == expected

    def test_tau_n_central_at_identity_class(self):
        # C in the identity class: tau_n is scalar on C^n(z)
        for n in (2, 3):
            cfg = config_single(n)
            c = unit_circle_point(Fraction(1, 3))
            C = TorusElement([c] * n)
            f = tau_ratfun(n, C, cfg)
            val = f.eval(QQi(Fraction(100, 7)))
            assert scalar_part(val) is not None

    def test_tau1_infinity_limit(self):
        cfg = config_single(2)
        C = standard_torus(2)
        f = tau_ratfun(1, C, cfg)
        total = C.entries[0] + C.entries[1]
        inf = f.infinity_value()
        assert inf == Mat.identity(2) * total


class TestQuantumMinors:
    def test_table_holds_every_nonempty_subset(self):
        # one table per order, each keyed by the subsets of its size
        n = 3
        cfg = config_single(n)
        tables = {a: quantum_minors(cfg, a) for a in (2, 1, 3)}
        for a, table in tables.items():
            assert set(table) == set(combinations(range(n), a))
        assert sum(map(len, tables.values())) == 2**n - 1

    def test_an_order_is_built_only_when_asked_for(self):
        cfg = build_spectral_config(3, [(1, 1), (1, 2)], 1)
        quantum_minors(cfg, 2)
        assert set(bethe._MINORS[cfg]) == {2}
        assert all(set(bethe._FACTOR_MINORS[rep]) == {2} for rep, _, _ in cfg.rep.factors)
        quantum_minors(cfg, 1)
        assert set(bethe._MINORS[cfg]) == {1, 2}

    def test_one_grid_build_serves_every_family_of_a_config(self, monkeypatch):
        calls, built = [], []
        build, factor_grid = bethe.ev_t_grid, bethe._factor_grid

        def counting(cfg, orders):
            calls.append(list(orders))
            return build(cfg, orders)

        def recording(rep, w):
            built.append(rep)
            return factor_grid(rep, w)

        monkeypatch.setattr(bethe, "ev_t_grid", counting)
        monkeypatch.setattr(bethe, "_factor_grid", recording)
        n = 3
        cfg = build_spectral_config(n, [(1, 1), (1, 2), (1, 2)], 1)
        # tau_1 reads each factor's T(u) itself: no grid
        bethe_family(standard_torus(n), cfg, (1,))
        assert calls == [[1]] and built == []
        for j in range(1, n + 1):
            bethe_family(standard_torus(n, j), cfg)
        bethe_family(standard_torus(n), cfg)
        # orders 2 and 3 in one pass: one grid for the two slots of
        # Wedge^2 C^3, none for C^3; the other families build nothing
        assert calls == [[1], [2, 3]] and built == [kr_rep(n, 1, 2)]
        # a configuration on the same reps finds every factor table built
        bethe_family(standard_torus(n), build_spectral_config(n, [(1, 1), (1, 2), (1, 2)], 2))
        assert calls == [[1], [2, 3], [1, 2, 3]] and len(built) == 1

    def test_table_is_freed_with_its_config(self):
        gc.collect()  # only this config may leave the map below
        cfg = config_c2_pair()
        quantum_minors(cfg, 1)
        held = len(bethe._MINORS)
        ref = weakref.ref(cfg)
        del cfg
        gc.collect()
        assert ref() is None
        assert len(bethe._MINORS) == held - 1


def assert_same_table(got, want):
    """Equal keys, and equal fields once each minor's common factors are
    cancelled: the canonical form of a rational function."""
    assert set(got) == set(want)
    for I in want:
        g, w = got[I].cancel(), want[I].cancel()
        assert g.num == w.num and g.poles == w.poles, I


def of_order(oracle, a):
    """The entries of an `oracle_minors` table whose index set has size a."""
    return {I: qm for I, qm in oracle.items() if len(I) == a}


def every_order(rep):
    """The union of the factor tables of every order built for `rep`."""
    return {key: qm for _, table in bethe._FACTOR_MINORS[rep].values() for key, qm in table.items()}


# (n, factors, s); at s = 0 the points of (1,1), (2,1) and (3,1) at n = 3 are
# -3/2, -1 and -1/2, so the factor minors' poles w + m overlap
COPRODUCT_CASES = [
    (2, [(1, 1), (1, 1)], 1),
    (2, [(1, 1), (1, 1)], Fraction(5, 2)),
    (2, [(1, 1), (1, 1), (1, 1)], 1),
    (2, [(2, 1), (1, 1)], Fraction(5, 2)),
    (2, [(1, 1), (2, 1), (1, 1)], Fraction(5, 2)),
    (3, [(1, 1), (1, 2)], 1),
    (3, [(1, 1), (1, 2)], Fraction(5, 2)),
    (3, [(2, 1), (1, 1)], Fraction(5, 2)),
    (3, [(1, 1), (1, 1), (1, 1)], 1),
    (3, [(1, 1), (3, 1)], 0),
    (3, [(1, 1), (2, 1), (3, 1)], 0),
    # 6 of the 69 minors of V_{w_1} at n = 4 are zero, so the chain skips terms
    (4, [(1, 1), (1, 1)], 1),
    # no C^n factor: every order above 1 is swept
    (3, [(1, 2), (1, 2)], 1),
]


class TestCoproductMinors:
    @pytest.mark.parametrize("n,factors,s", COPRODUCT_CASES)
    def test_table_equals_the_full_dimension_cdet_oracle(self, n, factors, s):
        cfg = build_spectral_config(n, factors, s)
        oracle = oracle_minors(cfg)
        for a in range(1, n + 1):
            table = quantum_minors(cfg, a)
            assert_same_table(table, of_order(oracle, a))
            assert all(table[I] == oracle[I] for I in table)

    def test_zero_scale_cases_overlap_their_poles(self):
        for n, factors, s in COPRODUCT_CASES:
            if s == 0:
                cfg = build_spectral_config(n, factors, s)
                poles = [w + m for w in cfg.points for m in range(n)]
                assert len(set(poles)) < len(poles)

    def test_reverse_slot_order_differs_from_the_oracle(self):
        # negative control: the Kronecker chain must follow the slot order
        n = 3
        cfg = build_spectral_config(n, [(1, 1), (1, 2)], 1)
        oracle = oracle_minors(cfg)
        differs = []
        for a in range(1, n + 1):
            tables = [
                bethe._factor_minors(bethe._factor_grid(rep, w), w, a)
                for (rep, _, _), w in zip(cfg.rep.factors, cfg.points)
            ]
            assert_same_table(bethe._chain_minors(tables, n, a), of_order(oracle, a))
            reverse = bethe._chain_minors(tables[::-1], n, a)
            differs += [I for I in reverse if reverse[I] != oracle[I]]
        assert differs

    def test_no_full_dimension_grid_or_cdet(self, monkeypatch):
        # one column_minors sweep per column set of size 2 or more per
        # distinct factor, each at factor dimension: the three equal slots
        # share one rep and one table per order.  Wedge^2 C^3, not C^3
        # itself, whose tables are built in closed form
        cfg = build_spectral_config(3, [(1, 2), (1, 2), (1, 2)], 1)
        n = cfg.n
        grids = []
        sweep = bethe.column_minors

        def recording(grid):
            grids.append(grid)
            return sweep(grid)

        def refused(*args):
            raise AssertionError("full-dimension T-grid or per-minor cdet built")

        monkeypatch.setattr(bethe, "column_minors", recording)
        # bethe names neither cdet nor a full-dimension grid, and cdet is
        # refused wherever the package binds it
        assert not hasattr(bethe, "cdet") and not hasattr(bethe, "_oracle_t_grid")
        monkeypatch.setattr(scalars, "cdet", refused)
        monkeypatch.setattr(gaudin, "cdet", refused)
        # order 1 is each factor's T(u), read off the rep with no sweep
        quantum_minors(cfg, 1)
        assert grids == []
        for a in range(2, n + 1):
            quantum_minors(cfg, a)
        column_sets = [J for a in range(2, n + 1) for J in combinations(range(n), a)]
        distinct = {id(rep) for rep, _, _ in cfg.rep.factors}
        assert cfg.k == 3 and len(distinct) == 1
        assert sorted(len(g[0]) for g in grids) == sorted(len(J) for J in column_sets)
        assert all(len(g) == n for g in grids)
        sizes = {(e.num[0].nr, e.num[0].nc) for g in grids for row in g for e in row if e.num}
        assert sizes == {(3, 3)} and cfg.rep.dim == 27

    def test_factor_grid_is_the_polynomial_on_the_factor(self):
        cfg = build_spectral_config(3, [(1, 1), (1, 2), (1, 2)], 1)
        # order 1 needs no grid
        assert bethe.ev_t_grid(cfg, (1,)) == {}
        grids = bethe.ev_t_grid(cfg, range(1, 4))
        # only Wedge^2 C^3 is swept, at its first slot; C^3 takes its closed form
        (_, _, _), (wedge, _, _), _ = cfg.rep.factors
        assert list(grids) == [wedge]
        want = bethe._factor_grid(wedge, cfg.points[1])
        assert all(g.num == h.num for gr, hr in zip(grids[wedge], want) for g, h in zip(gr, hr))
        u = QQi(Fraction(7, 3), 2)
        for (rep, _, _), w in zip(cfg.rep.factors, cfg.points):
            grid = bethe._factor_grid(rep, w)
            ident = Mat.identity(rep.dim)
            for r in range(3):
                for c in range(3):
                    want = rep.e(r + 1, c + 1) + (ident * (u - w) if r == c else Mat.zeros(rep.dim))
                    assert not grid[r][c].poles and grid[r][c].eval(u) == want

    @pytest.mark.parametrize("n,l,r", [(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 2), (3, 2, 1), (4, 2, 2)])
    def test_order_one_table_is_the_factor_t_itself(self, n, l, r):
        # read off rep.e, equal to the sweep's order-1 entries, zeros left out
        rep = kr_rep(n, l, r)
        for w in (QQi(0), QQi(Fraction(-3, 2), Fraction(5, 3))):
            sweep = bethe._factor_minors(bethe._factor_grid(rep, w), w, 1)
            table = bethe._order_one_minors(rep, w)
            assert set(table) == set(sweep)
            assert all(table[key] == sweep[key] for key in sweep)
            assert_same_table(table, sweep)


class TestSharedFactorMinors:
    # the points d_j + i s 4^(k-1-j) have nonzero imaginary parts for s > 0,
    # and the s = 0 cases overlap their poles
    @pytest.mark.parametrize("n,factors,s", COPRODUCT_CASES)
    def test_shifted_tables_equal_the_per_slot_route_and_the_oracle(self, n, factors, s):
        # a configuration at another scale builds each rep's tables first, so
        # every slot below reaches them by a shift
        bethe._minor_tables(build_spectral_config(n, factors, s + 1), range(1, n + 1))
        cfg = build_spectral_config(n, factors, s)
        assert bethe.ev_t_grid(cfg, range(1, n + 1)) == {}
        oracle = oracle_minors(cfg)
        for a in range(1, n + 1):
            for (rep, _, _), w in zip(cfg.rep.factors, cfg.points):
                grid = bethe._factor_grid(rep, w)
                w0, _ = bethe._FACTOR_MINORS[rep][a]
                assert w0 != w
                got = bethe._slot_minors(rep, grid, w, a)
                assert_same_table(got, bethe._factor_minors(grid, w, a))
            assert_same_table(quantum_minors(cfg, a), of_order(oracle, a))

    def test_equal_and_unequal_factors_share_by_rep(self):
        cfg = build_spectral_config(3, [(1, 1), (1, 2), (1, 1)], Fraction(5, 2))
        oracle = oracle_minors(cfg)
        for a in range(1, 4):
            assert_same_table(quantum_minors(cfg, a), of_order(oracle, a))
        (a, _, _), (b, _, _), (c, _, _) = cfg.rep.factors
        assert a is c and a is not b
        assert bethe._FACTOR_MINORS[a] is not bethe._FACTOR_MINORS[b]

    def test_configs_of_one_process_share_the_table(self, monkeypatch):
        sweeps = []
        sweep = bethe.column_minors

        def recording(grid):
            sweeps.append(grid)
            return sweep(grid)

        monkeypatch.setattr(bethe, "column_minors", recording)
        tables = []
        for s in (1, 2, Fraction(5, 2)):
            cfg = build_spectral_config(3, [(1, 1), (1, 2)], s)
            oracle = oracle_minors(cfg)
            tables.append({a: quantum_minors(cfg, a) for a in (1, 2, 3)})
            for a, table in tables[-1].items():
                assert_same_table(table, of_order(oracle, a))
        # the 4 column sets of sizes 2 and 3 at n = 3, for V_{w_2} once;
        # order 1 and V_{w_1} take no sweep
        assert len(sweeps) == 4
        assert tables[0][1][(0,)].poles != tables[1][1][(0,)].poles

    @pytest.mark.parametrize("n,zeros", [(4, 6), (5, 60)])
    def test_shared_table_keeps_no_zero_minor(self, n, zeros):
        cfg = config_single(n)
        for a in range(1, n + 1):
            quantum_minors(cfg, a)
        table = every_order(cfg.rep.factors[0][0])
        pairs = [
            (I, J)
            for a in range(1, n + 1)
            for I in combinations(range(n), a)
            for J in combinations(range(n), a)
        ]
        assert len(pairs) == comb(2 * n, n) - 1
        assert all(table[key].num for key in table)
        missing = [key for key in pairs if key not in table]
        assert len(missing) == zeros and len(table) == len(pairs) - zeros
        # each left-out minor is zero by a cdet of its own block
        grid = bethe._factor_grid(cfg.rep.factors[0][0], QQi(0))
        for I, J in missing:
            block = [[grid[r][c].shift_arg(m) for m, c in enumerate(J)] for r in I]
            assert not scalars.cdet(block).num

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_defining_closed_form_equals_the_sweep(self, n):
        rep = kr_rep(n, 1, 1)
        assert bethe._is_defining(rep)
        for w in (QQi(0), QQi(Fraction(-3, 2), Fraction(5, 3))):
            grid = bethe._factor_grid(rep, w)
            for a in range(1, n + 1):
                sweep = bethe._factor_minors(grid, w, a)
                assert_same_table(bethe._defining_minors(rep, w, a), sweep)

    def test_only_the_defining_rep_takes_the_closed_form(self, monkeypatch):
        assert not bethe._is_defining(kr_rep(3, 1, 2))
        assert not bethe._is_defining(kr_rep(2, 2, 1))
        # the same rep with one generator scaled is not the defining rep; it
        # is built here, since the rep of kr_rep is shared and read-only
        rep = build_defining(3)
        rep.gens[0][1] = rep.gens[0][1] * 2
        assert not bethe._is_defining(rep)
        closed = []
        monkeypatch.setattr(bethe, "_defining_minors", lambda *args: closed.append(args))
        cfg = build_spectral_config(2, [(2, 1), (3, 1)], 1)
        for a in (1, 2):
            quantum_minors(cfg, a)
        assert closed == []

    def test_table_is_freed_with_its_rep(self):
        gc.collect()  # only this rep may leave the map below
        # built outside kr_rep, whose reps live for the process
        cfg = config_c2_pair()
        quantum_minors(cfg, 1)
        held = len(bethe._FACTOR_MINORS)
        ref = weakref.ref(cfg.rep.factors[0][0])
        del cfg
        gc.collect()
        assert ref() is None
        assert len(bethe._FACTOR_MINORS) == held - 1


class TestTauRoutesAgree:
    @pytest.mark.parametrize("n,a", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_minor_equals_trace_equals_kron(self, n, a):
        cfg = config_single(n, QQi(Fraction(1, 5), Fraction(1, 2)))
        C = standard_torus(n)
        u = QQi(Fraction(17, 3), Fraction(-2, 7))
        via_minor = tau_ratfun(a, C, cfg).eval(u)
        via_trace = tau_trace_direct(a, C, cfg, u)
        assert via_minor == via_trace
        via_kron = tau_kron_direct(a, C, cfg, u)
        assert via_minor == via_kron

    def test_routes_agree_on_two_factors(self):
        cfg = config_c2_pair()
        C = standard_torus(2)
        u = QQi(Fraction(9, 4))
        for a in (1, 2):
            assert tau_ratfun(a, C, cfg).eval(u) == tau_trace_direct(a, C, cfg, u)
            assert tau_ratfun(a, C, cfg).eval(u) == tau_kron_direct(a, C, cfg, u)


class TestPoleOrder:
    def test_parts_text_is_the_text_of_every_pole_of_the_compare_shapes(self):
        # tau_members sorts poles by QQi.parts_text; (str(re), str(im)) is its reference
        from test_bench_digests import load_workloads

        wl = load_workloads()
        poles = set()
        for n, text, _ in wl.COMPARE_SHAPES:
            factors = [tuple(map(int, f.split(","))) for f in text.split(";")]
            tori = [standard_torus(n)] + [standard_torus(n, wall=j) for j in range(1, n + 1)]
            for s in wl.COMPARE_S:
                cfg = build_spectral_config(n, factors, Fraction(s))
                for C in tori:
                    for a in range(1, n + 1):
                        poles.update(tau_ratfun(a, C, cfg).poles)
        assert len(poles) > 30 and any(p.re.denominator > 1 for p in poles)
        for p in poles:
            assert p.parts_text() == (str(p.re), str(p.im)), p


class TestFamilies:
    def test_family_commutes_n2_k2(self):
        cfg = config_c2_pair()
        fam = bethe_family(standard_torus(2), cfg)
        assert fam.verify_commuting() is None
        assert len(fam) >= 3

    def test_wall_family_commutes_with_h(self):
        # the wall family is B(C) alone; h = Delta(E_11 - E_22) is no member,
        # and commutes with every member, each of which keeps the weights
        cfg = config_c2_pair()
        fam = bethe_family(standard_torus(2, wall=1), cfg)
        assert fam.verify_commuting() is None
        assert {tag[0] for tag in fam.tags} <= {"tau-res", "tau-inf"}
        h = cfg.rep.delta(1, 1) - cfg.rep.delta(2, 2)
        for g in fam.gens:
            assert not commutator(g, h)

    @pytest.mark.parametrize("n,factors", [(2, [(1, 1), (1, 1)]), (3, [(1, 1), (1, 2)])])
    def test_wall_strings_read_h_of_the_wall_pair(self, n, factors):
        from krspectra.pipeline import spectral_wall_statistics
        from krspectra.spectra import joint_diagonalize

        cfg = build_spectral_config(n, factors, 1)
        for j in range(1, n + 1):
            i, k = wall_pair(n, j)
            spec = joint_diagonalize(bethe_family(standard_torus(n, j), cfg).gens, cfg.rep)
            strings = spectral_wall_statistics(cfg, j)
            assert strings.ok(), j
            for string in strings.strings:
                weights = [spec.weights[line] for line in string["lines"]]
                assert string["h_values"] == [w[i - 1] - w[k - 1] for w in weights], j
        # the affine wall's pair is (n, 1), in that order
        assert (i, k) == (n, 1)

    def test_extension_stays_a_bethe_family(self):
        cfg = config_c2_pair()
        C0 = standard_torus(2, wall=1)
        fam = bethe_family(C0, cfg)
        assert isinstance(fam, BetheFamily) and fam.kind == "bethe"
        # Delta(E_12) moves a weight, and does not commute with the family
        with pytest.raises(BetheError):
            BetheFamily(
                fam.members() + [(("e", 1, 2), cfg.rep.delta(1, 2))], cfg, C0
            )

    def test_normality_at_crit_norm_parameters(self):
        # unit C, purely imaginary z scaled, d = a - b - n: normal operators
        cfg = config_c2_pair(z=(QQi(-2, 3), QQi(-2, 1)), d=(-2, -2))
        fam = bethe_family(standard_torus(2), cfg)
        rep = fam.normality_report()
        assert rep["passed"]

    def test_rescaling_invariance_of_span(self):
        cfg = config_c2_pair()
        C = standard_torus(2)
        aC = scaled(C, unit_circle_point(Fraction(2, 5)))
        fam1 = bethe_family(C, cfg)
        fam2 = bethe_family(TorusElement(aC.entries), cfg)
        ident = Mat.identity(cfg.rep.dim)
        assert spans_equal(fam1.gens + [ident], fam2.gens + [ident])


def delta_of_rotation(n, k):
    """Delta(P) on (C^n)^(x)k: P^(x)k, with P e_m = e_{m+1} (indices mod n)."""
    P = Mat.zeros(n)
    for m in range(n):
        P = P + Mat.unit(n, n, (m + 1) % n, m)
    D = P
    for _ in range(k - 1):
        D = D.kron(P)
    return D


class TestRotatedWallFamily:
    """B(P C P^-1) = Delta(P) B(C) Delta(P)^-1 member by member, exactly."""

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 3)])
    def test_the_rolled_wall_1_family_is_the_conjugate_by_delta_p(self, n, k):
        cfg = build_spectral_config(n, [(1, 1)] * k, 1)
        C = standard_torus(n, 1)
        fam = bethe_family(C, cfg)
        rolled = bethe_family(TorusElement(rotate_weight(C.entries, 1)), cfg)
        D = delta_of_rotation(n, k)
        # a permutation matrix: its inverse is its transpose
        Dinv = D.transpose()
        assert D * Dinv == Mat.identity(n**k)
        assert rolled.tags == fam.tags
        for tag, m, got in zip(fam.tags, fam.gens, rolled.gens):
            assert got == D * m * Dinv, tag
        # the other direction is not the rotation of the torus element
        assert any(got != Dinv * m * D for m, got in zip(fam.gens, rolled.gens))


class TestOrders:
    @pytest.mark.parametrize("orders", [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)])
    def test_members_of_some_orders_are_those_of_b_c_filtered(self, orders):
        cfg = build_spectral_config(3, [(1, 1), (1, 2)], 1)
        for C in (standard_torus(3), standard_torus(3, 2)):
            every = tau_members(C, cfg)
            assert tau_members(C, cfg, orders) == [(t, g) for t, g in every if t[1] in orders]

    def test_a_family_built_on_a_lower_one_is_b_c_member_by_member(self, monkeypatch):
        cfg = build_spectral_config(3, [(1, 1), (1, 2)], 1)
        C = standard_torus(3, 1)
        built = []
        members = bethe.tau_members

        def recording(C, cfg, orders=None):
            built.append(orders)
            return members(C, cfg, orders)

        monkeypatch.setattr(bethe, "tau_members", recording)
        fam = None
        for a in (1, 2, 3):
            fam = bethe_family(C, cfg, (a,), fam)
        whole = bethe_family(C, cfg)
        # each order's members are built once, the lower ones are not rebuilt
        assert built == [(1,), (2,), (3,), None]
        assert fam.tags == whole.tags and fam.gens == whole.gens
        assert {t[1] for t in bethe_family(C, cfg, (1,)).tags} == {1}


class TestCertificate:
    """The family holds every Laurent coefficient of each tau_a, so its exact
    pairwise check certifies [tau_a(u), tau_b(v)] = 0 identically."""

    def test_certificate_passes_regular(self):
        cfg = config_c2_pair()
        C = standard_torus(2)
        fam = bethe_family(C, cfg)
        for a in (1, 2):
            assert tau_from_members(fam, a) == tau_ratfun(a, C, cfg)

    def test_certificate_passes_wall(self):
        cfg = config_c2_pair()
        C = standard_torus(2, wall=2)
        fam = bethe_family(C, cfg)
        for a in (1, 2):
            assert tau_from_members(fam, a) == tau_ratfun(a, C, cfg)

    @pytest.mark.parametrize(
        "n,factors", [(2, [(1, 1), (1, 1)]), (3, [(1, 1), (1, 2)]), (3, [(1, 2), (1, 1)])]
    )
    @pytest.mark.parametrize("wall", ["regular", "1", "n"])
    def test_members_rebuild_every_tau(self, n, factors, wall):
        cfg = config_at(n, factors, (0, 1))
        C = standard_torus(n, wall={"regular": None, "1": 1, "n": n}[wall])
        fam = bethe_family(C, cfg)
        for a in range(1, n + 1):
            assert tau_from_members(fam, a) == tau_ratfun(a, C, cfg), a

    def test_double_pole_coefficients_are_members(self):
        # the pole groups of V_{w_2} at 0 and V_{w_1} at 1 meet: tau_2 and
        # tau_3 have double poles, whose order-1 coefficients are members
        cfg = config_at(3, [(1, 2), (1, 1)], (0, 1))
        fam = bethe_family(standard_torus(3), cfg)
        second = [tag for tag in fam.tags if tag[0] == "tau-res" and tag[3] == 1]
        assert sorted({tag[1] for tag in second}) == [2, 3]
        assert fam.max_pole_multiplicity() == 2
        assert len(fam) == 8 + len(second) == 10

    def test_negative_control_extra_entry(self):
        # one extra exact entry in one member must break a pair, by name;
        # basis vectors 1 and 2 share the weight (1, 1), so the entry keeps
        # every weight and reaches the commutator check
        cfg = config_c2_pair()
        C = standard_torus(2)
        members = tau_members(C, cfg)
        tag, g = members[0]
        members[0] = (tag, g + Mat.unit(g.nr, g.nc, 1, 2, QQi(Fraction(1, 7))))
        with pytest.raises(BetheError, match="commutativity failed for pair") as err:
            BetheFamily(members, cfg, C)
        assert str(tag) in str(err.value)

    def test_a_member_that_moves_a_weight_is_refused_by_tag(self):
        # basis vectors 0 and 1 of C^2 x C^2 carry the weights (2, 0) and (1, 1)
        cfg = config_c2_pair()
        C = standard_torus(2)
        members = tau_members(C, cfg)
        tag, g = members[-1]
        members[-1] = (tag, g + Mat.unit(g.nr, g.nc, 1, 0, QQi(Fraction(1, 7))))
        with pytest.raises(BetheError, match=re.escape(f"member {tag} moves a weight")):
            BetheFamily(members, cfg, C)

    def test_an_adjoint_that_moves_a_weight_is_refused_by_tag(self, monkeypatch):
        # basis vectors 1 and 0 of C^2 x C^2 carry the weights (1, 1) and (2, 0)
        cfg = config_c2_pair()
        fam = bethe_family(standard_torus(2), cfg)
        adjoint = cfg.rep.adjoint
        monkeypatch.setattr(
            cfg.rep, "adjoint", lambda m: adjoint(m) + Mat.unit(4, 4, 1, 0, QQi(1))
        )
        want = f"the adjoint of member {fam.tags[0]} moves a weight: its entry (1, 0)"
        with pytest.raises(BetheError, match=re.escape(want)):
            fam.normality_report()

    def test_families_never_reach_mat_commutes(self):
        # every family certificate goes through the weight blocks, and the
        # package has no other commutativity route
        assert not hasattr(Mat, "commutes")
        cfg = build_spectral_config(3, [(1, 1), (1, 2)], s=1)
        fam = bethe_family(standard_torus(3, wall=1), cfg)
        assert fam.normality_report()["passed"]
        gcfg = GaudinConfig(cfg.rep, (Fraction(1, 3), Fraction(1, 3), Fraction(-1, 5)))
        assert residue_generators(gcfg).verify_commuting() is None
        assert wall_family(gcfg).verify_commuting() is None

    def test_negative_control_nondiagonal_insert(self):
        # replacing the slot-2 torus factor by a non-diagonal matrix must
        # break commutation with tau_1 at some sample point
        cfg = config_c2_pair()
        C = standard_torus(2)
        u1 = QQi(Fraction(41, 7))
        u2 = QQi(Fraction(55, 9))
        t1 = tau_ratfun(1, C, cfg).eval(u1)
        n, dim = cfg.n, cfg.rep.dim
        bad = Mat([[1, 1], [0, 1]])
        cmat = Mat([[C.entries[0], QQi(0)], [QQi(0), C.entries[1]]])
        big = antisymmetrizer(n, 2).kron(Mat.identity(dim))
        big = big * embed_aux(cmat, n, 2, 0, dim, constant=True)
        big = big * embed_aux(bad, n, 2, 1, dim, constant=True)
        grid = oracle_t_grid(cfg)
        for m in range(2):
            tv = [[grid[r][c].eval(u2 - m) for c in range(n)] for r in range(n)]
            big = big * embed_aux(tv, n, 2, m, dim, constant=False)
        out = Mat.zeros(dim)
        for q in range(n**2):
            out = out + Mat(
                [
                    [big[q * dim + r, q * dim + c] for c in range(dim)]
                    for r in range(dim)
                ]
            )
        assert commutator(t1, out)


class TestEvImageIdentityK1:
    def test_tau_span_equals_gaudin_span_at_c_inverse(self):
        # ev_z(Bethe(C)) = Gaudin algebra at chi = C^{-1}, for k = 1:
        # exact span equality of the two generator lists (identity adjoined)
        for n in (2, 3):
            z = QQi(Fraction(3, 4))
            cn = build_defining(n)
            rep = build_tensor([(cn, z, QQi(0))])
            C = TorusElement(
                [QQi(Fraction(m + 2, 1)) for m in range(n)], require_unit=False
            )
            cfg_tau = GaudinConfig(rep, (0,) * n)
            fam_tau = bethe_family(C, cfg_tau)
            chi = [c.inverse() for c in C.entries]
            cfg_gaudin = GaudinConfig(rep, chi)
            fam_gaudin = residue_generators(cfg_gaudin)
            ident = Mat.identity(rep.dim)
            assert spans_equal(
                fam_tau.gens + [ident], fam_gaudin.gens + [ident]
            )


class TestShiftCdet:
    def test_n1_residues_match_hand_values(self):
        cfg = config_single(1, QQi(Fraction(1, 2)))
        chi = (Fraction(1, 3),)
        cfg1 = GaudinConfig(cfg.rep, chi)
        eps = QQi(Fraction(1, 8))
        out = shift_residue_generators(eps, cfg1)
        e11 = cfg.rep.e_slot(0, 1, 1)
        # b_0 = R_0 + R_1 has residue E_11 at the shifted pole
        assert out[(0, 1, 0)] == e11
        # b_1 = -eps R_1: residue -eps E_11
        assert out[(1, 1, 0)] == e11 * (-eps)

    def test_exp_truncation_exact(self):
        x = QQi(Fraction(1, 4), Fraction(-1, 3))
        want = sum(
            (x ** j * QQi(Fraction(1, factorial(j))) for j in range(1, bethe.EXP_ORDER + 1)),
            QQi(1),
        )
        assert exp_truncated(x) == want

    def test_tail_bound_small(self):
        # s = (1 + 1/64)/2 bounds |x| = 1/8, and the tail is s^9 / (9! (1 - s))
        s = Fraction(65, 128)
        assert bethe.EXP_ORDER == 8
        assert exp_tail_bound(Fraction(1, 64)) == s**9 / (factorial(9) * (1 - s))
        assert exp_tail_bound(Fraction(1, 64)) < Fraction(1, 10**7)
        # it bounds the true tail: exp(1/8) - its truncation, to float accuracy
        assert 0 < math.exp(1 / 8) - float(exp_truncated(Fraction(1, 8)).re) < float(
            exp_tail_bound(Fraction(1, 64))
        )

    def test_degeneration_first_order(self):
        cfg = config_c2_pair(z=(QQi(0, 1), QQi(0, 2)), d=(-2, -2))
        chi = (Fraction(1, 3), Fraction(-1, 4))
        cfg1 = GaudinConfig(cfg.rep, chi)
        eps_list = [Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)]
        rep = degeneration_report(cfg1, eps_list)
        dists = [row["distance"] for row in rep["rows"]]
        assert dists[0] > dists[1] > dists[2] > 0
        for r in rep["ratios"]:
            assert 0.35 <= r <= 0.65

    def test_degeneration_off_diagonal_slice(self):
        # the slice of slope c = 2 is the diagonal one at the points z/2: c
        # entered only through z/c, so these are the distances that the
        # slope c = 2 gave at the points z, bit for bit
        cfg = config_c2_pair(z=(QQi(0, 1), QQi(0, 2)), d=(-2, -2))
        chi = (Fraction(1, 3), Fraction(-1, 4))
        cfg1 = scaled_config(GaudinConfig(cfg.rep, chi), Fraction(1, 2))
        eps_list = [Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)]
        rep = degeneration_report(cfg1, eps_list)
        assert [row["distance"] for row in rep["rows"]] == [
            0.2508487481464834, 0.12542879853226258, 0.06271551545927309,
        ]
        for r in rep["ratios"]:
            assert 0.35 <= r <= 0.65

    def test_degeneration_n3_two_factors(self):
        # two factors: T(u/eps) is the product of the slot T-matrices, whose
        # eps^2 cross terms a first-order Lax matrix would leave out
        n, facs = 3, [(1, 1), (1, 2)]
        parts = [
            (kr_rep(n, l, r), QQi(z), QQi(default_shift(n, l, r)))
            for (l, r), z in zip(facs, (0, 1))
        ]
        chi = (Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5))
        cfg1 = GaudinConfig(build_tensor(parts), chi)
        eps_list = [Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)]
        rep = degeneration_report(cfg1, eps_list)
        dists = [row["distance"] for row in rep["rows"]]
        assert dists[0] > dists[1] > dists[2] > 0
        for r in rep["ratios"]:
            assert 0.35 <= r <= 0.65

    # sha256 of the residues (sorted keys, `str` of each member's rows) at
    # eps = 1/8, chi = (1/3, -1/4[, 1/5]), c = 1; one factor, where the
    # quantum-minor route and the first-order shift-operator cdet agree exactly
    @pytest.mark.parametrize(
        "n,factor,count,digest",
        [
            (2, (1, 1), 3, "d0b3fa329becb7d7049994eb27bca05193bed09b4e013356bd3d37343a79a029"),
            (3, (1, 1), 10, "8c81d7daa5120c4f152207361dc1bf1325432591f3479ab3bb6f9e7a31ef7f6a"),
            (3, (2, 1), 4, "4eaf479bc4f1208fec6ceffe177d37fb237afee6e384ea72c6c45b0912633ae1"),
            (3, (1, 2), 10, "2489d9e93e38b70552c35b6ff16193b047b1a6ba23ef6094b5f1b2d7d51708fa"),
        ],
    )
    def test_single_factor_residues_are_pinned(self, n, factor, count, digest):
        chi = (Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5))[:n]
        cfg = build_spectral_config(n, [factor], s=1)
        out = shift_residue_generators(Fraction(1, 8), GaudinConfig(cfg.rep, chi))
        text = repr([(key, str(mat_rows(out[key]))) for key in sorted(out)])
        assert len(out) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_zero_step_is_refused(self):
        with pytest.raises(BetheError, match="eps must be nonzero"):
            shift_residue_generators(0, config_single(2))


class TestTorusCenter:
    def test_center_members_commute_with_wall_family(self):
        cfg = config_c2_pair()
        fam = bethe_family(standard_torus(2, wall=1), cfg)
        for tag, g in center_members(cfg.rep, gaudin.coincidence_classes(fam.C.entries)):
            for h in fam.gens:
                assert not commutator(g, h)
