"""Exact resistances, forest counts, moments, accessibility, and the ordering checks."""

import dataclasses
import random
from fractions import Fraction

import pytest

import thresholdwalk.resistance as resistance_module
import thresholdwalk.verify as verify_module

from conftest import connected_codes_upto, seeded_codes
from orderings_reference import reference_orderings
from thresholdwalk import (
    LaplacianSpectrum,
    OrderingReport,
    build_graph,
    degree_profile,
    parse_code,
    pseudo_inverse,
    resistance_closed_form,
    resistance_matrix,
    two_forest_matrix,
    verify_code,
    verify_orderings,
)
from thresholdwalk.errors import Disconnected, IndexOutOfRange, NonIntegralEntry
from thresholdwalk.resistance import _verify_orderings

PAW = parse_code("0101")
STAR = parse_code("0001")
K4 = parse_code("0111")


class TestClosedForm:
    @pytest.mark.parametrize(
        "text,pair,expected",
        [
            ("0101", (3, 4), Fraction(1)),
            ("0101", (1, 3), Fraction(5, 3)),
            ("0001", (1, 4), Fraction(1)),
            ("0001", (1, 2), Fraction(2)),
            ("0111", (2, 3), Fraction(1, 2)),
        ],
    )
    def test_values(self, text, pair, expected):
        assert resistance_closed_form(parse_code(text), *pair) == expected

    def test_symmetry_and_diagonal(self):
        assert resistance_closed_form(PAW, 4, 3) == Fraction(1)
        assert resistance_closed_form(PAW, 2, 2) == 0

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            resistance_closed_form(PAW, 0, 3)
        with pytest.raises(IndexOutOfRange):
            resistance_closed_form(PAW, 1, 5)

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            resistance_closed_form(parse_code("0110"), 1, 2)


class TestResistanceMatrix:
    def test_paw_entries(self):
        R = resistance_matrix(PAW).R
        third = Fraction(2, 3)
        assert R[0][1] == R[0][3] == R[1][3] == third
        assert R[2][3] == 1
        assert R[0][2] == R[1][2] == Fraction(5, 3)
        assert all(R[i][i] == 0 for i in range(4))

    def test_star_tree_distances(self):
        R = resistance_matrix(STAR).R
        assert R[0][3] == 1 and R[0][1] == 2

    def test_complete_symmetry(self):
        R = resistance_matrix(K4).R
        assert all(R[i][j] == Fraction(1, 2) for i in range(4) for j in range(4) if i != j)

    def test_matches_per_pair_closed_form(self):
        for code in connected_codes_upto(7):
            R = resistance_matrix(code).R
            for j in range(1, code.n + 1):
                for v in range(j + 1, code.n + 1):
                    assert R[j - 1][v - 1] == resistance_closed_form(code, j, v)

    def test_matches_pseudoinverse(self):
        for code in connected_codes_upto(7):
            R = resistance_matrix(code).R
            lp = pseudo_inverse(code)
            for i in range(code.n):
                for j in range(code.n):
                    assert R[i][j] == lp[i][i] + lp[j][j] - 2 * lp[i][j]

    def test_triangle_inequality(self):
        for code in connected_codes_upto(7):
            R = resistance_matrix(code).R
            n = code.n
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert R[i][k] <= R[i][j] + R[j][k]


def _reference_starts(profile):
    """The first position of each twin class, from R with each entry its own Fraction of the terms.

    Positions j - 1 and j share a class exactly when their R rows agree
    outside their own 2 x 2 block.
    """
    n, row, col, den = profile.n, profile.row, profile.col, profile.den

    def r(i, p):
        return Fraction(row[min(i, p)] + col[max(i, p)], den) if i != p else Fraction(0)

    return [j for j in range(n) if j == 0 or any(r(j - 1, i) != r(j, i) for i in range(n) if i not in (j - 1, j))]


def _starts(sizes):
    return [sum(sizes[:a]) for a in range(len(sizes))]


def _class_starts(profile):
    return _starts(profile.class_table(lambda j, v: None, None)[0])


class TestTwinClasses:
    CODES = [*connected_codes_upto(9), *seeded_codes(21, 8, 10, 300)]

    def test_classes_equal_the_reference_partition(self):
        for code in self.CODES:
            profile = resistance_matrix(code)
            starts = _class_starts(profile)
            assert starts == _reference_starts(profile), str(code)
            # every run of equal bits lies inside one class
            assert all(code.bits[j - 1] != code.bits[j] for j in starts[1:]), str(code)

    def test_leading_01_merges(self):
        # the two positions differ in their bits, and yet are twins: case (ii)'s equality
        leading = [code for code in self.CODES if code.bits[1] == 1]
        assert len(leading) > 100
        for code in leading:
            sizes, _ = resistance_matrix(code).class_table(lambda j, v: None, None)
            assert sizes[0] >= 2, str(code)

    def test_nudged_term_splits_its_class(self):
        split = 0
        for code in [*connected_codes_upto(7, 3), *seeded_codes(22, 3, 10, 40)]:
            profile = resistance_matrix(code)
            k = len(_class_starts(profile))
            for name in ("row", "col"):
                for p in range(code.n):
                    terms = list(getattr(profile, name))
                    terms[p] += 1
                    nudged = dataclasses.replace(profile, **{name: tuple(terms)})
                    starts = _class_starts(nudged)
                    assert starts == _reference_starts(nudged), (str(code), name, p)
                    if (name, p) in (("col", 0), ("row", code.n - 1)):
                        assert len(starts) == k  # never paired, never compared
                    split += len(starts) > k
                    row, col, n = nudged.row, nudged.col, code.n
                    expected = tuple(
                        tuple(row[min(i, v)] + col[max(i, v)] if i != v else 0 for v in range(n)) for i in range(n)
                    )
                    assert nudged.matrix(lambda j, v: row[j] + col[v], 0) == expected
        assert split > 100

    def test_entry_called_once_per_pair_of_classes(self):
        for code in self.CODES:
            profile = resistance_matrix(code)
            calls = []
            sizes, table = profile.class_table(lambda j, v: calls.append((j, v)) or (j, v), "zero")
            starts, k = _starts(sizes), len(sizes)
            pairs = [(s, t) for a, s in enumerate(starts) for t in starts[a + 1 :]]
            pairs += [(s, s + 1) for s, size in zip(starts, sizes) if size > 1]
            assert sorted(calls) == sorted(pairs), str(code)
            assert len(calls) == k * (k - 1) // 2 + sum(size > 1 for size in sizes)
            assert all(table[a][b] == table[b][a] for a in range(k) for b in range(k))
            assert all(table[a][a] == "zero" for a in range(k) if sizes[a] == 1)


class TestForestMatrix:
    def test_star(self):
        F = resistance_matrix(STAR).F
        assert F[0][3] == 1 and F[0][1] == 2
        assert resistance_matrix(STAR).tau == 1

    def test_paw(self):
        F = resistance_matrix(PAW).F
        assert F[2][3] == 3 and F[0][1] == 2

    def test_complete(self):
        F = resistance_matrix(K4).F
        assert all(F[i][j] == 8 for i in range(4) for j in range(4) if i != j)

    def test_nonnegative_integers(self):
        # the seeded codes reach F's integer division at long denominators
        for code in [*connected_codes_upto(7), *seeded_codes(116, 5, 12, 120)]:
            profile = resistance_matrix(code)
            for i in range(code.n):
                for j in range(code.n):
                    entry = profile.F[i][j]
                    assert isinstance(entry, int) and entry >= 0
                    assert entry == profile.tau * profile.R[i][j]

    def test_non_integral_entry_raises(self, monkeypatch):
        # with a wrong tau, F must be refused exactly when some tau * r is fractional
        cases = [(code, resistance_matrix(code).R) for code in connected_codes_upto(6)]
        for code, R in cases:
            for tau in range(1, 13):
                monkeypatch.setattr(LaplacianSpectrum, "tree_count", lambda self: tau)
                if all((tau * x).denominator == 1 for row in R for x in row):
                    assert resistance_matrix(code).F == tuple(
                        tuple(int(tau * x) for x in row) for row in R
                    )
                else:
                    with pytest.raises(NonIntegralEntry):
                        resistance_matrix(code)

    def test_non_integral_entry_names_the_first_fractional_entry(self, monkeypatch):
        # row_1 = 0, so row 1 of F is the column terms tau * col_v / den; at
        # 001111 with tau = 8 all of them are integers and only a row term
        # tau * row_j / den is fractional, so neither half of the check can go
        profile = resistance_matrix(parse_code("001111"))
        row, col, den = profile.row, profile.col, profile.den
        assert row[0] == 0 and all(8 * x % den == 0 for x in col)
        assert any(8 * x % den for x in row[:-1])
        cases = [(code, resistance_matrix(code).R) for code in connected_codes_upto(7)]
        for code, R in cases:
            for tau in range(1, 13):
                monkeypatch.setattr(LaplacianSpectrum, "tree_count", lambda self: tau)
                first = next((tau * x for row in R for x in row if (tau * x).denominator != 1), None)
                if first is None:
                    resistance_matrix(code)
                else:
                    with pytest.raises(NonIntegralEntry, match=f"^tau \\* r = {first} is not an integer$"):
                        resistance_matrix(code)

    def test_matches_enumeration(self):
        for code in connected_codes_upto(5):
            counts = two_forest_matrix(build_graph(code))
            assert [list(row) for row in resistance_matrix(code).F] == counts


class TestMomentsAndAccessibility:
    def test_star_moments(self):
        mu = resistance_matrix(STAR).mu
        assert mu[3] == 3 and mu[0] == mu[1] == mu[2] == 7

    def test_complete_moments(self):
        assert set(resistance_matrix(K4).mu) == {Fraction(9, 2)}

    def test_paw_moment_order_tracks_degree(self):
        mu = resistance_matrix(PAW).mu
        degrees = degree_profile(PAW).degrees
        for a in range(4):
            for b in range(4):
                if degrees[a] < degrees[b]:
                    assert mu[a] > mu[b]

    def test_moments_match_definition(self):
        for code in connected_codes_upto(9):
            profile = resistance_matrix(code)
            d = degree_profile(code).degrees
            for v in range(code.n):
                expected = sum(
                    (d[j] * profile.R[j][v] for j in range(code.n) if j != v), Fraction(0)
                )
                assert profile.mu[v] == expected

    def test_star_accessibility(self):
        alpha = resistance_matrix(STAR).alpha
        assert alpha[3] == Fraction(1, 2) and alpha[0] == Fraction(9, 2)

    def test_complete_accessibility(self):
        assert set(resistance_matrix(K4).alpha) == {Fraction(9, 4)}

    def test_block_constant_and_positive(self):
        code = parse_code("01100011")
        profile = resistance_matrix(code)
        assert len({profile.alpha[i] for i in (3, 4, 5)}) == 1
        assert len({profile.alpha[i] for i in (0, 1, 2)}) == 1
        assert len({profile.alpha[i] for i in (6, 7)}) == 1
        assert profile.alpha[3] > profile.alpha[0] > profile.alpha[6] > 0

    def test_alpha_terms_divide_to_float_alpha(self):
        # the ordering suite's deviation reads x / den from alpha_terms: int / int
        # rounds correctly, so each quotient is float(alpha_v) of alpha = mu - K
        for code in [*connected_codes_upto(8), *seeded_codes(16, 10, 9, 400)]:
            profile = resistance_matrix(code)
            numerators, den = profile.alpha_terms()
            assert profile.alpha == tuple(value - profile.kemeny for value in profile.mu), str(code)
            assert [x / den for x in numerators] == [float(value) for value in profile.alpha], str(code)

    def test_weighted_alpha_identity(self):
        for code in connected_codes_upto(8):
            profile = resistance_matrix(code)
            prof = degree_profile(code)
            weighted = sum(
                (Fraction(prof.degrees[v], 2 * prof.m) * profile.alpha[v] for v in range(code.n)),
                Fraction(0),
            )
            assert weighted == profile.kemeny

    def test_weighted_identity_catches_one_moved_moment(self, monkeypatch):
        # the ordering suite decides the identity in integers on mu_num; one
        # numerator moved by 1 over den breaks it, far below float resolution
        rng = random.Random(20261019)
        codes = list(connected_codes_upto(8, n_min=3)) + seeded_codes(20261019, 5, 12, 60)
        for code in codes:
            profile = resistance_matrix(code)
            assert verify_code(code, ("ordering",))["ordering"]["weighted_alpha_equals_kemeny"]
            moved = list(profile.mu_num)
            moved[rng.randrange(code.n)] += rng.choice([-1, 1])
            perturbed = dataclasses.replace(profile, mu_num=tuple(moved))
            monkeypatch.setattr(verify_module, "resistance_matrix", lambda _: perturbed)
            result = verify_code(code, ("ordering",))["ordering"]
            monkeypatch.undo()
            assert result["weighted_alpha_equals_kemeny"] is False
            assert result["pass"] is False

    def test_same_block_rows_match(self):
        code = parse_code("01100011")
        F = resistance_matrix(code).F
        # vertices 4, 5, 6 share a zero block: identical rows outside the block
        for i in range(8):
            if i in (3, 4, 5):
                continue
            assert F[i][3] == F[i][4] == F[i][5]

    def test_same_block_values_exhaustive(self):
        from thresholdwalk import blocks

        for code in connected_codes_upto(7):
            profile = resistance_matrix(code)
            form = blocks(code)
            pos = 0
            runs = []
            for s, t in form.pairs:
                runs.append(range(pos, pos + s))
                runs.append(range(pos + s, pos + s + t))
                pos += s + t
            for run in runs:
                members = list(run)
                first = members[0]
                for other in members[1:]:
                    assert profile.mu[other] == profile.mu[first]
                    assert profile.alpha[other] == profile.alpha[first]
                    for i in range(code.n):
                        if i not in members:
                            assert profile.F[i][other] == profile.F[i][first]


class TestOrderings:
    def test_paw_passes_with_leading_equality(self):
        report = verify_orderings(PAW)
        assert report.all_pass
        assert report.s1_equality
        mu = resistance_matrix(PAW).mu
        assert mu[0] == mu[1]

    def test_longer_leading_zero_run_is_strict(self):
        code = parse_code("00101")
        report = verify_orderings(code)
        assert report.all_pass
        mu = resistance_matrix(code).mu
        # first zero-block representative strictly above first one-block
        assert mu[0] > mu[2]

    def test_exhaustive_small(self):
        for code in connected_codes_upto(8):
            report = verify_orderings(code)
            assert report.all_pass, (str(code), report.witnesses)

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            verify_orderings(parse_code("010"))

    def test_degree_check_matches_pairwise_reference(self, monkeypatch):
        rng = random.Random(20261018)
        codes = list(connected_codes_upto(9, n_min=3))
        verdicts = set()
        for _ in range(300):
            code = rng.choice(codes)
            perturbed = _perturbed(resistance_matrix(code), rng, ("row", "col"))
            monkeypatch.setattr(resistance_module, "resistance_matrix", lambda _: perturbed)
            expected = _pairwise_degree_check(perturbed.R, degree_profile(code).degrees)
            assert verify_orderings(code).degree_characterization == expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_matches_f_based_reference_on_every_code(self):
        for code in connected_codes_upto(10):
            profile = resistance_matrix(code)
            report = _verify_orderings(code, profile)
            # decided from the row, column and moment numerators
            assert not {"R", "F", "mu", "alpha"} & set(vars(profile))
            assert report == reference_orderings(code, profile), str(code)

    def test_passing_report_walks_no_row(self, monkeypatch):
        walks = []
        walk_rows = resistance_module._walk_rows
        monkeypatch.setattr(resistance_module, "_walk_rows", lambda *args: walks.append(args) or walk_rows(*args))
        for code in connected_codes_upto(10):
            assert verify_orderings(code).all_pass, str(code)
            assert not walks, str(code)
        # a failing link walks the rows to name them
        profile = resistance_matrix(PAW)
        report = _verify_orderings(PAW, dataclasses.replace(profile, col=(0, profile.col[1] + 1, *profile.col[2:])))
        assert not report.all_pass and walks

    @pytest.mark.parametrize("field", ["row", "col"])
    def test_matches_reference_with_end_terms_perturbed(self, field):
        # at positions 0, 1, n - 2 and n - 1 the rows before or after a link's two positions are empty
        codes = [*connected_codes_upto(7, n_min=3), *seeded_codes(27, 12, 8, 20)]
        verdicts = set()
        for code in codes:
            profile = resistance_matrix(code)
            n, values = code.n, getattr(profile, field)
            for p in sorted({0, 1, n - 2, n - 1}):
                neighbour = values[p + 1] if p < n - 1 else values[p - 1]
                for value in (values[p] - 1, values[p] + 1, -values[p], neighbour):
                    changed = (*values[:p], value, *values[p + 1 :])
                    perturbed = dataclasses.replace(profile, **{field: changed})
                    report = _verify_orderings(code, perturbed)
                    assert report == reference_orderings(code, perturbed), (str(code), p, value)
                    verdicts.add(report.all_pass)
        assert verdicts == {True, False}

    def test_matches_f_based_reference_on_perturbed_terms(self):
        # real codes pass every check, so perturbed terms drive every witness branch
        rng = random.Random(20261018)
        small = list(connected_codes_upto(9, n_min=3))
        large = [
            parse_code("0" + "".join(rng.choice("01") for _ in range(n - 2)) + "1")
            for n in (rng.randint(12, 40) for _ in range(20))
        ]
        draws = [rng.choice(small) for _ in range(800)] + [rng.choice(large) for _ in range(300)]
        fields = ("row", "col", "row", "col", "mu_num")
        failed = set()
        for code in draws:
            perturbed = _perturbed(resistance_matrix(code), rng, fields, rng.randint(1, 3))
            report = _verify_orderings(code, perturbed)
            assert report == reference_orderings(code, perturbed), str(code)
            flags = (field.name for field in dataclasses.fields(report) if field.name != "witnesses")
            failed |= {name for name in flags if not getattr(report, name)}
        assert failed == {field.name for field in dataclasses.fields(OrderingReport)} - {"witnesses"}


def _perturbed(profile, rng, fields, changes=1):
    """profile with entries of the fields changed, each copied, nudged by 1, swapped or negated."""
    changed = {}
    for _ in range(changes):
        name = rng.choice(fields)
        values = list(changed.get(name, getattr(profile, name)))
        x, y = rng.sample(range(profile.n), 2)
        change = rng.randrange(4)
        if change == 0:
            values[x] = values[y]
        elif change == 1:
            values[x] += rng.choice([-1, 1])
        elif change == 2:
            values[x], values[y] = values[y], values[x]
        else:
            values[x] = -values[x]
        changed[name] = tuple(values)
    return dataclasses.replace(profile, **changed)


def _pairwise_degree_check(R, d):
    """Reference: the degree characterization compared over every triple (i, w, v) of R = F / tau."""
    n = len(d)
    for i in range(n):
        for w in range(n):
            for v in range(n):
                if len({i, w, v}) < 3:
                    continue
                if d[w] <= d[v] and not R[i][w] >= R[i][v]:
                    return False
                if d[w] == d[v] and R[i][w] != R[i][v]:
                    return False
    return True
