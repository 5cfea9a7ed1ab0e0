import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermiopt.hamiltonian import (
    FormatError,
    InteractionTerm,
    MajoranaHamiltonian,
    _total,
    canonical_sign,
    parse_hamiltonian,
    serialize_hamiltonian,
    sparsity_profile,
    total_strength,
)
from fermiopt.oracle import lambda_max_exact
from fermiopt.ensembles import gen_mixed_24, gen_sparse_random, gen_ssyk
from fermiopt.optimizer import optimize_strict_q

from bruteforce import first_fault_per_term, mode_terms, own_term_fault, sign_by_inversions


def test_canonical_sign_identity():
    assert canonical_sign([0, 1, 2, 3]) == ((0, 1, 2, 3), 1)


def test_canonical_sign_transposition():
    assert canonical_sign([1, 0]) == ((0, 1), -1)


def test_canonical_sign_three_inversions():
    # [2,0,3,1] has inversions (2,0), (2,1), (3,1)
    assert sign_by_inversions([2, 0, 3, 1]) == -1
    assert canonical_sign([2, 0, 3, 1]) == ((0, 1, 2, 3), -1)


def test_canonical_sign_rejects_duplicates():
    with pytest.raises(FormatError) as err:
        canonical_sign([0, 0, 1, 2])
    assert err.value.code == "repeated-majorana"


@given(st.permutations(list(range(8))))
def test_canonical_sign_matches_inversion_count(perm):
    _, sign = canonical_sign(perm)
    assert sign == sign_by_inversions(perm)


@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_canonical_sign_composes(pi, sigma):
    composed = [pi[sigma[i]] for i in range(6)]
    assert (
        canonical_sign(composed)[1]
        == canonical_sign(list(pi))[1] * canonical_sign(list(sigma))[1]
    )


def test_sparsity_profile_direct_count():
    ham = MajoranaHamiltonian(
        n_modes=4,
        terms=(InteractionTerm((0, 1, 2, 3), 1.0), InteractionTerm((3, 4, 5, 6), 1.0)),
    )
    profile = sparsity_profile(ham)
    assert profile.degree[3] == 2
    assert profile.max_degree == 2
    assert profile.weights_present == {4}


def test_sparsity_profile_empty():
    ham = MajoranaHamiltonian(n_modes=2, terms=())
    profile = sparsity_profile(ham)
    assert profile.max_degree == 0
    assert profile.weights_present == frozenset()


def test_sparsity_profile_against_recount():
    ham = gen_ssyk(100, 2, seed=11071)
    profile = sparsity_profile(ham)
    recount = {i: 0 for i in range(ham.n_majoranas)}
    for t in ham.terms:
        for i in t.indices:
            recount[i] += 1
    assert profile.degree.tolist() == [recount[i] for i in range(ham.n_majoranas)]
    assert profile.max_degree == max(recount.values())
    assert profile.max_degree >= 2
    assert profile.degree.sum() == sum(t.weight for t in ham.terms)


def test_profile_is_built_once_and_shared():
    ham = gen_sparse_random(40, 4, 2, "normal", seed=3)
    profile = sparsity_profile(ham)
    assert sparsity_profile(ham) is profile
    optimize_strict_q(ham)
    assert sparsity_profile(ham) is profile


def test_profile_degree_map_is_read_only():
    ham = gen_ssyk(40, 2, seed=1)
    profile = sparsity_profile(ham)
    with pytest.raises(ValueError, match="read-only"):
        profile.degree[0] = 99
    assert profile.degree.tolist() == [len(ids) for ids in mode_terms(ham)]


@pytest.mark.parametrize(
    "ham",
    [gen_mixed_24(40, 2, seed=s) for s in range(3)]
    + [gen_sparse_random(30, q, 2, "normal", seed=s) for q in (2, 4) for s in range(3)],
)
def test_term_id_agrees_with_a_rescan(ham):
    # index tuple -> term id, read off the index's sorted keys
    by_tuple = np.argsort(ham.index.lex_rank)
    rows = ham.index.padded[by_tuple].tolist()
    term_id = {tuple(i for i in row if i >= 0): t for row, t in zip(rows, by_tuple.tolist())}
    assert term_id == {t.indices: t_id for t_id, t in enumerate(ham.terms)}
    for array in (ham.index.term_ptr, ham.index.modes, ham.index.coeffs, ham.index.weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_pickle_rebuilds_the_index():
    ham = gen_mixed_24(20, 2, seed=0)
    sparsity_profile(ham)
    copy = pickle.loads(pickle.dumps(ham))
    assert copy == ham and copy.terms == ham.terms
    assert "terms" not in pickle.loads(pickle.dumps(ham)).__dict__
    profile, again = sparsity_profile(ham), sparsity_profile(copy)
    assert np.array_equal(again.degree, profile.degree)
    assert again.max_degree == profile.max_degree
    assert again.weights_present == profile.weights_present


def test_total_strength_absolute_sum():
    ham = MajoranaHamiltonian(
        n_modes=3,
        terms=(InteractionTerm((0, 1), 2.0), InteractionTerm((2, 3), -3.0)),
    )
    assert total_strength(ham) == 5.0
    assert total_strength(MajoranaHamiltonian(n_modes=1, terms=())) == 0.0


def _rounded_once(values) -> float:
    """The exact sum of ``values`` rounded once to a float: +0.0 when it is
    zero, an infinity of its sign past the float range."""
    exact = Fraction(0)
    for value in values:
        exact += Fraction(value)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


SUMS = {
    "empty": [],
    "negative-zero": [-0.0],
    "negative-zeros": [-0.0, -0.0, -0.0],
    "zero-signs": [0.0, -0.0, -0.0],
    "subnormals": [5e-324, -1e-323, 2.5e-323, 2.2250738585072014e-308, -5e-324],
    "mixed-magnitudes": [1e16, 1.0, -1e16, 1e-8, 3.0, 1e8, 0.1, 0.2, -0.3],
    "overflow": [-1e308, -1e308, 1e307],
}


@pytest.mark.parametrize("values", SUMS.values(), ids=SUMS.keys())
def test_total_is_the_sum_rounded_once(values):
    assert _total(np.array(values, dtype=float)).hex() == _rounded_once(values).hex()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1e300, 1e300) | st.sampled_from([-0.0, 5e-324])),
    st.data(),
)
def test_total_is_the_sum_rounded_once_in_any_order(values, data):
    expected = _rounded_once(values).hex()
    assert _total(np.array(values, dtype=float)).hex() == expected
    shuffled = data.draw(st.permutations(values))
    assert _total(np.array(shuffled, dtype=float)).hex() == expected


def test_total_of_non_finite_values_is_ieee():
    inf = math.inf
    for values, expected in (
        ([inf, 1e308, 1e308], inf), ([-inf, 1.0], -inf), ([inf, -inf], math.nan),
        ([math.nan, 1e308, 1e308], math.nan),
    ):
        assert repr(_total(np.array(values))) == repr(expected)


def test_total_strength_is_correctly_rounded():
    # a left-to-right running sum of this |J| list gives 15.83128402195409
    ham = gen_ssyk(1600, 2, 5)
    assert total_strength(ham) == _rounded_once(np.abs(ham.index.coeffs).tolist())
    assert total_strength(ham) == 15.831284021954081


@pytest.mark.parametrize("seed", range(8))
def test_lambda_max_below_total_strength(seed):
    ham = gen_sparse_random(6, 4, 1, "normal", seed=seed)
    assert lambda_max_exact(ham) <= total_strength(ham) + 1e-9


def test_parse_quartic_document():
    text = json.dumps(
        {"n_modes": 2, "terms": [{"indices": [0, 1, 2, 3], "coeff": 1.0}]}
    )
    ham = parse_hamiltonian(text)
    assert ham.n_modes == 2
    assert ham.terms[0].indices == (0, 1, 2, 3)
    assert ham.terms[0].coeff == 1.0


def _assert_hamiltonian_text_is_json_dumps(ham):
    reference = {
        "n_modes": ham.n_modes,
        "terms": [{"indices": list(t.indices), "coeff": t.coeff} for t in ham.terms],
    }
    text = serialize_hamiltonian(ham)
    assert text == json.dumps(reference, indent=1)
    again = parse_hamiltonian(text)
    assert again == ham and again.index.coeffs.tobytes() == ham.index.coeffs.tobytes()


# -0.0 and the subnormal keep their bits; 1e22 is written "1e+22"; an
# integer-valued coefficient is still a float, written "3.0"
SPECIAL_COEFFS = (-0.0, 0.0, 5e-324, -5e-324, 1e22, 1e16, 3.0, -1.0, 0.1, 1.7976931348623157e308)


@pytest.mark.parametrize(
    "ham",
    [
        MajoranaHamiltonian(3),  # no terms
        MajoranaHamiltonian(1, [InteractionTerm((0, 1), -0.0)]),
        MajoranaHamiltonian(
            4, [InteractionTerm((i, i + 1, i + 2, i + 3), c) for i, c in enumerate(SPECIAL_COEFFS[:5])]
        ),
        MajoranaHamiltonian(
            6, [InteractionTerm((2 * i, 2 * i + 1), c) for i, c in enumerate(SPECIAL_COEFFS[5:])]
        ),
        gen_mixed_24(10, 2, seed=1),
    ],
    ids=["no-terms", "negative-zero", "special-quartics", "special-quadratics", "mixed24"],
)
def test_hamiltonian_writer_gives_the_json_dumps_text(ham):
    _assert_hamiltonian_text_is_json_dumps(ham)


@st.composite
def _hamiltonians(draw):
    n_modes = draw(st.integers(1, 5))
    sets = draw(st.lists(
        st.sets(st.integers(0, 2 * n_modes - 1), min_size=1, max_size=2 * n_modes).filter(
            lambda s: len(s) % 2 == 0
        ),
        max_size=8,
        unique_by=frozenset,
    ))
    coeff = st.one_of(st.sampled_from(SPECIAL_COEFFS), st.floats(allow_nan=False, allow_infinity=False))
    coeffs = [draw(coeff) for _ in sets]
    with np.errstate(over="ignore"):  # the validator rejects a sum of |J| past the float range
        assume(np.isfinite(np.cumsum(np.abs(coeffs))[-1:]).all())
    terms = [InteractionTerm(tuple(sorted(s)), c) for s, c in zip(sets, coeffs)]
    return MajoranaHamiltonian(n_modes, terms)


@settings(max_examples=80, deadline=None)
@given(_hamiltonians())
def test_hamiltonian_writer_gives_the_json_dumps_text_on_random_documents(ham):
    _assert_hamiltonian_text_is_json_dumps(ham)


def test_serialize_round_trip():
    ham = gen_sparse_random(10, 4, 2, "normal", seed=5)
    text = serialize_hamiltonian(ham)
    again = parse_hamiltonian(text)
    assert again == ham
    assert serialize_hamiltonian(again) == text


@pytest.mark.parametrize(
    "doc, code",
    [
        ('{"n_modes": 2}', "malformed"),
        ('{"n_modes": true, "terms": []}', "malformed"),  # a JSON bool is a Python int
        ('{"n_modes": 2, "terms": [{"indices": [0, 1, 2], "coeff": 1.0}]}', "odd-weight"),
        ('{"n_modes": 1, "terms": [{"indices": [0, 5], "coeff": 1.0}]}', "index-range"),
        # indices past int64
        ('{"n_modes": 1, "terms": [{"indices": [0, %d], "coeff": 1.0}]}' % 10**30, "index-range"),
        ('{"n_modes": 1, "terms": [{"indices": [%d, 0], "coeff": 1.0}]}' % -10**30, "index-range"),
        # a term's own fault comes before another term's range
        (
            '{"n_modes": 1, "terms": [{"indices": [0, 5], "coeff": 1.0},'
            ' {"indices": [0, 1, 2], "coeff": 1.0}]}',
            "odd-weight",
        ),
        # the range of term 1 comes before term 2 repeating term 0
        (
            '{"n_modes": 1, "terms": [{"indices": [0, 1], "coeff": 1.0},'
            ' {"indices": [0, 5], "coeff": 1.0}, {"indices": [0, 1], "coeff": 2.0}]}',
            "index-range",
        ),
        (
            '{"n_modes": 2, "terms": [{"indices": [0, 1], "coeff": 1.0},'
            ' {"indices": [0, 1], "coeff": 2.0}]}',
            "duplicate-term",
        ),
        (
            '{"n_modes": 2, "terms": [{"indices": [0, 0, 1, 2], "coeff": 1.0}]}',
            "repeated-majorana",
        ),
        # indices must be a list of integers and the coefficient a number;
        # nothing is coerced
        ('{"n_modes": 2, "terms": [{"indices": [0.7, 1.2], "coeff": 1.0}]}', "malformed"),
        ('{"n_modes": 2, "terms": [{"indices": "01", "coeff": 1.0}]}', "malformed"),
        ('{"n_modes": 2, "terms": [{"indices": [false, true], "coeff": 1.0}]}', "malformed"),
        ('{"n_modes": 2, "terms": [{"indices": 5, "coeff": 1.0}]}', "malformed"),
        ('{"n_modes": 2, "terms": [{"indices": [[0, 1]], "coeff": 1.0}]}', "malformed"),
        ('{"n_modes": 2, "terms": [{"indices": [0, 1], "coeff": true}]}', "malformed"),
        ('{"n_modes": 2, "terms": [{"indices": [0, 1], "coeff": "2.5"}]}', "malformed"),
        ('{"n_modes": 2, "terms": [{"indices": [0, 1], "coeff": null}]}', "malformed"),
        ('{"n_modes": 2, "terms": [{"indices": [0, 1], "coeff": 1%s}]}' % ("0" * 400), "malformed"),
        # finite coefficients whose sum of |J| is not
        (
            '{"n_modes": 2, "terms": [{"indices": [0, 1], "coeff": 1e308},'
            ' {"indices": [2, 3], "coeff": -1e308}]}',
            "malformed",
        ),
        # mode counts past 2**17, and one past Python's int-parse digit limit
        ('{"n_modes": 131073, "terms": []}', "malformed"),
        ('{"n_modes": 100000000, "terms": []}', "malformed"),
        ('{"n_modes": 1%s, "terms": []}' % ("0" * 5000), "malformed"),
    ],
)
def test_parse_errors_carry_codes(doc, code):
    with pytest.raises(FormatError) as err:
        parse_hamiltonian(doc)
    assert err.value.code == code


def test_parse_accepts_mode_counts_up_to_the_cap():
    assert parse_hamiltonian('{"n_modes": 131072, "terms": []}').n_modes == 2**17


def test_parse_accepts_integer_coefficients():
    ham = parse_hamiltonian('{"n_modes": 2, "terms": [{"indices": [0, 1], "coeff": 2}]}')
    assert ham.terms == (InteractionTerm((0, 1), 2.0),)


def test_duplicate_index_sets_rejected_not_merged():
    with pytest.raises(FormatError):
        MajoranaHamiltonian(
            n_modes=2,
            terms=(InteractionTerm((0, 1), 1.0), InteractionTerm((0, 1), -1.0)),
        )


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**32))
def test_degree_sum_equals_weight_sum(seed):
    ham = gen_sparse_random(12, 4, 2, "normal", seed=seed)
    profile = sparsity_profile(ham)
    assert profile.degree.sum() == sum(t.weight for t in ham.terms)


# ------------------------------------------------- one validator, three routes

INDICES = st.one_of(
    st.lists(st.integers(-2, 7), max_size=5),
    st.lists(st.integers(0, 7), min_size=2, max_size=4, unique=True).map(sorted),
    st.sampled_from([[0, 1], [2, 3], [0, 1, 2, 3], [0, 10**30], [-(10**30), 0]]),
)
TERMS = st.lists(
    st.tuples(INDICES, st.sampled_from([1.0, -0.5, 2, float("inf"), float("nan")])), max_size=6
)


def _document(n_modes, entries) -> str:
    return json.dumps({"n_modes": n_modes, "terms": entries})


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 4), TERMS)
def test_validator_repeats_the_per_term_checks(n_modes, terms):
    # the same first fault, code and message, as the checks made term by term
    expected = first_fault_per_term(n_modes, terms)
    flat = [i for indices, _ in terms for i in indices]
    ptr = np.cumsum([0, *(len(indices) for indices, _ in terms)])
    coeffs = [c for _, c in terms]
    entries = [{"indices": indices, "coeff": c} for indices, c in terms]
    builds = (
        lambda: MajoranaHamiltonian(n_modes, [InteractionTerm(tuple(i), c) for i, c in terms]),
        lambda: MajoranaHamiltonian.from_arrays(n_modes, ptr, flat, coeffs),
        lambda: parse_hamiltonian(_document(n_modes, entries)),
    )
    for build in builds:
        if expected is None:
            assert build().terms == tuple(InteractionTerm(tuple(i), float(c)) for i, c in terms)
            continue
        with pytest.raises(FormatError) as err:
            build()
        assert (err.value.code, str(err.value)) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), TERMS, st.data())
def test_parse_reports_a_bad_entry_after_the_terms_before_it(n_modes, terms, data):
    at = data.draw(st.integers(0, len(terms)))
    entries = [{"indices": indices, "coeff": c} for indices, c in terms]
    entries.insert(at, {"indices": "01", "coeff": 1.0})
    faults = (own_term_fault(indices, c) for indices, c in terms[:at])
    code, message = next(filter(None, faults), ("malformed", None))
    with pytest.raises(FormatError) as err:
        parse_hamiltonian(_document(n_modes, entries))
    assert err.value.code == code and message in (None, str(err.value))


def test_from_arrays_rejects_arrays_that_do_not_list_terms():
    for ptr, modes, coeffs in (
        ([], [], []),
        ([1, 2], [0, 1], [1.0]),
        ([0, 2], [0, 1, 2], [1.0]),
        ([0, 2], [0, 1], [1.0, 2.0]),
        ([0, 2, 0], [0, 1], [1.0, 2.0]),
    ):
        with pytest.raises(FormatError, match="do not list one set of terms"):
            MajoranaHamiltonian.from_arrays(2, ptr, modes, coeffs)


def test_from_arrays_copies_its_input():
    ptr, modes, coeffs = np.array([0, 2, 4]), np.array([0, 1, 2, 3]), np.array([1.0, -2.0])
    ham = MajoranaHamiltonian.from_arrays(2, ptr, modes, coeffs)
    modes[0], coeffs[0] = 3, 5.0
    assert ham.terms == (InteractionTerm((0, 1), 1.0), InteractionTerm((2, 3), -2.0))
    assert ham == MajoranaHamiltonian(2, ham.terms) and ham.n_terms == 2
    assert ham != MajoranaHamiltonian(2, ham.terms[:1]) and ham != MajoranaHamiltonian(3, ham.terms)
