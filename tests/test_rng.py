"""The batched per-index draws against numpy's own Philox bit generator.

``rng.words_at`` computes the first Philox4x64-10 word of many streams at
once.  It must equal ``np.random.Philox(key=stream_key(...)).random_raw(1)``
for every stream, including numpy's rounding of keys whose two words lie on
different sides of 2^63, which the stream spec pins (see ``rng``).
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import fermiopt
from fermiopt import rng

from bruteforce import normal_at, sign_at

TOP = 2**63
LAST = 2**64 - 1


def _philox_word(key) -> int:
    with warnings.catch_warnings():
        # numpy warns when a rounded key word reaches 2^64 and stores it as 0
        warnings.simplefilter("ignore", RuntimeWarning)
        return int(np.random.Philox(key=list(key)).random_raw(1)[0])


def _key_class(key) -> str:
    high = [word >= TOP for word in key]
    return "mixed" if high[0] != high[1] else ("high" if high[0] else "low")


# recorded before the batched draws existed
PINNED_KEYS = [
    ((0, "", 0), [14087677454934409008, 16294208416658607535]),
    ((0, "ssyk-coeff", 0), [3633674293044314724, 16294208416658607535]),
    ((LAST, "sparse-coeff", LAST), [7682834413782115711, 16490336266968443936]),
    ((123456789, "twocolor-coeff", 31), [8691540411472857160, 15517599431202433770]),
    ((TOP, "ssyk-select", TOP), [4931084643408502434, 5196802822362493915]),
]


@pytest.mark.parametrize("args,key", PINNED_KEYS)
def test_stream_key_is_pinned(args, key):
    assert rng.stream_key(*args) == key


def _indices():
    picks = np.random.default_rng(5).integers(0, 2**63, size=150, dtype=np.int64)
    return [0, 1, 2, 3, TOP - 1, TOP, LAST - 1, LAST] + [int(i) for i in picks] + [
        int(i) * 2 + 1 for i in picks[:50]
    ]


def test_words_match_numpy_philox():
    indices = _indices()
    classes = set()
    for seed in (0, 1, 2**32 + 7, TOP, LAST):
        for tag in ("ssyk-coeff", "sparse-coeff", ""):
            keys = [rng.stream_key(seed, tag, i) for i in indices]
            got = rng.words_at(seed, tag, np.array(indices, dtype=np.uint64))
            assert got.dtype == np.uint64
            assert got.tolist() == [_philox_word(key) for key in keys], (seed, tag)
            classes |= {_key_class(key) for key in keys}
    # keys of every kind were drawn: both words low, both high, one of each
    assert classes == {"low", "high", "mixed"}


CRAFTED_KEYS = [
    (0, 0),
    (1, 2),
    (TOP - 1, TOP - 2),
    (TOP, LAST),
    (LAST, TOP),
    (TOP - 1, TOP),
    (TOP, TOP - 1),
    (1, LAST),  # rounds to 2^64, stored as 0
    (LAST, 5),
    (5, 2**64 - 1025),  # rounds down to 2^64 - 2^11
    (3, TOP + 2**10),  # a tie, to even: down to 2^63
    (3, TOP + 3 * 2**10),  # a tie, to even: up to 2^63 + 2^12
    (2**62 + 2**9, TOP),  # a tie below 2^63, to even: down
    (2**62 + 3 * 2**9, TOP),  # a tie below 2^63, to even: up
    (2**62 + 1, TOP + 1),  # both rounded down
    (2**53 + 1, TOP),  # a tie at 2^53, to even: down
    (2**52 + 1, TOP),  # exact below 2^53
]


@pytest.mark.parametrize("key", CRAFTED_KEYS, ids=[f"{a:x}-{b:x}" for a, b in CRAFTED_KEYS])
def test_key_rounding_matches_numpy(key):
    words = np.array(key, dtype=np.uint64).reshape(2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        stored = np.random.Philox(key=list(key)).state["state"]["key"].tolist()
    assert rng._stored_key(words)[:, 0].tolist() == stored
    assert int(rng._first_words(words)[0]) == _philox_word(key)
    assert (stored != list(key)) <= (_key_class(key) == "mixed")


@pytest.mark.parametrize(
    "key,stored",
    [
        ((1, LAST), (1, 0)),
        ((2**62 + 1, TOP + 1), (2**62, TOP)),
        ((3, TOP + 2**10), (3, TOP)),
        ((3, TOP + 3 * 2**10), (3, TOP + 2**12)),
        ((TOP + 1, 2**62 + 3 * 2**9), (TOP, 2**62 + 2**11)),
        ((TOP + 1, LAST), (TOP + 1, LAST)),
        ((2**62 + 1, 7), (2**62 + 1, 7)),
    ],
)
def test_stored_key_spec(key, stored):
    # the rounding itself, independent of the installed numpy
    words = np.array(key, dtype=np.uint64).reshape(2, 1)
    assert tuple(rng._stored_key(words)[:, 0].tolist()) == stored


@pytest.mark.parametrize("seed", [0, 11, LAST])
def test_normals_and_signs_match_per_index_draws(seed):
    indices = _indices()
    normals = rng.normals_at(seed, "sparse-coeff", np.array(indices, dtype=np.uint64))
    assert normals.tolist() == [normal_at(seed, "sparse-coeff", i) for i in indices]
    uniforms = rng.uniforms_at(seed, "sparse-coeff", np.array(indices, dtype=np.uint64))
    signs = np.where(uniforms < 0.5, 1.0, -1.0).tolist()
    assert signs == [sign_at(seed, "sparse-coeff", i) for i in indices]
    assert all(0.0 < u < 1.0 for u in uniforms)


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 7, TOP, LAST])
def test_integers_below_streams_match_one_stream_at_a_time(seed):
    indices = _indices()
    keys = [rng.stream_key(seed, "sparse-select", i) for i in indices]
    assert any(_key_class(key) == "mixed" for key in keys)  # keys numpy stores rounded
    for count, high in ((1, 2), (7, 10**6), (64, 2**62 + 11)):
        got = rng.integers_below_streams(
            seed, "sparse-select", count, high, np.array(indices, dtype=np.uint64)
        )
        assert got.shape == (len(indices), count) and got.dtype == np.int64
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # keys rounded to 2^64
            expected = [
                rng.integers_below(seed, "sparse-select", count, high, index=i).tolist()
                for i in indices
            ]
        assert got.tolist() == expected


def test_integers_below_streams_take_an_index_range():
    got = rng.integers_below_streams(5, "t", 3, 100, np.arange(4, 9))
    expected = [rng.integers_below(5, "t", 3, 100, index=i).tolist() for i in range(4, 9)]
    assert got.tolist() == expected
    assert rng.integers_below_streams(5, "t", 3, 100, np.arange(0)).shape == (0, 3)


def test_int64_ranks_and_empty_batches():
    ranks = np.array([0, 5, 2**62], dtype=np.int64)
    assert rng.words_at(3, "t", ranks).tolist() == rng.words_at(3, "t", ranks.tolist()).tolist()
    assert rng.normals_at(3, "t", np.array([], dtype=np.int64)).shape == (0,)


def test_draws_do_not_depend_on_batch_composition():
    ranks = np.arange(1000, 1100, dtype=np.int64)
    whole = rng.normals_at(9, "ssyk-coeff", ranks)
    parts = [rng.normals_at(9, "ssyk-coeff", ranks[i : i + 7]) for i in range(0, 100, 7)]
    assert whole.tolist() == np.concatenate(parts).tolist()
    assert not np.isnan(whole).any()


# ------------------------------------------------------ one owner of the format

STREAM_NAMES = {"Philox", "stream_key", "ndtri"}


@pytest.mark.parametrize(
    "module",
    [p for p in sorted(Path(fermiopt.__file__).parent.rglob("*.py")) if p.name != "rng.py"],
    ids=lambda path: path.stem,
)
def test_only_rng_names_the_stream_format(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            named.add((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            named.add((node.name.rsplit(".", 1)[-1], node.lineno))
            if node.asname:
                named.add((node.asname, node.lineno))
    hits = sorted(line for name, line in named if name in STREAM_NAMES)
    assert not hits, f"{module.name} names the stream format at lines {hits}"
