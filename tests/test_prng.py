"""Pinned random pipeline: frozen outputs lock the algorithm in place."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cosamp import prng

# Values computed once from the documented pipeline (Philox-4x64-10 raw
# words, 53-bit uniforms, Box-Muller).  A change here means stored
# fixtures are no longer reproducible.
FROZEN_RAW_12345 = [
    11923609910150341984,
    14282716219641783572,
    14507188490975060125,
    2944039161201405073,
]
FROZEN_NORMALS_12345 = [
    0.2190063046507114,
    -1.4251673872451207,
    0.9452944356903861,
    1.4812354142286026,
]


def test_raw_words_frozen():
    assert list(prng.raw_words(12345, 4)) == FROZEN_RAW_12345


def test_uniforms_match_bit_recipe():
    words = prng.raw_words(12345, 3)
    expected = [(int(w) >> 11) * 2.0**-53 for w in words]
    assert list(prng.uniforms(12345, 3)) == expected


def test_normals_frozen():
    assert prng.normals(12345, 4) == pytest.approx(FROZEN_NORMALS_12345, abs=0)


def test_normals_are_deterministic_and_seed_sensitive():
    a = prng.normals(7, 100)
    assert np.array_equal(a, prng.normals(7, 100))
    assert not np.array_equal(a, prng.normals(8, 100))


def test_normals_odd_count_prefix_of_even():
    assert np.array_equal(prng.normals(3, 5), prng.normals(3, 6)[:5])


def test_normals_moments():
    z = prng.normals(2024, 200_000)
    assert abs(z.mean()) < 5 / np.sqrt(z.size)
    assert abs(z.std() - 1.0) < 0.01


def test_complex_normals_unit_energy():
    z = prng.complex_normals(11, 100_000)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.02)


def one_shot_normals(seed, count):
    """The whole Box-Muller stream at once, on full-length uniforms."""
    pairs = (count + 1) // 2
    u = prng.uniforms(seed, 2 * pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def one_shot_complex_normals(seed, count):
    z = one_shot_normals(seed, 2 * count)
    return (z[0::2] + 1j * z[1::2]) / np.sqrt(2.0)


DRAWS = [(prng.normals, one_shot_normals), (prng.complex_normals, one_shot_complex_normals)]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def block_counts(b):
    """Counts at and around one, two, four and six blocks of ``b`` pairs, plus small odd ones."""
    return sorted({0, 1, 2, 3, 5, 7, b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1, 4 * b,
                   6 * b + 7})


@pytest.mark.parametrize("block", [1, 3, 8])
@pytest.mark.parametrize("draw, oracle", DRAWS, ids=["normals", "complex_normals"])
def test_blocked_normals_have_the_one_shot_bits(draw, oracle, block, monkeypatch):
    monkeypatch.setattr(prng, "_BLOCK_PAIRS", block)
    for seed in (0, 1, 2, 7, 12345, 987654321, 2**63, 2**64 - 1):
        for count in block_counts(block):
            assert_same_bits(draw(seed, count), oracle(seed, count))


@pytest.mark.parametrize("draw, oracle", DRAWS, ids=["normals", "complex_normals"])
def test_module_block_size_has_the_one_shot_bits(draw, oracle):
    b = prng._BLOCK_PAIRS
    for count in (2 * b - 1, 2 * b, 2 * b + 1, 6 * b + 7):
        assert_same_bits(draw(5, count), oracle(5, count))


def test_draws_between_calls_change_nothing(monkeypatch):
    monkeypatch.setattr(prng, "_BLOCK_PAIRS", 4)
    a = prng.normals(3, 45)
    prng.raw_words(99, 7)  # the same thread's generator, left mid-stream under another key
    b = prng.complex_normals(4, 21)
    prng.uniforms(5, 3)
    c = prng.normals(3, 45)
    assert_same_bits(a, one_shot_normals(3, 45))
    assert_same_bits(b, one_shot_complex_normals(4, 21))
    assert_same_bits(c, a)


def test_normals_from_three_threads(monkeypatch):
    monkeypatch.setattr(prng, "_BLOCK_PAIRS", 2)  # many blocks, so threads switch inside calls
    seeds = list(range(40))
    want = [(one_shot_normals(k, 41).tobytes(), one_shot_complex_normals(k, 19).tobytes())
            for k in seeds]
    results = {}
    barrier = threading.Barrier(3)

    def draw(name):
        barrier.wait()
        results[name] = [(prng.normals(k, 41).tobytes(), prng.complex_normals(k, 19).tobytes())
                         for _ in range(3) for k in seeds]

    threads = [threading.Thread(target=draw, args=(name,)) for name in ("a", "b", "c")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results["a"] == results["b"] == results["c"] == want * 3


class TestStorage:
    """A draw holds its output plus one block (measured by tracemalloc)."""

    ALLOWANCE = 8 * 2**20
    COUNT = 2**22

    @staticmethod
    def peak(draw, *args):
        tracemalloc.start()
        try:
            out = draw(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_normals(self):
        out, peak = self.peak(prng.normals, 17, self.COUNT)
        assert out.nbytes == 8 * self.COUNT
        assert peak <= out.nbytes + self.ALLOWANCE

    def test_complex_normals(self):
        out, peak = self.peak(prng.complex_normals, 17, self.COUNT)
        assert out.nbytes == 16 * self.COUNT
        assert peak <= out.nbytes + self.ALLOWANCE

    def test_sample_many(self):
        # a chunk's words and byte table, never a trials x n int64 table (100 MB here)
        out, peak = self.peak(prng.sample_many, 17, 100_000, 128, 8)
        assert out.nbytes == 8 * 100_000 * 8
        assert peak <= out.nbytes + 4 * 2**20


def test_mix_seed_frozen():
    assert prng.mix_seed(1, 2, 3) == 15020427595393229491
    assert prng.mix_seed(0) == 16294208416658607535


def test_mix_seed_order_sensitive():
    assert prng.mix_seed(1, 2, 3) != prng.mix_seed(3, 2, 1)
    assert prng.mix_seed(1, 2, 3) != prng.mix_seed(1, 2, 3, 0)


def test_shuffled_is_permutation():
    perm = prng.shuffled(7, 8)
    assert sorted(perm.tolist()) == list(range(8))
    assert perm.tolist() == [4, 1, 6, 5, 2, 7, 0, 3]  # frozen


def test_sample_without_replacement_sorted_distinct():
    picked = prng.sample_without_replacement(7, 10, 4)
    assert picked.tolist() == sorted(set(picked.tolist()))
    assert len(picked) == 4
    assert picked.tolist() == [0, 2, 3, 4]  # frozen


def test_sample_without_replacement_bounds():
    with pytest.raises(ValueError):
        prng.sample_without_replacement(0, 4, 5)
    assert prng.sample_without_replacement(0, 4, 0).size == 0


def test_signs_are_unit():
    s = prng.signs(5, 50)
    assert set(np.unique(s)) <= {-1.0, 1.0}


def test_sample_without_replacement_frozen():
    # computed with the full-shuffle implementation
    assert prng.sample_without_replacement(12345, 100, 7).tolist() == [4, 9, 15, 29, 33, 67, 84]


def reference_shuffle(seed, n):
    """The full Fisher-Yates shuffle, one swap per raw word."""
    perm = np.arange(n, dtype=np.int64)
    words = prng.raw_words(seed, max(n - 1, 0))
    for i in range(n - 1):
        j = i + int(words[i] % np.uint64(n - i))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 128])
def test_sample_without_replacement_is_full_shuffle_prefix(n):
    for seed in range(5):
        full = reference_shuffle(seed, n)
        assert np.array_equal(prng.shuffled(seed, n), full)
        for m in sorted({0, 1, n // 2, n - 1, n}):
            got = prng.sample_without_replacement(seed, n, m)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.sort(full[:m])), (seed, n, m)


def fresh_philox_words(seed, count):
    return np.random.Philox(key=int(seed) & (2**64 - 1)).random_raw(count)


def test_raw_words_match_fresh_generator():
    # mixed keys (small, wide, negative, past 64 bits) and counts around a
    # Philox block of four words, interleaved so no draw starts fresh
    keys = prng.raw_words(123, 2000).tolist() + list(range(-50, 50)) + [2**64 - 1, 2**70 + 5]
    counts = (0, 1, 3, 4, 5, 1000)
    checked = 0
    for i, key in enumerate(keys):
        for count in (counts[i % 6], counts[(i + 1) % 6], counts[(i * 7 + 2) % 6],
                      counts[(i * 5 + 4) % 6], counts[(i + 3) % 6]):
            got = prng.raw_words(key, count)
            want = fresh_philox_words(key, count)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            checked += 1
    assert checked >= 10_000


def test_raw_words_from_two_threads():
    keys = list(range(300))
    want = [fresh_philox_words(k, 37).tobytes() for k in keys]
    results = {}
    barrier = threading.Barrier(2)

    def draw(name):
        barrier.wait()
        results[name] = [[prng.raw_words(k, 37).tobytes() for k in keys] for _ in range(3)]

    threads = [threading.Thread(target=draw, args=(name,)) for name in ("a", "b")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between draws, not once per run
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert results["a"] == results["b"] == [want] * 3


def test_raw_words_many_match_fresh_generators():
    # numpy's Philox is the oracle; its words form a prefix-stable stream, so
    # one 13-word draw per key checks every count from 0 to 13
    keys = np.concatenate([
        prng.raw_words(321, 10_000),
        np.array([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64),
    ])
    want = np.stack([fresh_philox_words(k, 13) for k in keys.tolist()])
    for count in range(14):
        got = prng.raw_words_many(keys, count)
        assert got.dtype == np.uint64 and got.shape == (keys.size, count)
        assert np.array_equal(got, want[:, :count]), count


@pytest.mark.parametrize("table_entries", [1 << 18, 600], ids=["one_chunk", "many_chunks"])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 128, 300])
def test_sample_many_rows_are_per_trial_draws(n, table_entries, monkeypatch):
    monkeypatch.setattr(prng, "_TABLE_ENTRIES", table_entries)
    trials = 25
    for seed in (0, 13, -1, 2**70, 2**64 - 1):
        for m in sorted({0, 1, n - 1, n}):
            got = prng.sample_many(seed, trials, n, m)
            assert got.dtype == np.int64 and got.shape == (trials, m)
            for t in range(trials):
                want = prng.sample_without_replacement(prng.mix_seed(seed, t), n, m)
                assert np.array_equal(got[t], want), (seed, n, m, t)


def test_raw_words_many_leaves_keys_alone():
    keys = prng.raw_words(77, 500)
    before = keys.copy()
    prng.raw_words_many(keys, 9)
    assert np.array_equal(keys, before)
    keys.flags.writeable = False
    want = np.stack([fresh_philox_words(k, 9) for k in keys.tolist()])
    assert np.array_equal(prng.raw_words_many(keys, 9), want)


def assert_rows_are_per_trial_draws(seed, trials, n, m):
    got = prng.sample_many(seed, trials, n, m)
    assert got.dtype == np.int64 and got.shape == (trials, m)
    for t in range(trials):
        want = prng.sample_without_replacement(prng.mix_seed(seed, t), n, m)
        assert np.array_equal(got[t], want), (seed, n, m, t)


@pytest.mark.parametrize("n", [255, 256, 257])
def test_sample_many_across_the_byte_table_boundary(n, monkeypatch):
    # the table is uint8 up to n = 256 and uint16 from 257; chunks of 7 trials
    # at m >= n - 1 and of 27 to 55 at m <= 1, none of which divides 60
    monkeypatch.setattr(prng, "_TABLE_ENTRIES", 7 * 8 * (n - 1))
    for m in (0, 1, n - 1, n):
        assert_rows_are_per_trial_draws(2**64 - 5, 60, n, m)


def test_sample_many_with_a_uint32_table():
    # n = 65,537 needs four bytes an entry; at m >= n - 1 a chunk holds 4 trials
    for m in (0, 1, 65_536, 65_537):
        assert_rows_are_per_trial_draws(9, 5, 65_537, m)


def test_sample_many_zero_trials_and_bounds():
    empty = prng.sample_many(3, 0, 10, 4)
    assert empty.shape == (0, 4) and empty.dtype == np.int64
    with pytest.raises(ValueError):
        prng.sample_many(3, 5, 4, 5)
    with pytest.raises(ValueError):
        prng.sample_many(3, -1, 4, 2)


class TestCheckSeed:
    """A seed must be a Python or numpy integer in [0, 2**64): a float would be
    truncated by the streams and a bool read as 0 or 1."""

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, False, np.True_, "3", None,
                                      np.float64(2.0), [1]], ids=repr)
    def test_refuses_a_non_integer(self, seed):
        with pytest.raises(TypeError, match="a seed must be an integer"):
            prng.check_seed(seed)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, np.int64(7), np.uint64(2**64 - 1),
                                      np.uint8(3)], ids=repr)
    def test_keeps_an_integer_as_given(self, seed):
        assert prng.check_seed(seed) is seed
