import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homecyber
from homecyber.streams import REPLICATION_LANE, RUN_LANE, substream

# The first raw SFC64 words of substream(master_seed, index, lane): they pin
# the seeding of layout 6 apart from numpy's samplers.
RAW_WORDS = {
    (0, 0, RUN_LANE): (0x5954C4CB8FD7DA0C, 0xDB26A014EAA2A540,
                       0x95DB3AD4B5C78138, 0x0E39CBF7FD99E1E7),
    (1, 0, RUN_LANE): (0x1659B86C97675885, 0xB4FA9D91D49CD7D1,
                       0x5F14E343CA81A600, 0x9EFC6300BC8A143D),
    (1, 1, RUN_LANE): (0x4FB6C85BFFE86A6D, 0x47843F9AE1976F9F,
                       0x80BFCD0C01E3851F, 0xF93ED19196499860),
    (1, 0, REPLICATION_LANE): (0x2A621A96BFC11DB0, 0x0F9E5E8D8DC48455,
                               0xF75D4C10C6F611CD, 0xF04B8E206BC70DAD),
    (901, 12345, REPLICATION_LANE): (0xB0146333D6FDF99C, 0x4B01ED1A81A9939B,
                                     0xCA4E53CB19E60392, 0xCC9E903CC8A762F1),
    (2**40 + 3, 7, RUN_LANE): (0x8FB721DE31C31DF3, 0x19E7FD57C5374BA1,
                               0xB1FC36E04A7BA5DA, 0xA6D384922D3595EE),
}


def raw_words(master_seed, index, lane, count=4):
    return tuple(substream(master_seed, index, lane).bit_generator.random_raw(count).tolist())


@pytest.mark.parametrize("triple", sorted(RAW_WORDS), ids=str)
def test_first_raw_words_are_pinned(triple):
    assert raw_words(*triple) == RAW_WORDS[triple]


def test_generator_is_sfc64_seeded_by_spawn_key():
    rng = substream(5, 3, REPLICATION_LANE)
    assert isinstance(rng.bit_generator, np.random.SFC64)
    seed = rng.bit_generator.seed_seq
    assert seed.entropy == 5 and seed.spawn_key == (REPLICATION_LANE, 3)


def test_distinct_lanes_and_indices_give_distinct_words():
    words = {raw_words(seed, index, lane)
             for seed in (0, 1, 2) for index in range(16) for lane in (RUN_LANE, REPLICATION_LANE)}
    assert len(words) == 3 * 16 * 2


def test_same_words_in_a_fresh_interpreter():
    src = str(Path(homecyber.__file__).parent.parent)
    code = ("from homecyber.streams import substream\n"
            f"for t in {sorted(RAW_WORDS)!r}:\n"
            "    print(*substream(*t).bit_generator.random_raw(4).tolist())\n")
    for hash_seed in ("0", "12345"):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
        )
        assert done.returncode == 0, done.stderr
        printed = [tuple(int(w) for w in line.split()) for line in done.stdout.splitlines()]
        assert printed == [RAW_WORDS[t] for t in sorted(RAW_WORDS)]
