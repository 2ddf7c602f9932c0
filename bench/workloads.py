"""Seeded workload generators for the empa benchmark.

Each workload is a list of programs, built only from ``--seed``: the
simulator sees nothing but the generated ``.eyo`` sources.  All vector
items and dynpar operands are seeded random 32-bit words.  Every
program carries the words its run must leave in simulated memory,
computed here in Python, so a run can check its results.
"""

import random

from empa import fixtures

WORD_MASK = 0xFFFFFFFF
PAGE = 4096

# Generator parameters, one entry per workload.
PARAMS = {
    # One working core, 63 free: the engine's per-tick scans over all
    # cores dominate; the SV has no work and there is one QT span.
    "serial_wide": {"builder": "no_mode", "words": 3000, "cores": 64},
    # SUMUP denied, FOR granted on 2 cores: ~3000 QT create/term round
    # trips through the SV and ~3000 QT spans for trace, stats and SVG.
    "for_stream": {"builder": "adaptive", "words": 3000, "cores": 2},
    # Many short walk-through programs: set-up is a large share, and the
    # SV postpones creates and denies allocs where demand exceeds cores.
    # Words and cores are drawn one per stratum, and each stratum of the
    # cores always meets the same stratum of the words (see _pairing), so
    # the total work (cores x cycles) barely moves with the seed while
    # every program does.
    "walkthrough_batch": {"builders": sorted(fixtures.FIXTURES),
                          "per_builder": 48, "words": [1, 63],
                          "cores": [1, 64], "dynpar_cores": [4, 64]},
}


class Program:
    """One generated input: source text, machine shape, expected words."""

    __slots__ = ("builder", "cores", "words", "source", "mem_bytes",
                 "expect")

    def __init__(self, builder, cores, words, source, mem_bytes, expect):
        self.builder = builder
        self.cores = cores
        self.words = words
        self.source = source
        self.mem_bytes = mem_bytes
        self.expect = expect        # symbol -> word left in memory


def _mem_bytes(words):
    """Smallest whole number of pages that holds the vector and Sum."""
    end = fixtures.DATA_BASE + 4 * (words + 1)
    return max(PAGE, -(-end // PAGE) * PAGE)


def vector_program(builder, values, cores):
    source = fixtures.FIXTURES[builder](values)
    return Program(builder, cores, len(values), source,
                   _mem_bytes(len(values)),
                   {"Sum": sum(values) & WORD_MASK})


def dynpar_program(operands, cores):
    c, d, e, f = operands
    return Program("dynpar", cores, 4, fixtures.dynpar_source(operands), PAGE,
                   {"RA": (c + d + e + f) & WORD_MASK,
                    "RB": (c + d - e - f) & WORD_MASK})


def _words(rng, n):
    return [rng.getrandbits(32) for _ in range(n)]




def _strata(rng, lo, hi, k):
    """k integers in [lo, hi], the i-th drawn from the i-th of k equal
    strata."""
    width = (hi - lo + 1) / k
    return [lo + int((i + rng.random()) * width) for i in range(k)]


def _pairing(k):
    """A fixed permutation of range(k) with no i near pairing[i].  Core
    and word strata have nearly equal widths, so this keeps every program
    off the grant threshold (words <= cores - 1), where a seed's jitter
    would flip SUMUP between granted and denied."""
    rng = random.Random("walkthrough_batch pairing")
    pairing = list(range(k))
    while any(abs(i - j) < 2 for i, j in enumerate(pairing)):
        rng.shuffle(pairing)
    return pairing


def _batch(rng, p):
    programs = []
    k = p["per_builder"]
    pairing = _pairing(k)
    for builder in p["builders"]:
        core_range = p["dynpar_cores"] if builder == "dynpar" else p["cores"]
        cores = _strata(rng, core_range[0], core_range[1], k)
        words = _strata(rng, p["words"][0], p["words"][1], k)
        for i, j in enumerate(pairing):
            n_cores, n_words = cores[i], words[j]
            if builder == "dynpar":
                programs.append(dynpar_program(_words(rng, 4), n_cores))
            else:
                programs.append(vector_program(builder, _words(rng, n_words),
                                               n_cores))
    rng.shuffle(programs)
    return programs


def generate(workload, seed):
    """The programs of one iteration of ``workload`` for ``seed``."""
    p = PARAMS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "walkthrough_batch":
        return _batch(rng, p)
    return [vector_program(p["builder"], _words(rng, p["words"]), p["cores"])]
