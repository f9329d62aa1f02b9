"""Named derivation of random streams from a single root seed.

Every stochastic component draws from a stream addressed by a path of
names (e.g. root -> "sampler" -> "cell/0/2"), so adding a consumer never
perturbs the draws of any other consumer.
"""

import hashlib
import operator

import numpy as np


def check_root_seed(seed: int) -> int:
    """``seed`` as an int, or a ValueError unless it is a root seed: an integer in [0, 2**64), the one 64-bit
    word of every stream's entropy, so that no two root seeds share their streams. A bool, a float or a string
    is not one: ``int`` would put True and 1.5 on seed 1's streams and "7" on seed 7's."""
    if isinstance(seed, bool) or not hasattr(type(seed), "__index__"):  # what operator.index takes
        raise ValueError(f"seed {seed!r} must be an integer")
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} must be in [0, 2**64)")
    return seed


def derive_seed_sequence(root_seed: int, *path) -> "np.random.SeedSequence":
    """Build a SeedSequence for ``root_seed`` qualified by a name path.

    Path elements may be strings or ints; they are joined and hashed, so
    distinct paths give statistically independent streams.
    """
    key = "/".join(str(p) for p in path)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.SeedSequence([check_root_seed(root_seed), *words])


def derive_rng(root_seed: int, *path) -> "np.random.Generator":
    """Generator seeded by ``derive_seed_sequence(root_seed, *path)``."""
    return np.random.default_rng(derive_seed_sequence(root_seed, *path))


def derive_int(root_seed: int, *path) -> int:
    """A stable 63-bit integer seed derived from the name path."""
    return int(derive_seed_sequence(root_seed, *path).generate_state(1, np.uint64)[0] >> 1)
