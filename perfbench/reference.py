"""A fixed pure-Python kernel that measures how fast the machine runs now.

On a shared host the same sample of the same input takes from 0.75x to
1.25x of its median CPU time, in phases of seconds to minutes.  The child
runs ``kernel()`` just before and just after each timed ``cli.run`` call,
in the same process on the same core, and ``run.py`` divides the sample's
CPU time by the kernel's.  The kernel does the kind of work the engine
does (dict-of-monomials products with ``Fraction`` coefficients) but
imports nothing from ``spinsym``, so a change to the engine leaves it
unchanged and shows in full in the ratio.
"""

from fractions import Fraction
from time import process_time

# CPU seconds the kernel takes at the speed the normalised metric is
# quoted at: the median of 150 kernel runs in a row on a 2-core Intel Xeon
# VM under Python 3.11.7 (they took 0.067 to 0.109 s).  It only scales
# the ratio into seconds.
NOMINAL_S = 0.096

ROUNDS = 16


def _poly(seed: int, terms: int) -> dict:
    out: dict = {}
    x = seed
    for _ in range(terms):
        x = (x * 1103515245 + 12345) % 2147483648
        mono = (x % 3, (x >> 3) % 3, (x >> 6) % 2, (x >> 9) % 3)
        out[mono] = out.get(mono, 0) + Fraction(x % 7 - 3, 1 + x % 5)
    return out


_A = _poly(1, 40)
_B = _poly(2, 40)


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(i + j for i, j in zip(ma, mb))
            s = out.get(mono, 0) + ca * cb
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def kernel(rounds: int = ROUNDS) -> float:
    """CPU seconds of ``rounds`` fixed products."""
    start = process_time()
    for _ in range(rounds):
        _mul(_A, _B)
    return process_time() - start
