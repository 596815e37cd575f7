"""Fixed reference work that the benchmark times next to every iteration.

It starts like an operation's child (fresh interpreter, numpy import) and
then runs a fixed mix of numpy scalar draws, tuple building and float
formatting, the kind of work the trial loop does.  It never imports
multidetect, so no change to the program moves it; its wall time tracks
only how fast the shared host runs such code at that moment.
"""

import numpy as np

ROWS = 40_000


def main() -> int:
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    rows = []
    for i in range(ROWS):
        bits = tuple(int(b) for b in gen.random(4) >= 0.5)
        count = int(gen.binomial(300, 0.4))
        rows.append(f"{i},{bits},{count * 1.28e-11!r}")
    return len(rows)


if __name__ == "__main__":
    main()
