"""Check the benchmark's own answers against the test suite's oracles.

    python3 perfbench/selfcheck.py

On small random cases, the Burnside word count must match the brute-force
enumeration of `brute_force_words`, and each conjugated chain complex must
have the ranks of `rational_rank` and the invariant factors of
`sympy_invariant_factors` (sympy's own Smith normal form); the gcd/lcm
chain must match sympy too.  Needs sympy; imports nothing from weinkit.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import oracle as O

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import brute_force_words, rational_rank, sympy_invariant_factors  # noqa: E402


def main():
    rng = random.Random(5)
    pool = [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2),
            Fraction(2), Fraction(5, 2)]
    for _ in range(200):
        letters = {c: (rng.randint(-3, 4), rng.choice(pool))
                   for c in "abc"[:rng.randint(1, 3)]}
        bound = min(a for _, a in letters.values()) * Fraction(rng.randint(2, 12), 2)
        hist = {}
        for word in brute_force_words({c: a for c, (_, a) in letters.items()}, bound):
            deg = sum(letters[c][0] for c in word)
            hist[deg] = hist.get(deg, 0) + 1
        assert O.necklace_counts(letters, bound) == hist, (letters, bound)
    for _ in range(40):
        betti = {k: rng.randint(0, 2) for k in range(4)}
        ranks = {k: rng.randint(0, 3) for k in range(1, 4)}
        dims, maps, factors, _ = O.standard_complex(rng, betti, ranks, 0.5)
        conj = O.conjugate(rng, dims, maps, 2, (-1, 1, 2))
        for k, m in conj.items():
            assert rational_rank(m) == ranks[k]
            assert sympy_invariant_factors(m) == [f for f in factors[k] if f >= 2]
        for k in conj:
            if k + 1 in conj:
                assert not any(any(row) for row in O.mat_mul(conj[k], conj[k + 1]))
    for _ in range(100):
        fs = [rng.choice((1, 2, 3, 4, 6, 9, 10, 12, 25)) for _ in range(rng.randint(1, 6))]
        diag = [[fs[i] if i == j else 0 for j in range(len(fs))] for i in range(len(fs))]
        assert list(O.invariant_chain(fs)) == sympy_invariant_factors(diag)
    print("oracle agrees with tests/oracles.py on 340 small cases")


if __name__ == "__main__":
    main()
