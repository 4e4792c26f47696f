"""Write a fixed-seed Seifert pair document, or check the --json answer of
`alexpoly alex` or `alexpoly norm` for it modulo a prime.

    python tests/cap_check.py pair {alex,norm} SEED SIZE PATH
    python tests/cap_check.py check {alex,norm} PAIR ANSWER

`pair` writes a SIZE x SIZE pair with every entry +-15, drawn from
random.Random(SEED): for `alex` S and N are independent (p = 1, n = 2),
for `norm` it is a middle pair with N = S^t (p = 3, n = 5).  `check`
evaluates the answer's polynomial at x = 2, 3 and 10^9 + 7 modulo the
prime p = 2^61 - 1 (the normalized one of `norm` times t^(SIZE/2)) and
compares each value with det(x*S - N) mod p, found by Gaussian
elimination over the integers mod p.  A wrong polynomial passes one
point with probability at most SIZE/p, so a coefficient off by one
fails.  It exits 0 when all three agree, else 1 with the first
disagreement on stderr.
"""
import json
import random
import sys

P = (1 << 61) - 1
POINTS = (2, 3, 10**9 + 7)


def write_pair(command: str, seed: int, size: int, path: str) -> None:
    """The SIZE x SIZE pair document that `command` is checked on, at path."""
    rng = random.Random(seed)
    S = [[rng.choice((-15, 15)) for _ in range(size)] for _ in range(size)]
    if command == "alex":
        N = [[rng.choice((-15, 15)) for _ in range(size)] for _ in range(size)]
        p, n = 1, 2
    else:
        N = [list(column) for column in zip(*S)]
        p, n = 3, 5
    with open(path, "w") as handle:
        json.dump({"kind": "seifert_pair", "p": p, "n": n, "S": S, "N": N}, handle)


def det_mod_p(rows: list[list[int]]) -> int:
    """det(rows) mod P, by Gaussian elimination over the integers mod P."""
    a = [[v % P for v in row] for row in rows]
    det = 1
    for c in range(len(a)):
        r = next((r for r in range(c, len(a)) if a[r][c]), None)
        if r is None:
            return 0
        a[c], a[r], det = a[r], a[c], det if r == c else -det
        det = det * a[c][c] % P
        inverse = pow(a[c][c], -1, P)
        for row in a[c + 1 :]:
            f = row[c] * inverse % P
            row[c:] = [(u - f * w) % P for u, w in zip(row[c:], a[c][c:])]
    return det


def disagreement(command: str, pair: dict, answer: dict) -> str | None:
    """The first point where the answer's polynomial and det(x*S - N)
    differ mod P, described, or None when they agree at all three."""
    key, shift = ("polynomial", 0) if command == "alex" else ("normalized", len(pair["S"]))
    terms = answer[key]["terms"]
    cells = [list(zip(*rows)) for rows in zip(pair["S"], pair["N"])]
    for x in POINTS:
        want = det_mod_p([[x * s - v for s, v in row] for row in cells])
        got = sum(int(v) * pow(x, (int(h) + shift) // 2, P) for h, v in terms.items()) % P
        if got != want:
            return f"{command} at x = {x}: {got} != det(x*S - N) = {want} mod p"
    return None


def main(argv: list[str]) -> int:
    action, command, *rest = argv
    if command not in ("alex", "norm"):
        raise SystemExit(f"unknown command {command!r}: expected alex or norm")
    if action == "pair":
        seed, size, path = rest
        write_pair(command, int(seed), int(size), path)
        return 0
    if action == "check":
        pair_file, answer_file = rest
        with open(pair_file) as pair, open(answer_file) as answer:
            problem = disagreement(command, json.load(pair), json.load(answer))
        if problem:
            print(f"{answer_file}: {problem}", file=sys.stderr)
            return 1
        return 0
    raise SystemExit(f"unknown action {action!r}: expected pair or check")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
