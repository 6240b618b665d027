"""Stand-alone external solver: Q(mu) = sum_i a_i * mu_i^2 over the line protocol.

Usage: ``python bowl_server.py A1,A2,...``.  Reads one whitespace-separated
design vector per stdin line and writes one decimal real per stdout line.
It imports no project code, so starting it costs only the interpreter.
"""

import sys


def main() -> int:
    a = [float(token) for token in sys.argv[1].split(",")]
    for line in sys.stdin:
        mu = [float(token) for token in line.split()]
        if len(mu) != len(a):
            print(f"expected {len(a)} components, got {len(mu)}", file=sys.stderr, flush=True)
            return 1
        value = 0.0
        for coeff, x in zip(a, mu):
            value += coeff * x * x
        sys.stdout.write(repr(value) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
