"""Line-protocol evaluators that break the protocol: Q(mu) = sum_i mu_i^2.

``twice``: answers every request with two copies of the response line,
written in one call so both reach the pipe together.
``no-newline``: answers the first request with ``1.5`` and no line end,
then hangs.
"""

import sys
import time


def main() -> int:
    mode = sys.argv[1]
    for line in sys.stdin:
        value = sum(float(token) ** 2 for token in line.split())
        if mode == "twice":
            sys.stdout.write(f"{value!r}\n{value!r}\n")
            sys.stdout.flush()
        else:
            sys.stdout.write("1.5")
            sys.stdout.flush()
            time.sleep(60)
    return 0


if __name__ == "__main__":
    sys.exit(main())
