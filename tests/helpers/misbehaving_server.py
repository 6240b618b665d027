"""Line-protocol evaluators that break the protocol: Q(mu) = sum_i mu_i^2.

``twice``: answers every request with two copies of the response line,
written in one call so both reach the pipe together.
``no-newline``: answers the first request with ``1.5`` and no line end,
then hangs.
``chatty``: answers correctly, but logs about 210 bytes to stderr per
request, so a parent that never drains stderr fills the pipe within a few
hundred requests.
``flood``: answers, then writes 200 000 ``0xff`` bytes in the same call:
more than a 64 KiB pipe read, none of it UTF-8.
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
        elif mode == "flood":
            sys.stdout.buffer.write(f"{value!r}\n".encode() + b"\xff" * 200_000)
            sys.stdout.flush()
        elif mode == "chatty":
            sys.stderr.write(f"solver: request {line.strip()!r} -> {value!r} {'.' * 160}\n")
            sys.stdout.write(f"{value!r}\n")
            sys.stdout.flush()
        else:
            sys.stdout.write("1.5")
            sys.stdout.flush()
            time.sleep(60)
    return 0


if __name__ == "__main__":
    sys.exit(main())
