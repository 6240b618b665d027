"""Line-protocol evaluators that break the protocol: Q(mu) = sum_i mu_i^2.

``twice``: answers every request with two copies of the response line,
written in one call so both reach the pipe together.
``slow-twice``: like ``twice``, but sleeps 50 ms before each answer, so a
parent that has already written the next request reads the copy as the
next answer.
``no-newline``: answers the first request with ``1.5`` and no line end,
then hangs.
``chatty``: answers correctly, but logs about 210 bytes to stderr per
request, so a parent that never drains stderr fills the pipe within a few
hundred requests.
``flood``: answers, then writes 200 000 ``0xff`` bytes in the same call:
more than a 64 KiB pipe read, none of it UTF-8.
``batch K``: reads K requests before it answers any of them, so a parent
that waits for each answer before the next request never gets one.
``exit-after K``, ``garbage-at K``, ``stall-at K``: answer requests 0 to
K - 1 correctly, then exit, answer request K with ``oops``, or hang before
answering request K.
``early-close K``: reads one request, closes its stdin and writes K answers
(0.5, 1.5, ...) at once, however many requests the parent wrote.
"""

import os
import sys
import time


def main() -> int:
    mode = sys.argv[1]
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    held = []
    for row, line in enumerate(sys.stdin):
        value = sum(float(token) ** 2 for token in line.split())
        if mode == "early-close":
            # sys.stdin does not own fd 0, so closing it would leave the pipe
            # open; putting /dev/null on fd 0 closes the pipe's read end.
            devnull = os.open(os.devnull, os.O_RDONLY)
            os.dup2(devnull, 0)
            os.close(devnull)
            sys.stdout.write("".join(f"{j + 0.5!r}\n" for j in range(k)))
            sys.stdout.flush()
            return 0
        if row == k and mode == "exit-after":
            return 0
        if row == k and mode == "stall-at":
            time.sleep(60)
        if mode in ("twice", "slow-twice"):
            if mode == "slow-twice":
                time.sleep(0.05)
            sys.stdout.write(f"{value!r}\n{value!r}\n")
        elif mode == "flood":
            sys.stdout.buffer.write(f"{value!r}\n".encode() + b"\xff" * 200_000)
        elif mode == "chatty":
            sys.stderr.write(f"solver: request {line.strip()!r} -> {value!r} {'.' * 160}\n")
            sys.stdout.write(f"{value!r}\n")
        elif mode == "batch":
            held.append(value)
            if len(held) < k:
                continue
            sys.stdout.write("".join(f"{v!r}\n" for v in held))
            held.clear()
        elif mode in ("exit-after", "garbage-at", "stall-at"):
            sys.stdout.write("oops\n" if row == k and mode == "garbage-at" else f"{value!r}\n")
        else:
            sys.stdout.write("1.5")
            sys.stdout.flush()
            time.sleep(60)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
