"""Fixed reference program: how fast the machine runs Python at the moment.

The runner starts it as a child process after every iteration and scales its
timings by ``NOMINAL_S / median(reference wall time)``. The work is standard
library only and never imports tweetcountry, so no change to the program under
test can move it: JSON encoding and decoding, dict counting, string handling,
sorting and float math, like the program's own inner loops.
"""

import json
import math
import random
import sys

# Wall time this program takes, interpreter start included, at the speed the
# scaled timings are expressed in.
NOMINAL_S = 0.5

ROUNDS = 12
RECORDS = 2000


def work() -> int:
    rng = random.Random(20150810)
    words = [f"w{index}" for index in range(300)]
    checksum = 0
    for _ in range(ROUNDS):
        records = [
            {"id": str(i), "tokens": [words[int(rng.random() * 300)] for _ in range(6)],
             "x": rng.random(), "y": rng.random()}
            for i in range(RECORDS)
        ]
        decoded = [json.loads(line) for line in (json.dumps(r, sort_keys=True) for r in records)]
        counts: dict[str, dict[str, int]] = {}
        for record in decoded:
            row = counts.setdefault(record["tokens"][0], {})
            for token in record["tokens"]:
                row[token] = row.get(token, 0) + 1
        scores = sorted(
            (sum(math.log((count + 1.0) / (len(row) + 300.0)) for count in row.values()), key)
            for key, row in counts.items()
        )
        checksum += len(scores) + int(sum(math.sqrt(r["x"] * r["y"]) for r in decoded))
    return checksum


if __name__ == "__main__":
    sys.stdout.write(f"{work()}\n")
