"""The host-speed reference that perfbench/run.py runs between invocations.

    python3 perfbench/reference.py

A fresh interpreter that imports numpy and does a fixed mix of the kinds of
work the workloads do: dict and tuple churn, string keys, sorting, small
integer arithmetic and int64 array passes.  It does not import fuglede, so
no change to the sources under `src/` can move its time.  It prints a
checksum, which run.py compares with `CHECKSUM`.
"""

CHECKSUM = 2366877


def main() -> int:
    import numpy as np

    table = {}
    for i in range(150_000):
        table[(i * 7919) % 1_000_003] = (i, str(i))
    rows = sorted(table.items(), key=lambda kv: kv[1][1])
    total = sum(len(text) * (key % 7) for key, (_, text) in rows)
    values = np.arange(2_000_000, dtype=np.int64)
    for shift in range(5):
        total += int(((values * 7919 + shift) % 1_000_003).sum() % 97)
    return total


if __name__ == "__main__":
    print(main())
