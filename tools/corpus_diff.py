"""Compare two report corpora written by tools/report_corpus.py.

    python tools/corpus_diff.py OLD.json NEW.json

Prints each command whose exit code, stdout or stderr moved, flags the ones
whose exit code or verdicts moved, and gives the largest relative move of a
number where the text around the numbers stayed the same.  Always exits 0:
it reports, it does not judge.  Standard library only.
"""
from __future__ import annotations

import json
import re
import sys

NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
VERDICT = re.compile(r"\b(not_stationary|stationary|cq_failed|infeasible|error)\b")


def largest_move(old, new):
    """(relative move, old number, new number) of the number that moved most
    between two texts whose non-numeric parts agree; None if they disagree."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    best = (0.0, "", "")
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        x, y = float(a), float(b)
        if x != y:
            best = max(best, (abs(x - y) / max(abs(x), abs(y)), a, b))
    return best


def describe(old, new):
    """Lines saying how one command's report moved; empty if it did not."""
    lines = []
    if old["exit"] != new["exit"]:
        lines.append(f"  EXIT CODE {old['exit']} -> {new['exit']}")
    verdicts = [VERDICT.findall(old["stdout"]), VERDICT.findall(new["stdout"])]
    if verdicts[0] != verdicts[1]:
        lines.append(f"  VERDICT {' '.join(verdicts[0]) or '-'} -> {' '.join(verdicts[1]) or '-'}")
    for stream in ("stdout", "stderr"):
        if old[stream] == new[stream]:
            continue
        move = largest_move(old[stream], new[stream])
        if move is None:
            lines.append(f"  {stream}: text moved")
        else:
            lines.append(f"  {stream}: numbers only, largest relative move {move[0]:.3g} ({move[1]} -> {move[2]})")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (json.load(open(path, encoding="utf-8")) for path in argv)
    for key in sorted(old.keys() - new.keys()):
        print(f"only in OLD: {key}")
    for key in sorted(new.keys() - old.keys()):
        print(f"only in NEW: {key}")
    moved = flagged = 0
    largest = (0.0, "")
    common = [key for key in old if key in new]
    for key in common:
        lines = describe(old[key], new[key])
        if not lines:
            continue
        moved += 1
        flagged += any(line.startswith(("  EXIT", "  VERDICT")) for line in lines)
        print(key)
        print("\n".join(lines))
        for stream in ("stdout", "stderr"):
            move = largest_move(old[key][stream], new[key][stream])
            if move is not None:
                largest = max(largest, (move[0], f"{key} ({move[1]} -> {move[2]})"))
    print(f"{moved} of {len(common)} common commands moved, {flagged} with an exit code or verdict change")
    if largest[0] > 0.0:
        print(f"largest relative numeric move: {largest[0]:.3g} in {largest[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
