"""A fixed pure-Python computation that the benchmark times next to each job.

It imports nothing from gretlite, so its time depends only on the machine
and the interpreter.  On a shared machine the speed of the CPU drifts by
tens of percent over minutes; a job's time divided by the time of this
computation, run just before it, keeps the work of the program and drops
most of that drift.  The work resembles a job's: tokenize text with a
regular expression, build objects keyed in dicts, and join them in sets.
"""

import re

TOKEN = re.compile(r'\s*(?:(\w+)|("[^"]*")|(.))')


class Item:
    __slots__ = ("key", "attrs", "links")

    def __init__(self, key):
        self.key = key
        self.attrs = {}
        self.links = []


def main():
    text = " ".join(f'v{i} : Node {{ name = "n{i % 20}" }};' for i in range(6000))
    for _ in range(4):
        tokens = [m.group(0).strip() for m in TOKEN.finditer(text)]
        items = {}
        for i, token in enumerate(tokens):
            item = items.get(token)
            if item is None:
                item = items[token] = Item(token)
            item.attrs[i % 7] = token
            item.links.append(i)
        seen = set()
        for item in items.values():
            for j in item.links[:50]:
                seen.add((item.key, j % 97))
        total = sum(len(item.links) for item in items.values() if item.key not in seen)
    if total != len(tokens):
        raise SystemExit(f"yardstick computed {total}, expected {len(tokens)}")


if __name__ == "__main__":
    main()
