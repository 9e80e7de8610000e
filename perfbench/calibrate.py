"""Fixed reference work for normalizing wall times to machine speed.

The benchmark runs this script as a child process after every command.
It never imports scimap, so no change to the program can change its
time; only the machine's momentary speed can.  It does the kind of work
the program's commands do: start the interpreter and churn through
dicts, strings, sorts and small objects.
"""
import random

rng = random.Random(1)
words = ["".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randint(3, 9)))
         for _ in range(6000)]
counts: dict = {}
for word in words:
    counts[word] = counts.get(word, 0) + 1
ranked = sorted(((w, rng.random()) for w in words), key=lambda p: (p[1], p[0]))
rows = [{"id": i, "word": w.upper(), "keys": [len(w)] * 3}
        for i, (w, _) in enumerate(ranked)]
rows.sort(key=lambda row: row["word"])
print(len(counts) + len(rows))
