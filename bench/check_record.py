"""Validate a BENCH_kernels.json record written by bench/main.exe.

Usage: python3 bench/check_record.py RECORD [NAME ...]

Checks the schema: `commit` and `cores` are set, every entry has
`layer`, `name`, `unit`, `value` and `n`, and `(name, unit)` is unique.
Then checks the entries the perf smoke relies on: the search, re-eval
and Dist kernels are timed, the deterministic 256-step anneal is at
least 80% incremental with a non-empty frontier, and the re-eval ns,
minor words and speedup over a full eval are recorded. Each extra NAME
must appear as an entry too (in any unit).
"""

import json
import sys

path, extra = sys.argv[1], sys.argv[2:]
d = json.load(open(path))
assert d.get("schema") == "bench-kernels/1", d.get("schema")
assert isinstance(d.get("commit"), str) and d["commit"], "commit not set"
assert isinstance(d.get("cores"), int) and d["cores"] >= 1, "cores not set"
assert d["entries"], "no entries"

values = {}
for e in d["entries"]:
    missing = [k for k in ("layer", "name", "unit", "value", "n") if k not in e]
    assert not missing, f"entry {e} lacks {missing}"
    assert e["name"].startswith(e["layer"]), f"layer is not the name prefix: {e}"
    assert isinstance(e["n"], int) and e["n"] >= 1, f"bad sample count: {e}"
    key = (e["name"], e["unit"])
    assert key not in values, f"duplicate entry {key}"
    values[key] = e["value"]


def value(name, unit):
    v = values.get((name, unit))
    assert v is not None, f"missing entry {name} [{unit}]"
    return v


for name in ("search:anneal-32step", "search:probe-swap", "engine:reeval-1move",
             "dist:add-full-64x64"):
    value(name, "ns/run")
incremental = value("search:incremental-frac", "frac")
assert incremental >= 0.8, incremental
frontier = value("search:frontier-size", "count")
assert frontier >= 1, frontier
reeval_ns = value("engine:reeval-1move", "ns/run")
reeval_words = value("engine:reeval-1move", "minor-words/run")
speedup = value("engine:reeval-1move-speedup", "x")
names = {name for name, _ in values}
for name in extra:
    assert name in names, f"missing entry {name}"

print(f"{path}: {len(values)} entries on {d['cores']} cores at {d['commit']}; "
      f"{100 * incremental:.1f}% incremental, frontier {frontier:.0f}, "
      f"{value('search:moves-per-sec', 'moves/s'):.1f} moves/sec; "
      f"1-move re-eval {reeval_ns / 1e3:.0f} us, {reeval_words:.0f} minor words, "
      f"{speedup:.1f}x a full eval")
