"""Record the instance digests and widths that run.py checks against.

    python3 perfbench/record.py --seeds 1000,1,2

For each workload and seed it builds the pool and stores the sha256 of its
CSV bytes.  It solves each instance whose width has no record yet, through
the same path and checks as run.py, and stores the width's repr under the
instance's own seed, so the records outlive a change of pool size.  Record only from code whose answers are
trusted (the oracle tests pass): every later run on a recorded seed fails
if an instance or a width differs.
"""

import argparse
import json
import sys

from run import (RECORDS, WORKLOADS, instance_seeds, load_library, make_pool,
                 run_pass)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True,
                    help="comma-separated run seeds")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    lib = load_library()
    with open(RECORDS, encoding="utf-8") as fh:
        records = json.load(fh)
    for name in sorted(WORKLOADS):
        wl = WORKLOADS[name]
        line = None if wl.line is None else lib.cli.parse_line_spec(wl.line)
        record = records.setdefault(name, {"pools": {}, "widths": {}})
        for seed in seeds:
            pool, digest = make_pool(lib, wl, seed)
            todo = [(g, ps) for g, ps in zip(instance_seeds(wl, seed), pool)
                    if str(g) not in record["widths"]]
            answers, failures = {}, []
            run_pass(lib, wl, [ps for _, ps in todo], line, None, answers,
                     failures)
            if failures:
                sys.exit("record: %s seed %d: %s" % (name, seed,
                                                     "; ".join(failures)))
            for i, (g, _) in enumerate(todo):
                record["widths"][str(g)] = repr(answers[i].width)
            record["pools"][str(seed)] = digest
            print("%s seed %d: %d new widths" % (name, seed, len(todo)),
                  flush=True)
        with open(RECORDS, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
