"""Write perfbench/golden.json: the reference outputs the gate compares to.

    python3 perfbench/golden.py

It records, from the program in this checkout, the sha256 of verify's
stdout for every corpus a workload uses (at --jobs 1, after checking that
--jobs 2 prints the same bytes), a descriptor of each corpus, a digest
of the analyze report of every spec in every pool, and each pool's order
from the fastest to the slowest analyze call (best of three), which the
seeded draws are stratified by.  The reference was taken at the commit
that introduced the benchmark; a change that claims to keep the
program's outputs must not rewrite it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import run
import workloads


def main() -> int:
    cli = run.import_program()
    from milnor_lab import CorpusBounds, enumerate_corpus

    corpora = {workloads.SMOKE_CORPUS} | {w.verify_bounds for w in workloads.WORKLOADS.values()}
    verify = {}
    for bounds in sorted(corpora):
        argv = ["verify", "--max-branches", str(bounds[0]), "--max-mult", str(bounds[1]),
                "--max-delta", str(bounds[2]), "--max-int", str(bounds[3])]
        outs = []
        for jobs in (1, 2):
            code, text = run.call_cli(cli, argv + ["--jobs", str(jobs)])
            if code != 0:
                raise SystemExit(f"verify {bounds} --jobs {jobs} exited {code}")
            outs.append(text)
        if outs[0] != outs[1]:
            raise SystemExit(f"verify {bounds}: --jobs 1 and --jobs 2 differ")
        datums = [
            workloads.Datum(d.multiplicities, d.deltas, d.intersections)
            for d in enumerate_corpus(CorpusBounds(*bounds))
        ]
        verify[run.corpus_key(bounds)] = {
            "checked": json.loads(outs[0])["checked"],
            "stdout_sha256": hashlib.sha256(outs[0].encode()).hexdigest(),
            "descriptor": workloads.describe(datums),
        }
        print(f"verify {bounds}: {verify[run.corpus_key(bounds)]['checked']} datums",
              file=sys.stderr)

    pools = {}
    for name in workloads.POOLS:
        specs = workloads.pool(name)
        digests, latency = [], []
        for spec in specs:
            text = workloads.spec_text(spec)
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                code, out = run.call_cli(cli, ["analyze", text])
                best = min(best, time.perf_counter() - start)
            bad = workloads.check_report(spec, out, None) if code == 0 else [f"exit {code}"]
            if bad:
                raise SystemExit(f"analyze {text}: {bad}")
            digests.append(workloads.report_digest(out))
            latency.append(best)
        pools[name] = {
            "pool_sha": workloads.pool_sha(specs),
            "digests": digests,
            "order": sorted(range(len(specs)), key=lambda n: (latency[n], n)),
        }
        print(f"pool {name}: {len(specs)} specs", file=sys.stderr)

    with open(run.HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump({"verify": verify, "pools": pools}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
