"""Write golden.json: the recorded seed's output digests for every workload.

Usage: python3 perfbench/record.py

Runs each workload's operation list once at ``workloads.RECORDED_SEED``,
refuses to record if any check fails, and stores the SHA-256 of every
output's canonical text plus the digest of the first v1 sample chunk.  Run it
only when outputs are meant to change, and say so in the change.
"""

import json
import sys
import tempfile

from run import HERE, SCRATCH, import_chaoskit, pin_threads


def main() -> int:
    pin_threads()
    ck = import_chaoskit()
    import workloads

    SCRATCH.mkdir(exist_ok=True)
    recorded = {
        "recorded_seed": workloads.RECORDED_SEED,
        "generator_id": ck.GENERATOR_ID,
        "first_chunk_sha256": workloads.first_chunk_digest(),
        "ops": {},
    }
    with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
        for name in workloads.WORKLOADS:
            digests = {}
            for op in workloads.build(name, workloads.RECORDED_SEED, scratch):
                result = op.call()
                problems = op.check(result)
                if problems:
                    print(f"{op.label}: {problems[0]}", file=sys.stderr)
                    return 1
                digests[op.label] = workloads.digest(op.canon(result))
            recorded["ops"][name] = digests
            print(f"{name}: {len(digests)} operations recorded")
    SCRATCH.rmdir()
    (HERE / "golden.json").write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
