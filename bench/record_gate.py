"""Recompute the semantic gate in bench/record.json.

    python3 bench/record_gate.py

For every workload this runs the gate seed once and stores the summed
simulated cycles and the sha256 of the concatenated trace text, with the
generator parameters they came from.  Every benchmark run compares
against these values, so rewrite them only in a change that means to
alter simulated behaviour, and say why in CHANGES.md.
"""

import json

import run

GATE_SEED = 0


def main():
    run.load_empa()
    import workloads
    with open(run.RECORD) as fh:
        record = json.load(fh)
    record["params"] = workloads.PARAMS
    record["gate"] = {}
    for name in run.WORKLOADS:
        programs = workloads.generate(name, GATE_SEED)
        it = run.run_iteration(programs)
        if it.failed:
            raise SystemExit("%s: %d programs failed" % (name, it.failed))
        record["gate"][name] = {"seed": GATE_SEED, "programs": len(programs),
                                "sim_cycles": it.cycles,
                                "trace_sha256": it.trace_sha256}
        print(name, record["gate"][name])
    with open(run.RECORD, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
