"""Import cohsim and make a workload's set-up calls, drawing no trial, then exit.

    python3 perfbench/setup_probe.py SPEC_JSON

The benchmark times this whole process as the workload's ``setup_s``.  The
calls mirror what the CLI does before its first trial: for hidden matching
the matching, the sender state and the beam-splitter network; for qds the
config; for thm-check nothing beyond the import.
"""

import json
import math
import sys


def main() -> None:
    spec = json.loads(sys.argv[1])
    import cohsim

    if spec["command"] == "hidden-matching":
        n = spec["n"]
        rng = cohsim.Seed(spec["seed"]).rng()
        if spec["matching"] == "random":
            matching = cohsim.random_matching(n, rng)
        else:
            matching = cohsim.Matching.parse(spec["matching"])
        bits = rng.integers(0, 2, n).astype("uint8") if spec["x"] == "random" else spec["x"]
        cohsim.phase_encoded_state(bits, math.sqrt(spec["alpha_sq"]))
        cohsim.bob_unitary(matching)
    elif spec["command"] == "qds":
        cohsim.QdsConfig.from_dict(spec["config"])


if __name__ == "__main__":
    main()
