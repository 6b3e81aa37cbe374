"""Digital signatures from phase-encoded coherent states, honest and not.

Alice distributes phase-encoded key states to Bob and Charlie, who split
them, store unambiguous per-mode sign measurements in classical memory, and
interfere their spare copies to check Alice sent both of them the same
thing.  Signing reveals a key; recipients accept when their stored
conclusive signs disagree with the revealed key on less than a threshold
fraction, with Bob's threshold stricter than Charlie's.
"""

from cohsim import QdsConfig, Seed, run_qds

print("honest run at the default working point (n = 512, mu = 9):")
transcript = run_qds(QdsConfig(), Seed(40))
for record in transcript.records:
    print(f"  {record.stage:>14}: {record.data}")
print(f"  accepted by both: {transcript.accepted_by_both}")
print()

print("forged reveal (20% of revealed key bits flipped, brighter pulses):")
tamper = QdsConfig(n=512, alpha_sq=36.0, tamper_model="flip_revealed", tamper_fraction=0.2)
rejections = 0
runs = 200
for k in range(runs):
    t = run_qds(tamper, Seed(41).child(k))
    rejections += int(not t.bob_verdict.accept)
print(f"  Bob rejected {rejections}/{runs} forged runs")
t = run_qds(tamper, Seed(41).child(0))
print(f"  sample verdict: mismatches = {t.bob_verdict.mismatches}"
      f" of {t.bob_verdict.tested} conclusive positions"
      f" (threshold fraction {t.bob_verdict.threshold})")
print()

print("repudiation attempt (Bob's and Charlie's states differ in 20% of modes):")
repud = QdsConfig(n=512, alpha_sq=36.0, tamper_model="repudiation", tamper_fraction=0.2)
aborts = sum(run_qds(repud, Seed(42).child(k)).aborted for k in range(runs))
print(f"  the comparison stage aborted {aborts}/{runs} runs")
t = run_qds(repud, Seed(42).child(0))
eq = [r.data for r in t.records if r.stage == "equality_test"]
for data in eq:
    print(f"  key bit {data['key_bit']}: {data['neq_clicks']} NEQ clicks"
          f" of {data['total_clicks']} total -> abort = {data['aborted']}")
