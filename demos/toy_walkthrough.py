#!/usr/bin/env python3
"""Every step of the protocol on a deployment small enough to check by hand.

The toy world: p = 11, q = 13, so n = 143 and phi = 120; g = 15; the field
prime is m = 149 (the first prime above n). Alice and Bob pick shares 5 and
7, the dealer shares the secret 100 with the single qualified set {A, B}.

Every random draw is pinned by a script, so the run always lands on these
values.

Run with:  PYTHONPATH=src python3 demos/toy_walkthrough.py
"""

from msss import (
    Board,
    contribute,
    keygen,
    reconstruct,
    setup,
    share_secret,
    validate_minimal,
    verify_contribution,
    verify_secret,
)


class Script:
    """Answers each draw with the next listed value."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, *args):
        return self.values.pop(0)

    def getrandbits(self, k):
        return self.values.pop(0)


print("== initialization ==")
# the low bits 3 and 5 make the 4-bit primes 11 and 13; then g = 15
params, state = setup(bits_per_prime=4, rng=Script([3, 5, 15]))
print(f"published params: g = {params.g}, n = {params.n}, m = {params.m}, "
      f"mask width = {params.width} byte")

key_a = keygen(params, "A", Script([5]))
key_b = keygen(params, "B", Script([7]))
board = Board(params, {"A": key_a.ps, "B": key_b.ps})
print(f"A picks s = {key_a.s}, enrolls ps = g^s = {key_a.ps}")
print(f"B picks s = {key_b.s}, enrolls ps = g^s = {key_b.ps}")

print("\n== sharing ==")
secret = 100
structure = validate_minimal([{"A", "B"}])
# h0 = 103, so s0 = 103^-1 mod 120 = 7; slope 5, d = 7
package = share_secret(state, board, secret, structure, Script([103, 5, 7]))
entry = package.entry(1)
print(f"dealer publishes ps0 = {package.ps0}, h0 = {package.h0}, f(1) = {package.f1}")
print(f"for the set {sorted(entry.members)}: d = {entry.d}, "
      f"masked f(d) = {entry.masked}, tag = {entry.tag.hex()[:16]}...")

print("\n== reconstruction ==")
c_a = contribute(params, key_a, package, 1)
c_b = contribute(params, key_b, package, 1)
print(f"A releases x = ps0^s = {c_a.x}; check x^h0 = ps_A: "
      f"{verify_contribution(params, package, key_a.ps, c_a)}")
print(f"B releases x = ps0^s = {c_b.x}; check x^h0 = ps_B: "
      f"{verify_contribution(params, package, key_b.ps, c_b)}")

recovered = reconstruct(params, package, 1, [c_a, c_b], board.roster)
print(f"unmask H with both x values -> f({entry.d}) = {entry.masked ^ c_a.x ^ c_b.x}")
print(f"interpolate through (1, {package.f1}) and ({entry.d}, 135) -> secret {recovered}")
print(f"tag check: {verify_secret(package, 1, recovered, params.width)}")

assert recovered == secret
print("\nrecovered the shared secret, verified against the public tag")
