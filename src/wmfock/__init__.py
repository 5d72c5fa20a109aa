"""Verification laboratory for the weakly monotone C*-algebra on n generators.

Exact truncated-Fock matrix models of the generators, a normal-form engine
for words in them, the diagonal subalgebra with its conditional expectation
and rank-one projections, the Gelfand-spectrum point set in the unit cube,
and gauge-covariance checks over sampled roots of unity -- every symbolic
rule validated against a brute-force matrix oracle, all arithmetic exact.
"""
