package coll

// This file carries the analytic cost model of Section 5, Eq. (1) and
// Eq. (2), used both by the tuned selector's documentation and by the
// cost-model experiment that validates the crossover behaviour the
// paper derives:
//
//	T(Bin) = log2(P) * t(b)                          ... (1)
//	T(CC)  = (n + P - 2) * t(c),  c = b/n            ... (2)
//
// with the paper's observations: for small P and large b,
// T(CC) << T(Bin); for large P and small b, T(CC) >> T(Bin).

import "math"

// CostParams parameterizes t(b), the time to move-and-reduce a buffer
// of b bytes between two processes: t(b) = Alpha + b/Beta (the
// classic alpha-beta model).
type CostParams struct {
	// Alpha is the per-message latency in seconds.
	Alpha float64
	// Beta is the effective bandwidth in bytes/second (transfer and
	// reduction combined).
	Beta float64
}

// T returns t(b) in seconds for a b-byte step.
func (p CostParams) T(bytes float64) float64 {
	return p.Alpha + bytes/p.Beta
}

// BinomialTime evaluates Eq. (1): T(Bin) = ceil(log2 P) · t(b).
func BinomialTime(p CostParams, procs int, bytes float64) float64 {
	if procs <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(procs))) * p.T(bytes)
}

// ChainTime evaluates Eq. (2): T(CC) = (n + P − 2) · t(c), c = b/n.
func ChainTime(p CostParams, procs, chunks int, bytes float64) float64 {
	if procs <= 1 {
		return 0
	}
	if chunks < 1 {
		chunks = 1
	}
	return float64(chunks+procs-2) * p.T(bytes/float64(chunks))
}

// CrossoverProcs returns the process count beyond which the binomial
// tree beats the flat chain for good (the chain's (P−2)·t(c) term
// outgrows log2(P)·t(b)) — the boundary that motivates the two-level
// design. It scans downward so isolated small-P ties (a single send is
// trivially optimal at P=2) don't mask the chain-friendly region.
func CrossoverProcs(p CostParams, chunks int, bytes float64, maxProcs int) int {
	for procs := maxProcs; procs >= 2; procs-- {
		if ChainTime(p, procs, chunks, bytes) < BinomialTime(p, procs, bytes) {
			return procs + 1
		}
	}
	return 2
}
