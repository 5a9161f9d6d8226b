package breaker

import (
	"dcsprint/internal/units"
)

// AllocateInto divides a parent budget among children with the given
// demands using water-filling: no child receives more than its demand, and
// surplus left by under-demanding children is redistributed to the others
// until either every demand is met or the budget is exhausted.
//
// This implements the paper's PDU-coordination rule (§V-B): the sum of the
// child allocations never exceeds the parent budget, so overloading
// PDU-level breakers can never trip the substation-level breaker beyond its
// managed bound.
//
// The buffers are the caller's, for tick loops that must not allocate: out
// receives the per-child allocation, parallel to demands (len(out) must
// equal len(demands)), and idx is scratch for the unmet-child worklist
// (pass capacity >= len(demands) to stay allocation-free). Returns out.
// Negative demands are treated as zero.
//
// runs partitions the children into runs of equal demand: runs[i] is one
// past the last child of the run that starts at child i. Only a run's first
// demand is read and only its first entry of out written: equal demands
// always receive equal shares, so each run is allocated once, as one child
// counted once per member. The budget still gives up each member's share
// in child order, so the result is bit for bit what a walk over every
// child, each its own run, computes.
func AllocateInto(out []units.Watts, idx []int, runs []int, budget units.Watts, demands []units.Watts) []units.Watts {
	for i := 0; i < len(out); i = runs[i] {
		out[i] = 0
	}
	if budget <= 0 || len(demands) == 0 {
		return out
	}
	remaining := budget
	unmet, members := idx[:0], 0
	for i := 0; i < len(demands); i = runs[i] {
		if demands[i] > 0 {
			unmet = append(unmet, i)
			members += runs[i] - i
		}
	}
	// Iterate: grant each unmet child an equal share, capped by its demand.
	// Children that hit their cap drop out; their leftover share is
	// redistributed next round. Terminates because each round either
	// satisfies at least one child or splits the remainder exactly. An
	// unmet child has been granted nothing yet, so its need is its demand.
	for len(unmet) > 0 && remaining > 0 {
		share := remaining / units.Watts(members)
		if share <= 0 {
			break
		}
		capped := 0
		for _, i := range unmet {
			if demands[i] <= share {
				capped++
			}
		}
		if capped == 0 || capped == len(unmet) {
			// No round follows, so what the grants leave is never read:
			// every child takes the share, or every child its demand.
			for _, i := range unmet {
				out[i] = min(demands[i], share)
			}
			break
		}
		next := unmet[:0]
		for _, i := range unmet {
			if need := demands[i]; need <= share {
				out[i] = need
				for m := runs[i] - i; m > 0; m-- {
					remaining -= need
				}
				members -= runs[i] - i
			} else {
				next = append(next, i)
			}
		}
		unmet = next
	}
	return out
}

// Sum returns the total of a power slice.
func Sum(ws []units.Watts) units.Watts {
	var total units.Watts
	for _, w := range ws {
		total += w
	}
	return total
}
