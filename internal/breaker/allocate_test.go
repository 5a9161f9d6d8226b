package breaker

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dcsprint/internal/units"
)

// allocate runs AllocateInto on fresh buffers with every child its own run.
func allocate(budget units.Watts, demands []units.Watts) []units.Watts {
	runs := make([]int, len(demands))
	for i := range runs {
		runs[i] = i + 1
	}
	return AllocateInto(make([]units.Watts, len(demands)), make([]int, 0, len(demands)), runs, budget, demands)
}

func TestAllocateMeetsDemandWhenBudgetSuffices(t *testing.T) {
	got := allocate(100, []units.Watts{20, 30, 10})
	want := []units.Watts{20, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("allocate = %v, want %v", got, want)
		}
	}
}

func TestAllocateEvenSplitWhenScarce(t *testing.T) {
	got := allocate(90, []units.Watts{100, 100, 100})
	for i, g := range got {
		if math.Abs(float64(g-30)) > 1e-9 {
			t.Fatalf("child %d got %v, want 30", i, g)
		}
	}
}

func TestAllocateWaterFilling(t *testing.T) {
	// Budget 100 over demands (10, 80, 80): the small demand is satisfied,
	// and the surplus splits evenly between the large ones: 10, 45, 45.
	got := allocate(100, []units.Watts{10, 80, 80})
	want := []units.Watts{10, 45, 45}
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-9 {
			t.Fatalf("allocate = %v, want %v", got, want)
		}
	}
}

func TestAllocateCascadedSurplus(t *testing.T) {
	// Budget 100 over (10, 20, 100): first round share 33.3 satisfies the
	// first two; the third absorbs the remaining 70.
	got := allocate(100, []units.Watts{10, 20, 100})
	want := []units.Watts{10, 20, 70}
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-9 {
			t.Fatalf("allocate = %v, want %v", got, want)
		}
	}
}

func TestAllocateEdgeCases(t *testing.T) {
	if got := allocate(0, []units.Watts{5}); got[0] != 0 {
		t.Error("zero budget must allocate nothing")
	}
	if got := allocate(-10, []units.Watts{5}); got[0] != 0 {
		t.Error("negative budget must allocate nothing")
	}
	if got := allocate(10, nil); len(got) != 0 {
		t.Error("nil demands must return empty")
	}
	got := allocate(10, []units.Watts{-5, 8})
	if got[0] != 0 || got[1] != 8 {
		t.Fatalf("negative demand handling: got %v", got)
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]units.Watts{1, 2, 3.5}); got != 6.5 {
		t.Fatalf("Sum = %v, want 6.5", got)
	}
	if got := Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %v, want 0", got)
	}
}

// Properties: allocations are capped by demand, non-negative, and their sum
// never exceeds min(budget, total demand); when budget >= total demand every
// demand is met exactly.
func TestAllocateInvariantsProperty(t *testing.T) {
	f := func(budgetRaw uint32, demandRaw []uint16) bool {
		budget := units.Watts(budgetRaw % 100000)
		demands := make([]units.Watts, len(demandRaw))
		var total units.Watts
		for i, d := range demandRaw {
			demands[i] = units.Watts(d)
			total += units.Watts(d)
		}
		got := allocate(budget, demands)
		if len(got) != len(demands) {
			return false
		}
		var sum units.Watts
		for i, g := range got {
			if g < 0 || g > demands[i]+1e-9 {
				return false
			}
			sum += g
		}
		if sum > budget+1e-6 || sum > total+1e-6 {
			return false
		}
		if budget >= total {
			for i, g := range got {
				if d := demands[i]; d > 0 && math.Abs(float64(g-d)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// referenceAllocate is the water-fill child by child, each child its own
// run, giving up every grant from the remaining budget as it is made.
func referenceAllocate(budget units.Watts, demands []units.Watts) []units.Watts {
	out := make([]units.Watts, len(demands))
	if budget <= 0 {
		return out
	}
	remaining := budget
	var unmet []int
	for i, d := range demands {
		if d > 0 {
			unmet = append(unmet, i)
		}
	}
	for len(unmet) > 0 && remaining > 0 {
		share := remaining / units.Watts(len(unmet))
		if share <= 0 {
			break
		}
		var next []int
		for _, i := range unmet {
			if need := demands[i] - out[i]; need <= share {
				out[i] += need
				remaining -= need
			} else {
				next = append(next, i)
			}
		}
		if len(next) == len(unmet) {
			for _, i := range next {
				out[i] += share
				remaining -= share
			}
			break
		}
		unmet = next
	}
	return out
}

// TestAllocateRunsMatchesEveryChild allocates random budgets over random
// runs of equal demands, once a run at a time and once child by child by
// referenceAllocate, and requires each run's allocation to equal each of
// its members' bit for bit.
func TestAllocateRunsMatchesEveryChild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		demands, runs := make([]units.Watts, n), make([]int, n)
		for g := 0; g < n; {
			end := g + 1 + rng.Intn(n-g)
			d := units.Watts(rng.Float64() * 1000)
			if rng.Intn(5) == 0 {
				d = 0
			}
			for m := g; m < end; m++ {
				demands[m] = d
			}
			runs[g] = end
			g = end
		}
		budget := units.Watts(rng.Float64() * 1000 * float64(n))
		got := AllocateInto(make([]units.Watts, n), make([]int, 0, n), runs, budget, demands)
		want := referenceAllocate(budget, demands)
		for g := 0; g < n; g = runs[g] {
			for i := g; i < runs[g]; i++ {
				if got[g] != want[i] {
					t.Fatalf("trial %d: budget %v demands %v runs %v: child %d gets %v by runs, %v child by child",
						trial, budget, demands, runs, i, got[g], want[i])
				}
			}
		}
	}
}
