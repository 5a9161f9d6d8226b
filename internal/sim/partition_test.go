package sim

import (
	"fmt"
	"testing"
	"time"

	"dcsprint/internal/power"
	"dcsprint/internal/workload"
)

// fullPartition partitions the tree's PDU groups the way power.Tree.Partition
// did before it carried the last tick's runs: it compares every pair of
// neighbouring groups in one class (classes partitions the groups as runs
// do).
func fullPartition(tree *power.Tree, classes []int) []int {
	n := tree.Groups()
	runs := make([]int, n)
	head, class := 0, 0
	for g := 1; g < n; g++ {
		split := g == classes[class]
		if split {
			class = g
		}
		p, prev := tree.Breaker(g), tree.Breaker(g-1)
		u, uprev := tree.UPS(g), tree.UPS(g-1)
		if split || !p.Lockstep(&prev) || !u.Lockstep(&uprev) {
			runs[head] = g
			head = g
		}
	}
	runs[head] = n
	return runs
}

// checkPartition requires the tree's partition, which compares groups only
// where the last tick's runs end, to equal the full comparison. One class
// for every group leaves each split to the breaker and battery comparison.
func checkPartition(t *testing.T, tree *power.Tree, format string, args ...any) {
	t.Helper()
	one := []int{tree.Groups()}
	want := fullPartition(tree, one)
	got := tree.Partition(one)
	for g := 0; g < len(want); g = want[g] {
		if got[g] != want[g] {
			t.Fatalf("%s: partition %v, full comparison %v", fmt.Sprintf(format, args...), runsList(got), runsList(want))
		}
	}
}

// runsList lists a partition's runs as [first, end) pairs.
func runsList(runs []int) [][2]int {
	var out [][2]int
	for g := 0; g < len(runs); g = runs[g] {
		out = append(out, [2]int{g, runs[g]})
	}
	return out
}

// TestPartitionMatchesFullComparison steps the 160 digest runs, and each
// fault-free one again from a snapshot restored at tick 900, and after
// every tick requires the partition the next tick starts from to equal a
// comparison of every neighbouring pair of groups.
func TestPartitionMatchesFullComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("160 reference runs")
	}
	for _, row := range digestRows {
		for seed := int64(1); seed <= 20; seed++ {
			tr, err := workload.SyntheticYahoo(seed, 3.2, 15*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			sc := row.build(seed, tr)
			eng, err := New(sc)
			if err != nil {
				t.Fatal(err)
			}
			var snap []byte
			for i, d := range tr.Samples {
				if _, err := eng.Step(d); err != nil {
					t.Fatal(err)
				}
				checkPartition(t, eng.p.tree, "%s/seed%02d tick %d", row.name, seed, i)
				if i == 900 && sc.Faults == nil {
					if snap, err = eng.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if snap == nil {
				continue
			}
			restored, err := Restore(sc, snap)
			if err != nil {
				t.Fatal(err)
			}
			checkPartition(t, restored.p.tree, "%s/seed%02d restored", row.name, seed)
			for i := restored.Tick(); i < tr.Len(); i++ {
				if _, err := restored.Step(tr.Samples[i]); err != nil {
					t.Fatal(err)
				}
				checkPartition(t, restored.p.tree, "%s/seed%02d restored tick %d", row.name, seed, i)
			}
		}
	}
}
