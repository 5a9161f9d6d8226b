package core

import (
	"testing"
	"time"

	"dcsprint/internal/faults"
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

// outsideChanges change PDU breakers and batteries the way no tick does,
// one minute into a burst.
var outsideChanges = []struct {
	name   string
	change func(tree *power.Tree)
}{
	{name: "none"},
	{name: "tree-reset", change: (*power.Tree).Reset},
	{name: "breaker-reset", change: func(tree *power.Tree) {
		b, _ := tree.Own(6)
		b.Reset()
	}},
	{name: "breaker-set-state", change: func(tree *power.Tree) {
		b, _ := tree.Own(2)
		s := b.State()
		s.Acc /= 2
		if err := b.SetState(s); err != nil {
			panic(err)
		}
	}},
	{name: "battery-set-state", change: func(tree *power.Tree) {
		_, u := tree.Own(7)
		s := u.State()
		s.Stored /= 2
		if err := u.SetState(s); err != nil {
			panic(err)
		}
	}},
}

// TestPartitionMatchesFullComparison runs every runSplitRows scenario as
// the golden does, and again under each of outsideChanges. Before every
// tick, after the row's faults, the partition the tick starts from must
// equal a comparison of every neighbouring pair of groups, both under the
// controller's classes and under one class for all groups, which leaves
// every split to the breakers and batteries. Every row but the oneRun row
// must split the groups on some tick, so the comparison covers seams.
func TestPartitionMatchesFullComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("150 reference runs")
	}
	for _, row := range runSplitRows {
		for _, oc := range outsideChanges {
			for seed := int64(1); seed <= 5; seed++ {
				tr, err := workload.SyntheticYahoo(seed, 3.2, 15*time.Minute)
				if err != nil {
					t.Fatal(err)
				}
				burst := -1
				for i, d := range tr.Samples {
					if d > 1 {
						burst = i
						break
					}
				}
				opts := row.opts
				opts.servers = 2000
				f := newFacility(t, opts)
				if row.sensed {
					f.ctl.AttachSensors(faults.NewSensorBus(f.tree, f.room, f.tank))
				}
				n := f.tree.Groups()
				one := []int{n}
				split := false
				for i, d := range tr.Samples {
					if row.mutate != nil {
						row.mutate(f, i, burst)
					}
					if oc.change != nil && i == burst+60 {
						oc.change(f.tree)
					}
					for _, classes := range [][]int{f.ctl.buf.ctx.classes, one} {
						want := fullPartition(f.tree, classes)
						got := f.tree.Partition(classes)
						split = split || got[0] != n
						for g := 0; g < n; g = want[g] {
							if got[g] != want[g] {
								t.Fatalf("%s/%s seed %d tick %d classes %v: partition %v, full comparison %v",
									row.name, oc.name, seed, i, runsOf(classes), runsOf(got), runsOf(want))
							}
						}
					}
					f.ctl.Tick(d, tr.Step)
				}
				if !row.oneRun && !split {
					t.Fatalf("%s/%s seed %d: no tick split the groups", row.name, oc.name, seed)
				}
			}
		}
	}
}

// runsOf lists a partition's runs as [first, end) pairs.
func runsOf(runs []int) [][2]int {
	var out [][2]int
	for g := 0; g < len(runs); g = runs[g] {
		out = append(out, [2]int{g, runs[g]})
	}
	return out
}

// runHead returns the first group of the run in runs that holds group g:
// the group whose entries of the planning buffers speak for g.
func runHead(runs []int, g int) int {
	h := 0
	for runs[h] <= g {
		h = runs[h]
	}
	return h
}
