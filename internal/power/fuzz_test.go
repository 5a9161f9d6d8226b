package power

import (
	"fmt"
	"math"
	"testing"
	"time"

	"dcsprint/internal/breaker"
	"dcsprint/internal/units"
	"dcsprint/internal/ups"
)

// refTree is FuzzRunHeldState's reference: every group holds its own
// breaker and battery, and a step steps each group on its own, as Step
// steps a run.
type refTree struct {
	dc  breaker.Breaker
	brk []breaker.Breaker
	ups []ups.Battery
}

func newRefTree(t *Tree) *refTree {
	r := &refTree{dc: *t.DCBreaker}
	for g := 0; g < t.Groups(); g++ {
		r.brk = append(r.brk, t.Breaker(g))
		r.ups = append(r.ups, t.UPS(g))
	}
	return r
}

// step steps every group under f, whose entries it reads for every group.
func (r *refTree) step(f *Flow, dt time.Duration) error {
	var firstErr error
	var dcLoad units.Watts
	for g := range r.brk {
		shortfall := f.PDUUPS[g] - r.ups[g].Discharge(f.PDUUPS[g], dt.Seconds())
		if shortfall < 0 {
			shortfall = 0
		}
		load := f.PDULoad(g) + shortfall
		if err := r.brk[g].Step(load, dt.Seconds()); err != nil && firstErr == nil {
			firstErr = err
		}
		dcLoad += load
	}
	if err := r.dc.Step(dcLoad+f.Cooling, dt.Seconds()); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// fuzzBytes hands out a fuzz input a byte at a time, zeros once it ends.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzRunHeldState drives a tree of at most 8 groups, which holds each
// lockstep run's state once, and a reference that holds every group's
// state on its own through one random sequence: steps under random classes,
// some on runs split further than Partition returned; derates, breaker
// resets, restored states, failed and faded batteries, each on one group;
// and whole-tree resets. After every operation every group's breaker and
// battery, read one group at a time, and every aggregate
// reading must equal the reference's bit for bit. A flow's entries for the
// members of a run are NaN, so a step that reads one shows.
func FuzzRunHeldState(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 90, 1, 0})
	f.Add([]byte{7, 0, 0, 0, 100, 2, 0, 2, 3, 128, 0, 0, 0, 120, 3, 1, 1, 4, 2, 5, 0, 6, 6})
	f.Add([]byte{5, 1, 6, 9, 70, 1, 2, 4, 1, 3, 0, 1, 5, 250, 3, 1, 7, 0, 0, 255, 40, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 1 + in.next()%8
		cfg := testConfig()
		cfg.Servers = 200 * n
		tree, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTree(fresh)
		rated := ref.brk[0].Rated
		for op := 0; len(in) > 0; op++ {
			switch kind := in.next() % 8; kind {
			case 0, 1:
				classes := bitRuns(n, in.next(), nil)
				runs := tree.Partition(classes)
				if kind == 1 {
					runs = bitRuns(n, in.next(), runs)
				}
				flow := Flow{PDUServer: make([]units.Watts, n), PDUUPS: make([]units.Watts, n), Cooling: rated * units.Watts(in.next()) / 64, Runs: runs}
				every := Flow{PDUServer: make([]units.Watts, n), PDUUPS: make([]units.Watts, n), Cooling: flow.Cooling}
				for h := 0; h < n; h = runs[h] {
					server := rated * units.Watts(in.next()) / 50
					share := server * units.Watts(in.next()%5) / 4
					for m := h; m < runs[h]; m++ {
						flow.PDUServer[m], flow.PDUUPS[m] = units.Watts(math.NaN()), units.Watts(math.NaN())
						every.PDUServer[m], every.PDUUPS[m] = server, min(share, server)
					}
					flow.PDUServer[h], flow.PDUUPS[h] = server, min(share, server)
				}
				dt := []time.Duration{time.Second, 500 * time.Millisecond, 10 * time.Second}[in.next()%3]
				errTree, errRef := tree.Step(&flow, dt.Seconds()), ref.step(&every, dt)
				if fmt.Sprint(errTree) != fmt.Sprint(errRef) {
					t.Fatalf("op %d: step errors %v, reference %v", op, errTree, errRef)
				}
			case 2:
				g, frac := in.next()%n, 0.5+float64(in.next())/512
				b, _ := tree.Own(g)
				b.Derate(frac)
				ref.brk[g].Derate(frac)
			case 3:
				g := in.next() % n
				b, _ := tree.Own(g)
				b.Reset()
				ref.brk[g].Reset()
			case 4:
				g, k := in.next()%n, in.next()%n
				b, u := tree.Own(g)
				if in.next()%2 == 0 {
					s := ref.brk[k].State()
					if fmt.Sprint(b.SetState(s)) != fmt.Sprint(ref.brk[g].SetState(s)) {
						t.Fatalf("op %d: breaker SetState errors differ", op)
					}
				} else {
					s := ref.ups[k].State()
					if fmt.Sprint(u.SetState(s)) != fmt.Sprint(ref.ups[g].SetState(s)) {
						t.Fatalf("op %d: battery SetState errors differ", op)
					}
				}
			case 5:
				g := in.next() % n
				_, u := tree.Own(g)
				u.Fail()
				ref.ups[g].Fail()
			case 6:
				g, frac := in.next()%n, float64(in.next())/255
				_, u := tree.Own(g)
				u.Fade(frac)
				ref.ups[g].Fade(frac)
			case 7:
				tree.Reset()
				ref.dc.Reset()
				for g := range ref.brk {
					ref.brk[g].Reset()
				}
			}
			checkAgainstRef(t, op, tree, ref)
		}
	})
}

// bitRuns partitions n groups into runs with a seam before each group g
// whose bit g of bits is set; within, when not nil, adds its seams.
func bitRuns(n, bits int, within []int) []int {
	runs := make([]int, n)
	head := 0
	for g := 1; g < n; g++ {
		if bits>>g&1 == 1 || (within != nil && isSeam(within, g)) {
			runs[head], head = g, g
		}
	}
	runs[head] = n
	return runs
}

// isSeam reports whether a run of runs starts at group g.
func isSeam(runs []int, g int) bool {
	h := 0
	for h < g {
		h = runs[h]
	}
	return h == g
}

// checkAgainstRef requires tree to read as ref does, group by group and in
// aggregate.
func checkAgainstRef(t *testing.T, op int, tree *Tree, ref *refTree) {
	t.Helper()
	n := tree.Groups()
	var stored, total units.Joules
	var avail units.Joules
	tripped, stress := ref.dc.Tripped(), ref.dc.Accumulator()
	for g := 0; g < n; g++ {
		b, u := tree.Breaker(g), tree.UPS(g)
		rb, ru := &ref.brk[g], &ref.ups[g]
		if b.State() != rb.State() || u.State() != ru.State() || b.Name != rb.Name {
			t.Fatalf("op %d group %d: %s %+v %+v, reference %s %+v %+v", op, g, b.Name, b.State(), u.State(), rb.Name, rb.State(), ru.State())
		}
		stored += ru.Stored()
		total += ru.TotalEnergy()
		avail += ru.Available()
		tripped = tripped || rb.Tripped()
		stress = max(stress, rb.Accumulator())
	}
	if tree.DCBreaker.State() != ref.dc.State() {
		t.Fatalf("op %d: DC breaker %+v, reference %+v", op, tree.DCBreaker.State(), ref.dc.State())
	}
	if got := tree.StoredUPSEnergy(); got != avail {
		t.Fatalf("op %d: stored energy %v, reference %v", op, got, avail)
	}
	soc := 0.0
	if total > 0 {
		soc = float64(stored) / float64(total)
	}
	if got := tree.UPSSoC(); got != soc {
		t.Fatalf("op %d: state of charge %v, reference %v", op, got, soc)
	}
	if got := tree.MaxStress(); got != stress {
		t.Fatalf("op %d: stress %v, reference %v", op, got, stress)
	}
	if got := tree.Tripped(); got != tripped {
		t.Fatalf("op %d: tripped %v, reference %v", op, got, tripped)
	}
}
