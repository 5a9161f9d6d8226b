package sim

import "fmt"

// Batch steps many sessions per scheduling quantum instead of one engine per
// goroutine: the engines live in a slot table and StepAll advances every
// live session one tick in a single loop. A reader that wants a session's
// plant state asks its slot's engine for Engine.Plant between sweeps.
//
// A Batch is not safe for concurrent use; its caller confines it to one
// goroutine. internal/service steps each session on its caller's goroutine
// and does not use it; the benchmark module's ladder measures it as a rung.
// StepAll funnels into the same step path as Engine.Step, so a batched
// session is bit-identical to an independently stepped engine.

// Sample is one session's demand input for a batched step.
type Sample struct {
	// Demand is the normalized throughput demand for this tick.
	Demand float64
	// Skip leaves the session un-stepped this quantum — for sessions whose
	// client is between requests in a lockstep protocol.
	Skip bool
}

// BatchOptions sizes a Batch. The zero value is valid.
type BatchOptions struct {
	// Capacity pre-sizes the slot table; the batch grows past it on demand.
	// Zero starts empty.
	Capacity int
}

// Batch owns N engines in a slot table.
type Batch struct {
	engines []*Engine
	free    []int // freed slots, reused LIFO
	live    int

	decs []TickDecision // reused StepAll result buffer
}

// NewBatch returns an empty batch.
func NewBatch(opts BatchOptions) *Batch {
	b := &Batch{}
	if opts.Capacity > 0 {
		b.engines = make([]*Engine, 0, opts.Capacity)
	}
	return b
}

// Len returns the number of live sessions.
func (b *Batch) Len() int { return b.live }

// Slots returns the slot-table size (live sessions plus free slots); valid
// slot indices are [0, Slots()).
func (b *Batch) Slots() int { return len(b.engines) }

// Engine returns the engine in a slot, or nil for a free or out-of-range
// slot. The engine remains owned by the batch: callers may inspect it but
// must not Step or Finish it directly while it occupies a slot.
func (b *Batch) Engine(slot int) *Engine {
	if slot < 0 || slot >= len(b.engines) {
		return nil
	}
	return b.engines[slot]
}

// Add builds an engine for the scenario and installs it in a slot.
func (b *Batch) Add(sc Scenario) (int, error) {
	eng, err := New(sc)
	if err != nil {
		return -1, err
	}
	return b.AddEngine(eng), nil
}

// AddEngine adopts an existing engine (restored, observed, or freshly
// built) into a slot, reusing freed slots before growing the table.
func (b *Batch) AddEngine(e *Engine) int {
	var slot int
	if n := len(b.free); n > 0 {
		slot = b.free[n-1]
		b.free = b.free[:n-1]
		b.engines[slot] = e
	} else {
		slot = len(b.engines)
		b.engines = append(b.engines, e)
	}
	b.live++
	return slot
}

// Remove releases a slot and returns its engine (nil if the slot was
// already free) — the handoff point for Finish, which seals the engine
// outside the batch.
func (b *Batch) Remove(slot int) *Engine {
	e := b.Engine(slot)
	if e == nil {
		return nil
	}
	b.engines[slot] = nil
	b.free = append(b.free, slot)
	b.live--
	return e
}

// StepAll advances every live, non-skipped session one tick in slot order —
// the batched lockstep quantum. demands is indexed by slot and must cover
// Slots() entries; free slots ignore their entry. The returned decisions
// slice is indexed by slot, zero-valued for skipped and free slots, and
// reused by the next StepAll — copy anything that must outlive the quantum.
//
// Sessions erroring mid-quantum (a finished engine) do not stop the sweep;
// the first error is returned after every other session has stepped.
func (b *Batch) StepAll(demands []Sample) ([]TickDecision, error) {
	if len(demands) < len(b.engines) {
		return nil, fmt.Errorf("sim: StepAll got %d demands for %d slots", len(demands), len(b.engines))
	}
	if cap(b.decs) < len(b.engines) {
		b.decs = make([]TickDecision, len(b.engines))
	}
	b.decs = b.decs[:len(b.engines)]
	var firstErr error
	for slot, e := range b.engines {
		if e == nil || demands[slot].Skip {
			b.decs[slot] = TickDecision{}
			continue
		}
		if err := e.stepInto(demands[slot].Demand, &b.decs[slot]); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("sim: batch slot %d: %w", slot, err)
		}
	}
	return b.decs, firstErr
}
