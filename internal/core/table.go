package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// BoundTable is the Oracle-built lookup table the Prediction strategy uses:
// for a grid of burst durations and burst degrees it lists the optimal
// constant sprinting-degree upper bound (§V-A: "We can also use the Oracle
// strategy to make an upper bound table, listing the optimal upper bounds
// for different burst durations and maximum burst degree").
type BoundTable struct {
	durations []time.Duration // ascending
	degrees   []float64       // ascending
	bounds    [][]float64     // [duration][degree]
}

// NewBoundTable builds a table from ascending axes and a bounds grid with
// one row per duration and one column per degree.
func NewBoundTable(durations []time.Duration, degrees []float64, bounds [][]float64) (*BoundTable, error) {
	if len(durations) == 0 || len(degrees) == 0 {
		return nil, fmt.Errorf("core: empty bound table axes")
	}
	if !sort.SliceIsSorted(durations, func(i, j int) bool { return durations[i] < durations[j] }) {
		return nil, fmt.Errorf("core: durations not ascending")
	}
	if !sort.Float64sAreSorted(degrees) {
		return nil, fmt.Errorf("core: degrees not ascending")
	}
	if len(bounds) != len(durations) {
		return nil, fmt.Errorf("core: %d bound rows for %d durations", len(bounds), len(durations))
	}
	t := &BoundTable{
		durations: append([]time.Duration(nil), durations...),
		degrees:   append([]float64(nil), degrees...),
		bounds:    make([][]float64, len(bounds)),
	}
	for i, row := range bounds {
		if len(row) != len(degrees) {
			return nil, fmt.Errorf("core: row %d has %d bounds for %d degrees", i, len(row), len(degrees))
		}
		t.bounds[i] = append([]float64(nil), row...)
	}
	return t, nil
}

// Lookup returns the bound for the nearest grid point at or above the given
// duration and at or below the given degree, clamped to the table edges.
// Rounding the duration up and the degree down both err toward the more
// conservative (lower) bound for long bursts.
func (t *BoundTable) Lookup(d time.Duration, degree float64) float64 {
	i := sort.Search(len(t.durations), func(k int) bool { return t.durations[k] >= d })
	if i == len(t.durations) {
		i = len(t.durations) - 1
	}
	j := sort.SearchFloat64s(t.degrees, degree)
	if j == len(t.degrees) || (j > 0 && t.degrees[j] > degree) {
		j--
	}
	if j < 0 {
		j = 0
	}
	return t.bounds[i][j]
}

// Degrees returns the degree axis (copy).
func (t *BoundTable) Degrees() []float64 {
	return append([]float64(nil), t.degrees...)
}

// tableJSON is the persisted form of a BoundTable.
type tableJSON struct {
	// DurationsSec is the duration axis in seconds.
	DurationsSec []float64   `json:"durations_sec"`
	Degrees      []float64   `json:"degrees"`
	Bounds       [][]float64 `json:"bounds"`
}

// MarshalJSON implements json.Marshaler: building a table costs on the
// order of a thousand Oracle simulations, so deployments persist it.
func (t *BoundTable) MarshalJSON() ([]byte, error) {
	out := tableJSON{
		DurationsSec: make([]float64, len(t.durations)),
		Degrees:      t.degrees,
		Bounds:       t.bounds,
	}
	for i, d := range t.durations {
		out.DurationsSec[i] = d.Seconds()
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler with full validation: a
// corrupted or hand-edited file is rejected rather than silently misused.
func (t *BoundTable) UnmarshalJSON(data []byte) error {
	var in tableJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("core: bound table: %w", err)
	}
	durations := make([]time.Duration, len(in.DurationsSec))
	for i, s := range in.DurationsSec {
		durations[i] = time.Duration(s * float64(time.Second))
	}
	parsed, err := NewBoundTable(durations, in.Degrees, in.Bounds)
	if err != nil {
		return err
	}
	*t = *parsed
	return nil
}
