package sweep

import (
	"fmt"
	"testing"
)

// BenchmarkSchedulerPayloadCells measures scheduler overhead — dedup,
// cursor hand-out, payload marshalling — over trivially cheap cells, so
// the cell bodies contribute almost nothing to the figure.
func BenchmarkSchedulerPayloadCells(b *testing.B) {
	cells := make([]Cell, 64)
	for i := range cells {
		cells[i] = payloadCell(fmt.Sprintf("c%d", i), uint64(i+1), fmt.Sprintf("v%d", i))
	}
	s := &Scheduler{Jobs: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(cells, nil)
	}
}

// BenchmarkCellHash measures the config-hash identity function that
// every cache probe pays.
func BenchmarkCellHash(b *testing.B) {
	c := payloadCell("bench", 7, "value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Hash() == "" {
			b.Fatal("empty hash")
		}
	}
}
