package stm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/vtime"
)

// BenchmarkAtomic measures one transaction of 16 words (one op is one
// transaction) on one solo thread for each design: read-only loads
// every word, read-write loads and stores each. The space has no
// sanitizer and the thread no cache model, so this is the STM's own
// bookkeeping. TestSteadyStateAllocBudget pins the read-write
// transaction at zero host allocations.
func BenchmarkAtomic(b *testing.B) {
	for _, d := range []Design{ETLWriteBack, ETLWriteThrough, CTL} {
		for _, write := range []bool{false, true} {
			name := d.String() + "/ro"
			if write {
				name = d.String() + "/rw"
			}
			b.Run(name, func(b *testing.B) {
				space := mem.NewSpace()
				s := New(space, Config{Design: d})
				th := vtime.Solo(space, 0, nil)
				words := space.MustMap(mem.PageSize, 0)
				body := func(tx *Tx) {
					for i := 0; i < 16; i++ {
						a := words + mem.Addr(i*8)
						if v := tx.Load(a); write {
							tx.Store(a, v+1)
						}
					}
				}
				for i := 0; i < 32; i++ {
					s.Atomic(th, body)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Atomic(th, body)
				}
			})
		}
	}
}
