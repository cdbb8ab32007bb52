package repro

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/cachesim"
	"repro/internal/intset"
	"repro/internal/mem"
	"repro/internal/stm"
	"repro/internal/txstruct"
	"repro/internal/vtime"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// STM algorithm variant, the ORT shift amount, the engine's scheduling
// quantum, and the cache model itself.

// BenchmarkAblationSTMDesign compares the paper's ETL write-back STM
// against write-through ETL and TL2-style commit-time locking on the
// red-black-tree workload.
func BenchmarkAblationSTMDesign(b *testing.B) {
	for _, d := range []stm.Design{stm.ETLWriteBack, stm.ETLWriteThrough, stm.CTL} {
		for _, name := range []string{"glibc", "tcmalloc"} {
			b.Run(fmt.Sprintf("%s/%s", d, name), func(b *testing.B) {
				var thr, abort float64
				for i := 0; i < b.N; i++ {
					res, err := intset.Run(intset.Config{
						Kind: intset.RBTree, Allocator: name, Threads: 8,
						InitialSize: 1024, KeyRange: 2048, UpdatePct: 60,
						OpsPerThread: 250, Design: d,
					})
					if err != nil {
						b.Fatal(err)
					}
					thr = res.Throughput
					abort = res.Tx.AbortRate() * 100
				}
				b.ReportMetric(thr, "vtx/s")
				b.ReportMetric(abort, "abort%")
			})
		}
	}
}

// BenchmarkAblationShift sweeps the ORT shift from 3 to 7 on the
// linked list (generalizing Fig. 6's 4-vs-5 comparison).
func BenchmarkAblationShift(b *testing.B) {
	for _, shift := range []uint{3, 4, 5, 6, 7} {
		for _, name := range []string{"glibc", "hoard"} {
			b.Run(fmt.Sprintf("shift=%d/%s", shift, name), func(b *testing.B) {
				var thr float64
				for i := 0; i < b.N; i++ {
					res, err := intset.Run(intset.Config{
						Kind: intset.LinkedList, Allocator: name, Threads: 8,
						InitialSize: 512, KeyRange: 1024, UpdatePct: 60,
						OpsPerThread: 100, Shift: shift,
					})
					if err != nil {
						b.Fatal(err)
					}
					thr = res.Throughput
				}
				b.ReportMetric(thr, "vtx/s")
			})
		}
	}
}

// BenchmarkAblationQuantum measures the virtual-time engine's
// sensitivity to its scheduling quantum: results (modelled cycles) must
// be stable across reasonable quanta while host cost varies.
func BenchmarkAblationQuantum(b *testing.B) {
	for _, q := range []uint64{53, 199, 997, 4999} {
		b.Run(fmt.Sprintf("quantum=%d", q), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				space := mem.NewSpace()
				e := vtime.NewEngine(space, 8, vtime.Config{Quantum: q})
				s := stm.New(space, stm.Config{})
				counter := space.MustMap(4096, 0)
				e.Run(func(th *vtime.Thread) {
					for j := 0; j < 300; j++ {
						s.Atomic(th, func(tx *stm.Tx) {
							tx.Store(counter, tx.Load(counter)+1)
						})
					}
				})
				cycles = float64(e.MaxClock())
			}
			b.ReportMetric(cycles, "vcycles")
		})
	}
}

// BenchmarkAblationCacheModel quantifies what the cache hierarchy model
// costs the host and contributes to the modelled time, on an identical
// workload with the model on and off (an engine without a hierarchy
// prices every access as flat memory).
func BenchmarkAblationCacheModel(b *testing.B) {
	for _, enabled := range []bool{true, false} {
		name := "on"
		if !enabled {
			name = "off"
		}
		b.Run("cache="+name, func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				space := mem.NewSpace()
				var cfg vtime.Config
				if enabled {
					cfg.Cache = cachesim.New(cachesim.DefaultCores)
				}
				e := vtime.NewEngine(space, 8, cfg)
				s := stm.New(space, stm.Config{Allocator: alloc.MustNew("tbb", space, 8)})
				var list *txstruct.List
				e.Run(func(th *vtime.Thread) {
					if th.ID() == 0 {
						s.Atomic(th, func(tx *stm.Tx) { list = txstruct.NewList(tx) })
					}
				})
				e.ResetClocks()
				e.Run(func(th *vtime.Thread) {
					for j := 0; j < 150; j++ {
						key := int64(th.ID()*1000 + j)
						s.Atomic(th, func(tx *stm.Tx) { list.Insert(tx, key) })
					}
				})
				cycles = float64(e.MaxClock())
			}
			b.ReportMetric(cycles, "vcycles")
		})
	}
}
