package pmem

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/stm"
	"repro/internal/vtime"
)

// benchWorkload runs the standard allocate/store/free loop on a fresh
// space, durable when p is attached. It returns the space so callers
// can keep recovering against it.
func benchWorkload(durable bool, crashSpec string) (*mem.Space, *Pmem, alloc.Allocator, *vtime.Engine) {
	space := mem.NewSpace()
	var p *Pmem
	if durable {
		var plan *fault.Plan
		if crashSpec != "" {
			plan, _ = fault.Parse(crashSpec, 42)
		}
		p = Attach(space, plan)
		space.Watch(p)
	}
	a, _ := alloc.New("tcmalloc", space, 4)
	cfg := stm.Config{Allocator: a}
	if p != nil {
		alloc.Attach(a, alloc.Hooks{Journal: p})
		cfg.Durable = p
	}
	s := stm.New(space, cfg)
	e := vtime.NewEngine(space, 4, vtime.Config{})
	if p != nil {
		p.SetStopper(e)
	}
	e.Run(func(th *vtime.Thread) {
		var live []mem.Addr
		for i := 0; i < 60; i++ {
			s.Atomic(th, func(tx *stm.Tx) {
				b := tx.Malloc(48)
				tx.Store(b, uint64(th.ID()*1000+i))
				live = append(live, b)
			})
			if len(live) > 4 {
				victim := live[0]
				live = live[1:]
				s.Atomic(th, func(tx *stm.Tx) {
					tx.Free(victim, 48)
				})
			}
		}
	})
	return space, p, a, e
}

// BenchmarkTxVolatile / BenchmarkTxDurable are the pmem-overhead pair:
// the identical transactional workload with the persistence domain off
// and on (redo logging, line flushes, fences, metadata journaling).
// The ratio is the host-side cost of durability bookkeeping; the
// virtual-cycle cost it prices is deterministic and asserted in tests.
func BenchmarkTxVolatile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchWorkload(false, "")
	}
}

func BenchmarkTxDurable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchWorkload(true, "")
	}
}

// BenchmarkCrashRecover measures a full crash→revert→replay→rebuild→
// verify cycle on top of the durable workload.
func BenchmarkCrashRecover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		space, p, a, _ := benchWorkload(true, "crashphase:apply@20")
		if !p.Crashed() {
			b.Fatal("crash never fired")
		}
		th := vtime.Solo(space, 0, nil)
		if info := p.Recover(th, a); info.Verdict == "" {
			b.Fatal("no verdict")
		}
	}
}
