package pmem

import (
	"testing"

	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/hoard"
	_ "repro/internal/alloc/tbb"
	_ "repro/internal/alloc/tcmalloc"

	"repro/internal/alloc"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/vtime"
)

func TestFenceSemantics(t *testing.T) {
	space := mem.NewSpace()
	p := Attach(space, nil)
	th := vtime.Solo(space, 0, nil)
	base := space.MustMap(mem.PageSize, 0)

	th.Store(base, 7)
	if len(p.dirty) != 1 {
		t.Fatalf("dirty lines = %d, want 1", len(p.dirty))
	}
	// A fence with nothing flushed persists nothing.
	p.Fence(th)
	if len(p.durable) != 0 {
		t.Fatalf("durable lines after bare fence = %d, want 0", len(p.durable))
	}
	// Flush alone persists nothing either (the line is still draining).
	p.Flush(th, base)
	if len(p.durable) != 0 {
		t.Fatalf("durable lines after flush without fence = %d, want 0", len(p.durable))
	}
	// A store after the flush is captured by the fence (generous-capture
	// semantics, safe direction).
	th.Store(base+8, 9)
	p.Fence(th)
	img := p.durable[lineOf(base)]
	if img == nil || img[0] != 7 || img[1] != 9 {
		t.Fatalf("durable image = %v, want [7 9 ...]", img)
	}
	if p.Stats().Flushes != 1 || p.Stats().Fences != 2 {
		t.Fatalf("stats = %+v, want 1 flush, 2 fences", p.Stats())
	}
}

func TestDurableRunWithoutCrash(t *testing.T) {
	space := mem.NewSpace()
	p := Attach(space, nil)
	s := stm.New(space, stm.Config{Durable: p})
	counter := space.MustMap(mem.PageSize, 0)
	e := vtime.NewEngine(space, 4, vtime.Config{})
	p.SetStopper(e)
	e.Run(func(th *vtime.Thread) {
		for i := 0; i < 100; i++ {
			s.Atomic(th, func(tx *stm.Tx) {
				tx.Store(counter, tx.Load(counter)+1)
			})
		}
	})
	if got := space.Load(counter); got != 400 {
		t.Fatalf("counter = %d, want 400", got)
	}
	// Every committed log must have been applied and truncated.
	if len(p.committed) != 0 || len(p.active) != 0 {
		t.Fatalf("logs leaked: %d committed, %d active", len(p.committed), len(p.active))
	}
	info := p.Info()
	if info.Verdict != obs.StatusOK || info.Crashed {
		t.Fatalf("info = %+v, want ok/uncrashed", info)
	}
	if info.Flushes == 0 || info.Fences == 0 || info.LogAppends == 0 {
		t.Fatalf("no durable traffic recorded: %+v", info)
	}
	// The durable image must hold the final counter value: the last
	// commit's LogApply flushed and fenced its line.
	img := p.durable[lineOf(counter)]
	if img == nil || img[0] != 400 {
		t.Fatalf("durable counter image = %v, want 400", img)
	}
}

// crashRun executes a small allocate/store/free workload under the
// given allocator and crash spec, then recovers on a solo thread.
func crashRun(t *testing.T, allocName, spec string) (*Pmem, *obs.RecoveryInfo) {
	t.Helper()
	space := mem.NewSpace()
	space.EnableSanitizer()
	plan, err := fault.Parse(spec, 42)
	if err != nil {
		t.Fatalf("parse %q: %v", spec, err)
	}
	p := Attach(space, plan)
	space.Watch(p)
	a, err := alloc.New(allocName, space, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !alloc.Attach(a, alloc.Hooks{Journal: p}) {
		t.Fatalf("%s has no front end to journal through", allocName)
	}
	s := stm.New(space, stm.Config{Allocator: a, Durable: p})
	slots := space.MustMap(mem.PageSize, 0)
	e := vtime.NewEngine(space, 4, vtime.Config{})
	p.SetStopper(e)
	e.Run(func(th *vtime.Thread) {
		var live []mem.Addr
		for i := 0; i < 40; i++ {
			s.Atomic(th, func(tx *stm.Tx) {
				b := tx.Malloc(48)
				tx.Store(b, uint64(th.ID()*1000+i))
				tx.Store(slots+mem.Addr(th.ID()*8), uint64(b))
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
	if !p.Crashed() {
		t.Fatalf("crash spec %q never fired", spec)
	}
	if !e.Stopped() {
		t.Fatal("engine not stopped by crash")
	}
	th := vtime.Solo(space, 0, nil)
	return p, p.Recover(th, a)
}

func TestCrashRecoveryMatrix(t *testing.T) {
	for _, name := range []string{"glibc", "hoard", "tbb", "tcmalloc"} {
		for _, phase := range []string{"commit", "apply", "malloc"} {
			t.Run(name+"/"+phase, func(t *testing.T) {
				_, info := crashRun(t, name, "crashphase:"+phase+"@5")
				if info.Verdict != obs.StatusOK {
					t.Fatalf("verdict = %q (%+v), want ok", info.Verdict, info)
				}
				if info.LostWrites != 0 || info.Resurrected != 0 || info.ChainBreaks != 0 || info.ShadowBad != 0 {
					t.Fatalf("invariants broken: %+v", info)
				}
				if info.CrashPhase != phase {
					t.Fatalf("crash phase = %q, want %q", info.CrashPhase, phase)
				}
				switch phase {
				case "commit":
					// The crashing transaction's log never got its marker.
					if info.TornLogs == 0 {
						t.Fatal("commit-phase crash produced no torn log")
					}
				case "apply":
					// The crashing transaction's log was committed but not
					// truncated.
					if info.Replayed == 0 {
						t.Fatal("apply-phase crash replayed no log")
					}
				}
			})
		}
	}
}

func TestRecoveryIsDeterministic(t *testing.T) {
	p1, i1 := crashRun(t, "glibc", "crash@5000")
	p2, i2 := crashRun(t, "glibc", "crash@5000")
	if *i1 != *i2 {
		t.Fatalf("recovery info differs across identical runs:\n%+v\n%+v", i1, i2)
	}
	if p1.crashCycle != p2.crashCycle {
		t.Fatalf("crash cycle differs: %d vs %d", p1.crashCycle, p2.crashCycle)
	}
}

func TestVerifierCatchesTamperedOracle(t *testing.T) {
	space := mem.NewSpace()
	plan, err := fault.Parse("crashphase:apply@5", 42)
	if err != nil {
		t.Fatal(err)
	}
	p := Attach(space, plan)
	space.Watch(p)
	a, err := alloc.New("glibc", space, 4)
	if err != nil {
		t.Fatal(err)
	}
	alloc.Attach(a, alloc.Hooks{Journal: p})
	s := stm.New(space, stm.Config{Allocator: a, Durable: p})
	e := vtime.NewEngine(space, 4, vtime.Config{})
	p.SetStopper(e)
	e.Run(func(th *vtime.Thread) {
		for i := 0; i < 20; i++ {
			s.Atomic(th, func(tx *stm.Tx) {
				b := tx.Malloc(32)
				tx.Store(b, uint64(i+1))
			})
		}
	})
	if !p.Crashed() {
		t.Fatal("crash never fired")
	}
	// Sabotage: claim a committed store had a different value. The
	// invariant sweep must notice the heap no longer matches.
	tampered := false
	for addr, v := range p.oracle {
		p.oracle[addr] = v + 1
		tampered = true
		break
	}
	if !tampered {
		t.Fatal("no oracle entries to tamper with")
	}
	th := vtime.Solo(space, 0, nil)
	info := p.Recover(th, a)
	if info.LostWrites == 0 || info.Verdict != obs.StatusFailed {
		t.Fatalf("tampered oracle not detected: %+v", info)
	}
}

// TestFreedBlockNotResurrected is the quarantine/crash interaction: a
// transactionally freed block whose free has durably committed but
// whose reclamation (quarantine drain into the allocator free lists)
// never ran must come back FREED — linked into a rebuilt chain — not
// live, for every allocator model.
func TestFreedBlockNotResurrected(t *testing.T) {
	for _, name := range []string{"glibc", "hoard", "tbb", "tcmalloc"} {
		t.Run(name, func(t *testing.T) {
			space := mem.NewSpace()
			plan, err := fault.Parse("crashphase:apply@2", 42)
			if err != nil {
				t.Fatal(err)
			}
			p := Attach(space, plan)
			space.Watch(p)
			a, err := alloc.New(name, space, 1)
			if err != nil {
				t.Fatal(err)
			}
			alloc.Attach(a, alloc.Hooks{Journal: p})
			s := stm.New(space, stm.Config{Allocator: a, Durable: p})
			e := vtime.NewEngine(space, 1, vtime.Config{})
			p.SetStopper(e)
			var block mem.Addr
			e.Run(func(th *vtime.Thread) {
				s.Atomic(th, func(tx *stm.Tx) {
					block = tx.Malloc(64)
					tx.Store(block, 0xdead)
				})
				// Apply checkpoint #2 fires inside this commit: the free's
				// redo log is durably committed, but finishCommit (the
				// quarantine hand-off) and the later reclaim never run.
				s.Atomic(th, func(tx *stm.Tx) {
					tx.Free(block, 64)
				})
			})
			if !p.Crashed() {
				t.Fatal("crash never fired")
			}
			if st := p.blocks[block].state; st != blockFreed {
				t.Fatalf("block journal state = %d, want freed", st)
			}
			th := vtime.Solo(space, 0, nil)
			info := p.Recover(th, a)
			if info.Verdict != obs.StatusOK {
				t.Fatalf("verdict = %q (%+v)", info.Verdict, info)
			}
			if info.Resurrected != 0 {
				t.Fatalf("freed block resurrected: %+v", info)
			}
			if info.FreeBlocks == 0 {
				t.Fatalf("freed block not linked into any rebuilt chain: %+v", info)
			}
			if info.LiveBlocks != 0 {
				t.Fatalf("live blocks = %d, want 0 (the only block was freed)", info.LiveBlocks)
			}
		})
	}
}
