package stm

import (
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/vtime"
)

// runSanitized executes fn on one simulated thread over a space that
// carries the sanitizer when sanitize is set, and returns the sanitizer
// diagnostic it raised, if any.
func runSanitized(t *testing.T, allocator string, sanitize bool, pool Pooling, fn func(s *STM, th *vtime.Thread)) *mem.Diag {
	t.Helper()
	space := mem.NewSpace()
	if sanitize {
		space.EnableSanitizer()
	}
	e := vtime.NewEngine(space, 1, vtime.Config{})
	a, err := alloc.New(allocator, space, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(space, Config{Allocator: a, Pooling: pool})
	var diag *mem.Diag
	func() {
		defer func() {
			if r := recover(); r != nil {
				d, ok := r.(*mem.Diag)
				if !ok {
					panic(r)
				}
				diag = d
			}
		}()
		e.Run(func(th *vtime.Thread) { fn(s, th) })
	}()
	return diag
}

func TestSanitizerDiagnostics(t *testing.T) {
	// Request 66 bytes: every allocator's size class for it (glibc 80,
	// hoard 128, tbb 80, tcmalloc 80) leaves the word at offset 72 as
	// redzone, so the overflow case is portable across all four.
	const req = 66
	cases := []struct {
		name string
		kind mem.DiagKind
		run  func(s *STM, th *vtime.Thread)
	}{
		{
			name: "use-after-free",
			kind: mem.DiagUseAfterFree,
			run: func(s *STM, th *vtime.Thread) {
				var p mem.Addr
				s.Atomic(th, func(tx *Tx) { p = tx.Malloc(req); tx.Store(p, 7) })
				s.Atomic(th, func(tx *Tx) { tx.Free(p, req) })
				s.Atomic(th, func(tx *Tx) { tx.Load(p) })
			},
		},
		{
			name: "double-free",
			kind: mem.DiagDoubleFree,
			run: func(s *STM, th *vtime.Thread) {
				var p mem.Addr
				s.Atomic(th, func(tx *Tx) { p = tx.Malloc(req); tx.Store(p, 7) })
				s.Atomic(th, func(tx *Tx) { tx.Free(p, req) })
				s.Atomic(th, func(tx *Tx) { tx.Free(p, req) })
			},
		},
		{
			name: "heap-buffer-overflow",
			kind: mem.DiagOverflow,
			run: func(s *STM, th *vtime.Thread) {
				s.Atomic(th, func(tx *Tx) {
					p := tx.Malloc(req)
					tx.Store(p+72, 1) // one word past the rounded-up request
				})
			},
		},
		{
			name: "wild-address",
			kind: mem.DiagWildAddr,
			run: func(s *STM, th *vtime.Thread) {
				s.Atomic(th, func(tx *Tx) { tx.Load(mem.Addr(0x1000)) })
			},
		},
	}
	for _, name := range alloc.Names() {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				d := runSanitized(t, name, true, PoolNone, tc.run)
				if d == nil {
					t.Fatalf("%s under %s raised no diagnostic", tc.name, name)
				}
				if d.Kind != tc.kind {
					t.Fatalf("diagnostic kind = %s, want %s\n%s", d.Kind, tc.kind, d.Error())
				}
				msg := d.Error()
				// Every block-backed diagnostic names the owning allocator
				// and block; the wild address has no owner to name.
				if tc.kind != mem.DiagWildAddr {
					if !strings.Contains(msg, `allocator "`+name+`"`) {
						t.Errorf("diagnostic does not name allocator %s:\n%s", name, msg)
					}
					if !strings.Contains(msg, "block 0x") {
						t.Errorf("diagnostic does not name the block:\n%s", msg)
					}
				}
			})
		}
	}
}

// TestLoadGuard pins the validated-handle exemption: a guard read of a
// freed block is silent (yada's stale-queue-entry filter depends on
// it), while a guard read of a wild address still reports.
func TestLoadGuard(t *testing.T) {
	for _, name := range alloc.Names() {
		t.Run(name+"/freed-silent", func(t *testing.T) {
			d := runSanitized(t, name, true, PoolNone, func(s *STM, th *vtime.Thread) {
				var p mem.Addr
				s.Atomic(th, func(tx *Tx) { p = tx.Malloc(66); tx.Store(p, 1) })
				s.Atomic(th, func(tx *Tx) { tx.Free(p, 66) })
				s.Atomic(th, func(tx *Tx) { tx.LoadGuard(p) })
			})
			if d != nil {
				t.Errorf("LoadGuard of a freed block raised a diagnostic: %v", d)
			}
		})
		t.Run(name+"/wild-reports", func(t *testing.T) {
			d := runSanitized(t, name, true, PoolNone, func(s *STM, th *vtime.Thread) {
				s.Atomic(th, func(tx *Tx) { tx.LoadGuard(mem.Addr(0x1000)) })
			})
			if d == nil {
				t.Fatal("LoadGuard of a wild address raised no diagnostic")
			}
			if d.Kind != mem.DiagWildAddr {
				t.Errorf("diagnostic kind = %s, want %s", d.Kind, mem.DiagWildAddr)
			}
		})
	}
}

// TestSanitizerOffSilent pins the contrast the acceptance criteria ask
// for: the same use-after-free sequence, without -sanitize, silently
// reads the quarantined (zeroed) word.
func TestSanitizerOffSilent(t *testing.T) {
	for _, name := range alloc.Names() {
		t.Run(name, func(t *testing.T) {
			d := runSanitized(t, name, false, PoolNone, func(s *STM, th *vtime.Thread) {
				var p mem.Addr
				s.Atomic(th, func(tx *Tx) { p = tx.Malloc(66); tx.Store(p, 7) })
				s.Atomic(th, func(tx *Tx) { tx.Free(p, 66) })
				// The read completes silently — returning either the
				// quarantine-zeroed word or recycled heap metadata (hoard
				// stores a free-list link in word 0), which is exactly the
				// hazard the sanitizer exists to catch.
				s.Atomic(th, func(tx *Tx) { tx.Load(p) })
			})
			if d != nil {
				t.Errorf("unsanitized run raised a diagnostic: %v", d)
			}
		})
	}
}

// TestSanitizerCacheTxReuse exercises the §6.2 cache path: a block
// freed into and reused from the thread-local cache must be clean to
// the sanitizer, and stale pointers to it must still be caught while it
// sits in the cache.
func TestSanitizerCacheTxReuse(t *testing.T) {
	d := runSanitized(t, "glibc", true, PoolCache, func(s *STM, th *vtime.Thread) {
		var p mem.Addr
		s.Atomic(th, func(tx *Tx) { p = tx.Malloc(66); tx.Store(p, 7) })
		s.Atomic(th, func(tx *Tx) { tx.Free(p, 66) })
		s.Atomic(th, func(tx *Tx) {
			q := tx.Malloc(66)
			if q != p {
				panic("cacheTx did not hand the freed block back")
			}
			tx.Store(q, 9)
		})
	})
	if d != nil {
		t.Fatalf("cache reuse raised a diagnostic: %v", d)
	}
}

// TestSanitizerPooledDisciplines is the regression for slab-granularity
// poisoning: under every pooling discipline, a workload that mallocs,
// frees and re-mallocs same-size objects across transactions must stay
// sanitizer-clean. The batch discipline once marked a parked sub-block
// freed, which poisoned the whole owning slab (the first carved
// sub-block shares the slab's base address) and made every live
// neighbor misread as use-after-free. The privatized rows free outside
// any transaction through FreePrivatized, which once reached the
// system allocator with a batch sub-block and released its whole slab.
func TestSanitizerPooledDisciplines(t *testing.T) {
	for _, d := range []Pooling{PoolCache, PoolReuse, PoolBatch} {
		for _, privatized := range []bool{false, true} {
			name := d.String()
			if privatized {
				name += "-privatized"
			}
			t.Run(name, func(t *testing.T) {
				space := SanitizedSpace()
				e := vtime.NewEngine(space, 1, vtime.Config{})
				a, err := alloc.New("glibc", space, 1)
				if err != nil {
					t.Fatal(err)
				}
				s := New(space, Config{Allocator: a, Pooling: d})
				e.Run(func(th *vtime.Thread) {
					var live []mem.Addr
					for i := 0; i < 40; i++ {
						s.Atomic(th, func(tx *Tx) {
							p := tx.Malloc(16)
							tx.Store(p, uint64(i))
							live = append(live, p)
						})
						if len(live) <= 8 {
							continue
						}
						if privatized {
							s.FreePrivatized(th, live[0], 16)
							live = live[1:]
						}
						// Free the oldest, then read every survivor — a
						// poisoned slab would trip on the neighbors.
						s.Atomic(th, func(tx *Tx) {
							if !privatized {
								tx.Free(live[0], 16)
								live = live[1:]
							}
							for _, q := range live {
								tx.Load(q)
							}
						})
					}
				})
			})
		}
	}
}
