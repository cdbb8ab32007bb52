// Package alloctest provides a conformance suite run against every
// allocator model: correctness of block disjointness, data integrity,
// reuse, remote frees, concurrent (virtual-time) stress, and the
// contract of the front end every model runs behind. Each suite takes a
// registered allocator name and builds it through alloc.MustNew, so the
// model is always tested behind its front end. Allocator-specific
// layout properties are asserted in each allocator's own test package.
package alloctest

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sweep"
	"repro/internal/vtime"
)

// Factory builds the allocator under test over a fresh space.
type Factory func(space *mem.Space, threads int) alloc.Allocator

// registered returns the factory of the registered allocator name.
func registered(name string) Factory {
	return func(space *mem.Space, threads int) alloc.Allocator { return alloc.MustNew(name, space, threads) }
}

// Run executes the conformance suite against the registered allocator
// name.
func Run(t *testing.T, name string) {
	f := registered(name)
	t.Run("DataIntegrity", func(t *testing.T) { testDataIntegrity(t, f) })
	t.Run("Disjoint", func(t *testing.T) { testDisjoint(t, f) })
	t.Run("BlockSize", func(t *testing.T) { testBlockSize(t, f) })
	t.Run("MallocZero", func(t *testing.T) { testMallocZero(t, f) })
	t.Run("Reuse", func(t *testing.T) { testReuse(t, f) })
	t.Run("Large", func(t *testing.T) { testLarge(t, f) })
	t.Run("RemoteFree", func(t *testing.T) { testRemoteFree(t, f) })
	t.Run("FreeNil", func(t *testing.T) { testFreeNil(t, f) })
	t.Run("Stats", func(t *testing.T) { testStats(t, f) })
	t.Run("VirtualTimeCharged", func(t *testing.T) { testVirtualTimeCharged(t, f) })
	t.Run("ConcurrentStress", func(t *testing.T) { testConcurrentStress(t, f) })
	t.Run("FrontEnd", func(t *testing.T) { testFrontEnd(t, name, f) })
}

func solo(space *mem.Space) *vtime.Thread { return vtime.Solo(space, 0, nil) }

// newSpace builds the space every suite case runs on, with the shadow-
// memory sanitizer armed: the conformance suite doubles as tier-1
// coverage of the sanitizer's allocator hooks under every model.
func newSpace() *mem.Space {
	space := mem.NewSpace()
	space.EnableSanitizer()
	return space
}

// seededRNG derives a reproducible per-case stream from the repository's
// seed-derivation scheme, keeping the suite nodeterm-clean: no global
// math/rand source, and the seed provenance is auditable.
func seededRNG(key string, tid uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(sweep.DeriveSeed(tid, "alloctest/"+key))))
}

func testDataIntegrity(t *testing.T, f Factory) {
	space := newSpace()
	a := f(space, 1)
	th := solo(space)
	const n = 500
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		addrs[i] = a.Malloc(th, 64)
		for w := 0; w < 8; w++ {
			space.Store(addrs[i]+mem.Addr(w*8), uint64(i)<<16|uint64(w))
		}
	}
	for i, addr := range addrs {
		for w := 0; w < 8; w++ {
			if got := space.Load(addr + mem.Addr(w*8)); got != uint64(i)<<16|uint64(w) {
				t.Fatalf("block %d word %d corrupted: %#x", i, w, got)
			}
		}
	}
}

func testDisjoint(t *testing.T, f Factory) {
	space := newSpace()
	a := f(space, 1)
	th := solo(space)
	sizes := []uint64{8, 16, 24, 48, 64, 100, 256, 1000, 4096}
	type blk struct {
		addr mem.Addr
		size uint64
	}
	var blocks []blk
	rng := seededRNG("disjoint", 1)
	for i := 0; i < 2000; i++ {
		sz := sizes[rng.Intn(len(sizes))]
		addr := a.Malloc(th, sz)
		if addr%8 != 0 { //tmvet:allow addrhygiene: the conformance suite validates allocator placement, so it inspects alignment directly
			t.Fatalf("Malloc(%d) = %#x: not 8-byte aligned", sz, uint64(addr))
		}
		blocks = append(blocks, blk{addr, sz})
	}
	for i := range blocks {
		for j := i + 1; j < len(blocks); j++ {
			b1, b2 := blocks[i], blocks[j]
			if b1.addr < b2.addr+mem.Addr(b2.size) && b2.addr < b1.addr+mem.Addr(b1.size) {
				t.Fatalf("blocks overlap: [%#x,+%d) and [%#x,+%d)",
					uint64(b1.addr), b1.size, uint64(b2.addr), b2.size)
			}
		}
	}
}

func testBlockSize(t *testing.T, f Factory) {
	space := newSpace()
	a := f(space, 1)
	th := solo(space)
	for _, sz := range []uint64{1, 8, 16, 17, 48, 63, 64, 100, 255, 256, 1024, 5000} {
		addr := a.Malloc(th, sz)
		if got := a.BlockSize(th, addr); got < sz {
			t.Errorf("BlockSize(Malloc(%d)) = %d, want >= %d", sz, got, sz)
		}
	}
}

func testMallocZero(t *testing.T, f Factory) {
	space := newSpace()
	a := f(space, 1)
	th := solo(space)
	x := a.Malloc(th, 0)
	y := a.Malloc(th, 0)
	if x == 0 || y == 0 || x == y {
		t.Errorf("Malloc(0) twice = %#x, %#x; want distinct non-zero", uint64(x), uint64(y))
	}
	a.Free(th, x)
	a.Free(th, y)
}

func testReuse(t *testing.T, f Factory) {
	space := newSpace()
	a := f(space, 1)
	th := solo(space)
	before := space.Stats()
	for i := 0; i < 100000; i++ {
		addr := a.Malloc(th, 16)
		space.Store(addr, uint64(i))
		a.Free(th, addr)
	}
	after := space.Stats()
	grown := after.ReservedBytes - before.ReservedBytes
	if grown > 80<<20 {
		t.Errorf("100k malloc/free(16) grew footprint by %d bytes: free blocks not reused", grown)
	}
}

func testLarge(t *testing.T, f Factory) {
	space := newSpace()
	a := f(space, 1)
	th := solo(space)
	for _, sz := range []uint64{300 << 10, 1 << 20, 5 << 20} {
		addr := a.Malloc(th, sz)
		space.Store(addr, 1)
		space.Store(addr+mem.Addr(sz)-8, 2)
		if a.BlockSize(th, addr) < sz {
			t.Errorf("large BlockSize(%d) = %d", sz, a.BlockSize(th, addr))
		}
		a.Free(th, addr)
	}
	if st := space.Stats(); st.ReservedBytes > 256<<20 {
		t.Errorf("large blocks not returned to OS: %d bytes still reserved", st.ReservedBytes)
	}
}

func testRemoteFree(t *testing.T, f Factory) {
	space := newSpace()
	a := f(space, 2)
	e := vtime.NewEngine(space, 2, vtime.Config{})
	const n = 2000
	addrs := make([]mem.Addr, 0, n)
	// Phase 1: thread 0 allocates, thread 1 idles.
	e.Run(func(th *vtime.Thread) {
		if th.ID() != 0 {
			return
		}
		for i := 0; i < n; i++ {
			addr := a.Malloc(th, 16)
			th.Store(addr, uint64(i))
			addrs = append(addrs, addr)
		}
	})
	// Phase 2: thread 1 frees everything remotely.
	e.Run(func(th *vtime.Thread) {
		if th.ID() != 1 {
			return
		}
		for _, addr := range addrs {
			a.Free(th, addr)
		}
	})
	// Phase 3: thread 0 must be able to keep allocating.
	e.Run(func(th *vtime.Thread) {
		if th.ID() != 0 {
			return
		}
		for i := 0; i < n; i++ {
			addr := a.Malloc(th, 16)
			th.Store(addr, uint64(i))
		}
	})
}

func testFreeNil(t *testing.T, f Factory) {
	space := newSpace()
	a := f(space, 1)
	a.Free(solo(space), 0) // must be a no-op, like free(NULL)
}

func testStats(t *testing.T, f Factory) {
	space := newSpace()
	a := f(space, 1)
	th := solo(space)
	addr := a.Malloc(th, 40)
	a.Free(th, addr)
	st := a.Stats()
	if st.Mallocs != 1 || st.Frees != 1 {
		t.Errorf("stats = %+v, want 1 malloc / 1 free", st)
	}
	if st.BytesRequested != 40 {
		t.Errorf("BytesRequested = %d, want 40", st.BytesRequested)
	}
	if st.BytesAllocated < 40 {
		t.Errorf("BytesAllocated = %d, want >= 40", st.BytesAllocated)
	}
}

func testVirtualTimeCharged(t *testing.T, f Factory) {
	space := newSpace()
	a := f(space, 1)
	th := solo(space)
	before := th.Clock()
	a.Free(th, a.Malloc(th, 16))
	if th.Clock() == before {
		t.Error("malloc/free advanced no virtual time")
	}
}

func testConcurrentStress(t *testing.T, f Factory) {
	space := newSpace()
	const threads = 8
	a := f(space, threads)
	e := vtime.NewEngine(space, threads, vtime.Config{})
	sizes := []uint64{8, 16, 16, 16, 48, 64, 128, 256, 1024, 9000}
	e.Run(func(th *vtime.Thread) {
		tid := th.ID()
		rng := seededRNG("stress", uint64(tid))
		live := make([]mem.Addr, 0, 128)
		for i := 0; i < 3000; i++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(live))
				addr := live[k]
				if got := th.Load(addr); got>>32 != uint64(tid) {
					t.Errorf("tid %d: block %#x corrupted: owner tag %#x", tid, uint64(addr), got>>32)
					return
				}
				a.Free(th, addr)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				addr := a.Malloc(th, sizes[rng.Intn(len(sizes))])
				th.Store(addr, uint64(tid)<<32|uint64(i))
				live = append(live, addr)
			}
		}
		for _, addr := range live {
			a.Free(th, addr)
		}
	})
	st := a.Stats()
	if st.Mallocs != st.Frees {
		t.Errorf("mallocs %d != frees %d after balanced stress", st.Mallocs, st.Frees)
	}
}

// RunProperty adds testing/quick-style randomized trace checks: for
// arbitrary seeds, a random malloc/free trace must preserve block
// disjointness among live blocks and the contents of every live block.
func RunProperty(t *testing.T, name string) {
	f := registered(name)
	check := func(seed uint64) bool {
		space := newSpace()
		const threads = 4
		a := f(space, threads)
		e := vtime.NewEngine(space, threads, vtime.Config{})
		type blk struct {
			addr mem.Addr
			size uint64
			tag  uint64
		}
		live := make([][]blk, threads)
		ok := true
		e.Run(func(th *vtime.Thread) {
			tid := th.ID()
			rng := seededRNG("property", seed+uint64(tid))
			sizes := []uint64{8, 16, 24, 48, 64, 200, 1024, 10000}
			for i := 0; i < 800 && ok; i++ {
				if len(live[tid]) > 0 && rng.Intn(3) == 0 {
					k := rng.Intn(len(live[tid]))
					b := live[tid][k]
					// The first word must still hold our tag.
					if th.Load(b.addr) != b.tag {
						ok = false
						return
					}
					a.Free(th, b.addr)
					live[tid][k] = live[tid][len(live[tid])-1]
					live[tid] = live[tid][:len(live[tid])-1]
				} else {
					size := sizes[rng.Intn(len(sizes))]
					addr := a.Malloc(th, size)
					if got := a.BlockSize(th, addr); got < size {
						ok = false
						return
					}
					tag := uint64(tid)<<56 | uint64(i)<<8 | 1
					th.Store(addr, tag)
					// Also tag the last word; must not clobber word 0.
					if size >= 16 {
						th.Store(addr+mem.Addr(size-8), ^tag)
						if th.Load(addr) != tag {
							ok = false
							return
						}
					}
					live[tid] = append(live[tid], blk{addr, size, tag})
				}
			}
		})
		if !ok {
			return false
		}
		// Cross-thread disjointness of all still-live blocks.
		type iv struct{ lo, hi uint64 }
		var ivs []iv
		for tid := range live {
			for _, b := range live[tid] {
				ivs = append(ivs, iv{uint64(b.addr), uint64(b.addr) + b.size})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].lo < ivs[i-1].hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

// RunFootprint checks the LiveBytes gauge: zero after balanced
// traffic, positive while blocks are live.
func RunFootprint(t *testing.T, name string) {
	f := registered(name)
	space := newSpace()
	a := f(space, 1)
	th := vtime.Solo(space, 0, nil)
	var addrs []mem.Addr
	for i := 0; i < 200; i++ {
		addrs = append(addrs, a.Malloc(th, 64))
	}
	if live := a.Stats().LiveBytes; live < 200*64 {
		t.Errorf("LiveBytes = %d with 200x64B live, want >= %d", live, 200*64)
	}
	for _, ad := range addrs {
		a.Free(th, ad)
	}
	if live := a.Stats().LiveBytes; live != 0 {
		t.Errorf("LiveBytes = %d after freeing everything, want 0", live)
	}
	big := a.Malloc(th, 1<<20)
	if live := a.Stats().LiveBytes; live < 1<<20 {
		t.Errorf("LiveBytes = %d with 1MB live", live)
	}
	a.Free(th, big)
	if live := a.Stats().LiveBytes; live != 0 {
		t.Errorf("LiveBytes = %d after freeing the large block, want 0", live)
	}
}

// testFrontEnd pins what the allocator front end owns, so that no model
// can bypass it. With a block watcher, an event recorder, a profiler, a
// fault injector and a metadata journal attached through alloc.Attach,
// a mixed-size trace on two threads must reach the watcher once per
// successful malloc (with usable == BlockSize) and once per non-nil
// free, put one alloc event per malloc and one free event per non-nil
// free in the recorder, open the <name>/malloc and <name>/free profiler
// regions, count every injected failure (none of which reaches the
// watcher), and journal the model's structure.
func testFrontEnd(t *testing.T, name string, f Factory) {
	space := mem.NewSpace()
	a := f(space, 2)
	w := &countingWatcher{usable: make(map[mem.Addr]uint64)}
	space.Watch(w)
	rec := obs.New(obs.Config{})
	p := prof.New()
	inj := &everyKth{k: 5}
	j := &countingJournal{}
	if !alloc.Attach(a, alloc.Hooks{Rec: rec, Inj: inj, Prof: p, Journal: j}) {
		t.Fatal("alloc.Attach: allocator has no front end")
	}
	ths := []*vtime.Thread{vtime.Solo(space, 0, nil), vtime.Solo(space, 1, nil)}
	sizes := []uint64{8, 16, 48, 100, 1024, 300 << 10}
	var live []mem.Addr
	const mallocs = 60
	for i := 0; i < mallocs; i++ {
		th, size := ths[i%2], sizes[i%len(sizes)]
		addr := a.Malloc(th, size)
		if addr == 0 {
			continue
		}
		if got, want := w.usable[addr], a.BlockSize(th, addr); got != want {
			t.Errorf("Malloc(%d) = %#x: watcher saw usable %d, BlockSize %d", size, uint64(addr), got, want)
		}
		live = append(live, addr)
	}
	for i, addr := range live {
		a.Free(ths[i%2], addr)
	}
	a.Free(ths[0], 0) // free(NULL) reaches nothing

	if inj.failed == 0 || w.allocs != mallocs-inj.failed || w.allocs != len(live) {
		t.Errorf("watcher saw %d allocs for %d mallocs, %d injected failures", w.allocs, mallocs, inj.failed)
	}
	if w.zero != 0 {
		t.Errorf("watcher saw %d notifications for address 0", w.zero)
	}
	if w.frees != len(live) {
		t.Errorf("watcher saw %d frees, want %d", w.frees, len(live))
	}
	if st := a.Stats(); st.FailedMallocs != uint64(inj.failed) || st.Mallocs != mallocs || st.Frees != uint64(len(live)) {
		t.Errorf("stats %+v: want %d mallocs, %d failed, %d frees", st, mallocs, inj.failed, len(live))
	}
	events := map[obs.Kind]int{}
	for _, e := range rec.Events() {
		if e.Label == name {
			events[e.Kind]++
		}
	}
	if events[obs.KindAlloc] != mallocs || events[obs.KindFree] != len(live) {
		t.Errorf("recorder saw %d alloc / %d free events, want %d / %d",
			events[obs.KindAlloc], events[obs.KindFree], mallocs, len(live))
	}
	frames := map[string]bool{}
	for _, fs := range p.Profile().FrameStats() {
		frames[fs.Frame] = true
	}
	for _, region := range []string{name + "/malloc", name + "/free"} {
		if !frames[region] {
			t.Errorf("profile has no %s frame", region)
		}
	}
	if j.records == 0 {
		t.Error("no structural metadata journaled")
	}
}

// countingWatcher counts block notifications and remembers each
// block's usable size.
type countingWatcher struct {
	allocs, frees, zero int
	usable              map[mem.Addr]uint64
}

func (w *countingWatcher) OnHeapAlloc(_ string, base mem.Addr, _, usable uint64, _ int, _ uint64) {
	w.allocs++
	if base == 0 {
		w.zero++
	}
	w.usable[base] = usable
}

func (w *countingWatcher) OnHeapFree(base mem.Addr, _ int, _ uint64) {
	w.frees++
	if base == 0 {
		w.zero++
	}
}

func (w *countingWatcher) OnHeapReuse(mem.Addr, int, uint64) {}

// everyKth fails every k-th malloc.
type everyKth struct{ k, calls, failed int }

func (e *everyKth) MallocFault(int, uint64) (bool, uint64) {
	e.calls++
	if e.calls%e.k != 0 {
		return false, 0
	}
	e.failed++
	return true, 0
}

// countingJournal counts structural metadata records.
type countingJournal struct{ records int }

func (j *countingJournal) JournalMeta(*vtime.Thread, string, mem.Addr, uint64, uint64) { j.records++ }
