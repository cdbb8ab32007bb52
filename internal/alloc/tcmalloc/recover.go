package tcmalloc

import (
	"sort"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/vtime"
)

// Crash recovery. TCMalloc keeps the least in-band metadata of the four
// models: no block headers and no superblock headers — the page map is
// pure host-side state, rebuilt from journaled "span" records — so only
// free-list link words can tear. The volatile split between thread
// caches and the central lists is gone with the crash; recovery merges
// every freed block into one canonical central chain per size class.

// RecoverHeap implements alloc.Model. A freed block resolves to its
// size class through the journaled span covering it; freed large blocks
// never appear (their free unmaps the span).
func (t *TCMalloc) RecoverHeap(th *vtime.Thread, st *alloc.RecoverState) alloc.RecoverReport {
	type spanRec struct {
		base  mem.Addr
		bytes uint64
		class int
	}
	spans := make([]spanRec, 0, len(st.Meta))
	for _, m := range st.Meta {
		if m.Kind == "span" {
			spans = append(spans, spanRec{base: m.Base, bytes: m.A, class: int(m.B) - 1})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].base < spans[j].base })
	classOf := func(a mem.Addr) (int, bool) {
		i := sort.Search(len(spans), func(i int) bool { return spans[i].base > a })
		if i == 0 {
			return 0, false
		}
		sp := spans[i-1]
		if a >= sp.base+mem.Addr(sp.bytes) || sp.class < 0 {
			return 0, false
		}
		return sp.class, true
	}

	// A freed block outside every journaled span stays unchained and
	// surfaces as resurrection risk in the verifier — recovery must not
	// guess a class for it.
	return alloc.RebuildFreeLists(th, st, 0, func(b alloc.RecordedBlock) (uint64, bool) {
		ci, ok := classOf(b.Base)
		return uint64(ci), ok
	})
}
