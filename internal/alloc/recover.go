package alloc

import (
	"sort"

	"repro/internal/mem"
	"repro/internal/vtime"
)

// Durable-heap seam: metadata journaling and crash recovery.
//
// Under a durable memory (internal/pmem) the allocator's in-band
// metadata — glibc boundary tags, free-list link words — lives in
// persistent memory and can tear: a crash preserves only the cache
// lines that were flushed and fenced. The journal is the allocator's
// out-of-band insurance: models append one record per structural event
// (arena/superblock/span creation, class assignment) so that recovery
// can rebuild every free list from journaled truth plus compile-time
// layout constants, without consulting the crashed instance's host-side
// maps (which model DRAM and are lost with it).
//
// The block-lifecycle half of the journal needs no allocator changes:
// pmem receives every malloc/free through the Space observer fan-out
// (mem.HeapWatcher). Only the structural records below and the
// per-model RecoverHeap repair pass are new seams.

// MetaJournal receives allocator structural-metadata records. The
// append is priced on the calling thread (one LogAppend per record —
// a write-combining store into the journal region); internal/pmem
// implements it structurally so models never import pmem. It attaches
// through Attach (Hooks.Journal), and models append through
// ThreadStats.JournalMeta.
type MetaJournal interface {
	// JournalMeta appends one structural record. kind names the event
	// ("arena", "superblock", "span", ...), base its region; a and b are
	// kind-specific operands (sizes, class indices). th may be nil for
	// construction-time events raised before any simulated thread exists.
	JournalMeta(th *vtime.Thread, kind string, base mem.Addr, a, b uint64)
}

// RecordedBlock is one journaled heap block handed to recovery: its
// user base address, the requested size and the usable (size-class)
// bytes the allocator dedicated to it.
type RecordedBlock struct {
	Base   mem.Addr
	Req    uint64
	Usable uint64
}

// MetaRec is one journaled structural record, as appended via
// JournalMeta.
type MetaRec struct {
	Kind string
	Base mem.Addr
	A, B uint64
}

// RecoverState is the journaled truth recovery hands to a model's
// RecoverHeap: which blocks were live and which were freed at the
// crash (both sorted by base address), plus the structural records in
// append order. Blocks in regions returned to the simulated OS are
// already excluded.
type RecoverState struct {
	Live  []RecordedBlock
	Freed []RecordedBlock
	Meta  []MetaRec
}

// FreedSet reports whether a is the base of a freed block (for use as
// a RebuildChain / WalkChain membership predicate).
func (st *RecoverState) FreedSet() func(mem.Addr) bool {
	return func(a mem.Addr) bool {
		i := sort.Search(len(st.Freed), func(i int) bool { return st.Freed[i].Base >= a })
		return i < len(st.Freed) && st.Freed[i].Base == a
	}
}

// RecoverReport summarizes a model's metadata repair pass.
type RecoverReport struct {
	// TornMeta counts metadata words whose durable content disagreed
	// with journaled truth and were rewritten; MetaWords the words
	// scanned. Their ratio is the "how badly does this layout tear"
	// metric.
	TornMeta  uint64
	MetaWords uint64
	// Chains and FreeBlocks count the rebuilt free lists and the blocks
	// linked into them; Heads are the rebuilt chain heads, in a
	// deterministic order, for the closure walk.
	Chains     int
	FreeBlocks int
	Heads      []mem.Addr
	// NodeOffset translates a chain node address to the block's user
	// address (user = node + NodeOffset): glibc chains link chunk bases,
	// one boundary tag below the user pointer; the header-less models
	// link user bases directly.
	NodeOffset uint64
}

// RebuildChain rewrites the free-list link words of one logical free
// list into a canonical chain: blocks sorted ascending, each block's
// word 0 pointing at the next, the last at 0, head the lowest address
// (so LIFO pops ascend, matching a fresh carve). Before rewriting it
// scans each existing link word and counts as torn any value that is
// neither 0 nor a member of the list (per inSet) — durable images of a
// healthy chain contain only member links and tails, so anything else
// is a torn line or leftover user data. blocks is sorted in place.
func RebuildChain(th *vtime.Thread, blocks []mem.Addr, inSet func(mem.Addr) bool) (head mem.Addr, torn uint64) {
	if len(blocks) == 0 {
		return 0, 0
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	for i, b := range blocks {
		var next mem.Addr
		if i+1 < len(blocks) {
			next = blocks[i+1]
		}
		old := th.Load(b)
		if old != 0 && !inSet(mem.Addr(old)) {
			torn++
		}
		if old != uint64(next) {
			th.Store(b, uint64(next))
		}
	}
	return blocks[0], torn
}

// RebuildFreeLists is the free-list half of a model's RecoverHeap: it
// groups the freed blocks by free list (list maps a block to its list's
// key; ok false leaves the block unchained), relinks each group into
// one canonical chain with RebuildChain in ascending key order, and
// reports the chains. Chain nodes sit offset bytes below the user base
// (glibc links chunk headers; the header-less models link user bases).
func RebuildFreeLists(th *vtime.Thread, st *RecoverState, offset uint64, list func(RecordedBlock) (key uint64, ok bool)) RecoverReport {
	rep := RecoverReport{NodeOffset: offset}
	groups := map[uint64][]mem.Addr{}
	for _, b := range st.Freed {
		if k, ok := list(b); ok {
			groups[k] = append(groups[k], b.Base-mem.Addr(offset))
		}
	}
	keys := make([]uint64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	freed := st.FreedSet()
	inSet := func(node mem.Addr) bool { return freed(node + mem.Addr(offset)) }
	for _, k := range keys {
		nodes := groups[k]
		head, torn := RebuildChain(th, nodes, inSet)
		rep.Chains++
		rep.FreeBlocks += len(nodes)
		rep.MetaWords += uint64(len(nodes))
		rep.TornMeta += torn
		rep.Heads = append(rep.Heads, head)
	}
	return rep
}

// WalkChain follows free-list links from head, reporting how many
// blocks it visited and whether the chain is closed: every visited
// block satisfies member and the walk terminates at 0 within max
// steps (a cycle or an escape from the member set reports false).
func WalkChain(th *vtime.Thread, head mem.Addr, member func(mem.Addr) bool, max int) (n int, ok bool) {
	for a := head; a != 0; a = mem.Addr(th.Load(a)) {
		if !member(a) || n >= max {
			return n, false
		}
		n++
	}
	return n, true
}
