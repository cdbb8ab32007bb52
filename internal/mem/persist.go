package mem

// Persist tracker: the durable-memory layer's view of the space.
//
// internal/pmem models the whole simulated address space as persistent
// memory. To price flush/fence traffic and replay a crash it needs two
// streams the other observers do not: every raw word store (to track
// dirty cache lines) and every region unmap (to drop durable state for
// memory returned to the OS). It also needs the allocator-block
// lifecycle, which it receives as an ordinary block watcher (Watch).
//
// Like those observers, a tracker is pure metadata: it must never touch
// simulated memory through a thread handle and never advance virtual
// time from these callbacks (pricing happens at the explicit
// Flush/Fence/journal call sites), so a run with a tracker attached but
// no flushes issued is cycle-identical to an untracked one.

// PersistTracker observes raw stores and unmaps for the durable-memory
// layer. Implementations are driven only from simulated threads, which
// the virtual-time engine serializes, so they need no internal locking.
type PersistTracker interface {
	// OnStore reports a word store (or successful compare-and-swap) at
	// address a, after the value hit volatile memory.
	OnStore(a Addr)
	// OnUnmap reports that the region [base, base+size) was returned to
	// the simulated OS; durable state covering it is gone.
	OnUnmap(base Addr, size uint64)
}

// SetPersistTracker attaches t. Set before the space is shared across
// simulated threads.
func (s *Space) SetPersistTracker(t PersistTracker) { s.ptrack = t }
