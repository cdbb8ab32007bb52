package mem

// Block watchers: pure observers of the allocator-block lifecycle.
//
// The sanitizer's shadow map (shadow.go), the persist tracker
// (persist.go), heap telemetry, the race checker and the conflict
// observatory all need the same three notifications — a block was
// handed out, a block was freed, a block was revived from a
// transaction-local cache — raised from the same allocator call sites
// with the same semantics (the first free wins; a reuse revives the
// original block). Space keeps one ordered watcher list, and
// Space.NoteAlloc/NoteFree/NoteReuse are the single fan-out point, so an
// allocator model carries one notification call per event rather than
// one per observer, and a new observer needs no new slot.
//
// A watcher is pure metadata: it must never touch simulated memory
// through a thread handle, never advance virtual time, and never alter
// allocator behaviour, so an observed run is byte-identical to an
// unobserved one.

// HeapWatcher observes allocator block lifecycle events. Implementations
// are driven only from simulated threads, which the virtual-time engine
// serializes, so they need no internal locking.
type HeapWatcher interface {
	// OnHeapAlloc reports a successful malloc: base is the user address,
	// req the requested bytes, usable the size-class block size actually
	// dedicated to the request.
	OnHeapAlloc(allocator string, base Addr, req, usable uint64, tid int, clock uint64)
	// OnHeapFree reports a free of the block at base. Unknown bases and
	// repeated frees of the same block may be delivered (the allocator
	// notifies before validating); implementations ignore them.
	OnHeapFree(base Addr, tid int, clock uint64)
	// OnHeapReuse reports a block revived from a transaction-local free
	// cache without the allocator seeing a free/malloc pair.
	OnHeapReuse(base Addr, tid int, clock uint64)
}

// Watch appends w to the space's block watchers; every later
// notification reaches the watchers in attach order. Attach before the
// space is shared across simulated threads.
func (s *Space) Watch(w HeapWatcher) { s.watchers = append(s.watchers, w) }

// Observed reports whether any block watcher is attached. Allocators
// consult it before computing notification arguments (e.g. a raw
// boundary-tag read) so the unobserved path stays one branch.
func (s *Space) Observed() bool { return len(s.watchers) != 0 }

// NoteAlloc fans a successful malloc out to the block watchers.
func (s *Space) NoteAlloc(allocator string, base Addr, req, usable uint64, tid int, clock uint64) {
	for _, w := range s.watchers {
		w.OnHeapAlloc(allocator, base, req, usable, tid, clock)
	}
}

// NoteFree fans a free out to the block watchers.
func (s *Space) NoteFree(base Addr, tid int, clock uint64) {
	for _, w := range s.watchers {
		w.OnHeapFree(base, tid, clock)
	}
}

// NoteReuse fans a transaction-cache block revival out to the block
// watchers.
func (s *Space) NoteReuse(base Addr, tid int, clock uint64) {
	for _, w := range s.watchers {
		w.OnHeapReuse(base, tid, clock)
	}
}
