// Package obs is the unified observability layer: virtual-time event
// tracing, a metrics registry with Prometheus/JSON output, a per-ORT-
// stripe contention heatmap, and machine-readable run artifacts.
//
// A *Recorder is the single handle the instrumented subsystems (stm,
// alloc, vtime, harness) hold. A nil *Recorder is the disabled state:
// every emitter method is safe to call on nil and returns immediately,
// so the cost of disabled instrumentation at a call site is one pointer
// nil-check. All timestamps are virtual cycles from the vtime engine —
// never wall clock — so recorded traces and metrics are byte-for-byte
// deterministic for a fixed seed.
//
// Events are buffered in bounded per-logical-thread ring buffers that
// grow as events arrive, up to a fixed capacity (past it the newest
// events win; the drop count is reported). Exporters render
// the merged, deterministically ordered stream as Chrome trace-event
// JSON (loadable in Perfetto or chrome://tracing) or as JSONL.
package obs

import "fmt"

// Kind classifies one recorded event.
type Kind uint8

// Event kinds.
const (
	KindTxCommit    Kind = iota // committed transaction (dur = whole attempt)
	KindTxAbort                 // aborted attempt (cause + ORT stripe in args)
	KindAlloc                   // allocator malloc (dur = allocator latency)
	KindFree                    // allocator free
	KindLockWait                // contended wait on an allocator lock
	KindTransfer                // superblock / central-cache / arena transfer
	KindQuantum                 // one scheduler quantum of a logical thread
	KindFault                   // an injected or detected fault (OOM, bad free, storm, stall)
	KindIrrevocable             // a transaction ran irrevocably under the fallback lock
	KindWatchdog                // the harness watchdog fired (deadline / captured panic)
	KindRegion                  // a closed profiler region (dur = region span)
	KindCounter                 // one periodic counter sample (heap telemetry; value in A)
	kindCount
)

func (k Kind) String() string {
	switch k {
	case KindTxCommit:
		return "tx-commit"
	case KindTxAbort:
		return "tx-abort"
	case KindAlloc:
		return "malloc"
	case KindFree:
		return "free"
	case KindLockWait:
		return "lock-wait"
	case KindTransfer:
		return "transfer"
	case KindQuantum:
		return "quantum"
	case KindFault:
		return "fault"
	case KindIrrevocable:
		return "irrevocable"
	case KindWatchdog:
		return "watchdog"
	case KindRegion:
		return "region"
	case KindCounter:
		return "counter"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Cat returns the trace category (the emitting subsystem).
func (k Kind) Cat() string {
	switch k {
	case KindTxCommit, KindTxAbort:
		return "stm"
	case KindAlloc, KindFree, KindLockWait, KindTransfer:
		return "alloc"
	case KindQuantum:
		return "sched"
	case KindFault:
		return "fault"
	case KindIrrevocable:
		return "stm"
	case KindWatchdog:
		return "harness"
	case KindRegion:
		return "prof"
	case KindCounter:
		return "heap"
	}
	return "obs"
}

// Event is one recorded occurrence. TS and Dur are virtual cycles. The
// meaning of A and B depends on Kind:
//
//	KindTxCommit: A = read-set size, B = write-set size
//	KindTxAbort:  A = ORT entry index (NoStripe if unattributed),
//	              B = 1 for a false (stripe-sharing/aliasing) abort
//	KindAlloc:    A = requested size, B = block address
//	KindFree:     B = block address
//	KindTransfer: A = payload count (blocks moved, bytes, ...)
//	KindLockWait, KindQuantum: unused
type Event struct {
	Kind  Kind
	TID   int32
	Epoch int32 // phase index (sub-run) the event belongs to
	Seq   uint64
	TS    uint64
	Dur   uint64
	A, B  uint64
	Label string // reason / allocator / lock / transfer kind
}

// NoStripe marks a tx abort with no single attributable ORT entry
// (e.g. commit-time read-set validation failure).
const NoStripe = ^uint64(0)

// DefaultRingSize is the per-thread event ring capacity.
const DefaultRingSize = 1 << 15

// Config parameterizes a Recorder.
type Config struct {
	RingSize int // events retained per logical thread (default 1<<15)
}

// minRingGrowth is the first backing-array size of a ring that grows.
const minRingGrowth = 64

// ring is a per-thread overwrite-oldest event buffer of at most size
// events. Its backing array doubles as events arrive, never past size;
// once it holds size events, each push overwrites the oldest.
type ring struct {
	buf  []Event
	size int
	n    uint64 // events ever pushed; once full, buf index = seq % size
}

func (r *ring) push(ev Event) {
	ev.Seq = r.n
	r.n++
	if len(r.buf) == r.size {
		r.buf[ev.Seq%uint64(r.size)] = ev
		return
	}
	if len(r.buf) == cap(r.buf) {
		buf := make([]Event, len(r.buf), min(max(2*cap(r.buf), minRingGrowth), r.size))
		copy(buf, r.buf)
		r.buf = buf
	}
	r.buf = append(r.buf, ev)
}

// events returns the retained events in push order.
func (r *ring) events() []Event {
	if r.n <= uint64(len(r.buf)) {
		return r.buf[:r.n]
	}
	out := make([]Event, 0, len(r.buf))
	for seq := r.n - uint64(len(r.buf)); seq < r.n; seq++ {
		out = append(out, r.buf[seq%uint64(len(r.buf))])
	}
	return out
}

func (r *ring) dropped() uint64 {
	if r.n <= uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// Recorder collects events and metrics. The zero value is not usable;
// construct with New. A nil *Recorder disables all instrumentation.
//
// Recorder is not host-thread-safe: the vtime engine serializes real
// execution (at most one logical thread runs at any instant), which is
// the concurrency model all instrumented subsystems already obey.
type Recorder struct {
	ringSize int
	rings    []*ring
	epoch    int32
	phases   []string

	// extraDropped counts events already dropped inside applied siblings
	// (they never reached this recorder's rings).
	extraDropped uint64

	reg  *Registry
	heat *Heatmap

	// Pre-resolved hot-path instruments (avoid registry lookups on the
	// commit and alloc paths).
	txCommits  *Counter
	txLatency  *Histogram
	txReadSet  *Histogram
	txWriteSet *Histogram
	lockWaits  *Counter
	lockCycles *Histogram
	quanta     *Counter

	// Label interning for the labeled emitters: the full instrument name
	// (`alloc_ops_total{alloc="glibc",op="malloc"}`) is concatenated only
	// on a label's first appearance; steady-state emits are a map lookup
	// on the bare label, so the hot emit paths stay allocation-free.
	abortReasons  map[string]*Counter
	allocMallocs  map[string]*Counter
	allocFrees    map[string]*Counter
	allocLatency  map[latKey]*Histogram
	transferKinds map[string]*Counter
	faultKinds    map[string]*Counter
}

// latKey keys the per-allocator, per-size-class latency histograms.
type latKey struct {
	alloc string
	class string
}

// New builds an enabled Recorder.
func New(cfg Config) *Recorder {
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	reg := NewRegistry()
	r := &Recorder{
		ringSize: cfg.RingSize,
		reg:      reg,
		heat:     NewHeatmap(),
		phases:   []string{"run"},

		txCommits:  reg.Counter("stm_tx_commits_total"),
		txLatency:  reg.Histogram("stm_tx_latency_cycles"),
		txReadSet:  reg.Histogram("stm_tx_read_set_size"),
		txWriteSet: reg.Histogram("stm_tx_write_set_size"),
		lockWaits:  reg.Counter("alloc_lock_waits_total"),
		lockCycles: reg.Histogram("alloc_lock_wait_cycles"),
		quanta:     reg.Counter("sched_quanta_total"),

		abortReasons:  make(map[string]*Counter),
		allocMallocs:  make(map[string]*Counter),
		allocFrees:    make(map[string]*Counter),
		allocLatency:  make(map[latKey]*Histogram),
		transferKinds: make(map[string]*Counter),
		faultKinds:    make(map[string]*Counter),
	}
	return r
}

// Sibling returns a fresh empty recorder with the same configuration —
// the per-cell private recorder that is later applied back into this
// one (nil on a nil recorder).
func (r *Recorder) Sibling() *Recorder {
	if r == nil {
		return nil
	}
	return New(Config{RingSize: r.ringSize})
}

// Metrics returns the metrics registry (nil on a nil recorder).
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// StripeHeatmap returns the per-ORT-stripe heatmap (nil on a nil
// recorder).
func (r *Recorder) StripeHeatmap() *Heatmap {
	if r == nil {
		return nil
	}
	return r.heat
}

// BeginPhase starts a new phase (sub-run). Subsequent events carry the
// new epoch and the trace exporter renders each phase as its own
// process, so multi-configuration experiment sweeps stay legible.
func (r *Recorder) BeginPhase(name string) {
	if r == nil {
		return
	}
	r.epoch = int32(len(r.phases))
	r.phases = append(r.phases, name)
}

// Phases returns the phase names, index == epoch.
func (r *Recorder) Phases() []string {
	if r == nil {
		return nil
	}
	return r.phases
}

func (r *Recorder) push(tid int, ev Event) {
	for tid >= len(r.rings) {
		r.rings = append(r.rings, &ring{size: r.ringSize})
	}
	ev.TID = int32(tid)
	ev.Epoch = r.epoch
	r.rings[tid].push(ev)
}

// TxCommit records a committed transaction spanning [start, end].
func (r *Recorder) TxCommit(tid int, start, end uint64, reads, writes int) {
	if r == nil {
		return
	}
	r.txCommits.Inc()
	r.txLatency.Observe(end - start)
	r.txReadSet.Observe(uint64(reads))
	r.txWriteSet.Observe(uint64(writes))
	r.push(tid, Event{Kind: KindTxCommit, TS: start, Dur: end - start,
		A: uint64(reads), B: uint64(writes)})
}

// TxAbort records an aborted transaction attempt. reason is the abort
// cause ("locked-by-other", "version-ahead", ...). stripe is the ORT
// entry whose conflict killed the attempt (NoStripe when the abort has
// no single attributable entry). falseAbort marks a conflict where the
// competing access was to a *different* address that merely shares or
// aliases to the stripe — the paper's placement-induced abort. ownerKey
// and reqKey are the placement keys (addr >> shift) of the two accesses
// feeding the heatmap's "which placements alias" attribution.
func (r *Recorder) TxAbort(tid int, start, end uint64, reason string, stripe uint64, falseAbort bool, ownerKey, reqKey uint64) {
	if r == nil {
		return
	}
	c, ok := r.abortReasons[reason]
	if !ok {
		c = r.reg.Counter(`stm_tx_aborts_total{reason="` + reason + `"}`)
		r.abortReasons[reason] = c
	}
	c.Inc()
	var fa uint64
	if falseAbort {
		fa = 1
		r.reg.Counter("stm_tx_false_aborts_total").Inc()
	}
	if stripe != NoStripe {
		r.heat.Record(stripe, falseAbort, ownerKey, reqKey)
	}
	r.push(tid, Event{Kind: KindTxAbort, TS: start, Dur: end - start,
		A: stripe, B: fa, Label: reason})
}

// sizeClass buckets a request size Table 5-style.
func sizeClass(size uint64) string {
	switch {
	case size <= 16:
		return "<=16"
	case size <= 32:
		return "<=32"
	case size <= 48:
		return "<=48"
	case size <= 64:
		return "<=64"
	case size <= 96:
		return "<=96"
	case size <= 128:
		return "<=128"
	case size <= 256:
		return "<=256"
	}
	return ">256"
}

// Alloc records one allocator malloc spanning [start, end] virtual
// cycles inside the named allocator.
func (r *Recorder) Alloc(allocator string, tid int, start, end uint64, size, addr uint64) {
	if r == nil {
		return
	}
	c, ok := r.allocMallocs[allocator]
	if !ok {
		c = r.reg.Counter(`alloc_ops_total{alloc="` + allocator + `",op="malloc"}`)
		r.allocMallocs[allocator] = c
	}
	c.Inc()
	lk := latKey{alloc: allocator, class: sizeClass(size)}
	h, ok := r.allocLatency[lk]
	if !ok {
		h = r.reg.Histogram(`alloc_latency_cycles{alloc="` + lk.alloc + `",class="` + lk.class + `"}`)
		r.allocLatency[lk] = h
	}
	h.Observe(end - start)
	r.push(tid, Event{Kind: KindAlloc, TS: start, Dur: end - start,
		A: size, B: addr, Label: allocator})
}

// Free records one allocator free.
func (r *Recorder) Free(allocator string, tid int, start, end uint64, addr uint64) {
	if r == nil {
		return
	}
	c, ok := r.allocFrees[allocator]
	if !ok {
		c = r.reg.Counter(`alloc_ops_total{alloc="` + allocator + `",op="free"}`)
		r.allocFrees[allocator] = c
	}
	c.Inc()
	r.push(tid, Event{Kind: KindFree, TS: start, Dur: end - start,
		B: addr, Label: allocator})
}

// LockWait records a contended wait on an allocator lock.
func (r *Recorder) LockWait(tid int, start, end uint64) {
	if r == nil {
		return
	}
	r.lockWaits.Inc()
	r.lockCycles.Observe(end - start)
	r.push(tid, Event{Kind: KindLockWait, TS: start, Dur: end - start, Label: "alloc-lock"})
}

// Transfer records a bulk ownership movement inside an allocator —
// a Hoard superblock migrating to/from the global heap, a TCMalloc
// central-cache refill, a fresh Glibc arena — with an optional payload
// count n (blocks moved, bytes, ...).
func (r *Recorder) Transfer(kind string, tid int, clock uint64, n uint64) {
	if r == nil {
		return
	}
	c, ok := r.transferKinds[kind]
	if !ok {
		c = r.reg.Counter(`alloc_transfers_total{kind="` + kind + `"}`)
		r.transferKinds[kind] = c
	}
	c.Inc()
	r.push(tid, Event{Kind: KindTransfer, TS: clock, A: n, Label: kind})
}

// Quantum records one scheduler slice of a logical thread.
func (r *Recorder) Quantum(tid int, start, end uint64) {
	if r == nil {
		return
	}
	r.quanta.Inc()
	r.push(tid, Event{Kind: KindQuantum, TS: start, Dur: end - start})
}

// Fault records one injected or detected fault. kind names the fault
// class ("oom", "lat-spike", "stall", "abort-storm", "double-free",
// "bad-free", ...); a is fault-specific payload (malloc count, stall
// cycles, faulting address).
func (r *Recorder) Fault(kind string, tid int, clock uint64, a uint64) {
	if r == nil {
		return
	}
	c, ok := r.faultKinds[kind]
	if !ok {
		c = r.reg.Counter(`fault_injected_total{kind="` + kind + `"}`)
		r.faultKinds[kind] = c
	}
	c.Inc()
	r.push(tid, Event{Kind: KindFault, TS: clock, A: a, Label: kind})
}

// Irrevocable records one transaction that fell back to irrevocable
// execution under the global fallback lock after exhausting its retry
// cap, spanning [start, end] virtual cycles. aborts is the consecutive-
// abort streak that triggered the fallback.
func (r *Recorder) Irrevocable(tid int, start, end uint64, aborts uint64) {
	if r == nil {
		return
	}
	r.reg.Counter("stm_irrevocable_total").Inc()
	r.reg.Histogram("stm_irrevocable_cycles").Observe(end - start)
	r.push(tid, Event{Kind: KindIrrevocable, TS: start, Dur: end - start, A: aborts})
}

// Starvation publishes the livelock/starvation detector's watermarks:
// the worst consecutive-abort streak and the largest commit-age gap
// (virtual cycles between two successive commits of one thread) seen so
// far.
func (r *Recorder) Starvation(maxConsecAborts, maxCommitGap uint64) {
	if r == nil {
		return
	}
	g := r.reg.Gauge("stm_max_consecutive_aborts")
	if float64(maxConsecAborts) > g.Value() {
		g.Set(float64(maxConsecAborts))
	}
	g = r.reg.Gauge("stm_max_commit_gap_cycles")
	if float64(maxCommitGap) > g.Value() {
		g.Set(float64(maxCommitGap))
	}
}

// Watchdog records the harness watchdog firing. label describes the
// trigger ("deadline" or "panic").
func (r *Recorder) Watchdog(label string, tid int, clock uint64) {
	if r == nil {
		return
	}
	r.reg.Counter(`watchdog_trips_total{trigger="` + label + `"}`).Inc()
	r.push(tid, Event{Kind: KindWatchdog, TS: clock, Label: label})
}

// Region records one closed profiler region spanning [start, end] —
// the bridge that puts prof's phase structure on the trace's
// per-thread tracks. Emitted only when a run is both traced and
// profiled (prof.Profiler.SetRecorder).
func (r *Recorder) Region(tid int, start, end uint64, name string) {
	if r == nil {
		return
	}
	r.push(tid, Event{Kind: KindRegion, TS: start, Dur: end - start, Label: name})
}

// Counter records one sampled value of the named counter track at
// virtual cycle ts — the heapscope bridge that renders allocator-state
// series as Perfetto counter tracks ("C" phase) alongside the event
// spans. Counter samples are attributed to thread 0's ring: they
// describe whole-heap state, not one thread's activity.
func (r *Recorder) Counter(name string, ts uint64, v uint64) {
	if r == nil {
		return
	}
	r.push(0, Event{Kind: KindCounter, TS: ts, A: v, Label: name})
}

// Gauge sets a named gauge (convenience passthrough).
func (r *Recorder) Gauge(name string, v float64) {
	if r == nil {
		return
	}
	r.reg.Gauge(name).Set(v)
}

// Dropped returns how many events were overwritten in the rings.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	d := r.extraDropped
	for _, rg := range r.rings {
		d += rg.dropped()
	}
	return d
}

// EventCount returns how many events are currently retained.
func (r *Recorder) EventCount() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, rg := range r.rings {
		n += len(rg.events())
	}
	return n
}
