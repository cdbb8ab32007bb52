// Package intset implements the paper's synthetic benchmark (§5): a
// configurable number of threads updating (inserting or deleting) or
// searching a transactional integer set held in one of three data
// structures — a sorted linked list, a hash set or a red-black tree.
//
// Insertions and deletions take turns so the set size stays nearly
// constant: "the next element to be removed is the last one inserted".
// Before the threads are spawned the main thread allocates all the
// initial nodes and inserts them, exactly as the paper describes — the
// initial layout the allocator chooses for those nodes is what drives
// the linked-list results.
package intset

import (
	"fmt"
	"strings"

	"repro/internal/alloc"
	"repro/internal/cachesim"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stm"
	"repro/internal/txstruct"
	"repro/internal/vtime"
)

// Kind selects the data structure under test.
type Kind string

// The three §5 structures.
const (
	LinkedList Kind = "linkedlist"
	HashSet    Kind = "hashset"
	RBTree     Kind = "rbtree"
)

// Kinds lists the structures in the paper's order.
func Kinds() []Kind { return []Kind{LinkedList, HashSet, RBTree} }

// ParseKind maps a structure name to its Kind.
func ParseKind(name string) (Kind, error) {
	names := make([]string, 0, len(Kinds()))
	for _, k := range Kinds() {
		if string(k) == name {
			return k, nil
		}
		names = append(names, string(k))
	}
	return "", fmt.Errorf("intset: unknown structure %q (allowed: %s)", name, strings.Join(names, ", "))
}

// Set is the common transactional set interface the three structures
// expose.
type Set interface {
	Insert(tx *stm.Tx, key int64) bool
	Remove(tx *stm.Tx, key int64) bool
	Contains(tx *stm.Tx, key int64) bool
	Len(tx *stm.Tx) int
}

type rbAdapter struct{ t *txstruct.RBTree }

func (a rbAdapter) Insert(tx *stm.Tx, k int64) bool   { return a.t.Insert(tx, k, uint64(k)) }
func (a rbAdapter) Remove(tx *stm.Tx, k int64) bool   { return a.t.Remove(tx, k) }
func (a rbAdapter) Contains(tx *stm.Tx, k int64) bool { return a.t.Contains(tx, k) }
func (a rbAdapter) Len(tx *stm.Tx) int                { return a.t.Len(tx) }

// Config parameterizes one benchmark run. Zero fields take the paper's
// defaults (scaled by callers for quick runs).
type Config struct {
	Kind         Kind
	Allocator    string // "glibc", "hoard", "tbb", "tcmalloc"
	Threads      int
	InitialSize  int        // paper: 4096
	KeyRange     int        // paper: 8192
	UpdatePct    int        // 0, 20 or 60 (write-dominated)
	OpsPerThread int        // operations each thread performs
	Shift        uint       // ORT shift amount (paper default 5)
	Design       stm.Design // STM algorithm variant (ablations)
	// CacheTx is the deprecated boolean spelling of Pool == PoolCache;
	// it is kept for old callers and conflicts with a non-none Pool.
	CacheTx     bool
	Pool        stm.Pooling // tx-object recycling discipline (none/cache/pool/batch)
	Seed        uint64
	HashBuckets uint64 // hash set only; paper: 128K
	// Instruments are the host-side observers the caller builds per
	// cell; core.Instruments says why they precede Policy.
	core.Instruments
	// Policy carries the robustness policy (CM, retry cap, faults,
	// deadline, durability) and the simulated-side observer switches;
	// core.NewSystem builds and attaches them.
	core.Policy
	// SeedUAF plants a use-after-free at the start of the measurement
	// phase: thread 0 allocates and stores, frees, then reads the stale
	// pointer in a fresh transaction. Under the sanitizer the run fails
	// with a diagnostic; without it the read silently returns recycled
	// memory. The field is part of the spec, so seeded and clean runs
	// hash to different cells.
	SeedUAF bool
	// SeedRace plants the paper's in-band-metadata race at the start of
	// the measurement phase: thread 0 publishes a block through a
	// committed transaction and then frees it raw — straight to the
	// allocator, bypassing the STM's quarantine — while thread 1 reads
	// it in a transaction whose snapshot predates the free. Under
	// -race-sim the run fails with a metadata finding; without it the
	// read silently returns whatever the allocator's free-list left
	// behind. Needs Threads >= 2 (same-thread frees are always
	// ordered). The field is part of the spec, so seeded and clean runs
	// hash to different cells.
	SeedRace bool
	// SeedAlias plants a deterministic ORT stripe-aliasing conflict at
	// the start of the measurement phase: thread 0 allocates a probe
	// block, walks the heap until a second block maps to the same ORT
	// entry from a *different* memory stripe (the table-wrap aliasing of
	// the paper's 64 MiB glibc effect), then repeatedly stores to the
	// first block while holding the stripe open; thread 1 hammers the
	// second. Every resulting abort is a false conflict between
	// addresses that share nothing but the ORT entry. Under -conflict
	// the run fails with a stripe-alias diagnosis; without it the aborts
	// just count as FalseAborts. Needs Threads >= 2. Part of the spec,
	// so seeded and clean runs hash to different cells. Unless OrtBits
	// is set explicitly, the demo shrinks the table to 12 bits so the
	// aliasing pair exists within a 128 KiB heap walk.
	SeedAlias bool
	// OrtBits overrides the ORT size (log2 of the entry count; 0 keeps
	// the stm default of 20). Small tables make the modulo wrap — and
	// therefore stripe aliasing — reachable for small heaps. Part of
	// the spec.
	OrtBits uint
}

func (c *Config) fill() {
	if c.Threads == 0 {
		c.Threads = 1
	}
	if c.InitialSize == 0 {
		c.InitialSize = 4096
	}
	if c.KeyRange == 0 {
		c.KeyRange = 2 * c.InitialSize
	}
	if c.OpsPerThread == 0 {
		c.OpsPerThread = 1000
	}
	if c.Shift == 0 {
		c.Shift = stm.DefaultShift
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
	if c.HashBuckets == 0 {
		c.HashBuckets = 128 << 10
	}
	if c.Allocator == "" {
		c.Allocator = "glibc"
	}
}

// Result reports one run's measurements.
type Result struct {
	Config     Config
	Cycles     uint64  // virtual execution time of the parallel phase
	Seconds    float64 // Cycles at the model frequency
	Ops        uint64
	Throughput float64 // ops per modelled second
	Tx         stm.TxStats
	L1Miss     float64 // L1D miss ratio over the parallel phase
	CacheTotal cachesim.CoreStats
	AllocStats alloc.Stats
	Status     string // obs.StatusOK / StatusDegraded / StatusFailed
	Failure    string // watchdog / panic detail when Status is not ok
	// Blocks carry the observer verdicts: durable-memory recovery and
	// tx-pool traffic, the race checker's verdict and the conflict
	// observatory's headline, each nil when not in use.
	obs.Blocks
	// ConflictReport is the conflict observatory's full graph, blame
	// table and exemplar reservoir; nil when it was not attached.
	ConflictReport *conflict.Report `json:"conflict_report,omitempty"`
}

// Run executes the benchmark described by cfg and returns its result.
// Configuration errors are returned as errors; a run that starts but is
// wound down (watchdog deadline) or panics under injected faults comes
// back with Status degraded or failed, so callers always have a
// machine-readable outcome to record.
func Run(cfg Config) (res Result, err error) {
	cfg.fill()
	defer func() {
		if r := recover(); r != nil {
			res.Config = cfg
			res.Status = obs.StatusFailed
			res.Failure = fmt.Sprint(r)
			err = nil
		}
	}()
	// The SeedAlias demo needs the modulo to wrap within a small heap:
	// shrink the table unless the caller pinned a size.
	ortBits := cfg.OrtBits
	if cfg.SeedAlias && ortBits == 0 {
		ortBits = 12
	}
	sys, err := core.NewSystem(core.Options{
		Allocator: cfg.Allocator, Threads: cfg.Threads, Shift: cfg.Shift,
		OrtBits: ortBits, Design: cfg.Design, Pool: cfg.Pool, CacheTx: cfg.CacheTx,
		Seed: cfg.Seed, Instruments: cfg.Instruments, Policy: cfg.Policy,
	})
	if err != nil {
		return Result{}, err
	}
	engine, st, allocator := sys.Engine, sys.STM, sys.Allocator
	cfg.Obs.BeginPhase(fmt.Sprintf("intset/%s/%s/t%d/u%d",
		cfg.Kind, cfg.Allocator, cfg.Threads, cfg.UpdatePct))

	var set Set
	rng := sim.NewRand(cfg.Seed)

	// Initialization: the main thread (thread 0) allocates and inserts
	// every initial node.
	engine.Run(func(th *vtime.Thread) {
		defer cfg.Prof.Region(th, "intset/init")()
		if th.ID() != 0 {
			return
		}
		st.Atomic(th, func(tx *stm.Tx) {
			tx.SetKind("init")
			switch cfg.Kind {
			case LinkedList:
				set = txstruct.NewList(tx)
			case HashSet:
				set = txstruct.NewHashSet(tx, cfg.HashBuckets)
			case RBTree:
				set = rbAdapter{txstruct.NewRBTree(tx)}
			default:
				panic(fmt.Sprintf("intset: unknown kind %q", cfg.Kind))
			}
		})
		for inserted := 0; inserted < cfg.InitialSize; {
			k := int64(rng.Intn(cfg.KeyRange))
			ok := false
			st.Atomic(th, func(tx *stm.Tx) { tx.SetKind("init"); ok = set.Insert(tx, k) })
			if ok {
				inserted++
			}
		}
	})

	if engine.DeadlineExceeded() {
		return Result{
			Config:  cfg,
			Status:  obs.StatusDegraded,
			Failure: fmt.Sprintf("virtual-time deadline %d exceeded during initialization", cfg.Deadline),
		}, nil
	}

	// The measurement covers only the parallel phase.
	sys.ResetClocks()
	missBase := sys.Cache.TotalStats()
	txBase := st.Stats()

	// racePlant is the SeedRace demo's published-then-raw-freed block,
	// shared across the demo threads (the engine serializes access).
	var racePlant mem.Addr
	// aliasA/aliasB are the SeedAlias demo's aliasing pair: different
	// memory stripes, one ORT entry (same sharing discipline).
	var aliasA, aliasB mem.Addr
	measure := func(th *vtime.Thread) {
		defer cfg.Prof.Region(th, "intset/run")()
		if cfg.SeedUAF && th.ID() == 0 {
			var p mem.Addr
			st.Atomic(th, func(tx *stm.Tx) { p = tx.Malloc(64); tx.Store(p, 0xdead) })
			st.Atomic(th, func(tx *stm.Tx) { tx.Free(p, 64) })
			st.Atomic(th, func(tx *stm.Tx) { tx.Load(p) })
		}
		if cfg.SeedRace && cfg.Threads >= 2 {
			// The spacers choreograph the hazard window under min-clock
			// scheduling: thread 0's plant commits first, thread 1 opens a
			// transaction whose snapshot sees the plant but not the free,
			// and holds it open (Work inside the tx) until well after the
			// raw free lands. Thread 0 must not commit anything between
			// the plant and the free, or the later release would order the
			// free for every later snapshot and close the window.
			switch th.ID() {
			case 0:
				// Publish a block through a committed transaction, then
				// free it raw — straight to the allocator, bypassing the
				// STM's free/quarantine path. The allocator may reuse the
				// words for in-band metadata while thread 1's snapshot
				// still reaches the block: the paper's glibc hazard.
				st.Atomic(th, func(tx *stm.Tx) { racePlant = tx.Malloc(64); tx.Store(racePlant, 0xdead) })
				th.Work(1 << 17)
				//tmvet:allow txescape: the escape *is* the planted bug under study
				allocator.Free(th, racePlant)
			case 1:
				// Past the plant commit (a few thousand cycles), but well
				// before thread 0's free at ~1<<17.
				th.Work(1 << 16)
				st.Atomic(th, func(tx *stm.Tx) {
					tx.Load(racePlant)
					th.Work(1 << 18) // stay open across the raw free
				})
			}
		}
		if cfg.SeedAlias && cfg.Threads >= 2 {
			switch th.ID() {
			case 0:
				// Discover an aliasing pair: allocate a probe block, then
				// keep allocating until a block in a *different* stripe
				// folds onto the probe's ORT entry through the shrunken
				// table's modulo. The sizes are mixed on purpose: a single
				// size class places blocks a fixed number of stripes apart,
				// and a power-of-two stride can only ever reach a subset of
				// the table's residues; mixing half-stripe offsets makes
				// every residue reachable.
				st.Atomic(th, func(tx *stm.Tx) {
					tx.SetKind("alias-seed")
					probe := tx.Malloc(64)
					tx.Store(probe, 1)
					target := st.OrtIndex(probe)
					for i := 0; i < 1<<16; i++ {
						b := tx.Malloc(64 + 16*uint64(i%4))
						if st.OrtIndex(b) == target &&
							uint64(b)>>cfg.Shift != uint64(probe)>>cfg.Shift {
							aliasA, aliasB = probe, b
							return
						}
					}
					panic("intset: SeedAlias found no aliasing block within 1<<16 allocations")
				})
				// Hammer the probe in long transactions so thread 1's
				// stores to the *other* block keep hitting the locked
				// shared entry.
				for r := 0; r < 8; r++ {
					st.Atomic(th, func(tx *stm.Tx) {
						tx.SetKind("alias-a")
						tx.Store(aliasA, uint64(r))
						th.Work(1 << 14) // hold the entry's lock open
					})
				}
			case 1:
				// The engine schedules by minimum clock, so spinning in
				// small Work quanta deterministically parks this thread
				// until thread 0's discovery commit publishes the pair.
				for aliasB == 0 {
					th.Work(4096)
				}
				for r := 0; r < 8; r++ {
					st.Atomic(th, func(tx *stm.Tx) {
						tx.SetKind("alias-b")
						tx.Store(aliasB, uint64(r))
					})
					th.Work(512)
				}
			}
		}
		r := sim.NewRand(cfg.Seed*1000003 + uint64(th.ID()) + 1)
		lastInserted := int64(-1)
		for i := 0; i < cfg.OpsPerThread; i++ {
			k := int64(r.Intn(cfg.KeyRange))
			update := r.Intn(100) < cfg.UpdatePct
			switch {
			case !update:
				st.Atomic(th, func(tx *stm.Tx) { tx.SetKind("contains"); set.Contains(tx, k) })
			case lastInserted < 0:
				st.Atomic(th, func(tx *stm.Tx) { tx.SetKind("insert"); set.Insert(tx, k) })
				lastInserted = k
			default:
				k := lastInserted
				st.Atomic(th, func(tx *stm.Tx) { tx.SetKind("remove"); set.Remove(tx, k) })
				lastInserted = -1
			}
		}
	}
	if !engine.Stopped() {
		engine.Run(measure)
	}

	cycles := sys.EndPhase()
	phase := sys.Cache.TotalStats().Sub(missBase)
	ops := uint64(cfg.Threads) * uint64(cfg.OpsPerThread)
	secs := vtime.Seconds(cycles)
	thr := 0.0
	if secs > 0 {
		// A crash during initialization leaves no measured cycles; report
		// zero throughput rather than dividing by zero.
		thr = float64(ops) / secs
	}
	res = Result{
		Config:     cfg,
		Cycles:     cycles,
		Seconds:    secs,
		Ops:        ops,
		Throughput: thr,
		Tx:         st.Stats().Sub(txBase),
		L1Miss:     phase.L1MissRatio(),
		CacheTotal: phase,
		AllocStats: allocator.Stats(),
		Status:     obs.StatusOK,
	}
	if engine.DeadlineExceeded() {
		res.Status = obs.StatusDegraded
		res.Failure = fmt.Sprintf("virtual-time deadline %d exceeded in the parallel phase", cfg.Deadline)
	}
	res.Status, res.Failure, res.Blocks = sys.Finish(res.Status, res.Failure)
	res.ConflictReport = sys.ConflictReport()
	if cfg.SeedAlias && res.Conflict != nil && res.Conflict.StripeAlias > 0 && res.Status == obs.StatusOK {
		// The seeded demo is choreographed to alias; classifying it is
		// the detection the CI gate asserts on.
		res.Status = obs.StatusFailed
		res.Failure = fmt.Sprintf("conflict: seeded stripe aliasing detected: %d stripe-alias aborts", res.Conflict.StripeAlias)
	}
	return res, nil
}
