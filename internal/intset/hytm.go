package intset

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/cachesim"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vtime"
)

// HyTMResult reports a hybrid-TM benchmark run.
type HyTMResult struct {
	Config     Config
	Cycles     uint64
	Seconds    float64
	Ops        uint64
	Throughput float64
	HTM        htm.Stats
	Alloc      alloc.Stats
}

// RunHyTM executes the hash-set workload under the best-effort HTM with
// lock-elision fallback instead of the STM — the paper's future-work
// configuration. Nodes are allocated *outside* the hardware
// transactions (allocator calls abort them), in the standard HTM
// programming pattern; the allocator's block placement still decides
// which nodes share cache lines, and under HTM line sharing *is*
// conflict sharing.
//
// Only the HashSet kind is supported (short transactions that fit
// hardware capacity).
func RunHyTM(cfg Config) (HyTMResult, error) {
	cfg.fill()
	if cfg.Kind != HashSet {
		return HyTMResult{}, fmt.Errorf("intset: RunHyTM supports only the hashset workload, got %q", cfg.Kind)
	}
	space := mem.NewSpace()
	allocator, err := alloc.New(cfg.Allocator, space, cfg.Threads)
	if err != nil {
		return HyTMResult{}, err
	}
	cache := cachesim.New(cachesim.DefaultCores)
	engine := vtime.NewEngine(space, cfg.Threads, vtime.Config{Cache: cache, Obs: cfg.Obs})
	alloc.Attach(allocator, alloc.Hooks{Rec: cfg.Obs})
	cfg.Obs.BeginPhase(fmt.Sprintf("hytm/%s/%s/t%d", cfg.Kind, cfg.Allocator, cfg.Threads))
	h := htm.New(space)

	nb := cfg.HashBuckets
	var buckets mem.Addr
	rng := sim.NewRand(cfg.Seed)

	hash := func(key int64) uint64 {
		x := uint64(key)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		return x & (nb - 1)
	}
	bucket := func(key int64) mem.Addr { return buckets + mem.Addr(hash(key)*8) }

	// contains/insert/remove over {value, next} nodes, HTM flavour.
	contains := func(c *htm.Ctx, key int64) bool {
		cur := mem.Addr(c.Load(bucket(key)))
		for cur != 0 {
			if int64(c.Load(cur)) == key {
				return true
			}
			cur = mem.Addr(c.Load(cur + 8))
		}
		return false
	}
	// insert links a pre-allocated node; reports false on duplicate.
	insert := func(c *htm.Ctx, key int64, node mem.Addr) bool {
		b := bucket(key)
		head := mem.Addr(c.Load(b))
		for cur := head; cur != 0; cur = mem.Addr(c.Load(cur + 8)) {
			if int64(c.Load(cur)) == key {
				return false
			}
		}
		c.Store(node, uint64(key))
		c.Store(node+8, uint64(head))
		c.Store(b, uint64(node))
		return true
	}
	// remove unlinks and returns the node address (0 if absent); the
	// caller frees it after commit (privatization).
	remove := func(c *htm.Ctx, key int64) mem.Addr {
		b := bucket(key)
		prev := mem.Addr(0)
		cur := mem.Addr(c.Load(b))
		for cur != 0 {
			next := mem.Addr(c.Load(cur + 8))
			if int64(c.Load(cur)) == key {
				if prev == 0 {
					c.Store(b, uint64(next))
				} else {
					c.Store(prev+8, uint64(next))
				}
				return cur
			}
			prev, cur = cur, next
		}
		return 0
	}

	// Init: thread 0 builds the bucket array and initial population.
	engine.Run(func(th *vtime.Thread) {
		if th.ID() != 0 {
			return
		}
		buckets = allocator.Malloc(th, nb*8)
		for i := uint64(0); i < nb; i++ {
			th.Store(buckets+mem.Addr(i*8), 0)
		}
		for inserted := 0; inserted < cfg.InitialSize; {
			k := int64(rng.Intn(cfg.KeyRange))
			node := allocator.Malloc(th, 16)
			ok := false
			h.Atomic(th, func(c *htm.Ctx) { ok = insert(c, k, node) })
			if ok {
				inserted++
			} else {
				allocator.Free(th, node)
			}
		}
	})

	engine.ResetClocks()
	engine.Run(func(th *vtime.Thread) {
		r := sim.NewRand(cfg.Seed*1000003 + uint64(th.ID()) + 1)
		lastInserted := int64(-1)
		for i := 0; i < cfg.OpsPerThread; i++ {
			k := int64(r.Intn(cfg.KeyRange))
			update := r.Intn(100) < cfg.UpdatePct
			switch {
			case !update:
				h.Atomic(th, func(c *htm.Ctx) { contains(c, k) })
			case lastInserted < 0:
				node := allocator.Malloc(th, 16)
				ok := false
				h.Atomic(th, func(c *htm.Ctx) { ok = insert(c, k, node) })
				if !ok {
					allocator.Free(th, node)
				}
				lastInserted = k
			default:
				k := lastInserted
				var victim mem.Addr
				h.Atomic(th, func(c *htm.Ctx) { victim = remove(c, k) })
				if victim != 0 {
					allocator.Free(th, victim)
				}
				lastInserted = -1
			}
		}
	})

	cycles := engine.MaxClock()
	ops := uint64(cfg.Threads) * uint64(cfg.OpsPerThread)
	return HyTMResult{
		Config:     cfg,
		Cycles:     cycles,
		Seconds:    vtime.Seconds(cycles),
		Ops:        ops,
		Throughput: float64(ops) / vtime.Seconds(cycles),
		HTM:        h.Stats(),
		Alloc:      allocator.Stats(),
	}, nil
}
