// Package vacation ports STAMP's vacation: an in-memory travel
// reservation database. Three resource tables (cars, flights, rooms)
// and a customer table are red-black trees; client threads issue
// transactions that make reservations (the dominant action), delete
// customers, and add/remove resources. The configuration mirrors the
// paper's choice of the *high-contention* variant (-n4 -q60 -u90
// flavour): each reservation queries several records and updates
// shared ones.
//
// Allocation profile (paper Table 5): transactions allocate far more
// than they free — reservation list nodes (16/32 B) and tree nodes
// (48 B) accumulate — reproducing vacation's alloc>free signature.
package vacation

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/txstruct"
	"repro/internal/vtime"
)

func init() {
	stamp.Register("vacation", func() stamp.App { return &Vacation{} })
}

// Resource record layout: total, used, price (+pad) = 32 bytes.
const (
	resTotal = 0
	resUsed  = 8
	resPrice = 16
	resSize  = 32
)

// Customer reservation list node: {resource key, next} 16 bytes, plus a
// customer record {id, listHead} 16 bytes.
const (
	custID   = 0
	custHead = 8
	custSize = 16

	rvKey  = 0
	rvNext = 8
	rvSize = 16
)

// Resource table kinds.
const (
	tblCar = iota
	tblFlight
	tblRoom
	tblCount
)

// Vacation is the application state.
type Vacation struct {
	relations    int // ids per resource table
	opsPerThread int
	queriesPerOp int
	reservePct   int // share of actions that are reservations
	bookPct      int // share of reservation actions that actually book
	queryRange   int // id range a transaction's queries touch

	tables    [tblCount]*txstruct.RBTree
	customers *txstruct.RBTree
}

// Name implements stamp.App.
func (a *Vacation) Name() string { return "vacation" }

func (a *Vacation) params(s stamp.Scale, v stamp.Variant) {
	switch s {
	case stamp.Ref:
		a.relations, a.opsPerThread, a.queriesPerOp = 16384, 600, 4
	default:
		a.relations, a.opsPerThread, a.queriesPerOp = 512, 150, 4
	}
	// High contention (the paper's choice, STAMP's -q60-ish): queries
	// concentrate on a slice of the tables and most actions mutate.
	// Low contention (-q90 -u98): queries spread across nearly the whole
	// table and reservations dominate even more (reads of disjoint
	// records rarely collide).
	if v == stamp.LowContention {
		// Mostly read-only queries over nearly the whole table.
		a.reservePct = 98
		a.bookPct = 30
		a.queryRange = a.relations * 9 / 10
	} else {
		a.reservePct = 90
		a.bookPct = 100
		a.queryRange = a.relations * 6 / 10
	}
}

// Setup implements stamp.App: builds the resource tables.
func (a *Vacation) Setup(w *stamp.World) {
	a.params(w.Scale, w.Variant)
	w.Seq(func(th *vtime.Thread) {
		defer w.Prof.Region(th, "vacation/setup")()
		rng := sim.NewRand(w.Seed)
		for t := 0; t < tblCount; t++ {
			w.Atomic(th, func(tx *stm.Tx) { a.tables[t] = txstruct.NewRBTree(tx) })
			for id := 0; id < a.relations; id++ {
				total := uint64(100 + rng.Intn(300))
				price := uint64(50 + rng.Intn(500))
				w.Atomic(th, func(tx *stm.Tx) {
					rec := tx.Malloc(resSize)
					tx.Store(rec+resTotal, total)
					tx.Store(rec+resUsed, 0)
					tx.Store(rec+resPrice, price)
					a.tables[t].Insert(tx, int64(id), uint64(rec))
				})
			}
		}
		w.Atomic(th, func(tx *stm.Tx) { a.customers = txstruct.NewRBTree(tx) })
	})
}

// makeReservation queries q random resources and reserves the
// highest-priced available one of each queried type, creating the
// customer on demand — STAMP's MAKE_RESERVATION action.
func (a *Vacation) makeReservation(w *stamp.World, th *vtime.Thread, rng *sim.Rand) {
	custKey := int64(rng.Intn(a.relations * 4))
	book := rng.Intn(100) < a.bookPct
	type pick struct {
		table int
		id    int64
	}
	var picks []pick
	for q := 0; q < a.queriesPerOp; q++ {
		picks = append(picks, pick{table: rng.Intn(tblCount), id: int64(rng.Intn(a.queryRange))})
	}
	w.Atomic(th, func(tx *stm.Tx) {
		var best [tblCount]struct {
			rec   mem.Addr
			key   int64
			price uint64
			found bool
		}
		for _, p := range picks {
			recW, ok := a.tables[p.table].Get(tx, p.id)
			if !ok {
				continue
			}
			rec := mem.Addr(recW)
			total := tx.Load(rec + resTotal)
			used := tx.Load(rec + resUsed)
			price := tx.Load(rec + resPrice)
			if used < total && (!best[p.table].found || price > best[p.table].price) {
				best[p.table] = struct {
					rec   mem.Addr
					key   int64
					price uint64
					found bool
				}{rec, p.id, price, true}
			}
		}
		reserved := false
		for t := 0; t < tblCount; t++ {
			if !best[t].found || !book {
				continue
			}
			if !reserved {
				// Create the customer lazily.
				var cust mem.Addr
				if cw, ok := a.customers.Get(tx, custKey); ok {
					cust = mem.Addr(cw)
				} else {
					cust = tx.Malloc(custSize)
					tx.Store(cust+custID, uint64(custKey))
					tx.Store(cust+custHead, 0)
					a.customers.Insert(tx, custKey, uint64(cust))
				}
				// Reserve: bump used, prepend a reservation node.
				rec := best[t].rec
				tx.Store(rec+resUsed, tx.Load(rec+resUsed)+1)
				n := tx.Malloc(rvSize)
				tx.Store(n+rvKey, uint64(t)<<32|uint64(best[t].key))
				tx.Store(n+rvNext, tx.Load(cust+custHead))
				tx.Store(cust+custHead, uint64(n))
				reserved = true
			}
		}
	})
}

// deleteCustomer removes a random customer, releasing all its
// reservations — STAMP's DELETE_CUSTOMER action (frees inside the
// transaction).
func (a *Vacation) deleteCustomer(w *stamp.World, th *vtime.Thread, rng *sim.Rand) {
	custKey := int64(rng.Intn(a.relations * 4))
	w.Atomic(th, func(tx *stm.Tx) {
		cw, ok := a.customers.Get(tx, custKey)
		if !ok {
			return
		}
		cust := mem.Addr(cw)
		cur := mem.Addr(tx.Load(cust + custHead))
		for cur != 0 {
			packed := tx.Load(cur + rvKey)
			tbl := int(packed >> 32)
			id := int64(packed & 0xffffffff)
			if recW, ok := a.tables[tbl].Get(tx, id); ok {
				rec := mem.Addr(recW)
				tx.Store(rec+resUsed, tx.Load(rec+resUsed)-1)
			}
			next := mem.Addr(tx.Load(cur + rvNext))
			tx.Free(cur, rvSize)
			cur = next
		}
		a.customers.Remove(tx, custKey)
		tx.Free(cust, custSize)
	})
}

// updateTables adds or deletes resources — STAMP's UPDATE_TABLES
// action.
func (a *Vacation) updateTables(w *stamp.World, th *vtime.Thread, rng *sim.Rand) {
	t := rng.Intn(tblCount)
	id := int64(a.relations + rng.Intn(a.relations)) // extension id range
	add := rng.Intn(2) == 0
	price := uint64(50 + rng.Intn(500))
	w.Atomic(th, func(tx *stm.Tx) {
		if add {
			if _, ok := a.tables[t].Get(tx, id); ok {
				return
			}
			rec := tx.Malloc(resSize)
			tx.Store(rec+resTotal, 100)
			tx.Store(rec+resUsed, 0)
			tx.Store(rec+resPrice, price)
			a.tables[t].Insert(tx, id, uint64(rec))
		} else {
			recW, ok := a.tables[t].Get(tx, id)
			if !ok {
				return
			}
			rec := mem.Addr(recW)
			if tx.Load(rec+resUsed) != 0 {
				return // cannot delete a resource in use
			}
			a.tables[t].Remove(tx, id)
			tx.Free(rec, resSize)
		}
	})
}

// Parallel implements stamp.App: the client loop. The action mix
// follows the high-contention configuration: 90% reservations, 5%
// deletions, 5% table updates.
func (a *Vacation) Parallel(w *stamp.World, th *vtime.Thread) {
	defer w.Prof.Region(th, "vacation/parallel")()
	rng := sim.NewRand(w.Seed*7919 + uint64(th.ID()) + 1)
	for i := 0; i < a.opsPerThread; i++ {
		switch r := rng.Intn(100); {
		case r < a.reservePct:
			a.makeReservation(w, th, rng)
		case r < a.reservePct+(100-a.reservePct)/2:
			a.deleteCustomer(w, th, rng)
		default:
			a.updateTables(w, th, rng)
		}
	}
}

// Validate implements stamp.App: every table's used counts must equal
// the reservations referencing it, and trees must be valid.
func (a *Vacation) Validate(w *stamp.World) error {
	th := vtime.Solo(w.Space, 0, nil)
	var err error
	w.STM.Atomic(th, func(tx *stm.Tx) {
		err = nil
		for t := 0; t < tblCount; t++ {
			if _, p := a.tables[t].CheckInvariants(tx); p != "" {
				err = fmt.Errorf("table %d: %s", t, p)
				return
			}
		}
		if _, p := a.customers.CheckInvariants(tx); p != "" {
			err = fmt.Errorf("customers: %s", p)
			return
		}
		// Count reservations per (table,id).
		counts := map[uint64]uint64{}
		for _, ck := range a.customers.Keys(tx) {
			cw, _ := a.customers.Get(tx, ck)
			cur := mem.Addr(tx.Load(mem.Addr(cw) + custHead))
			for cur != 0 {
				counts[tx.Load(cur+rvKey)]++
				cur = mem.Addr(tx.Load(cur + rvNext))
			}
		}
		var checked uint64
		for t := 0; t < tblCount; t++ {
			for _, id := range a.tables[t].Keys(tx) {
				recW, _ := a.tables[t].Get(tx, id)
				rec := mem.Addr(recW)
				used := tx.Load(rec + resUsed)
				total := tx.Load(rec + resTotal)
				if used > total {
					err = fmt.Errorf("table %d id %d: used %d > total %d", t, id, used, total)
					return
				}
				want := counts[uint64(t)<<32|uint64(id)]
				if used != want {
					err = fmt.Errorf("table %d id %d: used %d but %d reservations", t, id, used, want)
					return
				}
				checked += used
			}
		}
		var totalRes uint64
		for _, c := range counts {
			totalRes += c
		}
		if checked != totalRes {
			err = fmt.Errorf("reservations for deleted resources exist: %d vs %d", checked, totalRes)
		}
	})
	return err
}
