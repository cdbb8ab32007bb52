// Package app is the poolhygiene fixture: blocks served by TxPool.Get
// must return through Put rather than a raw free, and a pool variable
// keeps one recycling discipline for life.
package app

import (
	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/stm"
	"repro/internal/vtime"
)

func rawFreeOfPooledBlock(th *vtime.Thread, tx *stm.Tx, pool *stm.TxPool, a alloc.Allocator) {
	var p mem.Addr
	p = pool.Get(tx, 64)
	if p == 0 {
		return
	}
	a.Free(th, p) // want "came from TxPool.Get but is freed raw"
}

func putIsTheRightPath(tx *stm.Tx, pool *stm.TxPool) {
	p := pool.Get(tx, 64)
	if p == 0 {
		return
	}
	pool.Put(tx, p, 64)
}

func disciplineSwitch() *stm.TxPool {
	pool := stm.NewTxPool(stm.PoolCache)
	pool = stm.NewTxPool(stm.PoolReuse) // want "reused across disciplines"
	return pool
}

func samePoolRebuiltIsFine() *stm.TxPool {
	pool := stm.NewTxPool(stm.PoolBatch)
	pool = stm.NewTxPool(stm.PoolBatch)
	return pool
}

func distinctPoolsAreFine() (*stm.TxPool, *stm.TxPool) {
	cache := stm.NewTxPool(stm.PoolCache)
	reuse := stm.NewTxPool(stm.PoolReuse)
	return cache, reuse
}

func freeOfUnpooledBlockIsFine(th *vtime.Thread, a alloc.Allocator) {
	p := a.Malloc(th, 64)
	a.Free(th, p)
}

func annotated(th *vtime.Thread, tx *stm.Tx, pool *stm.TxPool, a alloc.Allocator) {
	p := pool.Get(tx, 64)
	if p == 0 {
		return
	}
	//tmvet:allow poolhygiene: fixture models teardown after the pool itself is discarded
	a.Free(th, p)
}
