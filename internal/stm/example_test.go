package stm_test

import (
	"fmt"

	_ "repro/internal/alloc/glibc"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/stm"
	"repro/internal/vtime"
)

// A word-based transaction over simulated memory: encounter-time
// locking, write-back, automatic retry on conflict.
func ExampleSTM_Atomic() {
	space := stm.SanitizedSpace()
	s := stm.New(space, stm.Config{})
	account := space.MustMap(4096, 0)
	space.Store(account, 100)

	engine := vtime.NewEngine(space, 4, vtime.Config{})
	engine.Run(func(th *vtime.Thread) {
		for i := 0; i < 25; i++ {
			s.Atomic(th, func(tx *stm.Tx) {
				tx.Store(account, tx.Load(account)+1)
			})
		}
	})
	fmt.Println("balance:", space.Load(account))
	fmt.Println("commits:", s.Stats().Commits)
	// Output:
	// balance: 200
	// commits: 100
}

// Transactional allocation: blocks malloc'd by an aborted transaction
// go back to the allocator; frees are deferred to commit.
func ExampleTx_Malloc() {
	space := stm.SanitizedSpace()
	a := alloc.MustNew("glibc", space, 1)
	s := stm.New(space, stm.Config{Allocator: a})
	th := vtime.Solo(space, 0, nil)

	var node mem.Addr
	s.Atomic(th, func(tx *stm.Tx) {
		node = tx.Malloc(16)
		tx.Store(node, 42)
	})
	//tmvet:allow txescape: single-threaded example; no concurrent committer to race
	fmt.Println("node value:", space.Load(node))

	s.Atomic(th, func(tx *stm.Tx) {
		tx.Free(node, 16)
	})
	st := a.Stats()
	fmt.Printf("allocator: %d mallocs, %d frees\n", st.Mallocs, st.Frees)
	// Output:
	// node value: 42
	// allocator: 1 mallocs, 1 frees
}

// The lock-mapping function at the heart of the paper: with the default
// shift of 5, addresses 16 bytes apart share one versioned lock while
// addresses 32 bytes apart do not.
func ExampleSTM_OrtIndex() {
	s := stm.New(stm.SanitizedSpace(), stm.Config{})
	a := mem.Addr(0x18000020)
	fmt.Println("16 bytes apart share a lock:", s.OrtIndex(a) == s.OrtIndex(a+16))
	fmt.Println("32 bytes apart share a lock:", s.OrtIndex(a) == s.OrtIndex(a+32))
	fmt.Println("64 MiB apart share a lock:", s.OrtIndex(a) == s.OrtIndex(a+64<<20))
	// Output:
	// 16 bytes apart share a lock: true
	// 32 bytes apart share a lock: false
	// 64 MiB apart share a lock: true
}
