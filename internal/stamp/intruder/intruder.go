// Package intruder ports STAMP's intruder: network intrusion detection
// over fragmented flows. Threads transactionally pop packet fragments
// from a shared queue and assemble them in a shared flow map; when a
// flow completes, the thread removes it from the map and — outside any
// transaction — decodes the payload and runs the attack detector, then
// frees the reassembly structures.
//
// This preserves intruder's signature allocation pattern from the
// paper's Table 5: many small allocations *inside* transactions whose
// matching frees happen *outside* (privatization), which is what made
// Hoard's heap locks the bottleneck in §6.
package intruder

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
	stamp.Register("intruder", func() stamp.App { return &Intruder{} })
}

// Fragment record (sequentially allocated packet stream): flow id,
// fragment index, fragment count, payload length, payload bytes.
const (
	frFlow  = 0
	frIdx   = 8
	frCount = 16
	frLen   = 24
	frData  = 32
)

// Flow reassembly record (transactionally allocated): fragments seen,
// fragment count, slots pointer.
const (
	flSeen  = 0
	flCount = 8
	flSlots = 16
	flSize  = 32
)

var signature = []byte("ATTACK")

// Intruder is the application state.
type Intruder struct {
	flows     int
	maxFrags  int
	fragBytes int
	attacks   int

	queue   *txstruct.Queue
	flowMap *txstruct.RBTree

	planted  int
	found    int
	finished int
}

// Name implements stamp.App.
func (a *Intruder) Name() string { return "intruder" }

func (a *Intruder) params(s stamp.Scale) {
	switch s {
	case stamp.Ref:
		a.flows, a.maxFrags, a.fragBytes, a.attacks = 2048, 6, 64, 128
	default:
		a.flows, a.maxFrags, a.fragBytes, a.attacks = 96, 4, 32, 12
	}
}

// Setup implements stamp.App: builds the shuffled fragment stream.
func (a *Intruder) Setup(w *stamp.World) {
	a.params(w.Scale)
	w.Seq(func(th *vtime.Thread) {
		defer w.Prof.Region(th, "intruder/setup")()
		rng := sim.NewRand(w.Seed)
		w.Atomic(th, func(tx *stm.Tx) {
			a.queue = txstruct.NewQueue(tx, 256)
			a.flowMap = txstruct.NewRBTree(tx)
		})
		var frags []mem.Addr
		for f := 0; f < a.flows; f++ {
			n := 1 + rng.Intn(a.maxFrags)
			attack := f < a.attacks
			// Payload: random bytes; attack flows embed the signature
			// across the flow's payload.
			payload := make([]byte, n*a.fragBytes)
			for i := range payload {
				payload[i] = byte('a' + rng.Intn(26))
			}
			if attack {
				off := rng.Intn(len(payload) - len(signature))
				copy(payload[off:], signature)
				a.planted++
			}
			for i := 0; i < n; i++ {
				rec := w.Malloc(th, uint64(frData+a.fragBytes))
				th.Store(rec+frFlow, uint64(f))
				th.Store(rec+frIdx, uint64(i))
				th.Store(rec+frCount, uint64(n))
				th.Store(rec+frLen, uint64(a.fragBytes))
				w.Space.WriteBytes(rec+frData, payload[i*a.fragBytes:(i+1)*a.fragBytes])
				th.Tick(uint64(a.fragBytes))
				frags = append(frags, rec)
			}
		}
		// Shuffle fragments into the stream, as the packet capture
		// interleaves flows.
		for i := len(frags) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			frags[i], frags[j] = frags[j], frags[i]
		}
		for _, rec := range frags {
			w.Atomic(th, func(tx *stm.Tx) { a.queue.Push(tx, uint64(rec)) })
		}
	})
}

// Parallel implements stamp.App: the capture/reassembly/detect loop.
func (a *Intruder) Parallel(w *stamp.World, th *vtime.Thread) {
	defer w.Prof.Region(th, "intruder/parallel")()
	for {
		var rec mem.Addr
		w.Atomic(th, func(tx *stm.Tx) {
			v, ok := a.queue.Pop(tx)
			if !ok {
				rec = 0
				return
			}
			rec = mem.Addr(v)
		})
		if rec == 0 {
			return
		}
		flow := int64(th.Load(rec + frFlow))
		idx := th.Load(rec + frIdx)
		count := th.Load(rec + frCount)

		var completed mem.Addr // flow record, privatized when complete
		w.Atomic(th, func(tx *stm.Tx) {
			completed = 0
			var fl mem.Addr
			if v, ok := a.flowMap.Get(tx, flow); ok {
				fl = mem.Addr(v)
			} else {
				fl = tx.Malloc(flSize)
				slots := tx.Malloc(count * 8)
				for i := uint64(0); i < count; i++ {
					tx.Store(slots+mem.Addr(i*8), 0)
				}
				tx.Store(fl+flSeen, 0)
				tx.Store(fl+flCount, count)
				tx.Store(fl+flSlots, uint64(slots))
				a.flowMap.Insert(tx, flow, uint64(fl))
			}
			slots := mem.Addr(tx.Load(fl + flSlots))
			if tx.Load(slots+mem.Addr(idx*8)) != 0 {
				return // duplicate fragment
			}
			tx.Store(slots+mem.Addr(idx*8), uint64(rec))
			seen := tx.Load(fl+flSeen) + 1
			tx.Store(fl+flSeen, seen)
			if seen == count {
				a.flowMap.Remove(tx, flow)
				completed = fl
			}
		})
		if completed == 0 {
			continue
		}
		// Privatized: decode and detect outside any transaction, then
		// free the reassembly structures in the parallel region — the
		// paper's privatization pattern.
		slots := mem.Addr(th.Load(completed + flSlots))
		n := th.Load(completed + flCount)
		payload := make([]byte, 0, int(n)*a.fragBytes)
		for i := uint64(0); i < n; i++ {
			fr := mem.Addr(th.Load(slots + mem.Addr(i*8)))
			l := int(th.Load(fr + frLen))
			for b := 0; b < l; b++ {
				addr := fr + frData + mem.Addr(b)
				word := th.Load(addr &^ 7)
				payload = append(payload, byte(word>>((uint64(addr)&7)*8)))
			}
		}
		if containsSig(payload) {
			a.found++ // engine serializes: safe
		}
		th.Work(uint64(len(payload)))
		w.STM.FreePrivatized(th, slots, n*8)
		w.STM.FreePrivatized(th, completed, flSize)
		a.finished++
	}
}

func containsSig(p []byte) bool {
	for i := 0; i+len(signature) <= len(p); i++ {
		match := true
		for j := range signature {
			if p[i+j] != signature[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// Validate implements stamp.App.
func (a *Intruder) Validate(w *stamp.World) error {
	if a.finished != a.flows {
		return fmt.Errorf("processed %d flows, want %d", a.finished, a.flows)
	}
	if a.found != a.planted {
		return fmt.Errorf("detected %d attacks, planted %d", a.found, a.planted)
	}
	th := vtime.Solo(w.Space, 0, nil)
	var leftover int
	w.STM.Atomic(th, func(tx *stm.Tx) { leftover = a.flowMap.Len(tx) })
	if leftover != 0 {
		return fmt.Errorf("%d flows stuck in the reassembly map", leftover)
	}
	return nil
}
