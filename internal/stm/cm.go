// Contention management and the graceful-degradation ladder.
//
// The paper's TinySTM configuration resolves every conflict with
// SUICIDE: the transaction that detects the conflict aborts itself and
// restarts immediately. That policy is livelock-prone on adversarial
// workloads, so this file adds the classic alternatives — exponential
// backoff, karma and aggressive — plus a fallback rung below all of
// them: after RetryCap consecutive aborts a transaction acquires a
// global fallback lock, waits for every other transaction to drain,
// and runs irrevocably. Once alone it cannot conflict, so one retry
// suffices and system-wide progress is guaranteed no matter how hostile
// the conflict pattern or contention manager is.
//
// All waits are priced in virtual cycles through the thread's cost
// model, so contention management shows up in experiment clocks exactly
// like any other synchronization.
package stm

import (
	"fmt"

	"repro/internal/mem"
)

// CM selects the contention-management strategy.
type CM int

// Contention managers.
const (
	// CMSuicide aborts the transaction that detects the conflict and
	// restarts it immediately (TinySTM default; the paper's setting).
	CMSuicide CM = iota
	// CMBackoff is suicide plus randomized exponential backoff before
	// the restart, doubling per consecutive abort.
	CMBackoff
	// CMKarma accumulates work (transactional loads and stores) as
	// priority; on conflict the richer transaction briefly spin-waits
	// for the poorer one instead of aborting.
	CMKarma
	// CMAggressive kills the lock owner (which aborts at its next
	// transactional operation) and waits for the stripe to free up.
	CMAggressive
)

func (c CM) String() string {
	switch c {
	case CMSuicide:
		return "suicide"
	case CMBackoff:
		return "backoff"
	case CMKarma:
		return "karma"
	case CMAggressive:
		return "aggressive"
	}
	return fmt.Sprintf("cm(%d)", int(c))
}

// CMNames lists the recognized contention-manager names.
func CMNames() []string { return []string{"suicide", "backoff", "karma", "aggressive"} }

// ParseCM maps a name to its CM.
func ParseCM(name string) (CM, error) {
	switch name {
	case "", "suicide":
		return CMSuicide, nil
	case "backoff":
		return CMBackoff, nil
	case "karma":
		return CMKarma, nil
	case "aggressive":
		return CMAggressive, nil
	}
	return 0, fmt.Errorf("stm: unknown contention manager %q (known: %v)", name, CMNames())
}

// Ladder and policy constants.
const (
	// DefaultRetryCap is the consecutive-abort count at which a
	// transaction climbs down to the irrevocable fallback. Zero in
	// Config selects it.
	DefaultRetryCap = 1024

	// backoffBase/backoffMaxShift bound the exponential backoff window:
	// the r-th consecutive abort waits up to base<<min(r,maxShift)
	// cycles (plus deterministic jitter).
	backoffBase     = 64
	backoffMaxShift = 14

	// waitQuantum is one polling step, in cycles, for karma/aggressive
	// conflict waits, fallback-lock waits and quiescence checks.
	waitQuantum = 64
	// conflictWaitBudget bounds how many polling steps a karma or
	// aggressive transaction spends waiting on one conflict before
	// giving up and aborting anyway.
	conflictWaitBudget = 256

	// oomRetries and oomRetryWait bound how long an irrevocable
	// transaction waits out a transient allocation failure before
	// declaring the system out of memory.
	oomRetries   = 8
	oomRetryWait = 4096
)

// FaultHook is the transaction-level fault-injection interface
// (internal/fault's Plan implements it structurally): consulted once
// per transaction begin, it returns a one-shot stall in cycles and
// whether an abort storm kills this attempt.
type FaultHook interface {
	TxBegin(tid int, clock uint64) (stallCycles uint64, storm bool)
}

// cmWait is the conflict-time policy: the stripe at idx is locked by
// owner. It returns true when the caller should re-read the stripe
// (the conflict may have cleared) and false when the transaction must
// abort. Suicide and backoff never wait here — backoff prices its wait
// after the abort, in Atomic.
func (tx *Tx) cmWait(owner int) bool {
	s := tx.stm
	switch s.cm {
	case CMKarma:
		other, ok := s.txs[owner]
		if !ok || tx.karma <= other.karma {
			return false // poorer (or tied): yield by self-abort
		}
	case CMAggressive:
		if other, ok := s.txs[owner]; ok && other.active && !other.irrevocable {
			other.killed = true
			other.killedBy = int32(tx.th.ID())
		}
	default:
		return false
	}
	if tx.waitBudget == 0 {
		return false
	}
	tx.waitBudget--
	tx.th.Tick(waitQuantum)
	// A kill that arrived while waiting wins over the wait.
	return !tx.killed
}

// Irrevocable reports whether the transaction is running alone under
// the global fallback lock. Such a transaction cannot abort, so
// workloads may gate one-shot effects (or explicit Restart calls,
// which would violate the ladder's progress guarantee) on it.
func (tx *Tx) Irrevocable() bool { return tx.irrevocable }

// checkKilled aborts the transaction if an aggressive rival flagged it.
func (tx *Tx) checkKilled() {
	if tx.killed {
		tx.killed = false
		tx.abortNoStripe(AbortKilled)
	}
}

// backoff prices the post-abort exponential backoff wait: up to
// backoffBase << min(consec, backoffMaxShift) cycles, with a
// deterministic per-thread jitter so rivals don't re-collide in phase.
func (tx *Tx) backoff(consec uint64) {
	if p := tx.stm.prof; p != nil {
		p.Begin(tx.th, "stm/backoff")
		defer p.End(tx.th)
	}
	shift := consec
	if shift > backoffMaxShift {
		shift = backoffMaxShift
	}
	window := uint64(backoffBase) << shift
	// splitmix64 step on the per-tx state seeded by thread id.
	tx.rng += 0x9e3779b97f4a7c15
	z := tx.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	wait := (z ^ (z >> 31)) % window
	if wait == 0 {
		wait = 1
	}
	tx.stats.BackoffCycles += wait
	tx.th.Tick(wait)
}

// waitFallback parks the thread (in virtual time) while another
// transaction holds the irrevocable fallback lock.
func (s *STM) waitFallback(tx *Tx) {
	for s.fallback.Locked() && !s.fallback.Held(tx.th) {
		tx.th.Tick(waitQuantum)
	}
}

// activeOther reports whether any other thread has an active
// transaction.
func (s *STM) activeOther(tid int) bool {
	for id, tx := range s.txs {
		if id != tid && tx.active {
			return true
		}
	}
	return false
}

// runIrrevocable is the ladder's bottom rung: acquire the global
// fallback lock, drain every other transaction, then run fn alone.
// With no concurrency there is nothing to conflict with — the only
// remaining failure is memory exhaustion, which panics (wrapping
// mem.ErrNoMemory) after a bounded wait so the harness watchdog can
// still emit a degraded run record.
func (s *STM) runIrrevocable(tx *Tx, fn func(tx *Tx), consec uint64) {
	th := tx.th
	start := th.Clock()
	if p := s.prof; p != nil {
		p.Begin(th, "stm/irrevocable")
		defer p.End(th)
	}
	s.fallback.Lock(th)
	defer s.fallback.Unlock(th)
	for s.activeOther(th.ID()) {
		th.Tick(waitQuantum)
	}
	tx.begin()
	tx.irrevocable = true
	if !tx.tryRun(fn) {
		// Cannot happen while alone (no lock conflicts, no version
		// drift); treat it as the invariant violation it is.
		tx.irrevocable = false
		panic("stm: irrevocable transaction aborted while running alone")
	}
	tx.irrevocable = false
	tx.stats.Irrevocables++
	if s.rec != nil {
		s.rec.Irrevocable(th.ID(), start, th.Clock(), consec)
	}
}

// txMallocOOM handles a failed transactional allocation. A revocable
// transaction aborts (releasing its stripes and undoing its
// allocations) and retries — a transient, injected OOM clears by the
// next attempt, and a persistent one walks the transaction down the
// ladder into the irrevocable fallback. Irrevocably, there is no abort
// to lean on: retry the allocator a bounded number of times, then
// declare the system out of memory.
func (tx *Tx) txMallocOOM(size uint64) mem.Addr {
	if !tx.irrevocable {
		tx.abortNoStripe(AbortOOM)
	}
	for i := 0; i < oomRetries; i++ {
		tx.th.Tick(oomRetryWait)
		if a := tx.stm.allocator.Malloc(tx.th, size); a != 0 {
			return a
		}
	}
	panic(fmt.Errorf("stm: irrevocable transaction failed to allocate %d bytes: %w",
		size, mem.ErrNoMemory))
}

// noteOutcome updates the starvation watermarks after an attempt:
// consec is the consecutive-abort streak (0 on commit), and on commit
// the gap since the thread's previous commit is recorded. The
// watermarks feed the stm_max_consecutive_aborts and
// stm_max_commit_gap_cycles gauges.
func (tx *Tx) noteOutcome(consec uint64, committed bool) {
	if consec > tx.stats.MaxConsecAborts {
		tx.stats.MaxConsecAborts = consec
	}
	if committed {
		now := tx.th.Clock()
		if tx.lastCommit != 0 {
			if gap := now - tx.lastCommit; gap > tx.stats.CommitGapMax {
				tx.stats.CommitGapMax = gap
			}
		}
		tx.lastCommit = now
	}
	if s := tx.stm; s.rec != nil {
		s.rec.Starvation(tx.stats.MaxConsecAborts, tx.stats.CommitGapMax)
	}
}

// LockedStripes scans the ORT and returns the indices of entries still
// locked — after all transactions have finished the slice must be
// empty, which the fault-invariant tests assert. Host-side diagnostic:
// reads simulated memory directly without charging virtual time.
func (s *STM) LockedStripes() []uint64 {
	var out []uint64
	for i := uint64(0); i < s.ortSize; i++ {
		if isLocked(s.space.Load(s.ortAddr(i))) {
			out = append(out, i)
		}
	}
	return out
}
