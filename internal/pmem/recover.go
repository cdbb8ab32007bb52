package pmem

import (
	"sort"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/vtime"
)

// Recovery. After a crash the volatile machine is gone: every line the
// run ever stored reverts to its durable image (or zero — persistent
// memory maps in zeroed, and an unflushed line never overwrote that).
// Recovery then replays committed-untruncated redo logs, discards torn
// ones, hands the journaled block truth to the allocator's RecoverHeap
// repair pass, and sweeps the invariants the paper's durable twin
// cares about: no committed write lost, no freed block resurrected,
// every rebuilt free chain closed, shadow map consistent. The verdict
// lands in run records as obs.RecoveryInfo.

// Info summarizes the durable layer for a run that completed without a
// crash (traffic counters only, verdict "ok").
func (p *Pmem) Info() *obs.RecoveryInfo {
	return &obs.RecoveryInfo{
		Verdict:    obs.StatusOK,
		Crashed:    p.crashed,
		CrashCycle: p.crashCycle,
		CrashPhase: p.crashPhase,
		Flushes:    p.stats.Flushes,
		Fences:     p.stats.Fences,
		LogAppends: p.stats.LogAppends,
		MetaRecs:   p.stats.MetaRecs,
	}
}

// Recover brings the heap back after a crash and verifies it: revert to
// the durable image, replay the redo log, rebuild allocator metadata,
// sweep invariants. th must be a fresh post-crash thread (vtime Solo
// region) and a the allocator instance whose layout constants recovery
// repairs against. Without a prior crash it reduces to Info(). The
// returned RecoveryInfo carries the verdict: "failed" when a durability
// invariant broke (lost committed writes, resurrected blocks),
// "degraded" when metadata repair left caveats (open chains, shadow
// disagreement), "ok" otherwise.
func (p *Pmem) Recover(th *vtime.Thread, a alloc.Allocator) *obs.RecoveryInfo {
	info := p.Info()
	if !p.crashed {
		return info
	}
	p.recovering = true
	defer func() { p.recovering = false }()

	p.applyCrash(th)
	info.TornLogs = p.tornLogs
	info.Replayed = p.replay(th)

	st := p.recoverState()
	info.LiveBlocks = len(st.Live)

	// Resync the shadow map to journaled truth, in both directions.
	// Frees whose volatile hand-off the crash preempted (committed free,
	// finishCommit never ran) are re-announced through the normal
	// fan-out; repeats are ignored by contract. The reverse tear also
	// happens: a thread past the crash point can wind down through
	// finishCommit and mark a block freed in the shadow while the frozen
	// journal never saw its LogCommit — applyCrash reverted the heap
	// bytes, so the shadow must revert too.
	for _, b := range st.Freed {
		p.space.NoteFree(b.Base, th.ID(), th.Clock())
	}
	if sh := p.space.Sanitizer(); sh != nil {
		for _, b := range st.Live {
			if blk, ok := sh.BlockAt(b.Base); ok && blk.Freed {
				p.space.NoteReuse(b.Base, th.ID(), th.Clock())
			}
		}
	}

	rep := a.RecoverHeap(th, st)
	info.TornMeta = rep.TornMeta
	info.MetaWords = rep.MetaWords
	info.FreeBlocks = rep.FreeBlocks

	// Closure walk: every freed block must be reachable through exactly
	// one rebuilt chain, every chain must terminate. Chain nodes
	// translate to user bases through the model's NodeOffset.
	inFreed := st.FreedSet()
	visited := map[mem.Addr]struct{}{}
	member := func(node mem.Addr) bool {
		user := node + mem.Addr(rep.NodeOffset)
		if !inFreed(user) {
			return false
		}
		if _, dup := visited[user]; dup {
			return false
		}
		visited[user] = struct{}{}
		return true
	}
	for _, head := range rep.Heads {
		if _, ok := alloc.WalkChain(th, head, member, len(st.Freed)+1); !ok {
			info.ChainBreaks++
		}
	}
	// A freed block absent from every chain is resurrection risk: the
	// rebuilt metadata no longer tracks it as free.
	info.Resurrected = len(st.Freed) - len(visited)

	info.LostWrites = p.sweepOracle(th, st)
	info.ShadowBad = p.sweepShadow(st)

	// Recovery's own writes (revert, replay, metadata repair) become the
	// new durable baseline.
	p.Checkpoint(th)
	info.Flushes = p.stats.Flushes
	info.Fences = p.stats.Fences
	info.LogAppends = p.stats.LogAppends

	switch {
	case info.LostWrites > 0 || info.Resurrected > 0:
		info.Verdict = obs.StatusFailed
	case info.ChainBreaks > 0 || info.ShadowBad > 0:
		info.Verdict = obs.StatusDegraded
	default:
		info.Verdict = obs.StatusOK
	}
	return info
}

// applyCrash reverts every touched line to its durable image. Lines no
// fence ever captured revert to zero — pmem maps in zeroed and an
// unflushed line never durably left that state.
func (p *Pmem) applyCrash(th *vtime.Thread) {
	lines := make([]mem.Addr, 0, len(p.touched))
	for l := range p.touched {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	var zero line
	for _, l := range lines {
		img := p.durable[l]
		if img == nil {
			img = &zero
		}
		for i := 0; i < LineWords; i++ {
			th.Store(l+mem.Addr(i*8), img[i])
		}
	}
	p.pending = map[mem.Addr]struct{}{}
}

// replay re-applies every committed-untruncated redo log in commit
// order and truncates them; torn logs are discarded. Returns how many
// logs replayed.
func (p *Pmem) replay(th *vtime.Thread) int {
	sort.Slice(p.committed, func(i, j int) bool { return p.committed[i].seq < p.committed[j].seq })
	n := len(p.committed)
	for _, lg := range p.committed {
		for _, r := range lg.recs {
			if r.op == opStore {
				th.Store(r.addr, r.val)
			}
		}
	}
	p.committed = nil
	p.active = map[int]*txLog{}
	p.applying = map[int]*txLog{}
	return n
}

// recoverState snapshots the journaled block truth: live blocks keep
// their committed contents, freed and pending blocks (the latter's
// allocating transaction never committed) go back to the free lists.
func (p *Pmem) recoverState() *alloc.RecoverState {
	st := &alloc.RecoverState{Meta: p.meta}
	bases := make([]mem.Addr, 0, len(p.blocks))
	for b := range p.blocks {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, base := range bases {
		b := p.blocks[base]
		rb := alloc.RecordedBlock{Base: b.base, Req: b.req, Usable: b.usable}
		if b.state == blockLive {
			st.Live = append(st.Live, rb)
		} else {
			b.state = blockFreed // a pending block's tx never committed
			st.Freed = append(st.Freed, rb)
		}
	}
	return st
}

// sweepOracle checks every durably committed store against the
// recovered heap, skipping words inside freed blocks (their content is
// free-list property now). Returns the number of lost writes.
func (p *Pmem) sweepOracle(th *vtime.Thread, st *alloc.RecoverState) int {
	addrs := make([]mem.Addr, 0, len(p.oracle))
	for a := range p.oracle {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	lost := 0
	for _, a := range addrs {
		if inBlockRange(st.Freed, a) {
			continue
		}
		if th.Load(a) != p.oracle[a] {
			lost++
		}
	}
	return lost
}

// sweepShadow cross-checks the sanitizer shadow map (when attached)
// against the journaled truth: live blocks must shadow as live, freed
// blocks as freed. Returns the number of disagreements.
func (p *Pmem) sweepShadow(st *alloc.RecoverState) int {
	sh := p.space.Sanitizer()
	if sh == nil {
		return 0
	}
	bad := 0
	for _, b := range st.Live {
		if blk, ok := sh.BlockAt(b.Base); !ok || blk.Freed {
			bad++
		}
	}
	for _, b := range st.Freed {
		if blk, ok := sh.BlockAt(b.Base); !ok || !blk.Freed {
			bad++
		}
	}
	return bad
}

// inBlockRange reports whether a falls inside any block of the sorted
// slice (by usable extent).
func inBlockRange(blocks []alloc.RecordedBlock, a mem.Addr) bool {
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i].Base > a })
	if i == 0 {
		return false
	}
	b := blocks[i-1]
	return a < b.Base+mem.Addr(b.Usable)
}
