// Package prof is a deterministic region-stack profiler over virtual
// cycles.
//
// A *Profiler attributes every virtual cycle of a run to exactly one
// (thread, region-stack) bucket. Instrumented subsystems bracket named
// regions with Begin/End around their phases (stm/commit, glibc/malloc,
// intset/run, ...); the vtime engine reports each priced memory access
// through Stall, which charges the access latency to a synthetic
// stall/<level> leaf nested under whatever region was open. Cycles that
// elapse outside any region land in the per-thread "(untracked)" root
// bucket, so per-thread totals always reconcile exactly with the
// engine's thread clocks.
//
// All attribution is clock arithmetic on the engine's virtual clocks —
// never wall clock — so profiles are byte-for-byte deterministic for a
// fixed seed, mergeable across sweep cells, and diffable across
// same-seed runs (Diff is the "why is tcmalloc slower here" report).
//
// Like obs.Recorder, the profiler relies on the vtime engine's
// one-logical-thread-at-a-time execution model and needs no host
// synchronization; each sweep cell builds its own private Profiler.
package prof

import (
	"repro/internal/cachesim"
	"repro/internal/obs"
	"repro/internal/vtime"
)

// UntrackedFrame labels cycles spent outside any open region.
const UntrackedFrame = "(untracked)"

// Stall leaf frames, indexed by cachesim.Level, plus the coherence-
// invalidation bucket appended after the hierarchy levels.
const (
	stallCoherence = int(cachesim.MemoryHit) + 1
	stallFrames    = stallCoherence + 1
)

var stallFrame = [stallFrames]string{
	cachesim.L1Hit:       "stall/L1",
	cachesim.L2Hit:       "stall/L2",
	cachesim.RemoteL2Hit: "stall/remote-L2",
	cachesim.MemoryHit:   "stall/memory",
	stallCoherence:       "stall/coherence",
}

// node is one region-stack vertex of a per-thread attribution tree.
type node struct {
	frame    string
	parent   *node // nil at the root
	children map[string]*node
	self     uint64 // cycles charged directly to this stack

	// stall caches the resolved stall/<level> children so the per-access
	// hot path never touches the children map.
	stall [stallFrames]*node
}

func (n *node) child(frame string) *node {
	if c, ok := n.children[frame]; ok {
		return c
	}
	if n.children == nil {
		n.children = make(map[string]*node)
	}
	c := &node{frame: frame, parent: n}
	n.children[frame] = c
	return c
}

func (n *node) stallChild(i int) *node {
	if c := n.stall[i]; c != nil {
		return c
	}
	c := n.child(stallFrame[i])
	n.stall[i] = c
	return c
}

// threadState is one logical thread's attribution tree plus its
// charged-up-to watermark.
type threadState struct {
	root *node
	cur  *node  // innermost open region
	last uint64 // thread clock up to which cycles have been charged

	starts []uint64 // open-region begin clocks (for trace span emission)
}

// charge attributes the cycles since the last charge point to the
// innermost open region.
func (ts *threadState) charge(now uint64) {
	if now > ts.last {
		ts.cur.self += now - ts.last
		ts.last = now
	}
}

// Profiler accumulates per-thread region-stack cycle attribution for
// one run. A nil *Profiler is the disabled state: every method is safe
// to call on nil and returns immediately.
type Profiler struct {
	threads []*threadState
	rec     *obs.Recorder // optional: emit regions as trace spans
}

// New builds an enabled Profiler.
func New() *Profiler { return &Profiler{} }

// SetRecorder makes every End also emit the closed region as an
// obs trace span, so Perfetto renders the phase structure on the
// per-thread tracks. Nil (the default) keeps the profiler silent.
func (p *Profiler) SetRecorder(r *obs.Recorder) {
	if p == nil {
		return
	}
	p.rec = r
}

func (p *Profiler) state(tid int) *threadState {
	for tid >= len(p.threads) {
		ts := &threadState{root: &node{}}
		ts.cur = ts.root
		p.threads = append(p.threads, ts)
	}
	return p.threads[tid]
}

// Begin opens the named region on th's stack. Cycles accrued since the
// previous charge point go to the enclosing region.
func (p *Profiler) Begin(th *vtime.Thread, region string) {
	if p == nil {
		return
	}
	ts := p.state(th.ID())
	now := th.Clock()
	ts.charge(now)
	ts.cur = ts.cur.child(region)
	ts.starts = append(ts.starts, now)
}

// End closes th's innermost open region. Call via defer so that
// panic-driven unwinds (STM aborts, the engine watchdog) leave the
// stack balanced. An End with no open region is ignored.
func (p *Profiler) End(th *vtime.Thread) {
	if p == nil {
		return
	}
	ts := p.state(th.ID())
	now := th.Clock()
	ts.charge(now)
	if ts.cur.parent == nil {
		return
	}
	if p.rec != nil {
		p.rec.Region(th.ID(), ts.starts[len(ts.starts)-1], now, ts.cur.frame)
	}
	ts.starts = ts.starts[:len(ts.starts)-1]
	ts.cur = ts.cur.parent
}

// Region opens the named region on th and returns its closer, for use
// as `defer p.Region(th, "app/phase")()`. On a nil profiler the closer
// is a no-op, so workloads call it unconditionally.
func (p *Profiler) Region(th *vtime.Thread, name string) func() {
	if p == nil {
		return func() {}
	}
	p.Begin(th, name)
	return func() { p.End(th) }
}

// Stall attributes one priced memory access: cost cycles at the given
// hierarchy level plus inval coherence-invalidation cycles, with now
// the thread clock after the access was charged. Compute cycles that
// preceded the access go to the open region; the access itself lands
// in stall/<level> (and stall/coherence) leaves nested under it.
// Implements vtime.Profiler.
func (p *Profiler) Stall(tid int, level cachesim.Level, cost, inval, now uint64) {
	if p == nil {
		return
	}
	ts := p.state(tid)
	ts.charge(now - cost - inval)
	if cost > 0 {
		ts.cur.stallChild(int(level)).self += cost
	}
	if inval > 0 {
		ts.cur.stallChild(stallCoherence).self += inval
	}
	ts.last = now
}

// SyncClock flushes attribution up to now — the engine calls it for
// every thread when a parallel region finishes, so trailing compute
// cycles are never lost. Implements vtime.Profiler.
func (p *Profiler) SyncClock(tid int, now uint64) {
	if p == nil {
		return
	}
	p.state(tid).charge(now)
}

// ResetClock flushes attribution up to now and rebases the thread at
// clock zero — the engine calls it from ResetClocks between experiment
// phases. Implements vtime.Profiler.
func (p *Profiler) ResetClock(tid int, now uint64) {
	if p == nil {
		return
	}
	ts := p.state(tid)
	ts.charge(now)
	ts.last = 0
}

// Profile extracts the accumulated attribution as an immutable,
// canonically ordered Profile. The profiler remains usable; a later
// call reflects further accumulation.
func (p *Profiler) Profile() *Profile {
	if p == nil {
		return nil
	}
	out := &Profile{Schema: Schema}
	for tid, ts := range p.threads {
		if ts == nil {
			continue
		}
		collectSamples(out, tid, ts.root, nil)
	}
	sortSamples(out.Samples)
	for _, s := range out.Samples {
		out.TotalCycles += s.Cycles
	}
	return out
}

// collectSamples walks one thread tree depth-first, appending one
// sample per node with nonzero self time. Child order does not matter
// here — sortSamples canonicalizes afterwards.
func collectSamples(out *Profile, tid int, n *node, stack []string) {
	if n.parent == nil {
		// Root self time is the thread's untracked remainder.
		if n.self > 0 {
			out.Samples = append(out.Samples, Sample{
				TID: tid, Stack: []string{UntrackedFrame}, Cycles: n.self,
			})
		}
	} else {
		stack = append(stack, n.frame)
		if n.self > 0 {
			s := make([]string, len(stack))
			copy(s, stack)
			out.Samples = append(out.Samples, Sample{TID: tid, Stack: s, Cycles: n.self})
		}
	}
	for _, c := range n.children {
		collectSamples(out, tid, c, stack)
	}
}
