// Package fault provides deterministic fault injection for the
// simulated TM system: allocator OOM, malloc latency spikes, thread
// stalls at virtual-time points, transaction abort storms, and address-
// space quotas. A Plan is parsed from a compact spec string, is driven
// by a seeded PRNG, and consumes no wall-clock or host state, so the
// same spec + seed produces the same faults in every run — injected
// failures are as reproducible as the experiments they perturb.
//
// Spec grammar (comma-separated clauses):
//
//	oom@N[xK]    fail the N-th Malloc (1-based, across all threads);
//	             with xK, fail K consecutive Mallocs starting at N
//	oom%P        fail each Malloc with probability P percent
//	lat@N[xK]:C  charge C extra virtual cycles to the N-th Malloc
//	             (xK: K consecutive Mallocs starting at N)
//	lat%P:C      charge C extra cycles with probability P percent
//	stall@tT:A:C stall thread T for C cycles at its first transaction
//	             begin at or after virtual time A
//	storm@F:T    abort every transaction beginning in virtual time
//	             window [F, T) (an abort storm)
//	quota@B      cap the simulated address space at B bytes (k/m/g
//	             suffixes: kilo/mega/giga)
//	crash@N[xK]  crash (halt the simulation) at the first durable-memory
//	             checkpoint at or after virtual cycle N; with xK, at the
//	             K-th such checkpoint
//	crash%P      crash at each durable-memory checkpoint with
//	             probability P percent (one-shot)
//	crashphase:<commit|apply|malloc>[@N]
//	             crash at the N-th (default first) checkpoint of the
//	             named commit phase: "commit" is the redo-log commit
//	             marker, "apply" the post-write-back apply/truncate
//	             point, "malloc" an allocator metadata-journal append
//
// Counts and cycle values accept k/m/g suffixes too (e.g. "lat@1k:5k").
// Crash clauses only fire on runs with a durable memory attached (the
// -pmem/-crash CLI flags); they are consulted at pmem checkpoints via
// Plan.Crash and at most one fires per plan.
//
// A Plan is stateful (it counts Mallocs and checkpoints), so every run
// parses its own: two parses of one spec with one seed make the same
// decisions.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mem"
	"repro/internal/obs"
)

// window is one count-indexed trigger: fires for events n with
// from <= n < from+span.
type window struct {
	from uint64
	span uint64
}

func (w window) hits(n uint64) bool { return n >= w.from && n < w.from+w.span }

// stall is a one-shot thread stall: thread tid pauses for cycles at its
// first transaction begin at or after virtual time at.
type stall struct {
	tid    int
	at     uint64
	cycles uint64
	fired  bool
}

// crashAt fires at the nth durable-memory checkpoint at or after
// virtual cycle at; seen counts qualifying checkpoints.
type crashAt struct {
	at   uint64
	nth  uint64
	seen uint64
}

// crashPhase fires at the nth checkpoint of the named commit phase.
type crashPhase struct {
	phase string
	nth   uint64
	seen  uint64
}

// Plan is a parsed, seeded fault plan. It implements alloc.Injector
// (structurally — this package does not import alloc) and the stm
// layer's fault hooks. A plan has one owner, the goroutine that runs
// its world: each world parses its own.
type Plan struct {
	oomAt    []window
	oomPct   uint64 // percent 0..100
	latAt    []window
	latPct   uint64
	latency  uint64 // cycles per latency spike
	stalls   []stall
	storms   []window // virtual-time windows, not counts
	quota    uint64
	crashes  []crashAt
	crashPct uint64
	phases   []crashPhase

	rng     uint64
	mallocN uint64 // Mallocs seen
	crashed bool   // a crash clause fired (one-shot across all clauses)
	stats   Stats
	rec     *obs.Recorder
}

// Stats counts the faults a plan actually delivered.
type Stats struct {
	OOMs     uint64 // Mallocs failed
	Spikes   uint64 // latency spikes charged
	Stalls   uint64 // thread stalls delivered
	Aborted  uint64 // transactions killed by abort storms
	MallocsN uint64 // Mallocs observed (fired or not)
	Crashes  uint64 // crash points fired (0 or 1)
}

// Parse builds a Plan from a spec string and a seed. An empty spec
// yields a plan that never fires (but still counts Mallocs).
func Parse(spec string, seed uint64) (*Plan, error) {
	p := &Plan{rng: seed ^ 0x9e3779b97f4a7c15}
	if p.rng == 0 {
		p.rng = 0x9e3779b97f4a7c15
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if err := p.parseClause(clause); err != nil {
			return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
	}
	return p, nil
}

// MustParse is Parse but panics on a malformed spec.
func MustParse(spec string, seed uint64) *Plan {
	p, err := Parse(spec, seed)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Plan) parseClause(clause string) error {
	// crashphase uses ':' rather than the count/percent separators, so it
	// is dispatched before the @/% split.
	if rest, ok := strings.CutPrefix(clause, "crashphase:"); ok {
		return p.parseCrashPhase(rest)
	}
	kind, rest, ok := cutAny(clause, "@%")
	if !ok {
		return fmt.Errorf("missing @ or %%")
	}
	pct := clause[len(kind)] == '%'
	switch kind {
	case "oom":
		if pct {
			v, err := parsePct(rest)
			if err != nil {
				return err
			}
			p.oomPct = v
			return nil
		}
		w, err := parseWindow(rest)
		if err != nil {
			return err
		}
		p.oomAt = append(p.oomAt, w)
		return nil
	case "lat":
		at, cyc, ok := strings.Cut(rest, ":")
		if !ok {
			return fmt.Errorf("lat needs :cycles")
		}
		c, err := parseAmount(cyc)
		if err != nil || c == 0 {
			return fmt.Errorf("bad cycle count %q", cyc)
		}
		p.latency = c
		if pct {
			v, err := parsePct(at)
			if err != nil {
				return err
			}
			p.latPct = v
			return nil
		}
		w, err := parseWindow(at)
		if err != nil {
			return err
		}
		p.latAt = append(p.latAt, w)
		return nil
	case "stall":
		if pct {
			return fmt.Errorf("stall takes @, not %%")
		}
		parts := strings.Split(rest, ":")
		if len(parts) != 3 || !strings.HasPrefix(parts[0], "t") {
			return fmt.Errorf("want stall@t<tid>:<at>:<cycles>")
		}
		tid, err := strconv.Atoi(parts[0][1:])
		if err != nil || tid < 0 {
			return fmt.Errorf("bad tid %q", parts[0])
		}
		at, err := parseAmount(parts[1])
		if err != nil {
			return err
		}
		cyc, err := parseAmount(parts[2])
		if err != nil || cyc == 0 {
			return fmt.Errorf("bad cycle count %q", parts[2])
		}
		p.stalls = append(p.stalls, stall{tid: tid, at: at, cycles: cyc})
		return nil
	case "storm":
		if pct {
			return fmt.Errorf("storm takes @, not %%")
		}
		from, to, ok := strings.Cut(rest, ":")
		if !ok {
			return fmt.Errorf("want storm@<from>:<to>")
		}
		f, err := parseAmount(from)
		if err != nil {
			return err
		}
		t, err := parseAmount(to)
		if err != nil {
			return err
		}
		if t <= f {
			return fmt.Errorf("empty window [%d, %d)", f, t)
		}
		p.storms = append(p.storms, window{from: f, span: t - f})
		return nil
	case "quota":
		if pct {
			return fmt.Errorf("quota takes @, not %%")
		}
		b, err := parseAmount(rest)
		if err != nil || b == 0 {
			return fmt.Errorf("bad byte count %q", rest)
		}
		p.quota = b
		return nil
	case "crash":
		if pct {
			v, err := parsePct(rest)
			if err != nil {
				return err
			}
			p.crashPct = v
			return nil
		}
		at, span := rest, ""
		if i := strings.IndexByte(rest, 'x'); i >= 0 {
			at, span = rest[:i], rest[i+1:]
		}
		n, err := parseAmount(at)
		if err != nil {
			return err
		}
		c := crashAt{at: n, nth: 1}
		if span != "" {
			k, err := parseAmount(span)
			if err != nil || k == 0 {
				return fmt.Errorf("bad repeat count %q", span)
			}
			c.nth = k
		}
		p.crashes = append(p.crashes, c)
		return nil
	}
	return fmt.Errorf("unknown fault kind %q", kind)
}

// parseCrashPhase parses the remainder of a crashphase:<phase>[@N]
// clause.
func (p *Plan) parseCrashPhase(rest string) error {
	phase, at, hasAt := strings.Cut(rest, "@")
	switch phase {
	case "commit", "apply", "malloc":
	default:
		return fmt.Errorf("fault: crashphase: unknown phase %q (want commit, apply or malloc)", phase)
	}
	c := crashPhase{phase: phase, nth: 1}
	if hasAt {
		n, err := parseAmount(at)
		if err != nil || n == 0 {
			return fmt.Errorf("fault: crashphase: bad checkpoint index %q (1-based)", at)
		}
		c.nth = n
	}
	p.phases = append(p.phases, c)
	return nil
}

// cutAny splits s at the first occurrence of any byte in seps, keeping
// the separator accessible via s[len(before)].
func cutAny(s, seps string) (before, after string, ok bool) {
	if i := strings.IndexAny(s, seps); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return s, "", false
}

// parseAmount parses a decimal count with an optional k/m/g suffix.
func parseAmount(s string) (uint64, error) {
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "m"), strings.HasSuffix(s, "M"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "g"), strings.HasSuffix(s, "G"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad amount %q", s)
	}
	return v * mult, nil
}

func parsePct(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil || v > 100 {
		return 0, fmt.Errorf("bad percentage %q", s)
	}
	return v, nil
}

// parseWindow parses "N" or "NxK" (fire at event N, or K events from N).
func parseWindow(s string) (window, error) {
	at, span := s, ""
	if i := strings.IndexByte(s, 'x'); i >= 0 {
		at, span = s[:i], s[i+1:]
	}
	n, err := parseAmount(at)
	if err != nil || n == 0 {
		return window{}, fmt.Errorf("bad event index %q (1-based)", at)
	}
	w := window{from: n, span: 1}
	if span != "" {
		k, err := parseAmount(span)
		if err != nil || k == 0 {
			return window{}, fmt.Errorf("bad repeat count %q", span)
		}
		w.span = k
	}
	return w, nil
}

// Join concatenates spec fragments into one comma-separated spec,
// skipping empty fragments (the -fault and -crash flags merge through
// it, since crash clauses share the plan grammar).
func Join(specs ...string) string {
	var parts []string
	for _, s := range specs {
		if strings.TrimSpace(s) != "" {
			parts = append(parts, s)
		}
	}
	return strings.Join(parts, ",")
}

// SetObserver streams delivered faults into r (nil disables).
func (p *Plan) SetObserver(r *obs.Recorder) { p.rec = r }

// HasCrash reports whether the plan contains any crash clause. Crash
// clauses require a durable memory (pmem) to deliver their checkpoints;
// callers use this to reject a crash spec on a non-durable run instead
// of silently never crashing.
func (p *Plan) HasCrash() bool {
	return p != nil && (len(p.crashes) > 0 || p.crashPct > 0 || len(p.phases) > 0)
}

// Stats returns the faults delivered so far.
func (p *Plan) Stats() Stats { return p.stats }

// next steps the splitmix64 PRNG.
func (p *Plan) next() uint64 {
	p.rng += 0x9e3779b97f4a7c15
	z := p.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// roll returns true with probability pct percent.
func (p *Plan) roll(pct uint64) bool {
	if pct == 0 {
		return false
	}
	return p.next()%100 < pct
}

// MallocFault implements the allocator injection hook (alloc.Injector):
// consulted once per Malloc, it reports whether the call must fail and
// how many extra virtual cycles to charge.
func (p *Plan) MallocFault(tid int, size uint64) (fail bool, delay uint64) {
	p.mallocN++
	p.stats.MallocsN++
	n := p.mallocN
	for _, w := range p.oomAt {
		if w.hits(n) {
			fail = true
		}
	}
	if !fail && p.roll(p.oomPct) {
		fail = true
	}
	for _, w := range p.latAt {
		if w.hits(n) {
			delay = p.latency
		}
	}
	if delay == 0 && p.roll(p.latPct) {
		delay = p.latency
	}
	if fail {
		p.stats.OOMs++
	}
	if delay > 0 {
		p.stats.Spikes++
	}
	return fail, delay
}

// TxBegin is the transaction-begin hook: called with the thread id and
// its virtual clock, it returns stallCycles (a one-shot thread stall to
// serve before the transaction starts) and storm (the transaction must
// abort and retry — an abort-storm kill).
func (p *Plan) TxBegin(tid int, clock uint64) (stallCycles uint64, storm bool) {
	for i := range p.stalls {
		s := &p.stalls[i]
		if !s.fired && s.tid == tid && clock >= s.at {
			s.fired = true
			stallCycles += s.cycles
			p.stats.Stalls++
			if p.rec != nil {
				p.rec.Fault("stall", tid, clock, s.cycles)
			}
		}
	}
	for _, w := range p.storms {
		if w.hits(clock) {
			storm = true
			p.stats.Aborted++
			if p.rec != nil {
				p.rec.Fault("storm", tid, clock, 0)
			}
			break
		}
	}
	return stallCycles, storm
}

// Crash is the durable-memory checkpoint hook: called by pmem with the
// thread id, its virtual clock and the checkpoint's commit phase
// ("commit", "apply", "malloc", or a non-phase tag like "flush"), it
// reports whether the simulation must crash here. At most one crash
// fires per plan; after it the plan never fires again (the machine is
// down).
func (p *Plan) Crash(tid int, clock uint64, phase string) bool {
	if p.crashed {
		return false
	}
	fire := false
	for i := range p.crashes {
		c := &p.crashes[i]
		if clock >= c.at {
			c.seen++
			if c.seen >= c.nth {
				fire = true
			}
		}
	}
	for i := range p.phases {
		c := &p.phases[i]
		if c.phase == phase {
			c.seen++
			if c.seen >= c.nth {
				fire = true
			}
		}
	}
	if !fire && p.roll(p.crashPct) {
		fire = true
	}
	if !fire {
		return false
	}
	p.crashed = true
	p.stats.Crashes++
	if p.rec != nil {
		p.rec.Fault("crash", tid, clock, 0)
	}
	return true
}

// Quota returns the address-space byte cap the plan requests (0: none).
func (p *Plan) Quota() uint64 { return p.quota }

// ApplyQuota installs the plan's quota on the space (a no-op without a
// quota clause).
func (p *Plan) ApplyQuota(s *mem.Space) {
	if p.quota != 0 {
		s.SetQuota(p.quota)
	}
}
