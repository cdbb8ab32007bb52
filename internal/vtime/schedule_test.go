package vtime

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/mem"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/schedule.golden")

// schedLog is the HeapSampler, RaceObserver and Profiler of
// TestScheduleGolden. It writes each scheduler-side callback to one
// log in call order; the scenario threads write their own lines into
// the same log, so the file shows which thread ran between which
// scheduling points.
type schedLog struct {
	b    strings.Builder
	objs map[any]int // sync objects, numbered by first appearance
}

func (l *schedLog) printf(format string, args ...any) { fmt.Fprintf(&l.b, format+"\n", args...) }

func (l *schedLog) obj(o any) int {
	if l.objs == nil {
		l.objs = map[any]int{}
	}
	if _, ok := l.objs[o]; !ok {
		l.objs[o] = len(l.objs)
	}
	return l.objs[o]
}

func (l *schedLog) Sample(now uint64)                                 { l.printf("sample %d", now) }
func (l *schedLog) OnAccess(int, mem.Addr, bool, uint64)              {}
func (l *schedLog) Barrier(clock uint64)                              { l.printf("race barrier %d", clock) }
func (l *schedLog) SyncRelease(tid int, obj any)                      { l.printf("race release t%d obj%d", tid, l.obj(obj)) }
func (l *schedLog) SyncAcquire(tid int, obj any)                      { l.printf("race acquire t%d obj%d", tid, l.obj(obj)) }
func (l *schedLog) Stall(int, cachesim.Level, uint64, uint64, uint64) {}
func (l *schedLog) SyncClock(tid int, now uint64)                     { l.printf("prof sync t%d %d", tid, now) }
func (l *schedLog) ResetClock(tid int, now uint64)                    { l.printf("prof reset t%d %d", tid, now) }

// scenarioRNG is a per-thread xorshift stream, so a scenario's work
// amounts are fixed by its seed and thread id alone.
type scenarioRNG uint64

func (r *scenarioRNG) next(n uint64) uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = scenarioRNG(x)
	return x % n
}

// scheduleScenario is one engine TestScheduleGolden pins: its settings,
// how many regions it runs, and body, which sets up a region's shared
// state and returns what each of its threads runs.
type scheduleScenario struct {
	name    string
	threads int
	cfg     Config
	regions int // Run calls in a row (default 1)
	body    func(e *Engine, l *schedLog) func(th *Thread)
}

func scheduleScenarios() []scheduleScenario {
	return []scheduleScenario{
		{
			// Seeded compute, one contended lock and stores to shared
			// lines priced by the cache model: quanta of every length,
			// spinning and coherence traffic.
			name: "mixed", threads: 8, cfg: Config{Cache: cachesim.New(8)},
			body: func(e *Engine, l *schedLog) func(th *Thread) {
				base := e.threads[0].space.MustMap(mem.PageSize, 0)
				var lk Lock
				return func(th *Thread) {
					rng := scenarioRNG(0x9e3779b9 + 0x10001*uint64(th.ID()))
					for i := 0; i < 12; i++ {
						th.Work(1 + rng.next(400))
						lk.Lock(th)
						l.printf("t%d lock @%d", th.ID(), th.Clock())
						th.Store(base+mem.Addr(8*rng.next(64)), uint64(i))
						lk.Unlock(th)
					}
				}
			},
		},
		{
			// Phases of unequal length joined by a barrier.
			name: "barrier", threads: 4,
			body: func(e *Engine, l *schedLog) func(th *Thread) {
				b := NewBarrier(4)
				return func(th *Thread) {
					rng := scenarioRNG(0x51ed27 + 0x10001*uint64(th.ID()))
					for phase := 0; phase < 3; phase++ {
						th.Work(200 + rng.next(1500))
						b.Wait(th)
						l.printf("t%d phase %d @%d", th.ID(), phase, th.Clock())
					}
				}
			},
		},
		{
			// The watchdog winds down three spinning threads, each of
			// which still ticks and yields in its deferred cleanup; the
			// fourth finishes first.
			name: "deadline", threads: 4, cfg: Config{Deadline: 6000},
			body: func(e *Engine, l *schedLog) func(th *Thread) {
				return func(th *Thread) {
					if th.ID() == 3 {
						th.Work(500)
						l.printf("t3 finished @%d", th.Clock())
						return
					}
					defer func() {
						for i := 0; i < 3; i++ {
							th.Tick(100)
							th.Yield()
						}
						l.printf("t%d cleanup done @%d", th.ID(), th.Clock())
					}()
					for {
						th.Work(1 + 3*uint64(th.ID()))
						th.Yield()
					}
				}
			},
		},
		{
			// Thread 2 crashes the engine mid-flight; the others are
			// wound down through a cleanup that ticks. The second region
			// of a stopped engine starts no thread.
			name: "stop", threads: 4, regions: 2,
			body: func(e *Engine, l *schedLog) func(th *Thread) {
				return func(th *Thread) {
					l.printf("t%d start @%d", th.ID(), th.Clock())
					defer func() {
						th.Tick(40)
						th.Tick(40)
						l.printf("t%d cleanup done @%d", th.ID(), th.Clock())
					}()
					for {
						th.Work(5 + uint64(th.ID()))
						if th.ID() == 2 && th.Clock() > 3000 {
							e.Stop()
							l.printf("t2 stops the engine @%d", th.Clock())
							panic(StopSignal{})
						}
					}
				}
			},
		},
		{
			// A foreign panic in thread 1: the others run to their end
			// and Run re-raises it.
			name: "panic", threads: 3,
			body: func(e *Engine, l *schedLog) func(th *Thread) {
				return func(th *Thread) {
					for i := 0; i < 30; i++ {
						th.Work(37 + 11*uint64(th.ID()))
						if th.ID() == 1 && th.Clock() > 600 {
							panic(fmt.Sprintf("boom in t1 @%d", th.Clock()))
						}
					}
					l.printf("t%d done @%d", th.ID(), th.Clock())
				}
			},
		},
	}
}

// TestScheduleGolden pins the engine's schedule and its wind-down:
// every heap sample, every quantum and watchdog event, every race
// barrier and sync callback, the profiler's flushes, and the final
// clocks and flags, for regions that finish, meet at barriers, hit the
// deadline with cleanup still to run, stop mid-flight, and panic.
func TestScheduleGolden(t *testing.T) {
	var out bytes.Buffer
	for _, sc := range scheduleScenarios() {
		out.WriteString(runScenario(sc))
	}
	path := filepath.Join("testdata", "schedule.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/vtime -run TestScheduleGolden -update` to create it)", err)
	}
	got := strings.Split(out.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("schedule drifted from %s at line %d:\n got %q\nwant %q", path, i+1, g, w)
		}
	}
}

func runScenario(sc scheduleScenario) string {
	l := &schedLog{}
	rec := obs.New(obs.Config{})
	sc.cfg.Obs, sc.cfg.Heap, sc.cfg.Race, sc.cfg.Prof = rec, l, l, l
	e := NewEngine(mem.NewSpace(), sc.threads, sc.cfg)
	l.printf("== %s", sc.name)
	for region := 0; region < max(sc.regions, 1); region++ {
		l.printf("-- region %d", region)
		func() {
			defer func() {
				if r := recover(); r != nil {
					l.printf("run panicked: %v", r)
				}
			}()
			clocks := e.Run(sc.body(e, l))
			l.printf("run returned %v", clocks)
		}()
		clocks := make([]uint64, len(e.threads))
		for i, th := range e.threads {
			clocks[i] = th.clock
		}
		l.printf("clocks %v deadline=%v stopped=%v", clocks, e.DeadlineExceeded(), e.Stopped())
	}
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obs.KindQuantum:
			l.printf("quantum t%d %d+%d", ev.TID, ev.TS, ev.Dur)
		default:
			l.printf("%s t%d %d %s", ev.Kind, ev.TID, ev.TS, ev.Label)
		}
	}
	return l.b.String()
}
