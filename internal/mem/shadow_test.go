package mem

import (
	"strings"
	"testing"
)

func TestShadowStateMachine(t *testing.T) {
	s := NewSpace()
	sh := s.EnableSanitizer()
	base, err := s.Map(PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Allocate 66 bytes into an 80-byte class block: words 0..8 are the
	// request (66 rounds up to 72), the last word is redzone.
	sh.OnHeapAlloc("glibc", base, 66, 80, 1, 100)
	if st := sh.StateAt(base); st != ShadowAllocated {
		t.Errorf("base state = %v, want allocated", st)
	}
	if st := sh.StateAt(base + 64); st != ShadowAllocated {
		t.Errorf("last request word = %v, want allocated", st)
	}
	if st := sh.StateAt(base + 72); st != ShadowRedzone {
		t.Errorf("slack word = %v, want redzone", st)
	}
	if d := sh.Check(base, false, 2, 200); d != nil {
		t.Errorf("clean load diagnosed: %v", d)
	}
	if d := sh.Check(base+72, true, 2, 200); d == nil || d.Kind != DiagOverflow {
		t.Errorf("redzone store = %v, want heap-buffer-overflow", d)
	}

	// Free poisons request and redzone alike, keeping provenance.
	sh.OnHeapFree(base, 3, 300)
	if d := sh.Check(base+8, false, 4, 400); d == nil || d.Kind != DiagUseAfterFree {
		t.Errorf("freed load = %v, want use-after-free", d)
	} else {
		msg := d.Error()
		for _, want := range []string{"glibc", "thread 3", "vtime 300", "thread 1", "vtime 100"} {
			if !strings.Contains(msg, want) {
				t.Errorf("diagnostic missing %q:\n%s", want, msg)
			}
		}
	}
	if d := sh.CheckFree(base, 4, 400); d == nil || d.Kind != DiagDoubleFree {
		t.Errorf("second free = %v, want double-free", d)
	}
	// A later free of the same base (quarantine release reaching the
	// allocator) must not clobber the recorded free site.
	sh.OnHeapFree(base, 9, 900)
	if blk, ok := sh.BlockAt(base); !ok || blk.FreeTid != 3 || blk.FreeClock != 300 {
		t.Errorf("free provenance clobbered: %+v", blk)
	}

	// Reuse from the tx cache re-arms the same geometry.
	sh.OnHeapReuse(base, 5, 500)
	if d := sh.Check(base, true, 5, 500); d != nil {
		t.Errorf("reused block store diagnosed: %v", d)
	}
	if st := sh.StateAt(base + 72); st != ShadowRedzone {
		t.Errorf("reused slack word = %v, want redzone", st)
	}

	// Non-block word on a tracked page is wild; untracked mapped words
	// are fine; unmapped addresses are wild.
	if d := sh.Check(base+4096, false, 6, 600); d == nil || d.Kind != DiagWildAddr {
		t.Errorf("non-block word on tracked page = %v, want wild-address", d)
	}
	app, err := s.Map(PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := sh.Check(app+8, false, 6, 600); d != nil {
		t.Errorf("untracked mapped word diagnosed: %v", d)
	}
	if d := sh.Check(Addr(0x1000), false, 6, 600); d == nil || d.Kind != DiagWildAddr {
		t.Errorf("unmapped address = %v, want wild-address", d)
	}
}

// TestSanitizeDefault pins the per-space default: a fresh space has no
// shadow map, and EnableSanitizer attaches exactly one, idempotently,
// as a block watcher.
func TestSanitizeDefault(t *testing.T) {
	s := NewSpace()
	if s.Sanitizer() != nil || len(s.watchers) != 0 {
		t.Fatalf("NewSpace has a shadow map (%v) or watchers (%d)", s.Sanitizer() != nil, len(s.watchers))
	}
	sh := s.EnableSanitizer()
	if sh == nil || s.Sanitizer() != sh {
		t.Fatal("EnableSanitizer did not attach a shadow map")
	}
	if again := s.EnableSanitizer(); again != sh || len(s.watchers) != 1 {
		t.Errorf("second EnableSanitizer: same map %v, %d watchers; want the same map and 1", again == sh, len(s.watchers))
	}
}
