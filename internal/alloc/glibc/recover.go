package glibc

import (
	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/vtime"
)

// Crash recovery. Glibc is the only model with in-band metadata — a
// 16-byte boundary tag ahead of every block whose size word carries the
// in-use and mmapped bits, and a free-list link in the first chunk word
// of every binned chunk. None of those words are ever flushed on the
// hot path, so they tear worst of the four models (the durable twin of
// the paper's per-block-metadata story): recovery rewrites every size
// word from journaled truth and relinks every freed chunk into a
// canonical exact-fit bin.

// RecoverHeap implements alloc.Model. It consults only the passed
// state plus layout constants: journaled "arena" records locate the
// arenas (a live block outside every arena is a direct mapping), the
// block journal supplies base/usable for every chunk.
func (g *Glibc) RecoverHeap(th *vtime.Thread, st *alloc.RecoverState) alloc.RecoverReport {
	arenas := make([]mem.Addr, 0, 8)
	for _, m := range st.Meta {
		if m.Kind == "arena" {
			arenas = append(arenas, m.Base)
		}
	}
	inArena := func(a mem.Addr) bool {
		base := a &^ arenaMask
		for _, ab := range arenas {
			if ab == base {
				return true
			}
		}
		return false
	}

	// Repair every boundary tag: size word = chunk size with the in-use
	// bit for live blocks (plus mmapped for direct maps), cleared for
	// freed ones.
	var words, torn uint64
	repair := func(b alloc.RecordedBlock, live bool) {
		c := b.Base - HeaderSize
		want := b.Usable + HeaderSize
		if live {
			want |= inUseBit
			if !inArena(b.Base) {
				want |= mmappedBit
			}
		}
		words++
		if old := th.Load(c + sizeWordOff); old != want {
			torn++
			th.Store(c+sizeWordOff, want)
		}
	}
	for _, b := range st.Live {
		repair(b, true)
	}
	for _, b := range st.Freed {
		repair(b, false)
	}

	// Rebuild the exact-fit bins: freed chunks grouped by (arena, chunk
	// size) — an arena base has its low 26 bits clear, so base|size
	// keys the pair in (arena, size) order — each group relinked into
	// one canonical chain of chunk headers. The link words double as
	// the chunks' first words, so they are scanned as metadata too.
	rep := alloc.RebuildFreeLists(th, st, HeaderSize, func(b alloc.RecordedBlock) (uint64, bool) {
		return uint64(b.Base&^arenaMask) | (b.Usable + HeaderSize), true
	})
	rep.MetaWords += words
	rep.TornMeta += torn
	return rep
}
