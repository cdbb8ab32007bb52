package mem

// Byte-granularity helpers. The STM and the allocators operate on whole
// words; applications that store packed byte data (gene segments,
// packet payloads) use these read-modify-write helpers for
// non-transactional phases, and pack bytes into words explicitly inside
// transactions.

// LoadByte returns the byte at address a.
func (s *Space) LoadByte(a Addr) byte {
	w := s.Load(a)
	return byte(w >> ((uint64(a) & 7) * 8))
}

// StoreByte writes b at address a, as a load and a store of the word
// that holds it.
func (s *Space) StoreByte(a Addr, b byte) {
	shift := (uint64(a) & 7) * 8
	w := s.Load(a)
	w = (w &^ (0xff << shift)) | uint64(b)<<shift
	s.Store(a, w)
}

// WriteBytes copies p into simulated memory starting at a.
func (s *Space) WriteBytes(a Addr, p []byte) {
	for len(p) > 0 && uint64(a)&7 != 0 {
		s.StoreByte(a, p[0])
		a++
		p = p[1:]
	}
	for len(p) >= 8 {
		w := uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
			uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
		s.Store(a, w)
		a += 8
		p = p[8:]
	}
	for _, b := range p {
		s.StoreByte(a, b)
		a++
	}
}

// ReadBytes copies n bytes starting at a out of simulated memory.
func (s *Space) ReadBytes(a Addr, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = s.LoadByte(a + Addr(i))
	}
	return out
}
