package stm

// u64Table is a small open-addressing hash table from uint64 keys to
// int32 values, reused across transactions: reset empties it in O(1)
// without releasing the backing arrays, so the steady-state
// begin/load/store path performs no host allocation (the maps it
// replaces, writeIdx and lockedSet, were cleared with clear() but still
// rehashed and spilled buckets under load). Linear probing over a
// power-of-two slot count; keys are stored biased by +1 so a zero slot
// means empty and key 0 (a valid ORT index) stays representable. Each
// slot also records the generation that filled it: reset starts a new
// generation, and a slot of an older one reads as empty.
type u64Table struct {
	keys []uint64 // key+1; 0 marks an empty slot
	vals []tableVal
	n    int
	gen  uint32
}

type tableVal struct {
	v   int32
	gen uint32 // the table generation that filled the slot
}

const tableMinSlots = 64

// hashSlot spreads k over the table (Fibonacci multiplicative hashing;
// the low bits of ORT indices and word-aligned addresses are regular).
func hashSlot(k, mask uint64) uint64 {
	return (k * 0x9e3779b97f4a7c15) >> 32 & mask
}

// reset empties the table, keeping capacity. Only when the generation
// wraps to 0 does it clear the keys, so that slots last filled 2^32
// generations ago cannot read as live.
func (t *u64Table) reset() {
	if t.n != 0 {
		t.n = 0
		t.gen++
		if t.gen == 0 {
			clear(t.keys)
		}
	}
}

// live reports whether slot i holds an entry of the current generation.
func (t *u64Table) live(i uint64) bool {
	return t.keys[i] != 0 && t.vals[i].gen == t.gen
}

// get returns the value stored for k.
func (t *u64Table) get(k uint64) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := uint64(len(t.keys) - 1)
	ek := k + 1
	for i := hashSlot(k, mask); t.live(i); i = (i + 1) & mask {
		if t.keys[i] == ek {
			return t.vals[i].v, true
		}
	}
	return 0, false
}

// put stores v for k (overwriting any existing entry), growing at 3/4
// load so probe chains stay short.
func (t *u64Table) put(k uint64, v int32) {
	if len(t.keys) == 0 {
		t.keys = make([]uint64, tableMinSlots)
		t.vals = make([]tableVal, tableMinSlots)
	} else if t.n >= len(t.keys)/4*3 {
		t.grow()
	}
	if t.insert(k, v) {
		t.n++
	}
}

// insert places (k, v), reporting whether the key was new.
func (t *u64Table) insert(k uint64, v int32) bool {
	mask := uint64(len(t.keys) - 1)
	ek := k + 1
	for i := hashSlot(k, mask); ; i = (i + 1) & mask {
		if !t.live(i) {
			t.keys[i] = ek
			t.vals[i] = tableVal{v: v, gen: t.gen}
			return true
		}
		if t.keys[i] == ek {
			t.vals[i].v = v
			return false
		}
	}
}

func (t *u64Table) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, len(oldKeys)*2)
	t.vals = make([]tableVal, len(oldVals)*2)
	for i, ek := range oldKeys {
		if ek != 0 && oldVals[i].gen == t.gen {
			t.insert(ek-1, oldVals[i].v)
		}
	}
}
