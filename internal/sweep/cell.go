// Package sweep runs experiment sweeps as independent cells on a
// bounded pool of host goroutines that take cells in cell order from
// one shared cursor, and memoizes finished cells in an on-disk cache
// keyed by a canonical config hash.
//
// A cell is one (configuration, repetition) point of an experiment's
// cross product — one simulated workload run. Every cell carries its
// own derived seed and builds its own simulation world (memory space,
// virtual-time engine, STM, allocator, fault plan, recorder), so cells
// share no mutable state and can execute in any order on any goroutine
// while producing byte-identical results: the scheduler returns
// outcomes in cell-index order no matter which worker finished what
// when, and reducers consume them in that order.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Version names the cell-hash scheme and is folded into every cell
// hash. It carries no code identity: a change to the allocators, STM,
// vtime costs or workloads leaves every hash as it was, so a cache
// entry cannot tell which build made it.
const Version = "tmrepro-cells/v1"

// Cell is one independent unit of work: a pure function of its spec
// and seed.
type Cell struct {
	// Key canonically names the workload configuration, e.g.
	// "intset/ll/glibc/t4/u60/.../r0". Cells with equal hashes (key,
	// spec, seed, version) are deduplicated by the scheduler: shared
	// configurations across experiments execute once.
	Key string
	// Spec is the canonical JSON encoding of the full cell
	// configuration; it feeds the cache hash, so any config change
	// invalidates the cached result.
	Spec json.RawMessage
	// Seed is the cell's derived seed (hashed too).
	Seed uint64
	// Run executes the cell and returns a JSON-serializable payload
	// plus an opaque harvest: whatever the caller's observers collected
	// while the cell ran, nil when nothing observed it. The scheduler
	// never looks inside a harvest; it only hands it back.
	Run func() (payload, harvest any, err error)

	hash string
}

// Hash returns the cell's cache identity: SHA-256 over the code
// version, key, seed and canonical spec. Memoized.
func (c *Cell) Hash() string {
	if c.hash == "" {
		h := sha256.New()
		fmt.Fprintf(h, "%s\x00%s\x00%d\x00", Version, c.Key, c.Seed)
		h.Write(c.Spec)
		c.hash = hex.EncodeToString(h.Sum(nil))
	}
	return c.hash
}

// CellSetHash condenses a slice of cells into one hash — the identity
// of a whole experiment's decomposition, carried in run records.
func CellSetHash(cells []Cell) string {
	h := sha256.New()
	for i := range cells {
		fmt.Fprintf(h, "%s\n", (&cells[i]).Hash())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DeriveSeed mixes a base seed with a cell key into the cell's own
// seed (splitmix64 over an FNV-1a digest of the key). Two cells with
// different keys get uncorrelated streams; the same (base, key) always
// derives the same seed, which is what makes parallel and serial runs
// byte-identical.
func DeriveSeed(base uint64, key string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	z := base ^ h
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = fnvPrime
	}
	return z
}

// Outcome is one cell's result, in cell-index order.
type Outcome struct {
	Key     string
	Hash    string
	Payload json.RawMessage
	Harvest any   // the cell's harvest, on its first reference only; nil for cached, failed or unobserved cells
	Cached  bool  // served from the on-disk cache
	Err     error // execution or (de)serialization failure

	cacheErr bool // the payload could not be written back to the cache
}
