package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// cacheSchema identifies the on-disk cell entry layout.
const cacheSchema = "tmrepro/cell/v1"

// entry is the on-disk form of one finished cell. Key, seed, version
// and spec are stored alongside the payload so a hash collision (or a
// hand-edited file) is detected instead of silently trusted, and so
// `ls`+`cat` on the cache directory is self-explanatory.
type entry struct {
	Schema  string          `json:"schema"`
	Version string          `json:"version"`
	Key     string          `json:"key"`
	Seed    uint64          `json:"seed"`
	Spec    json.RawMessage `json:"spec"`
	Payload json.RawMessage `json:"payload"`
}

// Cache memoizes finished cells under dir, one JSON file per cell
// hash, fanned out over 256 subdirectories. Concurrent writers are
// safe: files land via write-to-temp + rename, and distinct cells
// never share a path. A nil *Cache disables caching.
type Cache struct {
	dir string
}

// OpenCache creates (if needed) and returns the cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash[:2], hash+".json")
}

// Get returns the cached payload for the cell, if present and intact.
// Any read, decode or identity mismatch is a miss — the cell reruns
// and overwrites the bad entry.
func (c *Cache) Get(cell *Cell) (json.RawMessage, bool) {
	if c == nil {
		return nil, false
	}
	data, err := os.ReadFile(c.path(cell.Hash()))
	if err != nil {
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, false
	}
	if e.Schema != cacheSchema || e.Version != Version ||
		e.Key != cell.Key || e.Seed != cell.Seed || string(e.Spec) != string(cell.Spec) {
		return nil, false
	}
	return e.Payload, true
}

// Put stores a finished cell's payload.
func (c *Cache) Put(cell *Cell, payload json.RawMessage) error {
	if c == nil {
		return nil
	}
	e := entry{
		Schema:  cacheSchema,
		Version: Version,
		Key:     cell.Key,
		Seed:    cell.Seed,
		Spec:    cell.Spec,
		Payload: payload,
	}
	data, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("sweep: encode cache entry %s: %w", cell.Key, err)
	}
	path := c.path(cell.Hash())
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".cell-*")
	if err != nil {
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	return nil
}
