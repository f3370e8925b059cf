// Content-addressed result cache for the sizing engine. A synthesis is a
// pure function of (block spec, process, optimizer options, topology), so
// its result can be keyed by a hash of those inputs and replayed for
// free: regenerating figures, re-running a sweep, or retargeting a study
// all hit the same design points again. The warm-start seed is
// deliberately excluded from the key — warm and cold runs of the same
// request are interchangeable answers to the same question, which is
// what turns a retarget study over cached specs into pure cache hits.
package synth

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/stagespec"
)

func init() {
	// Result.Sizing is an interface; gob needs the concrete cells.
	gob.Register(opamp.MillerSizing{})
	gob.Register(opamp.TelescopicSizing{})
}

// Canonical returns a copy of o with the execution-only knobs cleared —
// WarmStart (see package comment), Pool, Cache, EvalHook, and Progress
// can never change the result — and the zero fields normalized to their
// defaults. Two Options with equal Canonical forms request the same
// synthesis; CacheKey and the service-level study content address both
// hash this form.
func (o Options) Canonical() Options {
	o.WarmStart = nil
	o.Pool = nil
	o.Cache = nil
	o.EvalHook = nil
	o.Progress = nil
	o.defaults() // normalize zero fields without the warm-start shrink
	return o
}

// KeyVersion names the evaluator generation a result was computed by.
// It leads every synthesis cache key (CacheKey) and study content
// address (core.StudyKey), so a change that moves results without
// changing any option — such as a new Newton policy in the simulator —
// bumps it, and no disk cache, peer cache, or job journal serves an
// older generation's result under an unchanged address. Version 2:
// factorization-reuse Newton is the simulator's only policy. Version 3:
// the settling transient starts each trapezoidal step from a predicted
// state, runs on window/300 steps, and interpolates the band crossing.
// Version 4: MOS Meyer caps are integrated trapezoidally, the settling
// transient runs on window/200 steps from 0.25 ns before the residue
// step, a failed transient step halves without a full-Newton rerun, and
// the loop crossover is root-found inside the coarse sweep's bracket.
const KeyVersion = 4

// CacheKey computes the content address of a synthesis request: a
// SHA-256 over KeyVersion, the block spec, the process name, and the
// canonicalized optimizer options (see Canonical). Keys are stable
// across processes, so a disk store written by one run is valid for
// every later one of the same KeyVersion.
func CacheKey(spec stagespec.MDACSpec, proc *pdk.Process, opts Options) string {
	opts = opts.Canonical()
	procName := ""
	if proc != nil {
		procName = proc.Name
	}
	type keyFields struct {
		Version                      int
		Spec                         stagespec.MDACSpec
		Process                      string
		Seed                         int64
		MaxEvals, PatternIter        int
		Restarts                     int
		InitTemp, CoolRate, PenaltyW float64
		Mode, Topology               int
		Surrogate                    bool
	}
	kf := keyFields{KeyVersion, spec, procName, opts.Seed, opts.MaxEvals, opts.PatternIter,
		opts.Restarts, InitTemp, CoolRate, PenaltyW,
		int(opts.Mode), int(opts.Topology), opts.Surrogate}
	blob, err := json.Marshal(kf)
	if err != nil {
		// Only value fields above; Marshal cannot fail. Keep the
		// signature clean and make any future regression loud.
		panic(fmt.Sprintf("synth: cache key marshal: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// CacheStats counts cache traffic since construction.
type CacheStats struct {
	Hits     int64 // Get calls answered (memory, disk, or peer fill)
	DiskHits int64 // subset of Hits served from the on-disk store
	PeerHits int64 // subset of Hits served by the fill hook (peer cache tier)
	Misses   int64 // Get calls that found nothing
	Puts     int64
	Evicted  int64 // LRU evictions from the in-memory tier
}

// Cache is a content-addressed synthesis result store: an in-memory LRU
// in front of an optional on-disk gob store, with optional fill/push
// hooks that extend it into a shared cluster tier. Safe for concurrent
// use by the parallel scheduler.
type Cache struct {
	mu      sync.Mutex
	max     int
	dir     string
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	stats   CacheStats
	fill    func(key string) (*Result, bool)
	push    func(key string, res *Result)
}

type cacheEntry struct {
	key string
	res Result
}

// DefaultCacheEntries bounds the in-memory tier when NewCache is given a
// non-positive size: generous for a full multi-resolution sweep (tens of
// design points per study) while staying a few megabytes at most.
const DefaultCacheEntries = 4096

// NewCache builds a cache holding up to maxEntries results in memory.
// A non-empty dir adds a persistent gob store (created if missing):
// misses fall through to disk, and every Put is written through.
func NewCache(maxEntries int, dir string) (*Cache, error) {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("synth: cache dir: %w", err)
		}
	}
	return &Cache{
		max:     maxEntries,
		dir:     dir,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}, nil
}

// SetFill installs the miss-path fallback consulted after memory and
// disk — the peer cache tier: the cluster layer points it at the ring
// owner's /v1/cache/{key}. A fill hit is inserted into the local tiers
// (memory, and disk when configured), so repeated asks stay local. The
// hook runs outside the cache lock and must be safe for concurrent use.
func (c *Cache) SetFill(fill func(key string) (*Result, bool)) {
	c.mu.Lock()
	c.fill = fill
	c.mu.Unlock()
}

// SetPush installs the write-through hook invoked (outside the lock) on
// every Put: the cluster layer uses it to replicate fresh entries to the
// key's ring owner, so any peer's later fill finds them there. The hook
// must be safe for concurrent use and should not block the caller.
func (c *Cache) SetPush(push func(key string, res *Result)) {
	c.mu.Lock()
	c.push = push
	c.mu.Unlock()
}

// Get returns a copy of the cached result for key, consulting memory
// first, then the disk store, then the fill hook (peer tier).
func (c *Cache) Get(key string) (*Result, bool) {
	if res, ok := c.GetLocal(key); ok {
		return res, ok
	}
	c.mu.Lock()
	fill := c.fill
	c.mu.Unlock()
	if fill != nil {
		if res, ok := fill(key); ok && res != nil {
			c.mu.Lock()
			c.stats.Hits++
			c.stats.PeerHits++
			c.insertLocked(key, *res)
			c.mu.Unlock()
			if c.dir != "" {
				_ = c.storeDisk(key, res)
			}
			return res, true
		}
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil, false
}

// GetLocal is Get restricted to the local tiers (memory and disk): the
// handler serving /v1/cache/{key} to peers uses it, so one node's probe
// can never recurse into another fill. A local miss is not counted —
// the caller decides whether it falls through to the peer tier.
func (c *Cache) GetLocal(key string) (*Result, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		res := el.Value.(*cacheEntry).res
		c.stats.Hits++
		c.mu.Unlock()
		return &res, true
	}
	c.mu.Unlock()
	if c.dir != "" {
		if res, err := c.loadDisk(key); err == nil {
			c.mu.Lock()
			c.stats.Hits++
			c.stats.DiskHits++
			c.insertLocked(key, *res)
			c.mu.Unlock()
			return res, true
		}
	}
	return nil, false
}

// Put stores a copy of res under key, writing through to the disk store
// when one is configured and to the push hook when one is installed.
// Disk failures are non-fatal: the cache is an accelerator, not a
// source of truth.
func (c *Cache) Put(key string, res *Result) {
	if res == nil {
		return
	}
	push := c.putLocal(key, res)
	if push != nil {
		push(key, res)
	}
}

// PutLocal is Put without the push hook: the handler ingesting a peer's
// pushed entry uses it, so replication terminates at the receiving node
// instead of hopping onward under a disagreeing ring view.
func (c *Cache) PutLocal(key string, res *Result) {
	if res == nil {
		return
	}
	c.putLocal(key, res)
}

func (c *Cache) putLocal(key string, res *Result) func(string, *Result) {
	c.mu.Lock()
	c.stats.Puts++
	c.insertLocked(key, *res)
	push := c.push
	c.mu.Unlock()
	if c.dir != "" {
		_ = c.storeDisk(key, res)
	}
	return push
}

// EncodeResult writes res in the cache's wire/disk format (gob). The
// /v1/cache/{key} peer-fill endpoint serves exactly these bytes.
func EncodeResult(w io.Writer, res *Result) error {
	return gob.NewEncoder(w).Encode(res)
}

// DecodeResult reads a result in the cache's wire/disk format (gob).
func DecodeResult(r io.Reader) (*Result, error) {
	var res Result
	if err := gob.NewDecoder(r).Decode(&res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Stats snapshots the traffic counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len reports the in-memory entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *Cache) insertLocked(key string, res Result) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for len(c.entries) > c.max {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
		c.stats.Evicted++
	}
}

func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.dir, key+".gob")
}

func (c *Cache) loadDisk(key string) (*Result, error) {
	blob, err := os.ReadFile(c.diskPath(key))
	if err != nil {
		return nil, err
	}
	var res Result
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&res); err != nil {
		return nil, fmt.Errorf("synth: corrupt cache entry %s: %w", key, err)
	}
	return &res, nil
}

func (c *Cache) storeDisk(key string, res *Result) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		return err
	}
	// Write-sync-rename: concurrent readers never see a torn entry
	// (rename is atomic and CreateTemp names are unique, so racing
	// same-key writers each publish a complete file), and the Sync
	// keeps a crash between rename and writeback from leaving a
	// truncated entry under the final name.
	tmp, err := os.CreateTemp(c.dir, "."+key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.diskPath(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// The data is durable but the rename is not until the directory
	// entry itself is synced: a crash here could resurface the old name
	// set and lose the entry. Cheap next to the synthesis it caches.
	dir, err := os.Open(c.dir)
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}
