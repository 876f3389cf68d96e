// The validation cache: content-hash-keyed memoisation of successful
// conformance validations. No production path uses it: on the models the
// servers commit, hashing the canonical encoding plus the defensive clones
// cost more than a compiled validation of a fresh clone, hits are rare
// because committed models change on every write, and the retained
// validated models dominated the live heap. It stays as a measured
// alternative that the validation experiment and the system benchmark
// time against compiled validation.
//
// Correctness properties:
//   - Entries are keyed by a hash of the canonical encodings of BOTH the
//     model and the metamodel, and the full encodings are compared on
//     lookup — a hash collision degrades to a miss, never a wrong hit.
//   - Keying on the metamodel's content means any structural change to the
//     metamodel (or a differently shaped rebuild) invalidates prior
//     entries naturally: their keys no longer match, and LRU eviction
//     reclaims them.
//   - Only successful validations are cached; failures always re-validate.
//   - The cache stores a private clone of the validated (normalised,
//     defaults applied) model and hands out fresh clones on hit, so
//     callers can mutate results freely.
package metamodel

import (
	"bytes"
	"container/list"
	"sync"

	"github.com/mddsm/mddsm/internal/obs"
)

// DefaultValidationCacheSize is the capacity NewValidationCache uses when
// given none.
const DefaultValidationCacheSize = 256

// ValidationCache memoises successful model validations by content hash
// with LRU eviction. A nil *ValidationCache is valid and simply validates
// without memoisation. The cache is safe for concurrent use.
type ValidationCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used; values are *vcEntry
	index map[uint64][]*list.Element

	hitsN, missesN, evictionsN int64

	hits, misses, evictions *obs.Counter // nil-safe mirrors
}

type vcEntry struct {
	key       uint64
	mmCanon   []byte
	modCanon  []byte
	validated *Model // normalised, defaults applied; never handed out directly
}

// NewValidationCache returns a cache holding at most max validated models
// (DefaultValidationCacheSize when max <= 0).
func NewValidationCache(max int) *ValidationCache {
	if max <= 0 {
		max = DefaultValidationCacheSize
	}
	return &ValidationCache{
		max:   max,
		ll:    list.New(),
		index: make(map[uint64][]*list.Element),
	}
}

// BindMetrics mirrors the cache's hit/miss/eviction counts into reg under
// the canonical obs names.
func (c *ValidationCache) BindMetrics(reg *obs.Metrics) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits = reg.Counter(obs.MValidateCacheHits)
	c.misses = reg.Counter(obs.MValidateCacheMisses)
	c.evictions = reg.Counter(obs.MValidateCacheEvicted)
}

// Stats returns cumulative hit, miss and eviction counts.
func (c *ValidationCache) Stats() (hits, misses, evictions int64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitsN, c.missesN, c.evictionsN
}

// Len returns the number of cached validated models.
func (c *ValidationCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Validate returns a validated (normalised, defaults applied) clone of m
// against mm, reusing a cached result when the exact same model and
// metamodel content was validated before. On a validation failure it
// returns (nil, err) and caches nothing. A nil receiver validates a clone
// directly with no memoisation.
func (c *ValidationCache) Validate(mm *Metamodel, m *Model) (*Model, error) {
	if c == nil {
		work := m.Clone()
		if err := work.Validate(mm); err != nil {
			return nil, err
		}
		return work, nil
	}
	mmCanon := mm.canonical()
	modCanon := m.appendCanonical(nil)
	key := fnv64(mmCanon, modCanon)

	c.mu.Lock()
	if e := c.lookupLocked(key, mmCanon, modCanon); e != nil {
		c.hitsN++
		hit := c.hits
		c.mu.Unlock()
		hit.Inc()
		return e.validated.Clone(), nil
	}
	c.missesN++
	miss := c.misses
	c.mu.Unlock()
	miss.Inc()

	work := m.Clone()
	if err := work.Validate(mm); err != nil {
		return nil, err
	}
	c.insert(&vcEntry{key: key, mmCanon: mmCanon, modCanon: modCanon, validated: work.Clone()})
	return work, nil
}

// lookupLocked finds the live entry for the exact content, promoting it to
// most recently used. It returns nil on miss.
func (c *ValidationCache) lookupLocked(key uint64, mmCanon, modCanon []byte) *vcEntry {
	for _, el := range c.index[key] {
		e := el.Value.(*vcEntry)
		if bytes.Equal(e.mmCanon, mmCanon) && bytes.Equal(e.modCanon, modCanon) {
			c.ll.MoveToFront(el)
			return e
		}
	}
	return nil
}

// insert stores a freshly validated entry, skipping the store when a
// concurrent validation of the same content won the race, and evicting
// from the LRU tail past capacity.
func (c *ValidationCache) insert(e *vcEntry) {
	c.mu.Lock()
	var evict *obs.Counter
	var evicted int64
	if c.lookupLocked(e.key, e.mmCanon, e.modCanon) == nil {
		el := c.ll.PushFront(e)
		c.index[e.key] = append(c.index[e.key], el)
		for c.ll.Len() > c.max {
			back := c.ll.Back()
			c.removeLocked(back)
			c.evictionsN++
			evicted++
		}
		evict = c.evictions
	}
	c.mu.Unlock()
	evict.Add(evicted)
}

// removeLocked unlinks an element from the LRU list and its index bucket.
func (c *ValidationCache) removeLocked(el *list.Element) {
	e := el.Value.(*vcEntry)
	c.ll.Remove(el)
	bucket := c.index[e.key]
	for i, b := range bucket {
		if b == el {
			bucket = append(bucket[:i:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(c.index, e.key)
	} else {
		c.index[e.key] = bucket
	}
}
