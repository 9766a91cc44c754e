package compile

import (
	"container/list"
	"sync"

	"svsim/internal/fusion"
)

// DefaultCacheSize is the plan-cache capacity used when a caller wants
// caching but has no sizing opinion (batch sweeps hold one skeleton per
// ansatz shape, so even small caches stay hot).
const DefaultCacheSize = 64

// entry is one memoized compilation: the compiled template and where a
// new binding's parameters go into it (see entry.bind).
type entry struct {
	// tmpl is the plan of the binding that missed, minus Source and Tiles
	// (and minus Circuit when unfused or left verbatim by fusion: such a
	// plan executes its source).
	// Everything it points to is shared read-only with every hit.
	tmpl   CompiledPlan
	recipe *fusion.Recipe // how tmpl.Circuit depends on parameters; nil when unfused
	// sites lists the executable ops whose class depends on a parameter,
	// siteData the matrix elements those classes hold in total.
	sites    []int32
	siteData int
	srcSites []srcSite // block-aware compiles: what the provisional plan saw
	check    uint64    // second skeleton hash, compared before any index is trusted
	owner    string    // attribution label of the view that compiled it
}

// srcSite is a source op whose diagonality depends on its parameters,
// and the answer under the binding the entry was compiled from.
type srcSite struct {
	op   int32
	diag bool
}

// Cache is a thread-safe LRU of compiled plans keyed on circuit
// skeleton + compile configuration. A single Cache is safe to share
// across goroutines (batch.Runner workers all compile through one).
//
// A Cache value is a handle over a shared store: View derives further
// handles that share the same entries but attribute their hits and
// misses to a label (the multi-tenant service gives every tenant its
// own view of one fleet-wide cache, so hot circuits compile once
// regardless of who submits them while accounting stays per-tenant).
type Cache struct {
	s     *cacheStore
	label string // attribution label, "" for the unattributed root
}

// cacheStore is the shared state behind every view of one cache.
type cacheStore struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	byKey  map[uint64]*list.Element
	hits   int64
	misses int64
	// cross counts hits served to a view whose label differs
	// from the label that compiled the entry — the shared-cache payoff
	// the service dashboard reports (tenant B reusing tenant A's plan).
	cross   int64
	byLabel map[string]*CacheStats
	// inflight de-duplicates concurrent compiles of the same key
	// (single-flight): the first misser compiles, later callers wait on
	// its channel and then retry the lookup. This keeps a concurrent
	// fixed-shape sweep at exactly one miss.
	inflight map[uint64]chan struct{}
}

// lruItem is one cached skeleton. It holds up to maxVariants templates,
// newest first: a binding that does not fit the cached template (a zero
// angle in a sweep, an optimizer's all-zeros starting point) is compiled
// fresh and kept beside it rather than in its place, so one odd point
// costs one compile, not two.
type lruItem struct {
	key uint64
	es  []*entry
}

const maxVariants = 2

// NewCache returns an LRU plan cache holding up to capacity skeletons
// (capacity < 1 is clamped to 1; use DefaultCacheSize when unsure).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{s: &cacheStore{
		cap:      capacity,
		ll:       list.New(),
		byKey:    make(map[uint64]*list.Element),
		byLabel:  make(map[string]*CacheStats),
		inflight: make(map[uint64]chan struct{}),
	}}
}

// View returns a handle onto the same underlying cache whose lookups
// are attributed to label. Entries, capacity, and single-flight state
// are shared with every other view; only the accounting differs. A nil
// cache returns nil, so optional caches stay optional.
func (c *Cache) View(label string) *Cache {
	if c == nil {
		return nil
	}
	return &Cache{s: c.s, label: label}
}

// Label reports the attribution label of this view ("" for the root).
func (c *Cache) Label() string {
	if c == nil {
		return ""
	}
	return c.label
}

// CacheStats is a point-in-time snapshot of cache effectiveness. Hits
// count completed rebinds only; a lookup whose binding did not fit the
// cached template is a miss. CrossLabelHits counts the subset of hits
// where the entry was compiled under a different attribution label (a
// cross-tenant reuse).
type CacheStats struct {
	Hits           int64
	Misses         int64
	CrossLabelHits int64
	Entries        int
}

// Stats snapshots hit/miss counters and the current entry count across
// all views of the cache.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return CacheStats{Hits: s.hits, Misses: s.misses, CrossLabelHits: s.cross, Entries: s.ll.Len()}
}

// StatsByLabel snapshots per-label attribution: one CacheStats per view
// label that has recorded at least one lookup (Entries is zero in these
// rows; entry count is a whole-cache property).
func (c *Cache) StatsByLabel() map[string]CacheStats {
	if c == nil {
		return nil
	}
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]CacheStats, len(s.byLabel))
	for label, ls := range s.byLabel {
		out[label] = *ls
	}
	return out
}

// labelStatsLocked returns the accounting row for label, creating it on
// first use. Caller holds s.mu.
func (s *cacheStore) labelStatsLocked(label string) *CacheStats {
	ls := s.byLabel[label]
	if ls == nil {
		ls = &CacheStats{}
		s.byLabel[label] = ls
	}
	return ls
}

// get returns the templates cached under key, newest first (nil when the
// key is cold). The slice is never modified after it is handed out.
func (c *Cache) get(key uint64) []*entry {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[key]
	if !ok {
		return nil
	}
	s.ll.MoveToFront(el)
	return el.Value.(*lruItem).es
}

func (c *Cache) put(key uint64, e *entry) {
	e.owner = c.label
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		// The binding fit no cached template: keep its own in front of
		// them, in place of the oldest when full. Slices handed out by get
		// are never written.
		it := el.Value.(*lruItem)
		es := append([]*entry{e}, it.es...)
		if len(es) > maxVariants {
			es = es[:maxVariants]
		}
		it.es = es
		s.ll.MoveToFront(el)
		return
	}
	s.byKey[key] = s.ll.PushFront(&lruItem{key: key, es: []*entry{e}})
	for s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.byKey, oldest.Value.(*lruItem).key)
	}
}

// begin claims the right to compile key; false means another goroutine
// already holds it (wait on it with wait, then re-look-up).
func (c *Cache) begin(key uint64) bool {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, busy := s.inflight[key]; busy {
		return false
	}
	s.inflight[key] = make(chan struct{})
	return true
}

// wait blocks until the in-flight compile of key (if any) finishes.
func (c *Cache) wait(key uint64) {
	s := c.s
	s.mu.Lock()
	ch, busy := s.inflight[key]
	s.mu.Unlock()
	if busy {
		<-ch
	}
}

// end releases a claim taken with begin, waking all waiters.
func (c *Cache) end(key uint64) {
	s := c.s
	s.mu.Lock()
	ch := s.inflight[key]
	delete(s.inflight, key)
	s.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// recordHit attributes a hit on template e to this view's label; a hit
// on a template another label compiled also counts as cross-label.
func (c *Cache) recordHit(e *entry) {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits++
	ls := s.labelStatsLocked(c.label)
	ls.Hits++
	if e.owner != c.label {
		s.cross++
		ls.CrossLabelHits++
	}
}

func (c *Cache) recordMiss() {
	s := c.s
	s.mu.Lock()
	s.misses++
	s.labelStatsLocked(c.label).Misses++
	s.mu.Unlock()
}
