package service

import (
	"container/list"
	"sync"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/poibin"
)

// resultCache is an LRU map from (dataset id, canonical options key) to a
// finished mining result, held encoded: the entry, every job served from it
// and the durable store share one *encoded value, so each result is
// rendered at most once however often it is served (DESIGN §9.3).
// Caching is sound because mining is deterministic
// per (database content, canonical options) — see DESIGN §8.3: results,
// probabilities, and all scheduling-independent statistics are
// byte-identical across runs, parallelism settings, and memo budgets — so a
// cached entry is indistinguishable from re-mining.
// With a durable store attached the cache becomes its read/write-through
// front: a finished result is snapshotted to disk as it enters the LRU, and
// a miss consults the store before reporting failure, promoting disk hits —
// so a restarted daemon (or an entry the LRU evicted) still answers as a
// cache hit instead of re-mining.
type resultCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	persist *persister // nil without -store-dir
}

type cacheEntry struct {
	key string
	res *encoded[core.ResultJSON]
}

// cacheKey is the result-cache and store key of every mine the daemon
// runs — jobs, sweep points and watched jobs: the dataset id and the
// canonical options key, joined by a newline (the options key contains
// none, so the separator is unambiguous). Mines whose tails go through the
// truncated convolution — shards ≥ 2, or a dataset with at least
// poibin.ConvCrossoverN rows — append the token " conv=2", the revision of
// the merge's absorbing cell (DESIGN §9.3, §13): results stored before it
// differ in their low bits, so they must miss. Mines that can reach the
// Karp–Luby sampler append " kl=2", the revision of the order in which a
// sampled world draws its tuples (DESIGN §3.5), for the same reason. A
// candidate X has at most one clause per item outside X, and X is never
// empty, so a dataset of at most MaxExactClauses+1 items resolves every
// union exactly unless MaxExactClauses < 0 forces sampling. Unsharded mines
// of a dataset with at least one certain (p = 1) tuple append " cert=1":
// their exact tails run over the uncertain tuples at MinSup less the
// certain count (DESIGN §3.1, §9.3), which differs from the full DP in the
// low bits. Sharded mines still fold every tuple, and a dataset without
// certain tuples gives the same bits either way, so their keys stay as
// they were. The count is taken at registration (Dataset.Stats). canon
// must be the canonical options, so MaxExactClauses has its default.
func cacheKey(ds *Dataset, canon core.Options, optionsKey string) string {
	key := ds.ID + "\n" + optionsKey
	if canon.Shards >= 2 || ds.DB().N() >= poibin.ConvCrossoverN {
		key += " conv=2"
	}
	if canon.MaxExactClauses < 0 || ds.Stats.NumItems > canon.MaxExactClauses+1 {
		key += " kl=2"
	}
	if canon.Shards < 2 && ds.Stats.CertainTuples > 0 {
		key += " cert=1"
	}
	return key
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, ll: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the cached result for key, promoting it to most recent. On an
// LRU miss with a store attached, the stored snapshot is read through and
// promoted — indistinguishable from a memory hit to callers, which is the
// point: restored results count as cache hits, not re-mines.
func (c *resultCache) get(key string) (*encoded[core.ResultJSON], bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		res := el.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res, true
	}
	c.mu.Unlock()
	if c.persist == nil {
		return nil, false
	}
	res, ok := c.persist.loadResult(key)
	if !ok {
		return nil, false
	}
	c.putMem(key, res)
	return res, true
}

// put stores a result, evicting the least recently used entry beyond the
// capacity, and snapshots it to the durable store when one is attached. A
// zero or negative capacity disables the in-memory tier but not the store:
// durability does not depend on the LRU budget.
func (c *resultCache) put(key string, res *encoded[core.ResultJSON]) {
	c.putMem(key, res)
	if c.persist != nil {
		c.persist.saveResult(key, res)
	}
}

func (c *resultCache) putMem(key string, res *encoded[core.ResultJSON]) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// len returns the number of cached results.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
