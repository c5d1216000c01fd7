package server

import (
	"container/list"

	"tlc/internal/api"
)

// lru is the content-addressed result cache: RunKey → RunRecord, bounded by
// entry count. Not safe for concurrent use; the Server guards it with its
// own mutex.
type lru struct {
	cap   int
	order *list.List // front = most recently used; values are *lruEntry
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	rec api.RunRecord
}

// newLRU builds a cache holding at least one entry. A capacity below 1
// would make add's eviction loop remove the just-inserted record — a cache
// that silently never holds anything — so degenerate capacities clamp to 1.
// (server.New validates Config.CacheSize before ever reaching this; the
// clamp is defense in depth for any other construction site.)
func newLRU(capacity int) *lru {
	if capacity < 1 {
		capacity = 1
	}
	return &lru{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

func (c *lru) get(key string) (api.RunRecord, bool) {
	el, ok := c.items[key]
	if !ok {
		return api.RunRecord{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).rec, true
}

func (c *lru) add(key string, rec api.RunRecord) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).rec = rec
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, rec: rec})
	for len(c.items) > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}
