package serve

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"extscc"
)

// errClosed is returned to lookups that race a server shutdown.
var errClosed = errors.New("serve: server is shutting down")

// labelStore coalesces concurrent point lookups into batched sweeps over the
// label file.  A single dispatcher goroutine gathers the requests that
// arrive within a short window (or until the batch cap) and resolves their
// union with one Result.LookupLabels call.  The Result answers it on a
// lookup reader it holds between calls: on a framed (varint, compress) label
// file each sorted key is one probe of the frame-index footer plus at most
// one frame decode, shared by every key in that frame, so a wave of
// concurrent queries costs at most one frame read per touched frame instead
// of an independent probe per request.  The held reader keeps one decoded
// frame plus one block buffer resident.
type labelStore struct {
	res      *extscc.Result
	window   time.Duration
	maxBatch int

	reqs chan *lookupReq
	done chan struct{}
	wg   sync.WaitGroup

	batches int64 // sweeps performed
	batched int64 // point lookups resolved by those sweeps
}

type lookupReq struct {
	nodes []extscc.NodeID
	out   map[extscc.NodeID]uint32
	err   error
	ready chan struct{}
}

func newLabelStore(res *extscc.Result, window time.Duration, maxBatch int) *labelStore {
	s := &labelStore{
		res:      res,
		window:   window,
		maxBatch: maxBatch,
		reqs:     make(chan *lookupReq),
		done:     make(chan struct{}),
	}
	s.wg.Add(1)
	go s.dispatch()
	return s
}

// lookup resolves the labels of nodes, blocking until the dispatcher's next
// sweep completes.  The returned map has an entry per node present in the
// labelling.
func (s *labelStore) lookup(nodes []extscc.NodeID) (map[extscc.NodeID]uint32, error) {
	req := &lookupReq{nodes: nodes, ready: make(chan struct{})}
	select {
	case s.reqs <- req:
	case <-s.done:
		return nil, errClosed
	}
	<-req.ready
	return req.out, req.err
}

// dispatch is the batching loop: block for the first request, then keep
// absorbing requests until the window elapses or the batch cap is reached,
// then resolve the union in one sweep and fan the answers back out.
func (s *labelStore) dispatch() {
	defer s.wg.Done()
	for {
		var batch []*lookupReq
		select {
		case req := <-s.reqs:
			batch = append(batch, req)
		case <-s.done:
			return
		}
		size := len(batch[0].nodes)
		timer := time.NewTimer(s.window)
	gather:
		for size < s.maxBatch {
			select {
			case req := <-s.reqs:
				batch = append(batch, req)
				size += len(req.nodes)
			case <-timer.C:
				break gather
			case <-s.done:
				timer.Stop()
				s.flush(batch)
				return
			}
		}
		timer.Stop()
		s.flush(batch)
	}
}

// flush resolves one gathered batch and wakes its requesters.
func (s *labelStore) flush(batch []*lookupReq) {
	union := make([]extscc.NodeID, 0, len(batch)*2)
	for _, req := range batch {
		union = append(union, req.nodes...)
	}
	resolved, err := s.res.LookupLabels(union)
	atomic.AddInt64(&s.batches, 1)
	atomic.AddInt64(&s.batched, int64(len(union)))
	for _, req := range batch {
		if err != nil {
			req.err = err
		} else {
			out := make(map[extscc.NodeID]uint32, len(req.nodes))
			for _, n := range req.nodes {
				if scc, ok := resolved[n]; ok {
					out[n] = scc
				}
			}
			req.out = out
		}
		close(req.ready)
	}
}

// close stops the dispatcher; pending requests are answered (the dispatcher
// flushes its in-hand batch) and later lookups fail with errClosed.
func (s *labelStore) close() {
	close(s.done)
	s.wg.Wait()
}

func (s *labelStore) stats() (batches, batched int64) {
	return atomic.LoadInt64(&s.batches), atomic.LoadInt64(&s.batched)
}

// lruCache is a mutex-guarded LRU of hot node labels.  Both positive entries
// (node -> SCC) and negative ones (node absent from the labelling) are
// cached, so repeated queries for missing nodes also skip the label file.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[extscc.NodeID]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type lruEntry struct {
	node  extscc.NodeID
	scc   uint32
	known bool
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[extscc.NodeID]*list.Element)}
}

// get returns (scc, known, hit): hit=false means the cache has no entry and
// the caller must consult the store; known=false on a hit means the node is
// cached as absent.
func (c *lruCache) get(node extscc.NodeID) (scc uint32, known, hit bool) {
	if c.cap <= 0 {
		c.misses.Add(1)
		return 0, false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[node]
	if !ok {
		c.misses.Add(1)
		return 0, false, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	e := el.Value.(*lruEntry)
	return e.scc, e.known, true
}

// add inserts or refreshes an entry, evicting the least recently used one
// when full.
func (c *lruCache) add(node extscc.NodeID, scc uint32, known bool) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[node]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruEntry)
		e.scc, e.known = scc, known
		return
	}
	c.items[node] = c.ll.PushFront(&lruEntry{node: node, scc: scc, known: known})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).node)
	}
}

func (c *lruCache) stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
