package storage

import (
	"math"
	"sync"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// The query paths read node frames in place through PagePool.View, whose
// callback runs under the pool's lock and so cannot recurse into the
// pool. Each traversal therefore keeps its pending pages in a walker and
// reads one page per View call. Walkers are pooled: their visit method
// value is bound once, when the walker is made, and their stack or heap
// keeps its capacity between queries. So does their result scratch:
// a query collects its matches there and returns one exact-size copy,
// its only allocation (none when nothing matches).

// pageRef is a pending page visit: the page and its tree level (root 0),
// the level the flight recorder attributes the access to.
type pageRef struct{ page, depth int }

// maxRetained bounds, in elements, each scratch slice a walker keeps
// when it returns to its pool; a larger one is dropped, so one huge
// query does not pin its backing array in the pool.
const maxRetained = 4096

// trim empties s for reuse, or drops it if it grew past maxRetained.
func trim[T any](s []T) []T {
	if cap(s) > maxRetained {
		return nil
	}
	return s[:0]
}

// exactCopy returns a copy of s with len == cap, or nil when s is empty.
func exactCopy[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s)) //lint:allow hotalloc result copy: the query's one allocation, exact-size, out of pooled scratch
	copy(out, s)
	return out
}

// everywhere intersects every valid rect, turning a window walk into a
// full scan.
var everywhere = geom.Rect{
	MinX: math.Inf(-1), MinY: math.Inf(-1),
	MaxX: math.Inf(1), MaxY: math.Inf(1),
}

// windowWalk is the state of one depth-first window traversal.
type windowWalk struct {
	q       geom.Rect
	depth   int  // level of the page being visited
	leaf    bool // whether the page last visited was a leaf
	stack   []pageRef
	out     []rtree.Item       // result scratch
	visitFn func([]byte) error // visit, bound once per walker
}

var windowWalks = sync.Pool{New: func() any {
	w := new(windowWalk)
	w.visitFn = w.visit
	return w
}}

func getWindowWalk(q geom.Rect) *windowWalk {
	w := windowWalks.Get().(*windowWalk)
	w.q = q
	return w
}

// results returns an exact-size copy of the matches gathered so far.
func (w *windowWalk) results() []rtree.Item { return exactCopy(w.out) }

// release returns w to the pool; slices taken from results stay the
// caller's.
func (w *windowWalk) release() {
	w.out = trim(w.out)
	w.stack = w.stack[:0]
	windowWalks.Put(w)
}

// visit scans one node frame in place: a leaf's matching entries become
// results, an internal node's matching children are pushed in reverse
// entry order so the walk pops them in entry order.
func (w *windowWalk) visit(frame []byte) error {
	v := viewNode(frame)
	w.leaf = v.Leaf()
	ents := v.entries()
	if w.leaf {
		for ; len(ents) >= entrySize; ents = ents[entrySize:] {
			if e := (*entry)(ents); e.intersects(w.q) {
				w.out = append(w.out, rtree.Item{Rect: e.rect(), ID: int64(e.payload())}) //lint:allow hotalloc result append into pooled scratch: its capacity carries over between queries
			}
		}
		return nil
	}
	for end := len(ents); end >= entrySize; end -= entrySize {
		if e := (*entry)(ents[end-entrySize:]); e.intersects(w.q) {
			w.stack = append(w.stack, pageRef{page: int(e.payload()), depth: w.depth + 1}) //lint:allow hotalloc stack append: the walker is pooled, so its capacity carries over between queries
		}
	}
	return nil
}

// emit hands the results gathered so far to visit and drops them.
func (w *windowWalk) emit(visit func(rtree.Item) error) error {
	for _, it := range w.out {
		if err := visit(it); err != nil {
			return err
		}
	}
	w.out = w.out[:0]
	return nil
}

// queued is a best-first frontier entry: a page still to read, or an
// item whose distance is final.
type queued struct {
	distSq float64
	page   int // valid when isItem is false
	depth  int // tree level of page, for access attribution
	isItem bool
	item   rtree.Item
}

// nearestWalk is the state of one best-first kNN traversal: a
// slice-backed binary min-heap keyed on distSq.
type nearestWalk struct {
	p       geom.Point
	depth   int // level of the page being visited
	heap    []queued
	out     []rtree.Neighbor   // result scratch
	visitFn func([]byte) error // visit, bound once per walker
}

var nearestWalks = sync.Pool{New: func() any {
	w := new(nearestWalk)
	w.visitFn = w.visit
	return w
}}

func getNearestWalk(p geom.Point) *nearestWalk {
	w := nearestWalks.Get().(*nearestWalk)
	w.p = p
	return w
}

func (w *nearestWalk) release() {
	w.heap = trim(w.heap)
	w.out = trim(w.out)
	nearestWalks.Put(w)
}

// visit pushes every entry of one node frame with its distance: items
// for a leaf, child pages for an internal node.
func (w *nearestWalk) visit(frame []byte) error {
	v := viewNode(frame)
	leaf := v.Leaf()
	for ents := v.entries(); len(ents) >= entrySize; ents = ents[entrySize:] {
		e := (*entry)(ents)
		r := e.rect()
		d := minDistSq(w.p, r)
		if leaf {
			w.push(queued{distSq: d, isItem: true, item: rtree.Item{Rect: r, ID: int64(e.payload())}})
		} else {
			w.push(queued{distSq: d, page: int(e.payload()), depth: w.depth + 1})
		}
	}
	return nil
}

func (w *nearestWalk) push(e queued) {
	h := append(w.heap, e) //lint:allow hotalloc frontier append: the walker is pooled, so its capacity carries over between queries
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].distSq <= h[i].distSq {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	w.heap = h
}

func (w *nearestWalk) pop() queued {
	h := w.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l].distSq < h[smallest].distSq {
			smallest = l
		}
		if r < len(h) && h[r].distSq < h[smallest].distSq {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	w.heap = h
	return top
}
