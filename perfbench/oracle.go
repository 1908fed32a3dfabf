package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"sort"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
	"rtreebuf/internal/storage"
)

// Oracle sampling: every windowEvery-th window and knnEvery-th kNN
// query of a client is kept, up to the caps per client, and checked
// after timing.
const (
	windowEvery = 64
	knnEvery    = 16
	windowCap   = 256
	knnCap      = 32
)

type windowSample struct {
	q     geom.Rect
	items []rtree.Item
	at    int // updates applied before the query
}

// insertRec is an item the run inserted: it is visible to queries made
// after born updates and, once deleted, before died+1 (-1: never deleted).
type insertRec struct {
	item       rtree.Item
	born, died int
}

type knnSample struct {
	p    geom.Point
	nbrs []rtree.Neighbor
}

// client is one closed-loop issuer of operations.
type client struct {
	rng     *rand.Rand
	tr      *tracer
	last    lastOp
	rec     *arena[opRecord] // the current timed phase's records
	windows []windowSample
	knns    []knnSample
	nWindow int
	nKNN    int
	ops     int      // operations attempted, every phase
	failed  int      // errors plus oracle mismatches
	errs    []string // the first few, for the report
}

func (c *client) fail(msg string) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, msg)
	}
}

// after does the oracle's share of the operation just run: it logs
// updates and keeps a sample of reads.
func (e *env) after(c *client, kind opKind, err error) {
	c.ops++
	if err != nil {
		c.fail(kind.String() + ": " + err.Error())
		return
	}
	switch kind {
	case opWindow:
		c.nWindow++
		if c.nWindow%windowEvery != 0 {
			return
		}
		if len(c.windows) < windowCap {
			c.windows = append(c.windows, windowSample{q: c.last.q, items: c.last.items, at: e.inserted + e.deleted})
		}
	case opKNN:
		c.nKNN++
		if c.nKNN%knnEvery == 0 && len(c.knns) < knnCap {
			c.knns = append(c.knns, knnSample{p: c.last.p, nbrs: c.last.nbrs})
		}
	case opInsert:
		e.ins = append(e.ins, insertRec{item: c.last.item, born: e.inserted + e.deleted, died: -1})
		e.live = append(e.live, len(e.ins)-1)
		e.inserted++
	case opDelete:
		if !c.last.found {
			c.fail("delete did not find a previously inserted item")
			return
		}
		e.ins[c.last.ins].died = e.inserted + e.deleted
		e.deleted++
	}
}

// verifySamples checks the kept read samples against brute-force scans
// of rects, the generated data (rects[i] has ID i): windows against the
// data plus the items alive when the query ran, kNN distances against
// the data.
func (e *env) verifySamples(c *client, rects []geom.Rect) {
	for _, s := range c.windows {
		if !sameIDs(s.items, bruteWindow(rects, e.ins, s.q, s.at)) {
			c.fail("window result differs from a brute-force scan")
		}
	}
	for _, s := range c.knns {
		want := bruteNearest(rects, s.p, knnK)
		if len(want) != len(s.nbrs) {
			c.fail("kNN returned a wrong number of neighbours")
			continue
		}
		for i, d := range want {
			if math.Abs(d-s.nbrs[i].Dist) > 1e-12 {
				c.fail("kNN distances differ from brute force")
				break
			}
		}
	}
	c.windows, c.knns = nil, nil
}

// sameIDs reports whether got holds exactly the IDs in want, which is
// sorted.
func sameIDs(got []rtree.Item, want []int64) bool {
	if len(got) != len(want) {
		return false
	}
	ids := make([]int64, len(got))
	for i, it := range got {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i := range ids {
		if ids[i] != want[i] {
			return false
		}
	}
	return true
}

// bruteWindow returns the sorted IDs of every item intersecting q after
// the first at updates: the generated data plus the inserted items alive
// then.
func bruteWindow(rects []geom.Rect, ins []insertRec, q geom.Rect, at int) []int64 {
	var ids []int64
	for i, r := range rects {
		if r.Intersects(q) {
			ids = append(ids, int64(i))
		}
	}
	for _, in := range ins {
		if in.born < at && (in.died < 0 || in.died >= at) && in.item.Rect.Intersects(q) {
			ids = append(ids, in.item.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// bruteNearest returns the k smallest distances from p to any rect, in
// ascending order.
func bruteNearest(rects []geom.Rect, p geom.Point, k int) []float64 {
	best := make([]float64, 0, k+1) // ascending squared distances
	for _, r := range rects {
		dx := math.Max(math.Max(r.MinX-p.X, 0), p.X-r.MaxX)
		dy := math.Max(math.Max(r.MinY-p.Y, 0), p.Y-r.MaxY)
		d := dx*dx + dy*dy
		if len(best) == k && d >= best[k-1] {
			continue
		}
		i := sort.SearchFloat64s(best, d)
		best = append(best, 0)
		copy(best[i+1:], best[i:])
		best[i] = d
		if len(best) > k {
			best = best[:k]
		}
	}
	for i, d := range best {
		best[i] = math.Sqrt(d)
	}
	return best
}

// verifyReopen is update-mixed's durability check: reopen the tree
// through recovery (closing and reopening the files first when there are
// files), and require no pending batches, the expected item count and a
// clean scrub. Every failure is the program's, so it is counted, not
// returned.
func (e *env) verifyReopen() {
	e.checks++
	if err := e.reopen(); err != nil {
		e.fail("reopen: %v", err)
	}
}

func (e *env) reopen() error {
	if n := e.pt.Pool().DirtyPages(); n != 0 {
		return fmt.Errorf("%d dirty pages left after the last commit", n)
	}
	dm, wdm := e.disk.DiskManager, e.walDisk.DiskManager
	if e.spec.file {
		closeErr := e.disk.Close()
		if err := e.walDisk.Close(); closeErr == nil {
			closeErr = err
		}
		e.disk, e.walDisk, e.pt = nil, nil, nil
		if closeErr != nil {
			return closeErr
		}
		path := filepath.Join(e.dir, "tree.pages")
		fm, err := storage.OpenFile(path)
		if err != nil {
			return err
		}
		defer fm.Close() // only read from here on
		wfm, err := storage.OpenFile(storage.WALPath(path))
		if err != nil {
			return err
		}
		defer wfm.Close() // as above
		dm, wdm = fm, wfm
	}
	pt, rep, err := storage.OpenPagedTreeWAL(dm, wdm, e.bufferPages)
	if err != nil {
		return err
	}
	if rep.PendingBatches != 0 {
		return fmt.Errorf("%d pending batches: %s", rep.PendingBatches, rep)
	}
	n := 0
	if err := pt.ScanLeaves(func(rtree.Item) error { n++; return nil }); err != nil {
		return err
	}
	if want := e.startItems + e.inserted - e.deleted; n != want {
		return fmt.Errorf("tree holds %d items, want %d", n, want)
	}
	if rep := storage.Scrub(dm); !rep.Clean() {
		return fmt.Errorf("scrub: %s", rep)
	}
	return nil
}
