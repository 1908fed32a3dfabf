package storage

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/obs"
	"rtreebuf/internal/rtree"
)

// The reference query paths below are the decode-based recursive search
// and best-first kNN that the in-place walks replaced: every node visit
// copies the page out (GetTracked) and decodes it in full. They stay as
// tests' yardstick for which pages a query requests, in which order.

func refSearchWindow(pt *PagedTree, q geom.Rect) ([]rtree.Item, error) {
	var out []rtree.Item
	aq := pt.fr.Begin("window")
	err := refSearch(pt, 0, 0, q, &out, aq)
	aq.SetResults(len(out))
	aq.End()
	return out, err
}

func refSearch(pt *PagedTree, page, depth int, q geom.Rect, out *[]rtree.Item, aq *obs.ActiveQuery) error {
	frame, info, err := pt.pool.GetTracked(page)
	aq.Access(depth, info.Hit, info.WriteBacks)
	if err != nil {
		return err
	}
	nd, err := DecodeNode(frame, page)
	if err != nil {
		return err
	}
	for i, r := range nd.Rects {
		if !r.Intersects(q) {
			continue
		}
		if nd.Leaf {
			*out = append(*out, rtree.Item{Rect: r, ID: nd.IDs[i]})
		} else if err := refSearch(pt, nd.Children[i], depth+1, q, out, aq); err != nil {
			return err
		}
	}
	return nil
}

func refNearest(pt *PagedTree, p geom.Point, k int) ([]rtree.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	var h []queued
	push := func(e queued) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if h[parent].distSq <= h[i].distSq {
				break
			}
			h[parent], h[i] = h[i], h[parent]
			i = parent
		}
	}
	pop := func() queued {
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
		return top
	}
	aq := pt.fr.Begin("nearest")
	push(queued{page: 0})
	var out []rtree.Neighbor
	for len(h) > 0 && len(out) < k {
		e := pop()
		if e.isItem {
			out = append(out, rtree.Neighbor{Item: e.item, Dist: math.Sqrt(e.distSq)})
			continue
		}
		frame, info, err := pt.pool.GetTracked(e.page)
		aq.Access(e.depth, info.Hit, info.WriteBacks)
		if err != nil {
			aq.End()
			return nil, err
		}
		nd, err := DecodeNode(frame, e.page)
		if err != nil {
			aq.End()
			return nil, err
		}
		for i, r := range nd.Rects {
			d := minDistSq(p, r)
			if nd.Leaf {
				push(queued{distSq: d, isItem: true, item: rtree.Item{Rect: r, ID: nd.IDs[i]}})
			} else {
				push(queued{distSq: d, page: nd.Children[i], depth: e.depth + 1})
			}
		}
	}
	aq.SetResults(len(out))
	aq.End()
	return out, nil
}

// recordCounts strips a flight record down to what the page-request
// sequence determines (no IDs or clock readings).
type recordCounts struct {
	Name                                  string
	Results, Accesses, Misses, WriteBacks int
	Levels                                []obs.LevelStat
}

func flightCounts(fr *obs.FlightRecorder) []recordCounts {
	var out []recordCounts
	for _, r := range fr.Snapshot().Recent {
		out = append(out, recordCounts{r.Name, r.Results, r.Accesses, r.Misses, r.WriteBacks, r.Levels})
	}
	return out
}

// TestInPlaceWalksMatchReferencePageRequests runs one random mix of
// window and kNN queries through the in-place query paths and through
// the decode-based reference, each on its own tree handle over the same
// pages, for every policy and for the single-lock and a sharded pool.
// The buffer holds a few pages, so evictions happen inside queries. Any
// change in which pages are requested, or in their order, shows up in
// the results' order, the pool's counters or the per-level records.
func TestInPlaceWalksMatchReferencePageRequests(t *testing.T) {
	dm, _ := savedMemoryTree(t, 3000, 16)
	const bufferPages = 6
	const ops = 300
	for _, policy := range buffer.PolicyNames() {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", policy, shards), func(t *testing.T) {
				open := func() (*PagedTree, *obs.FlightRecorder) {
					pt, err := OpenPagedTreeWith(dm, bufferPages, policy, shards)
					if err != nil {
						t.Fatal(err)
					}
					fr := obs.NewFlightRecorder(ops, 1)
					pt.SetFlightRecorder(fr)
					return pt, fr
				}
				got, gotFR := open()
				want, wantFR := open()
				rng := rand.New(rand.NewPCG(901, uint64(shards)))
				for i := 0; i < ops; i++ {
					c := geom.Point{X: rng.Float64(), Y: rng.Float64()}
					if rng.IntN(4) == 0 {
						k := 1 + rng.IntN(30)
						g, gerr := got.Nearest(c, k)
						w, werr := refNearest(want, c, k)
						if gerr != nil || werr != nil {
							t.Fatalf("op %d: kNN errors %v, %v", i, gerr, werr)
						}
						if !reflect.DeepEqual(g, w) {
							t.Fatalf("op %d: kNN(%v, %d) = %v, reference %v", i, c, k, g, w)
						}
						continue
					}
					q := geom.RectAround(c, rng.Float64()*0.3, rng.Float64()*0.3)
					g, gerr := got.SearchWindow(q)
					w, werr := refSearchWindow(want, q)
					if gerr != nil || werr != nil {
						t.Fatalf("op %d: window errors %v, %v", i, gerr, werr)
					}
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("op %d: window %v returned %d items, reference %d (or a different order)",
							i, q, len(g), len(w))
					}
				}
				gh, gm, ge := got.Pool().Stats()
				wh, wm, we := want.Pool().Stats()
				if gh != wh || gm != wm || ge != we {
					t.Errorf("Stats = %d/%d/%d hits/misses/evictions, reference %d/%d/%d", gh, gm, ge, wh, wm, we)
				}
				if we == 0 {
					t.Error("no evictions: the buffer is too large to exercise mid-query replacement")
				}
				if g, w := got.Pool().FailedReads(), want.Pool().FailedReads(); g != w {
					t.Errorf("FailedReads = %d, reference %d", g, w)
				}
				if g, w := flightCounts(gotFR), flightCounts(wantFR); !reflect.DeepEqual(g, w) {
					t.Errorf("flight records differ from the reference:\n got %+v\nwant %+v", g, w)
				}
			})
		}
	}
}

// TestCorruptPageFailsAtFault checks the fault-time check: a page
// corrupted on the medium fails the read that would fault it in, so it
// never becomes resident and no reader sees its bytes.
func TestCorruptPageFailsAtFault(t *testing.T) {
	dm, tr := savedMemoryTree(t, 1200, 16)
	meta := mustMeta(t, dm)
	lo, _ := meta.LevelPageRange(len(meta.Levels) - 1)
	bad := lo + 1
	buf := make([]byte, dm.PageSize())
	if err := dm.ReadPage(bad, buf); err != nil {
		t.Fatal(err)
	}
	nd, err := DecodeNode(buf, bad)
	if err != nil {
		t.Fatal(err)
	}
	lost := len(nd.Rects)
	fm := NewFaultManager(dm, 5)
	if err := fm.CorruptStoredPage(bad); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pt, err := OpenPagedTreeWith(fm, meta.NumPages(), "lru", shards)
			if err != nil {
				t.Fatal(err)
			}
			pool := pt.Pool()
			_, err = pt.SearchWindow(geom.UnitSquare)
			if err == nil {
				t.Fatal("search over a corrupt page succeeded")
			}
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("page %d:", bad)) || !strings.Contains(msg, "checksum") {
				t.Errorf("error %q does not name page %d and the checksum", msg, bad)
			}
			if n := pool.FailedReads(); n != 1 {
				t.Errorf("FailedReads = %d after one failed fault, want 1", n)
			}
			// Not resident: the next access misses and fails again, and
			// the viewer never runs on the corrupt bytes.
			viewed := false
			info, err := pool.View(bad, func([]byte) error { viewed = true; return nil })
			if err == nil || info.Hit || viewed {
				t.Errorf("second access: info=%+v err=%v viewed=%v, want a failed miss", info, err, viewed)
			}
			if n := pool.FailedReads(); n != 2 {
				t.Errorf("FailedReads = %d after two failed faults, want 2", n)
			}

			got, rep := pt.SearchWindowDegraded(geom.UnitSquare)
			if len(rep.Faults) != 1 || rep.Faults[0].Page != bad {
				t.Fatalf("degraded report %v, want exactly page %d", rep.Faults, bad)
			}
			if !strings.Contains(rep.Faults[0].Err.Error(), "checksum") {
				t.Errorf("reported fault %v is not the checksum failure", rep.Faults[0].Err)
			}
			if len(got) != tr.Len()-lost {
				t.Errorf("degraded search returned %d items, want %d healthy ones", len(got), tr.Len()-lost)
			}
			if n := pool.FailedReads(); n != 3 {
				t.Errorf("FailedReads = %d after the degraded search, want 3", n)
			}
		})
	}
}

// TestResilientRereadHealsBeforePool: transport corruption (one bad read
// of a good page) is healed by ResilientManager's single re-read before
// the pool's fault-time check sees the page, so the query succeeds and
// no read fails. Without the resilience layer the same corruption fails
// the fault, leaves nothing resident, and the next query re-reads the
// page cleanly.
func TestResilientRereadHealsBeforePool(t *testing.T) {
	dm, tr := savedMemoryTree(t, 1200, 16)
	want := tr.SearchWindow(geom.UnitSquare)

	flaky := &flakyChecksumManager{DiskManager: dm, page: 2}
	rm := NewResilientManager(flaky, WithChecksumVerify(true), WithSleep(func(time.Duration) {}))
	pt, err := OpenPagedTree(rm, 1000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pt.SearchWindow(geom.UnitSquare)
	if err != nil {
		t.Fatalf("transport corruption not healed below the pool: %v", err)
	}
	if !sameIDs(got, want) {
		t.Error("healed search returned the wrong items")
	}
	if n := pt.Pool().FailedReads(); n != 0 {
		t.Errorf("FailedReads = %d, want 0", n)
	}
	if st := rm.RetryStats(); st.Recoveries != 1 {
		t.Errorf("RetryStats = %+v, want one recovery", st)
	}

	flaky = &flakyChecksumManager{DiskManager: dm, page: 2}
	pt, err = OpenPagedTree(flaky, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pt.SearchWindow(geom.UnitSquare); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("unhealed transport corruption: err = %v, want a checksum failure", err)
	}
	got, err = pt.SearchWindow(geom.UnitSquare)
	if err != nil {
		t.Fatalf("clean re-read after a failed fault: %v", err)
	}
	if !sameIDs(got, want) {
		t.Error("search after the failed fault returned the wrong items")
	}
}

// TestWindowQueryAllocsIndependentOfNodesVisited guards the in-place
// read path: on a warm tree, a window query that matches no item
// allocates nothing, whether it visits a handful of nodes or many, and
// a window or kNN query with matches allocates once, its exact-size
// result — nothing is allocated per node visit or per match.
func TestWindowQueryAllocsIndependentOfNodesVisited(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops walkers at random")
	}
	// Points on a grid; a horizontal segment between two rows crosses
	// the bounding boxes of every leaf spanning those rows but contains
	// no point.
	const side = 60
	var items []rtree.Item
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			p := geom.Point{X: (float64(i) + 0.5) / side, Y: (float64(j) + 0.5) / side}
			items = append(items, rtree.Item{Rect: geom.PointRect(p), ID: int64(i*side + j)})
		}
	}
	tr := rtree.MustNew(rtree.Params{MaxEntries: 16})
	tr.InsertAll(items)
	dm, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, tr); err != nil {
		t.Fatal(err)
	}
	y := 30.0 / side
	short := geom.Rect{MinX: 0.45, MinY: y, MaxX: 0.55, MaxY: y}
	long := geom.Rect{MinX: 0, MinY: y, MaxX: 1, MaxY: y}

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pt, err := OpenPagedTreeWith(dm, tr.NodeCount(), "lru", shards)
			if err != nil {
				t.Fatal(err)
			}
			visits := func(q geom.Rect) uint64 {
				pt.Pool().ResetStats()
				got, err := pt.SearchWindow(q)
				if err != nil || len(got) != 0 {
					t.Fatalf("query %v: %d items, err %v; want none", q, len(got), err)
				}
				h, m, _ := pt.Pool().Stats()
				return h + m
			}
			if _, err := pt.SearchWindow(geom.UnitSquare); err != nil { // warm every page
				t.Fatal(err)
			}
			few, many := visits(short), visits(long)
			if many < 3*few || many < 20 {
				t.Fatalf("node visits %d (short) vs %d (long): the scenario does not separate them", few, many)
			}
			allocs := func(q geom.Rect) float64 {
				return testing.AllocsPerRun(200, func() {
					if _, err := pt.SearchWindow(q); err != nil {
						t.Fatal(err)
					}
				})
			}
			a, b := allocs(short), allocs(long)
			t.Logf("allocs per query: %.0f visiting %d nodes, %.0f visiting %d", a, few, b, many)
			if a != 0 || b != 0 {
				t.Errorf("allocs per empty query %.0f (%d nodes) vs %.0f (%d nodes): want 0", a, few, b, many)
			}

			// A band across the grid matches a row of points in many leaves.
			band := geom.Rect{MinX: 0, MinY: 29.0 / side, MaxX: 1, MaxY: 31.0 / side}
			got, err := pt.SearchWindow(band)
			if err != nil || len(got) < side {
				t.Fatalf("band query: %d items, err %v; want at least %d", len(got), err, side)
			}
			if len(got) != cap(got) {
				t.Errorf("window result len %d, cap %d: want an exact-size copy", len(got), cap(got))
			}
			if n := allocs(band); n != 1 {
				t.Errorf("allocs per window query with %d matches = %.0f, want 1", len(got), n)
			}

			p := geom.Point{X: 0.5, Y: 0.5}
			nn, err := pt.Nearest(p, 10)
			if err != nil || len(nn) != 10 {
				t.Fatalf("Nearest: %d neighbours, err %v; want 10", len(nn), err)
			}
			if len(nn) != cap(nn) {
				t.Errorf("kNN result len %d, cap %d: want an exact-size copy", len(nn), cap(nn))
			}
			n := testing.AllocsPerRun(200, func() {
				if _, err := pt.Nearest(p, 10); err != nil {
					t.Fatal(err)
				}
			})
			if n != 1 {
				t.Errorf("allocs per Nearest(p, 10) = %.0f, want 1", n)
			}
		})
	}
}

func mustMeta(t *testing.T, dm DiskManager) TreeMeta {
	t.Helper()
	raw, err := dm.ReadMeta()
	if err != nil {
		t.Fatal(err)
	}
	meta, err := decodeMeta(raw)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// TestQueryResultsDoNotAlias checks that a returned result is the
// caller's: queries run later, on the same goroutine or by concurrent
// readers of a sharded tree, must not change it, although every query
// gathers its matches in pooled scratch.
func TestQueryResultsDoNotAlias(t *testing.T) {
	dm, _ := savedMemoryTree(t, 3000, 16)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pt, err := OpenPagedTreeWith(dm, 1000, "lru", shards)
			if err != nil {
				t.Fatal(err)
			}
			readers := 1
			if shards > 1 {
				readers = 4
			}
			errs := make(chan error, readers)
			for r := 0; r < readers; r++ {
				go func(seed uint64) { errs <- queryAndRecheck(pt, seed, 200) }(uint64(r))
			}
			for r := 0; r < readers; r++ {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// queryAndRecheck runs random window, degraded-window and kNN queries,
// keeping every result next to a private copy of it, then checks that
// none of the kept results changed while the later queries ran.
func queryAndRecheck(pt *PagedTree, seed uint64, ops int) error {
	rng := rand.New(rand.NewPCG(seed, 77))
	type kept struct {
		items, itemsCopy []rtree.Item
		nbrs, nbrsCopy   []rtree.Neighbor
	}
	var all []kept
	for i := 0; i < ops; i++ {
		c := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		var k kept
		switch rng.IntN(3) {
		case 0:
			nbrs, err := pt.Nearest(c, 1+rng.IntN(20))
			if err != nil {
				return err
			}
			k.nbrs = nbrs
		case 1:
			items, rep := pt.SearchWindowDegraded(geom.RectAround(c, 0.2, 0.2))
			if rep.Degraded() {
				return fmt.Errorf("degraded search on a healthy tree: %+v", rep.Faults)
			}
			k.items = items
		default:
			items, err := pt.SearchWindow(geom.RectAround(c, rng.Float64()*0.3, rng.Float64()*0.3))
			if err != nil {
				return err
			}
			k.items = items
		}
		k.itemsCopy = append([]rtree.Item(nil), k.items...)
		k.nbrsCopy = append([]rtree.Neighbor(nil), k.nbrs...)
		all = append(all, k)
	}
	for i, k := range all {
		if !reflect.DeepEqual(k.items, k.itemsCopy) || !reflect.DeepEqual(k.nbrs, k.nbrsCopy) {
			return fmt.Errorf("result of query %d changed while later queries ran", i)
		}
	}
	return nil
}

// TestWalkerScratchBounded checks that a walker drops result scratch
// that grew past maxRetained before it returns to its pool, so one huge
// query does not leave its backing array pinned there.
func TestWalkerScratchBounded(t *testing.T) {
	if got := trim(make([]int, 5, maxRetained)); got == nil || len(got) != 0 {
		t.Errorf("trim dropped scratch within the bound (got %v)", got)
	}
	if got := trim(make([]int, 5, maxRetained+1)); got != nil {
		t.Errorf("trim kept scratch of cap %d past the bound %d", cap(got), maxRetained)
	}

	dm, tr := savedMemoryTree(t, 2*maxRetained, 16)
	pt, err := OpenPagedTree(dm, tr.NodeCount())
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Point{X: 0.5, Y: 0.5}
	huge, err := pt.SearchWindow(geom.UnitSquare)
	if err != nil || len(huge) <= maxRetained {
		t.Fatalf("full-window query: %d items, err %v; want more than %d", len(huge), err, maxRetained)
	}
	if nn, err := pt.Nearest(p, tr.Len()); err != nil || len(nn) != tr.Len() {
		t.Fatalf("Nearest(all): %d neighbours, err %v; want %d", len(nn), err, tr.Len())
	}
	if _, err := pt.SearchWindow(geom.RectAround(p, 0.01, 0.01)); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Nearest(p, 3); err != nil {
		t.Fatal(err)
	}

	// Take every pooled walker out (the pool makes fresh ones once it is
	// empty), check it, and put them all back.
	var ws []*windowWalk
	var ns []*nearestWalk
	for i := 0; i < 64; i++ {
		w := windowWalks.Get().(*windowWalk)
		if cap(w.out) > maxRetained {
			t.Errorf("pooled window walker keeps result scratch of cap %d", cap(w.out))
		}
		ws = append(ws, w)
		n := nearestWalks.Get().(*nearestWalk)
		if cap(n.out) > maxRetained || cap(n.heap) > maxRetained {
			t.Errorf("pooled kNN walker keeps scratch of cap %d (results), %d (frontier)", cap(n.out), cap(n.heap))
		}
		ns = append(ns, n)
	}
	for i := range ws {
		windowWalks.Put(ws[i])
		nearestWalks.Put(ns[i])
	}
}
