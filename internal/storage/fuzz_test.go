package storage

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// FuzzDecodeNode throws arbitrary bytes at the page decoder: it must
// either return an error or a structurally sane NodeData — never panic,
// never return out-of-range shapes. It is also the differential check
// between the pool's fault-time check and the decoder: checkNode must
// accept exactly the pages DecodeNode accepts (and both exactly the
// pages the layout's rules admit, restated independently below), and
// on every accepted page the in-place nodeView must read the same node
// DecodeNode copies out. Each input also carries a query rect and point,
// and on every accepted page the entry-scan kernel must agree with
// geom.Rect.Intersects and minDistSq on the independently decoded
// entries: the window walk's matches entry by entry, in its visit
// order, and the kNN walk's distances bit for bit. `go test` exercises
// the seed corpus;
// `go test -fuzz=FuzzDecodeNode ./internal/storage` explores further.
func FuzzDecodeNode(f *testing.F) {
	// Seeds: a valid leaf page, a valid internal page, mutations.
	leaf := rtree.NodeData{
		Page: 0, Leaf: true,
		Rects: []geom.Rect{{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}},
		IDs:   []int64{7},
	}
	leafPage, err := EncodeNode(leaf, 256)
	if err != nil {
		f.Fatal(err)
	}
	internal := rtree.NodeData{
		Page: 1, Level: 1,
		Rects:    []geom.Rect{{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}},
		Children: []int{2},
	}
	internalPage, err := EncodeNode(internal, 256)
	if err != nil {
		f.Fatal(err)
	}
	// An internal page whose entries touch, contain, or miss the seed
	// queries below, with infinite and signed-zero coordinates.
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)
	edges := rtree.NodeData{
		Page: 2, Level: 1,
		Rects: []geom.Rect{
			{MinX: 0.2, MinY: 0.2, MaxX: 0.3, MaxY: 0.3},
			{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf},
			{MinX: negZero, MinY: 0, MaxX: 0, MaxY: negZero},
			{MinX: 0.5, MinY: 0.5, MaxX: 0.6, MaxY: 0.6},
		},
		Children: []int{3, 4, 5, 6},
	}
	edgesPage, err := EncodeNode(edges, 256)
	if err != nil {
		f.Fatal(err)
	}

	// Queries: touching edges and corners, a point, negative zero,
	// infinite and NaN bounds, an inverted rect.
	type query struct{ minX, minY, maxX, maxY, px, py float64 }
	queries := []query{
		{0.2, 0.2, 0.4, 0.4, 0.2, 0.2},
		{0, 0, 0.1, 0.1, 0.1, 0.1},
		{0.3, 0.3, 0.3, 0.3, 0.15, 0.15},
		{0, 0, 0, 0, negZero, 0},
		{negZero, negZero, negZero, negZero, 0, negZero},
		{-inf, -inf, inf, inf, inf, -inf},
		{math.NaN(), 0, 1, 1, math.NaN(), 0.5},
		{0, 0, 1, math.NaN(), 0.5, math.NaN()},
		{0.6, 0.6, 0.5, 0.5, -1, 2},
	}
	corrupted := append([]byte(nil), leafPage...)
	corrupted[3] ^= 0xff
	invalidRect := append([]byte(nil), leafPage...)
	putFloat(invalidRect[nodeHeaderSize:], 0.9) // MinX > MaxX
	binary.LittleEndian.PutUint32(invalidRect[checksumOffset:], pageChecksum(invalidRect))
	overfull := append([]byte(nil), leafPage...)
	binary.LittleEndian.PutUint16(overfull[2:4], uint16(NodeCapacity(len(overfull))+1))
	binary.LittleEndian.PutUint32(overfull[checksumOffset:], pageChecksum(overfull))
	pages := [][]byte{leafPage, internalPage, {}, make([]byte, nodeHeaderSize), corrupted, invalidRect, overfull, edgesPage}
	for i, page := range pages {
		q := queries[i%len(queries)]
		f.Add(page, q.minX, q.minY, q.maxX, q.maxY, q.px, q.py)
	}
	for _, page := range [][]byte{leafPage, edgesPage} {
		for _, q := range queries {
			f.Add(page, q.minX, q.minY, q.maxX, q.maxY, q.px, q.py)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, qMinX, qMinY, qMaxX, qMaxY, px, py float64) {
		nd, err := DecodeNode(data, 0)
		checkErr := checkNode(data, 0)
		if (err == nil) != (checkErr == nil) {
			t.Fatalf("DecodeNode err %v but checkNode err %v", err, checkErr)
		}
		if ok := layoutAdmits(data); ok != (err == nil) {
			t.Fatalf("layout admits page: %v, but DecodeNode err %v", ok, err)
		}
		if err != nil {
			return
		}
		v := viewNode(data)
		if v.Len() != len(nd.Rects) || v.Leaf() != nd.Leaf || v.Level() != nd.Level {
			t.Fatalf("view len %d leaf %v level %d, decoded %d/%v/%d",
				v.Len(), v.Leaf(), v.Level(), len(nd.Rects), nd.Leaf, nd.Level)
		}
		for i, r := range nd.Rects {
			// Compare bit patterns: the view and the decoder must read
			// the floats the layout puts there.
			lr := layoutRect(data, i)
			if vr := v.entry(i).rect(); !sameBits(vr, lr) || !sameBits(r, lr) {
				t.Fatalf("entry %d: view rect %v, decoded %v, layout %v", i, vr, r, lr)
			}
			lp := layoutPayload(data, i)
			if v.entry(i).payload() != lp || nd.Leaf && nd.IDs[i] != int64(lp) || !nd.Leaf && nd.Children[i] != int(lp) {
				t.Fatalf("entry %d: view or decoded payload differs from the layout's %d", i, lp)
			}
		}
		checkScanKernel(t, data, geom.Rect{MinX: qMinX, MinY: qMinY, MaxX: qMaxX, MaxY: qMaxY}, geom.Point{X: px, Y: py})
		// Successful decodes must be internally consistent.
		if nd.Leaf {
			if len(nd.IDs) != len(nd.Rects) || nd.Children != nil {
				t.Fatalf("inconsistent leaf decode: %+v", nd)
			}
		} else {
			if len(nd.Children) != len(nd.Rects) || nd.IDs != nil {
				t.Fatalf("inconsistent internal decode: %+v", nd)
			}
		}
		for _, r := range nd.Rects {
			if !r.Valid() {
				t.Fatalf("decoded invalid rect %v", r)
			}
		}
		// Round trip: re-encoding must reproduce a decodable page.
		if len(nd.Rects) <= NodeCapacity(4096) {
			page, err := EncodeNode(nd, 4096)
			if err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			if _, err := DecodeNode(page, 0); err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
		}
	})
}

// checkScanKernel runs the window and kNN visits over an accepted page
// and checks them against a plain loop over the layout's entries: the
// window visit must match exactly the entries whose rect Intersects q —
// a leaf's items in entry order, an internal node's children pushed in
// reverse — and the kNN visit must push every entry with minDistSq's
// distance, bit for bit.
func checkScanKernel(t *testing.T, page []byte, q geom.Rect, p geom.Point) {
	t.Helper()
	v := viewNode(page)
	var wantItems []rtree.Item
	var wantStack []pageRef
	var wantFrontier []queued
	for i := 0; i < v.Len(); i++ {
		r := layoutRect(page, i)
		payload := layoutPayload(page, i)
		if got, want := v.entry(i).intersects(q), r.Intersects(q); got != want {
			t.Fatalf("entry %d (%v): kernel intersects %v = %v, Rect.Intersects %v", i, r, q, got, want)
		}
		d := minDistSq(p, r)
		if v.Leaf() {
			it := rtree.Item{Rect: r, ID: int64(payload)}
			if r.Intersects(q) {
				wantItems = append(wantItems, it)
			}
			wantFrontier = append(wantFrontier, queued{distSq: d, isItem: true, item: it})
		} else {
			if r.Intersects(q) {
				wantStack = append([]pageRef{{page: int(payload), depth: 1}}, wantStack...)
			}
			wantFrontier = append(wantFrontier, queued{distSq: d, page: int(payload), depth: 1})
		}
	}

	w := getWindowWalk(q)
	defer w.release()
	w.depth = 0
	if err := w.visit(page); err != nil {
		t.Fatal(err)
	}
	if len(w.out) != len(wantItems) || len(w.stack) != len(wantStack) {
		t.Fatalf("window %v: visit gave %d items and %d children, want %d and %d",
			q, len(w.out), len(w.stack), len(wantItems), len(wantStack))
	}
	for i, it := range w.out {
		if !sameBits(it.Rect, wantItems[i].Rect) || it.ID != wantItems[i].ID {
			t.Fatalf("window %v: item %d is %+v, want %+v", q, i, it, wantItems[i])
		}
	}
	for i, ref := range w.stack {
		if ref != wantStack[i] {
			t.Fatalf("window %v: pushed child %d is %+v, want %+v", q, i, ref, wantStack[i])
		}
	}

	n := getNearestWalk(p)
	defer n.release()
	n.depth = 0
	if err := n.visit(page); err != nil {
		t.Fatal(err)
	}
	// The heap reorders what the visit pushed; compare as multisets.
	type pushed struct {
		distSq uint64
		rect   [4]uint64
		page   int
		depth  int
		isItem bool
		id     int64
	}
	key := func(e queued) pushed {
		r := e.item.Rect
		return pushed{math.Float64bits(e.distSq),
			[4]uint64{math.Float64bits(r.MinX), math.Float64bits(r.MinY), math.Float64bits(r.MaxX), math.Float64bits(r.MaxY)},
			e.page, e.depth, e.isItem, e.item.ID}
	}
	if len(n.heap) != len(wantFrontier) {
		t.Fatalf("kNN visit pushed %d entries, want %d", len(n.heap), len(wantFrontier))
	}
	missing := make(map[pushed]int)
	for _, e := range wantFrontier {
		missing[key(e)]++
	}
	for _, e := range n.heap {
		if missing[key(e)] == 0 {
			t.Fatalf("kNN visit from %v pushed %+v, not among the entries with their minDistSq", p, e)
		}
		missing[key(e)]--
	}
}

// layoutRect decodes entry i's rect straight from the layout comment,
// independently of the codec.
func layoutRect(page []byte, i int) geom.Rect {
	f := func(k int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(page[16+40*i+8*k:])) }
	return geom.Rect{MinX: f(0), MinY: f(1), MaxX: f(2), MaxY: f(3)}
}

// layoutPayload reads entry i's child page or data ID from the layout.
func layoutPayload(page []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(page[16+40*i+32:])
}

// sameBits reports whether a and b hold the same float bit patterns.
func sameBits(a, b geom.Rect) bool {
	return math.Float64bits(a.MinX) == math.Float64bits(b.MinX) && math.Float64bits(a.MinY) == math.Float64bits(b.MinY) &&
		math.Float64bits(a.MaxX) == math.Float64bits(b.MaxX) && math.Float64bits(a.MaxY) == math.Float64bits(b.MaxY)
}

// layoutAdmits restates the node-page rules from the layout comment,
// independently of the codec: a header, a CRC-32C over the page with the
// checksum field zeroed, entries that fit, and MinX <= MaxX, MinY <= MaxY
// in every entry (false for NaN).
func layoutAdmits(page []byte) bool {
	if len(page) < 16 {
		return false
	}
	zeroed := append([]byte(nil), page...)
	copy(zeroed[8:12], []byte{0, 0, 0, 0})
	if crc32.Checksum(zeroed, crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(page[8:12]) {
		return false
	}
	count := int(binary.LittleEndian.Uint16(page[2:4]))
	if 16+40*count > len(page) {
		return false
	}
	for i := 0; i < count; i++ {
		if r := layoutRect(page, i); !(r.MinX <= r.MaxX && r.MinY <= r.MaxY) {
			return false
		}
	}
	return true
}

// FuzzOpenFile throws arbitrary file contents at the page-file opener:
// whatever the header claims, OpenFile must either reject the file with
// an error or produce a manager whose geometry is consistent with the
// format's laws and the file's actual size — never panic, never trust a
// header the file cannot back.
func FuzzOpenFile(f *testing.F) {
	// Seed with a genuine file plus targeted mutations of its header.
	dir := f.TempDir()
	good := filepath.Join(dir, "good.rt")
	fm, err := CreateFile(good, MinPageSize)
	if err != nil {
		f.Fatal(err)
	}
	if err := fm.WritePage(0, make([]byte, MinPageSize)); err != nil {
		f.Fatal(err)
	}
	if err := fm.WriteMeta([]byte("meta")); err != nil {
		f.Fatal(err)
	}
	if err := fm.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:5])           // truncated mid-magic
	f.Add(valid[:headerFixed]) // header only, no pages
	f.Add([]byte{})            // empty file
	mutate := func(offset int, v uint32) []byte {
		cp := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(cp[offset:], v)
		return cp
	}
	f.Add(mutate(8, 99))          // bad version
	f.Add(mutate(12, 8))          // page size below minimum
	f.Add(mutate(12, 1<<31))      // absurd page size
	f.Add(mutate(16, 1000))       // more pages than the file holds
	f.Add(mutate(16, 0xffffffff)) // page count at the uint32 limit
	f.Add(mutate(20, 0xffffffff)) // metadata length overflow
	bad := append([]byte(nil), valid...)
	copy(bad, "NOTATREE")
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.rt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fm, err := OpenFile(path)
		if err != nil {
			return
		}
		defer func() { _ = fm.Close() }()
		if fm.PageSize() < MinPageSize {
			t.Fatalf("accepted page size %d below minimum", fm.PageSize())
		}
		if fm.NumPages() < 0 {
			t.Fatalf("negative page count %d", fm.NumPages())
		}
		if need := uint64(fm.PageSize()) * uint64(fm.NumPages()+1); uint64(len(data)) < need {
			t.Fatalf("accepted header claiming %d bytes from a %d-byte file", need, len(data))
		}
		meta, err := fm.ReadMeta()
		if err != nil {
			t.Fatalf("accepted file but metadata unreadable: %v", err)
		}
		if len(meta) > fm.PageSize()-headerFixed {
			t.Fatalf("metadata %d bytes exceeds header capacity", len(meta))
		}
		// Every advertised page must be readable (it is within the file).
		buf := make([]byte, fm.PageSize())
		for page := 0; page < fm.NumPages(); page++ {
			if err := fm.ReadPage(page, buf); err != nil {
				t.Fatalf("advertised page %d unreadable: %v", page, err)
			}
		}
	})
}

// FuzzDecodeMeta does the same for the tree catalog decoder.
func FuzzDecodeMeta(f *testing.F) {
	good := encodeMeta(TreeMeta{MaxEntries: 25, MinEntries: 10, Items: 1000, Levels: []int{1, 4, 40}})
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:10])
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMeta(data)
		if err != nil {
			return
		}
		if m.NumPages() < 0 {
			t.Fatalf("negative page count from %+v", m)
		}
	})
}
