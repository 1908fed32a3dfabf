package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"

	"rtreebuf/internal/rtree"
)

// The update path stages raw page images and commits exactly the bytes
// it edited. These tests pin what that must preserve: the committed
// bytes are the canonical encoding of the node they hold, a node may
// overflow by one entry even when MaxEntries fills the page, the
// operation asks the pool for the same pages in the same order, and a
// warm update allocates no page-sized garbage.

// imageCheckManager checks every WAL image record written through it:
// its payload must be the canonical encoding of the node it holds.
type imageCheckManager struct {
	DiskManager
	images int
	bad    []string
}

func (m *imageCheckManager) WritePage(block int, data []byte) error {
	if binary.LittleEndian.Uint32(data[4:8]) == walKindImage {
		page := int(binary.LittleEndian.Uint32(data[24:28]))
		n := int(binary.LittleEndian.Uint32(data[28:32]))
		m.images++
		if err := canonicalPage(data[walFrameSize:walFrameSize+n], page); err != nil {
			m.bad = append(m.bad, fmt.Sprintf("WAL block %d: %v", block, err))
		}
	}
	return m.DiskManager.WritePage(block, data)
}

// canonicalPage reports whether buf is byte-identical to
// EncodeNode(DecodeNode(buf)).
func canonicalPage(buf []byte, page int) error {
	nd, err := DecodeNode(buf, page)
	if err != nil {
		return err
	}
	want, err := EncodeNode(nd, len(buf))
	if err != nil {
		return err
	}
	if !bytes.Equal(buf, want) {
		for i := range buf {
			if buf[i] != want[i] {
				return fmt.Errorf("page %d differs from its canonical encoding at byte %d (%#x != %#x)", page, i, buf[i], want[i])
			}
		}
	}
	return nil
}

// assertLivePagesCanonical checks every live page of the page file.
func assertLivePagesCanonical(t *testing.T, dm DiskManager, meta TreeMeta, tag string) {
	t.Helper()
	free := make(map[int]bool, len(meta.Free))
	for _, p := range meta.Free {
		free[p] = true
	}
	buf := make([]byte, dm.PageSize())
	for page := 0; page < meta.PageSpan(); page++ {
		if free[page] {
			continue
		}
		if err := dm.ReadPage(page, buf); err != nil {
			t.Fatalf("%s: reading page %d: %v", tag, page, err)
		}
		if err := canonicalPage(buf, page); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	}
}

func TestUpdateImagesMatchEncodeNode(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	seed := randomItems(rng, 30, 0)
	oracle, err := rtree.New(updateTestParams())
	if err != nil {
		t.Fatal(err)
	}
	oracle.InsertAll(seed)
	dm, err := NewMemoryManager(updateTestPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, oracle); err != nil {
		t.Fatal(err)
	}
	inner, err := NewMemoryManager(updateTestPageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	walDev := &imageCheckManager{DiskManager: inner}
	pt, _, err := OpenPagedTreeWAL(dm, walDev, 10)
	if err != nil {
		t.Fatal(err)
	}

	var rootSplits, rootShrinks, eliminations int
	live := append([]rtree.Item(nil), seed...)
	apply := func(op int, insert bool) {
		before := pt.Meta()
		if insert {
			it := randomItems(rng, 1, int64(10000+op))[0]
			if err := pt.Insert(it); err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
			live = append(live, it)
		} else {
			i := rng.Intn(len(live))
			it := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if found, err := pt.Delete(it); err != nil || !found {
				t.Fatalf("op %d delete of item %d: found=%v err=%v", op, it.ID, found, err)
			}
		}
		after := pt.Meta()
		switch {
		case len(after.Levels) > len(before.Levels):
			rootSplits++
		case len(after.Levels) < len(before.Levels):
			rootShrinks++
		case !insert && after.NumPages() < before.NumPages():
			eliminations++ // condense freed a node and reinserted its orphans
		}
		if op%100 == 0 {
			assertLivePagesCanonical(t, dm, after, fmt.Sprintf("op %d", op))
		}
	}
	op := 0
	for ; op < 600; op++ { // grow: splits and root splits
		apply(op, true)
	}
	for ; op < 1200; op++ { // churn, mostly deletes: condense and orphans
		apply(op, rng.Intn(4) == 0)
	}
	for ; len(live) > 0; op++ { // drain: root shrinks down to an empty root
		apply(op, false)
	}

	if rootSplits == 0 || rootShrinks == 0 || eliminations == 0 {
		t.Fatalf("script missed a case: %d root splits, %d root shrinks, %d condense eliminations",
			rootSplits, rootShrinks, eliminations)
	}
	if m := pt.Meta(); m.Items != 0 || len(m.Levels) != 1 {
		t.Fatalf("drained tree: %d items, %d levels; want an empty root", m.Items, len(m.Levels))
	}
	assertLivePagesCanonical(t, dm, pt.Meta(), "drained")
	if walDev.images == 0 {
		t.Fatal("no WAL image records seen")
	}
	for _, b := range walDev.bad {
		t.Error(b)
	}
}

// With MaxEntries == NodeCapacity an overflowing node holds one entry
// more than a page until it splits; staging must have room for it.
func TestUpdateAtFullPageCapacity(t *testing.T) {
	capacity := NodeCapacity(updateTestPageSize)
	params := rtree.Params{MaxEntries: capacity, MinEntries: capacity * 2 / 5, Split: rtree.SplitQuadratic}
	oracle, err := rtree.New(params)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	seed := randomItems(rng, 5, 0)
	oracle.InsertAll(seed)
	dm, err := NewMemoryManager(updateTestPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, oracle); err != nil {
		t.Fatal(err)
	}
	walDev, err := NewMemoryManager(updateTestPageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := OpenPagedTreeWAL(dm, walDev, 8)
	if err != nil {
		t.Fatal(err)
	}

	live := append([]rtree.Item(nil), seed...)
	for i := 0; len(pt.Meta().Levels) < 3; i++ {
		if i == 5000 {
			t.Fatalf("tree still has %d levels after %d inserts", len(pt.Meta().Levels), i)
		}
		it := randomItems(rng, 1, int64(1000+i))[0]
		if err := pt.Insert(it); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		oracle.Insert(it)
		live = append(live, it)
	}
	assertQueryEquivalence(t, pt, oracle, "after two root splits")
	assertDurableAndValid(t, dm, len(live), "after two root splits")

	for _, i := range rng.Perm(len(live)) {
		if found, err := pt.Delete(live[i]); err != nil || !found {
			t.Fatalf("delete of item %d: found=%v err=%v", live[i].ID, found, err)
		}
		oracle.Delete(live[i])
	}
	assertQueryEquivalence(t, pt, oracle, "after drain")
	assertDurableAndValid(t, dm, 0, "after drain")
}

// traceManager feeds every page read, page write and catalog write on
// the wrapped device into a shared trace.
type traceManager struct {
	DiskManager
	dev byte
	tr  *ioTrace
}

type ioTrace struct {
	h             hash.Hash64
	reads, writes int
}

func (tr *ioTrace) note(dev, op byte, page int) {
	var rec [10]byte
	rec[0], rec[1] = dev, op
	binary.LittleEndian.PutUint64(rec[2:], uint64(page))
	tr.h.Write(rec[:])
	if op == 'r' {
		tr.reads++
	} else {
		tr.writes++
	}
}

func (m traceManager) ReadPage(page int, dst []byte) error {
	m.tr.note(m.dev, 'r', page)
	return m.DiskManager.ReadPage(page, dst)
}

func (m traceManager) WritePage(page int, data []byte) error {
	m.tr.note(m.dev, 'w', page)
	return m.DiskManager.WritePage(page, data)
}

func (m traceManager) WriteMeta(meta []byte) error {
	m.tr.note(m.dev, 'm', len(meta))
	return m.DiskManager.WriteMeta(meta)
}

// TestUpdatePageRequestSequence pins the I/O of a seeded update script
// on a small LRU buffer: the ordered reads and writes of the page file
// and the log, and the pool's hit, miss and eviction counts. Staging
// must request each page once per operation, in the order the
// algorithm first touches it; the constants were recorded before
// staging moved from decoded nodes to page images.
func TestUpdatePageRequestSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	seed := randomItems(rng, 200, 0)
	oracle, err := rtree.New(updateTestParams())
	if err != nil {
		t.Fatal(err)
	}
	oracle.InsertAll(seed)
	pageDev, err := NewMemoryManager(updateTestPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(pageDev, oracle); err != nil {
		t.Fatal(err)
	}
	logDev, err := NewMemoryManager(updateTestPageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	tr := &ioTrace{h: fnv.New64a()}
	pt, _, err := OpenPagedTreeWAL(traceManager{pageDev, 'p', tr}, traceManager{logDev, 'l', tr}, 6)
	if err != nil {
		t.Fatal(err)
	}

	live := append([]rtree.Item(nil), seed...)
	for op := 0; op < 2000; op++ {
		if len(live) == 0 || rng.Intn(5) < 3 {
			it := randomItems(rng, 1, int64(5000+op))[0]
			if err := pt.Insert(it); err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
			live = append(live, it)
			continue
		}
		i := rng.Intn(len(live))
		it := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		if found, err := pt.Delete(it); err != nil || !found {
			t.Fatalf("op %d delete of item %d: found=%v err=%v", op, it.ID, found, err)
		}
	}

	hits, misses, evictions := pt.Pool().Stats()
	got := fmt.Sprintf("reads=%d writes=%d trace=%016x hits=%d misses=%d evictions=%d",
		tr.reads, tr.writes, tr.h.Sum64(), hits, misses, evictions)
	const want = "reads=4784 writes=15880 trace=125f841475dd8e92 hits=3219 misses=4784 evictions=5025"
	if got != want {
		t.Fatalf("update I/O changed:\n got %s\nwant %s", got, want)
	}
}

// TestUpdateAllocsBelowOnePage guards the staging buffers' reuse: a
// warm Insert that splits nothing, and a warm Delete that condenses
// nothing, each allocate less than one page of bytes on average.
func TestUpdateAllocsBelowOnePage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	rng := rand.New(rand.NewSource(5))
	oracle, err := rtree.New(rtree.Params{MaxEntries: 50, Split: rtree.SplitQuadratic})
	if err != nil {
		t.Fatal(err)
	}
	oracle.InsertAll(randomItems(rng, 3000, 0))
	dm, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, oracle); err != nil {
		t.Fatal(err)
	}
	walDev, err := NewMemoryManager(DefaultPageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := OpenPagedTreeWAL(dm, walDev, 1024) // the whole tree stays resident
	if err != nil {
		t.Fatal(err)
	}

	probes := randomItems(rng, 20, 100000)
	cycle := func() {
		for _, it := range probes {
			if err := pt.Insert(it); err != nil {
				t.Fatal(err)
			}
			if found, err := pt.Delete(it); err != nil || !found {
				t.Fatalf("delete of item %d: found=%v err=%v", it.ID, found, err)
			}
		}
	}
	cycle() // any split happens here; later cycles leave the shape alone
	cycle()
	pages, levels := pt.Meta().NumPages(), len(pt.Meta().Levels)

	const rounds = 5
	var insertBytes, deleteBytes uint64
	var ms runtime.MemStats
	for r := 0; r < rounds; r++ {
		for _, it := range probes {
			runtime.ReadMemStats(&ms)
			start := ms.TotalAlloc
			if err := pt.Insert(it); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			insertBytes += ms.TotalAlloc - start
			start = ms.TotalAlloc
			if found, err := pt.Delete(it); err != nil || !found {
				t.Fatalf("delete of item %d: found=%v err=%v", it.ID, found, err)
			}
			runtime.ReadMemStats(&ms)
			deleteBytes += ms.TotalAlloc - start
		}
	}
	if m := pt.Meta(); m.NumPages() != pages || len(m.Levels) != levels {
		t.Fatalf("measured updates changed the tree's shape: %d -> %d pages, %d -> %d levels",
			pages, m.NumPages(), levels, len(m.Levels))
	}
	ops := uint64(rounds * len(probes))
	if per := insertBytes / ops; per >= DefaultPageSize {
		t.Errorf("warm Insert allocates %d bytes per op, want < %d", per, DefaultPageSize)
	}
	if per := deleteBytes / ops; per >= DefaultPageSize {
		t.Errorf("warm Delete allocates %d bytes per op, want < %d", per, DefaultPageSize)
	}
}

// A root split restamps, and so stages, every page of the tree. The
// updater must not keep all those buffers once the operation ends.
func TestStagingRetentionBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	dm, _, pt := openUpdatable(t, randomItems(rng, 400, 0), 16)
	levels := len(pt.Meta().Levels)
	for i := 0; len(pt.Meta().Levels) == levels; i++ {
		if i == 20000 {
			t.Fatalf("no root split after %d inserts", i)
		}
		if err := pt.Insert(randomItems(rng, 1, int64(1000+i))[0]); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if pages := pt.Meta().NumPages(); pages <= maxSpareNodes {
		t.Fatalf("root split restamped only %d pages; the test needs more than %d", pages, maxSpareNodes)
	}
	if kept := len(pt.upd.spare); kept > maxSpareNodes {
		t.Fatalf("updater keeps %d staging buffers after a root split, bound is %d", kept, maxSpareNodes)
	}
	assertDurableAndValid(t, dm, pt.Meta().Items, "after root split")
}
