package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// This file is the crash-safe update path: Guttman's Insert and Delete
// executed directly against stored pages through the buffer pool, with
// every mutation funneled through a redo-only write-ahead log.
//
// One operation is one WAL batch. An operation stages its changes as
// page images: the first touch of a page copies its frame into a buffer
// the tree reuses across operations, and the algorithm reads and edits
// entries in those bytes in place (the entry kernel of codec.go). The
// commit seals each dirty image — reserved bytes and the tail past the
// last entry zeroed, checksum written, byte-identical to EncodeNode's
// output for the same node — and hands the same bytes to every step:
//
//	1. page images + new catalog  -> WAL (AppendBatch; the log device's
//	   WriteMeta is the commit point)
//	2. images                     -> buffer pool (Put, dirty)
//	3. dirty pages                -> page file (FlushDirty)
//	4. catalog                    -> page file meta
//	5. checkpoint when the policy says the log has earned truncation
//
// A failure before step 1 completes leaves the tree exactly as it was
// (staging is discarded, the WAL rolls back its tail). A failure in
// steps 2-4 leaves a committed batch that Recover replays on reopen; the
// in-process handle is poisoned (sticky updateErr) because its pool and
// file now disagree. A failure in step 5 is not an operation failure at
// all — the batch is durable and applied — so it surfaces as a sticky
// CheckpointErr warning rather than an error return.
//
// Updates abandon the level-order page layout SaveTree produces: a split
// allocates the next free page wherever it lands, and a merge returns
// pages to a free list. The catalog records this (meta v2, LevelOrder
// false) so readers switch from range scans to root walks.

// ErrReadOnlyTree is returned by Insert/Delete on a tree opened without
// a WAL (OpenPagedTree): unlogged in-place writes could tear the file.
var ErrReadOnlyTree = fmt.Errorf("storage: tree opened read-only (no WAL; use OpenPagedTreeWAL)")

// OpenPagedTreeWAL opens a persisted tree for buffered querying and
// crash-safe updating. walDev hosts the write-ahead log (its page size
// must be at least dm's plus WALFrameOverhead; WALPath names the
// conventional sibling file). Recovery runs first: any batches committed
// to the log but not fully in the page file are replayed before the tree
// is opened, so a crash between commit and write-back is invisible to
// the caller. The report says what recovery found.
func OpenPagedTreeWAL(dm, walDev DiskManager, bufferPages int) (*PagedTree, RecoveryReport, error) {
	var (
		w   *WAL
		err error
	)
	if walDev.NumPages() == 0 {
		w, err = CreateWAL(walDev, dm.PageSize())
	} else {
		w, err = OpenWAL(walDev, dm.PageSize())
	}
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	rep, err := Recover(dm, w)
	if err != nil {
		return nil, rep, err
	}
	pt, err := OpenPagedTree(dm, bufferPages)
	if err != nil {
		return nil, rep, err
	}
	pt.wal = w
	pt.pool.SetSink(dm)
	return pt, rep, nil
}

// WAL returns the tree's log handle, or nil for read-only trees.
func (pt *PagedTree) WAL() *WAL { return pt.wal }

// SetCheckpointPolicy replaces the checkpoint policy. The zero policy
// (the default) checkpoints after every batch — shortest possible
// recovery, one extra sync per operation.
func (pt *PagedTree) SetCheckpointPolicy(p CheckpointPolicy) { pt.ckpt = p }

// UpdateErr returns the sticky error poisoning this handle, if any. A
// non-nil value means a commit half-applied: the WAL holds the batch but
// the in-process state is stale. Reopen with OpenPagedTreeWAL to recover.
func (pt *PagedTree) UpdateErr() error { return pt.updateErr }

// CheckpointErr returns the sticky checkpoint warning, if any. A non-nil
// value means the most recent due checkpoint could not truncate the log:
// every operation still committed and applied — no data is at risk and
// no retry is needed — but recovery would replay a longer log than the
// policy wants. Cleared by the next successful checkpoint.
func (pt *PagedTree) CheckpointErr() error { return pt.ckptErr }

// Insert adds one item, running Guttman's ChooseLeaf / split /
// AdjustTree against stored pages. The change is durable (or cleanly
// absent) when Insert returns: one call is one WAL batch.
func (pt *PagedTree) Insert(item rtree.Item) error {
	u, err := pt.beginUpdate()
	if err != nil {
		return err
	}
	defer u.release()
	if err := u.insertEntry(item.Rect, uint64(item.ID), true, len(u.meta.Levels)-1); err != nil {
		return err
	}
	u.meta.Items++
	return pt.commitUpdate(u)
}

// Delete removes one stored item matching both rectangle and ID,
// reporting whether it was found. Follows Guttman: FindLeaf, remove,
// CondenseTree with orphan reinsertion, root shrink. A not-found delete
// writes nothing (no WAL batch).
func (pt *PagedTree) Delete(item rtree.Item) (bool, error) {
	u, err := pt.beginUpdate()
	if err != nil {
		return false, err
	}
	defer u.release()
	u.leafPath = u.leafPath[:0]
	found, err := u.findLeaf(0, item, &u.leafPath)
	if err != nil || !found {
		return false, err
	}
	leaf, err := u.node(u.leafPath[len(u.leafPath)-1])
	if err != nil {
		return false, err
	}
	idx := leaf.indexOfItem(item)
	if idx < 0 {
		return false, fmt.Errorf("storage: found leaf lost entry (page %d)", leaf.page)
	}
	leaf.remove(idx)
	leaf.dirty = true
	u.meta.Items--
	if err := u.condense(u.leafPath); err != nil {
		return false, err
	}
	if err := u.shrinkRoot(); err != nil {
		return false, err
	}
	return true, pt.commitUpdate(u)
}

// updateNode is one staged page: its image plus batch-local flags. buf
// holds the page in the node layout (codec.go) with room for one entry
// past the page, so a node can overflow by one entry until it splits
// even when MaxEntries == NodeCapacity. The header's entry count is the
// node's size; bytes past the last entry are stale until seal zeroes
// them.
type updateNode struct {
	page  int
	buf   []byte
	dirty bool // differs from the stored page; goes into the WAL batch
	freed bool // released this batch; excluded from the batch images
}

func (n *updateNode) count() int     { return int(binary.LittleEndian.Uint16(n.buf[2:4])) }
func (n *updateNode) setCount(c int) { binary.LittleEndian.PutUint16(n.buf[2:4], uint16(c)) }
func (n *updateNode) leaf() bool     { return n.buf[0]&flagLeaf != 0 }
func (n *updateNode) level() int     { return int(binary.LittleEndian.Uint32(n.buf[4:8])) }
func (n *updateNode) setLevel(l int) { binary.LittleEndian.PutUint32(n.buf[4:8], uint32(l)) }

// entries returns the entry bytes, entrySize per entry, in entry order.
func (n *updateNode) entries() []byte {
	return n.buf[nodeHeaderSize : nodeHeaderSize+n.count()*entrySize]
}

func (n *updateNode) entry(i int) *entry         { return (*entry)(n.buf[nodeHeaderSize+i*entrySize:]) }
func (n *updateNode) rect(i int) geom.Rect       { return n.entry(i).rect() }
func (n *updateNode) child(i int) int            { return int(n.entry(i).payload()) }
func (n *updateNode) setRect(i int, r geom.Rect) { n.entry(i).setRect(r) }

// appendEntry adds an entry after the last one.
func (n *updateNode) appendEntry(r geom.Rect, payload uint64) {
	e := n.grow()
	e.setRect(r)
	e.setPayload(payload)
}

// appendRaw adds a copy of an entry's bytes after the last entry.
func (n *updateNode) appendRaw(src []byte) { copy(n.grow()[:], src[:entrySize]) }

// grow adds one entry slot after the last entry and returns it. Only a
// catalog whose MaxEntries exceeds the page capacity can outgrow the
// spare slot; commit then refuses the node, as EncodeNode would.
func (n *updateNode) grow() *entry {
	c := n.count()
	off := nodeHeaderSize + c*entrySize
	if off+entrySize > len(n.buf) {
		n.buf = append(n.buf, make([]byte, entrySize)...)
	}
	n.setCount(c + 1)
	return (*entry)(n.buf[off:])
}

// remove deletes entry i, shifting the later entries down one slot.
func (n *updateNode) remove(i int) {
	ents := n.entries()
	copy(ents[i*entrySize:], ents[(i+1)*entrySize:])
	n.setCount(n.count() - 1)
}

// mbr returns the union of the entries' rectangles, folded in entry
// order. The node must not be empty.
func (n *updateNode) mbr() geom.Rect {
	ents := n.entries()
	out := (*entry)(ents).rect()
	for ents = ents[entrySize:]; len(ents) >= entrySize; ents = ents[entrySize:] {
		out = out.Union((*entry)(ents).rect())
	}
	return out
}

// indexOfChild returns the index of the entry pointing at page, or -1.
func (n *updateNode) indexOfChild(page int) int {
	for i := range n.count() {
		if n.child(i) == page {
			return i
		}
	}
	return -1
}

// indexOfItem returns the index of the leaf entry equal to item (same
// ID, equal rectangle), or -1.
func (n *updateNode) indexOfItem(item rtree.Item) int {
	for i := range n.count() {
		if e := n.entry(i); int64(e.payload()) == item.ID && e.rect().Equal(item.Rect) {
			return i
		}
	}
	return -1
}

// seal finishes the image for commit and returns the page's bytes: it
// refuses an overfull node, clears the reserved header bits and
// everything past the last entry, and writes the checksum — the bytes
// EncodeNode writes for the same node.
func (n *updateNode) seal(pageSize int) ([]byte, error) {
	c := n.count()
	if err := checkCapacity(c, pageSize); err != nil {
		return nil, err
	}
	img := n.buf[:pageSize]
	img[0] &= flagLeaf
	img[1] = 0
	clear(img[checksumOffset+4 : nodeHeaderSize])
	clear(img[nodeHeaderSize+c*entrySize:])
	binary.LittleEndian.PutUint32(img[checksumOffset:], pageChecksum(img))
	return img, nil
}

// maxSpareNodes bounds the staged nodes (each with its page buffer) the
// updater keeps for later operations. A root split or shrink restamps,
// and so stages, every page of the tree; those beyond the bound are
// dropped when the operation ends.
const maxSpareNodes = 64

// orphan is an entry cut loose by condense, waiting for reinsertion.
type orphan struct {
	rect    geom.Rect
	payload uint64 // child page, or data ID when isItem
	isItem  bool
	height  int // of the node the entry lived in (0 = leaf)
}

// updater stages one operation's changes before the all-or-nothing
// commit. A page is copied out of its frame on first touch (reads go
// through the pool, so the operation's I/O is counted like any
// query's) and edited in place; the stored tree and catalog stay
// untouched until commitUpdate. A tree keeps one updater, and with it
// the page buffers and scratch, across operations.
type updater struct {
	pt    *PagedTree
	meta  TreeMeta            // deep copy; mutated freely
	nodes map[int]*updateNode // staged nodes by page
	order []*updateNode       // staged nodes in first-touch order
	spare []*updateNode       // released nodes, at most maxSpareNodes

	staging *updateNode        // the node copyFrame fills
	copyFn  func([]byte) error // copyFrame, bound once

	// Scratch carried between operations.
	descent  []int // insertEntry's root-to-target path
	leafPath []int // Delete's root-to-leaf path
	orphans  []orphan
	rects    []geom.Rect // split input
	spill    []byte      // entries of the node being split
	images   []PageImage
}

func (pt *PagedTree) beginUpdate() (*updater, error) {
	if pt.wal == nil {
		return nil, ErrReadOnlyTree
	}
	if pt.updateErr != nil {
		return nil, fmt.Errorf("storage: tree handle poisoned by earlier half-applied commit: %w", pt.updateErr)
	}
	u := pt.upd
	if u == nil {
		u = &updater{pt: pt, nodes: make(map[int]*updateNode)}
		u.copyFn = u.copyFrame
		pt.upd = u
	}
	u.meta = pt.meta
	u.meta.Levels = append([]int(nil), pt.meta.Levels...)
	u.meta.Free = append([]int(nil), pt.meta.Free...)
	u.meta.TotalPages = pt.meta.PageSpan()
	return u, nil
}

// release ends the operation: staged nodes go back to the spare list
// (up to maxSpareNodes) and the staging map empties. Scratch that one
// large operation grew is dropped rather than kept.
func (u *updater) release() {
	for _, n := range u.order {
		u.recycle(n)
	}
	clear(u.order)
	clear(u.images)
	u.order, u.images = trim(u.order), trim(u.images)
	if len(u.nodes) > maxRetained {
		u.nodes = make(map[int]*updateNode)
	} else {
		clear(u.nodes)
	}
}

// recycle keeps n for a later operation, unless maxSpareNodes are kept.
func (u *updater) recycle(n *updateNode) {
	if len(u.spare) < maxSpareNodes {
		u.spare = append(u.spare, n)
	}
}

// take returns an unregistered node for page, reusing a spare one.
func (u *updater) take(page int) *updateNode {
	var n *updateNode
	if k := len(u.spare); k > 0 {
		n = u.spare[k-1]
		u.spare[k-1] = nil
		u.spare = u.spare[:k-1]
	} else {
		n = &updateNode{buf: make([]byte, u.pt.dm.PageSize()+entrySize)}
	}
	n.page, n.dirty, n.freed = page, false, false
	return n
}

// register stages n under its page.
func (u *updater) register(n *updateNode) {
	u.nodes[n.page] = n
	u.order = append(u.order, n)
}

// node returns the staged copy of page, copying its frame on first
// touch: one pool request per page per operation.
func (u *updater) node(page int) (*updateNode, error) {
	if n, ok := u.nodes[page]; ok {
		return n, nil
	}
	// The pool's source checked the page when it was faulted in (and
	// frames the updater Put were sealed here), so staging copies the
	// frame out without checking it again.
	n := u.take(page)
	u.staging = n
	_, err := u.pt.pool.View(page, u.copyFn)
	u.staging = nil
	if err != nil {
		u.recycle(n)
		return nil, err
	}
	u.register(n)
	return n, nil
}

func (u *updater) copyFrame(frame []byte) error {
	copy(u.staging.buf, frame)
	return nil
}

// newNode stages an empty node on page, replacing any earlier staging
// (reusing a page freed in this same batch is legal).
func (u *updater) newNode(page, level int, leaf bool) *updateNode {
	n, ok := u.nodes[page]
	if ok {
		n.freed = false
	} else {
		n = u.take(page)
		u.register(n)
	}
	clear(n.buf)
	if leaf {
		n.buf[0] = flagLeaf
	}
	n.setLevel(level)
	n.dirty = true
	return n
}

// allocPage takes a page from the free list, or extends the file.
func (u *updater) allocPage() int {
	if n := len(u.meta.Free); n > 0 {
		p := u.meta.Free[n-1]
		u.meta.Free = u.meta.Free[:n-1]
		return p
	}
	p := u.meta.TotalPages
	u.meta.TotalPages = p + 1
	return p
}

// freePage returns a page to the free list. The page keeps its stale
// bytes; only the catalog makes it dead.
func (u *updater) freePage(n *updateNode) {
	n.freed = true
	n.dirty = false
	u.meta.Free = append(u.meta.Free, n.page)
}

// insertEntry descends from the root to targetDepth choosing the child
// needing least enlargement (ties: smaller area), appends the entry
// (an item when isItem, else a subtree pointer), and resolves overflows
// by splitting upward — Guttman's Insert generalized to any level so
// condense can reinsert orphaned subtrees with it.
func (u *updater) insertEntry(rect geom.Rect, payload uint64, isItem bool, targetDepth int) error {
	u.descent = append(u.descent[:0], 0)
	for depth := 0; depth < targetDepth; depth++ {
		n, err := u.node(u.descent[depth])
		if err != nil {
			return err
		}
		best, bestEnl, bestArea := -1, 0.0, 0.0
		for i := range n.count() {
			r := n.rect(i)
			area := r.Area()
			enl := r.Union(rect).Area() - area
			if best < 0 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		if best < 0 {
			return fmt.Errorf("storage: internal page %d has no children", n.page)
		}
		// Grow the covering rectangle on the way down (AdjustTree's
		// upward pass, folded into the descent: union with an exact MBR
		// stays exact).
		old := n.rect(best)
		if grown := old.Union(rect); !grown.Equal(old) {
			n.setRect(best, grown)
			n.dirty = true
		}
		u.descent = append(u.descent, n.child(best))
	}
	path := u.descent

	target, err := u.node(path[targetDepth])
	if err != nil {
		return err
	}
	target.appendEntry(rect, payload)
	target.dirty = true
	if !isItem {
		if err := u.restampSubtree(int(payload), targetDepth+1); err != nil {
			return err
		}
	}

	for d := targetDepth; d >= 0; d-- {
		n, err := u.node(path[d])
		if err != nil {
			return err
		}
		if n.count() <= u.meta.MaxEntries {
			break
		}
		if d == 0 {
			return u.splitRoot(n)
		}
		parent, err := u.node(path[d-1])
		if err != nil {
			return err
		}
		u.splitChild(n, parent, d)
	}
	return nil
}

// split divides n's entries between left and right as the tree's split
// algorithm groups them, moving whole entries in group order. left may
// be n itself: n's entries are copied aside first.
func (u *updater) split(n, left, right *updateNode) {
	u.rects = u.rects[:0]
	ents := n.entries()
	for rest := ents; len(rest) >= entrySize; rest = rest[entrySize:] {
		u.rects = append(u.rects, (*entry)(rest).rect())
	}
	li, ri := rtree.SplitIndices(u.meta.Split, u.meta.MinEntries, u.rects)
	u.spill = append(u.spill[:0], ents...)
	left.setCount(0)
	for _, j := range li {
		left.appendRaw(u.spill[j*entrySize:])
	}
	for _, j := range ri {
		right.appendRaw(u.spill[j*entrySize:])
	}
}

// splitChild splits an overflowing non-root node in place: the left
// group keeps the page, the right group gets a fresh one, and the parent
// swaps its single covering entry for two exact ones (which may overflow
// the parent — the caller's loop continues upward).
func (u *updater) splitChild(n, parent *updateNode, depth int) {
	sib := u.newNode(u.allocPage(), n.level(), n.leaf())
	u.split(n, n, sib)
	n.dirty = true
	u.meta.Levels[depth]++

	if i := parent.indexOfChild(n.page); i >= 0 {
		parent.setRect(i, n.mbr())
	}
	parent.appendEntry(sib.mbr(), uint64(sib.page))
	parent.dirty = true
}

// splitRoot splits the root: both halves move to fresh pages and page 0
// becomes a new two-entry internal root, growing the tree by one level.
// Every node's depth shifts by one, so the whole tree is restamped —
// the O(n) price of the paper's 0-is-root level convention; root splits
// are rare (one per ~MaxEntries^level inserts).
func (u *updater) splitRoot(root *updateNode) error {
	ln := u.newNode(u.allocPage(), 1, root.leaf())
	rn := u.newNode(u.allocPage(), 1, root.leaf())
	u.split(root, ln, rn)

	newRoot := u.newNode(0, 0, false)
	newRoot.appendEntry(ln.mbr(), uint64(ln.page))
	newRoot.appendEntry(rn.mbr(), uint64(rn.page))

	levels := make([]int, 0, len(u.meta.Levels)+1)
	levels = append(levels, 1, 2)
	levels = append(levels, u.meta.Levels[1:]...)
	u.meta.Levels = levels
	return u.restampAll()
}

// restampAll rewrites every reachable node's stored level to its depth.
// Needed whenever the tree's height changes (root split or shrink),
// because stored levels count from the root down.
func (u *updater) restampAll() error {
	return u.restampSubtree(0, 0)
}

// restampSubtree sets stored levels to depths throughout the subtree at
// page, dirtying only pages whose level actually changes. Used after
// height changes and when condense reattaches an orphaned subtree at a
// depth other than the one it was cut from.
func (u *updater) restampSubtree(page, depth int) error {
	n, err := u.node(page)
	if err != nil {
		return err
	}
	if n.level() != depth {
		n.setLevel(depth)
		n.dirty = true
	}
	if n.leaf() {
		return nil
	}
	for i := range n.count() {
		if err := u.restampSubtree(n.child(i), depth+1); err != nil {
			return err
		}
	}
	return nil
}

// findLeaf locates the leaf holding an entry equal to item, appending
// the root-to-leaf page path. Containment-directed DFS, as in Guttman's
// FindLeaf: several subtrees may contain the rectangle.
func (u *updater) findLeaf(page int, item rtree.Item, path *[]int) (bool, error) {
	*path = append(*path, page)
	n, err := u.node(page)
	if err != nil {
		return false, err
	}
	if n.leaf() {
		if n.indexOfItem(item) >= 0 {
			return true, nil
		}
		*path = (*path)[:len(*path)-1]
		return false, nil
	}
	for i := range n.count() {
		if n.rect(i).ContainsRect(item.Rect) {
			found, err := u.findLeaf(n.child(i), item, path)
			if err != nil || found {
				return found, err
			}
		}
	}
	*path = (*path)[:len(*path)-1]
	return false, nil
}

// condense walks the deletion path leaf-to-root, eliminating under-full
// nodes (their entries become orphans) and tightening surviving covering
// rectangles, then reinserts orphans at their original height.
func (u *updater) condense(path []int) error {
	u.orphans = u.orphans[:0]
	for d := len(path) - 1; d >= 1; d-- {
		n, err := u.node(path[d])
		if err != nil {
			return err
		}
		parent, err := u.node(path[d-1])
		if err != nil {
			return err
		}
		pi := parent.indexOfChild(n.page)
		if pi < 0 {
			return fmt.Errorf("storage: page %d not a child of page %d", n.page, parent.page)
		}
		if c := n.count(); c < u.meta.MinEntries {
			height := len(u.meta.Levels) - 1 - d
			for ents := n.entries(); len(ents) >= entrySize; ents = ents[entrySize:] {
				e := (*entry)(ents)
				u.orphans = append(u.orphans, orphan{rect: e.rect(), payload: e.payload(), isItem: n.leaf(), height: height})
			}
			parent.remove(pi)
			parent.dirty = true
			u.freePage(n)
			u.meta.Levels[d]--
		} else if c > 0 {
			if m := n.mbr(); !m.Equal(parent.rect(pi)) {
				parent.setRect(pi, m)
				parent.dirty = true
			}
		}
	}

	// Reinsert in reverse collection order (subtrees before leaf items),
	// matching the in-memory Tree.condense. Heights are re-anchored to
	// the current level count each time: a reinsertion can split the
	// root and deepen the tree under our feet.
	for i := len(u.orphans) - 1; i >= 0; i-- {
		o := u.orphans[i]
		targetDepth := len(u.meta.Levels) - 1 - o.height
		if err := u.insertEntry(o.rect, o.payload, o.isItem, targetDepth); err != nil {
			return err
		}
	}
	return nil
}

// shrinkRoot collapses the root while it is an internal node with one
// child: the child's entries move onto page 0, the tree loses a level,
// and stored levels are restamped.
func (u *updater) shrinkRoot() error {
	for {
		root, err := u.node(0)
		if err != nil {
			return err
		}
		if root.leaf() || root.count() != 1 {
			return nil
		}
		child, err := u.node(root.child(0))
		if err != nil {
			return err
		}
		next := u.newNode(0, 0, child.leaf())
		for ents := child.entries(); len(ents) >= entrySize; ents = ents[entrySize:] {
			next.appendRaw(ents)
		}
		u.freePage(child)
		u.meta.Levels = u.meta.Levels[1:]
		u.meta.Levels[0] = 1
		if err := u.restampAll(); err != nil {
			return err
		}
	}
}

// maxFreeListLen bounds the free list so the v2 catalog always fits the
// page file's metadata capacity (pageSize - 24 header bytes, the
// stricter of the managers' limits).
func maxFreeListLen(pageSize, nLevels int) int {
	n := (pageSize - 24 - 40 - 4*nLevels) / 4
	if n < 0 {
		return 0
	}
	return n
}

// commitUpdate runs the commit sequence described at the top of the
// file. On a WAL append failure the staged operation is discarded and
// the stored tree is untouched; on a write-back or catalog failure after
// the WAL commit the handle is poisoned (the log has the truth, the
// process does not). Checkpoint-stage failures return nil: the operation
// committed, so they are recorded in CheckpointErr instead.
func (pt *PagedTree) commitUpdate(u *updater) error {
	// The operation abandons level order the moment it commits.
	u.meta.LevelOrder = false
	if max := maxFreeListLen(pt.dm.PageSize(), len(u.meta.Levels)); len(u.meta.Free) > max {
		// Leak the excess pages rather than grow the catalog past its
		// page: they become dead space a future re-save reclaims.
		u.meta.Free = u.meta.Free[:max]
	}

	// Staged pages are visited in touch order, not map order, so the
	// batch is a function of the operation alone.
	images := u.images[:0]
	for _, n := range u.order {
		if !n.dirty || n.freed {
			continue
		}
		img, err := n.seal(pt.dm.PageSize())
		if err != nil {
			return err
		}
		images = append(images, PageImage{Page: n.page, Data: img})
	}
	u.images = images
	if len(images) == 0 {
		return nil
	}
	slices.SortFunc(images, func(a, b PageImage) int { return cmp.Compare(a.Page, b.Page) })

	metaBytes := encodeMetaV2(u.meta)
	batch, err := pt.wal.AppendBatch(images, metaBytes)
	if err != nil {
		return fmt.Errorf("storage: logging update: %w", err)
	}

	// The batch is durable; from here every failure poisons the handle.
	pt.pool.Grow(u.meta.PageSpan())
	for _, img := range images {
		if err := pt.pool.Put(img.Page, img.Data); err != nil {
			pt.updateErr = err
			return fmt.Errorf("storage: applying committed batch %d: %w", batch, err)
		}
	}
	if err := pt.pool.FlushDirty(); err != nil {
		pt.updateErr = err
		return fmt.Errorf("storage: applying committed batch %d: %w", batch, err)
	}
	if err := pt.dm.WriteMeta(metaBytes); err != nil {
		pt.updateErr = err
		return fmt.Errorf("storage: applying committed batch %d: %w", batch, err)
	}
	pt.meta = u.meta

	if pt.ckpt.Due(pt.wal) {
		// The log may only be truncated once the page writes are
		// durable, not merely issued. A failure from here on is NOT an
		// operation failure — the batch is committed, applied, and would
		// survive any crash; the log is merely longer than the policy
		// wants, so recovery replays more. Returning an error would make
		// a committed Insert look failed and invite a duplicating retry,
		// so the warning goes out of band: sticky CheckpointErr plus a
		// metrics counter, cleared by the next checkpoint that succeeds.
		if err := syncManager(pt.dm); err != nil {
			pt.ckptErr = fmt.Errorf("storage: sync before checkpoint of batch %d: %w", batch, err)
			pt.wal.metrics.noteWALCheckpointFailure()
		} else if err := pt.wal.Checkpoint(batch); err != nil {
			pt.ckptErr = fmt.Errorf("storage: checkpointing batch %d: %w", batch, err)
			pt.wal.metrics.noteWALCheckpointFailure()
		} else {
			pt.ckptErr = nil
		}
	}
	return nil
}
