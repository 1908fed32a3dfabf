package buffer

import (
	"fmt"
	"slices"
)

// PageSource supplies page contents on buffer misses. It is satisfied by
// the disk managers of internal/storage; declaring it here keeps the
// dependency pointing from storage to buffer only at the call site.
type PageSource interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// ReadPage fills dst (of PageSize bytes) with the page's contents.
	ReadPage(page int, dst []byte) error
}

// PageSink receives dirty-page write-backs. The storage disk managers
// satisfy it; a pool with no sink attached rejects dirty-page operations
// rather than losing writes.
type PageSink interface {
	// WritePage persists the page's contents.
	WritePage(page int, data []byte) error
}

// Pool is a page buffer serving page contents from a PageSource — the
// database buffer pool the paper assumes around the R-tree. Replacement
// decisions delegate to a PoolPolicy (LRU by default; see NewPoolWith).
// Every miss costs one PageSource read, which is the "disk access" the
// paper's EDT metric counts.
//
// The read path treats pages as immutable, matching the paper's
// query-only experiments. The update path adds dirty-page tracking on
// top: Put and MarkDirty flag resident pages as ahead of the source,
// FlushDirty writes them back to the attached PageSink in page order,
// and a fault that must evict a dirty victim writes it back first (the
// write-back failing fails the fault — a dirty page is never silently
// dropped). Crash atomicity is not the pool's job: callers WAL-log a
// batch before putting its pages, so a write-back at any moment is
// redo-covered.
type Pool struct {
	src    PageSource
	sink   PageSink
	policy PoolPolicy
	frames [][]byte
	free   [][]byte // recycled frames from evictions

	dirty     []bool // page -> contents ahead of the source
	dirtyList []int  // pages flagged dirty, unordered, may hold cleaned entries
	nDirty    int

	// dirtyVer is bumped on every Put/MarkDirty of a page. A locked
	// wrapper that copies a dirty frame out, writes it back with no lock
	// held, and then commits the outcome (wroteBackVer) uses it to detect
	// a concurrent re-dirty: a stale write-back must not clear the flag.
	dirtyVer []uint32

	// readFailures counts source reads that returned an error. Failed
	// reads still count as misses (a physical read was issued) but leave
	// no frame resident, so callers watching for degraded storage can
	// tell "cold buffer" apart from "sick disk".
	readFailures uint64
	// failedWrites counts sink writes that returned an error. The page
	// stays resident and dirty, so no data is lost; the operation that
	// needed the write-back surfaces the error.
	failedWrites uint64
	metrics      *Metrics
}

// SetMetrics attaches an obs mirror: buffer events flow to the mirror's
// registry alongside the pool's own counters. Nil detaches.
func (p *Pool) SetMetrics(m *Metrics) {
	p.metrics = m
	p.policy.SetMetrics(m)
}

func (p *Pool) noteReadFailure() {
	p.readFailures++
	p.metrics.onReadFailure()
}

func (p *Pool) noteFailedWrite() {
	p.failedWrites++
	p.metrics.onWriteFailure()
}

// NewPool returns an LRU pool of the given capacity (in pages) over
// pages [0, numPages) of src.
func NewPool(src PageSource, capacity, numPages int) *Pool {
	return NewPoolWith(src, capacity, numPages, func(capacity, numPages int) PoolPolicy {
		return NewLRU(capacity, numPages)
	})
}

// NewPoolWith returns a pool whose replacement decisions are made by the
// policy the factory constructs (see FactoryFor for the built-in names).
func NewPoolWith(src PageSource, capacity, numPages int, factory PolicyFactory) *Pool {
	p := &Pool{
		src:      src,
		policy:   factory(capacity, numPages),
		frames:   make([][]byte, numPages),
		dirty:    make([]bool, numPages),
		dirtyVer: make([]uint32, numPages),
	}
	p.policy.SetOnEvict(func(page int) {
		if p.dirty[page] {
			// Every eviction point writes the victim back first; a dirty
			// page reaching here means the write-back protocol was
			// bypassed and its contents are about to be lost.
			panic(fmt.Sprintf("buffer: evicting dirty page %d", page))
		}
		p.free = append(p.free, p.frames[page])
		p.frames[page] = nil
	})
	return p
}

// SetSink attaches the write-back target for dirty pages; nil detaches.
func (p *Pool) SetSink(sink PageSink) { p.sink = sink }

// Grow extends the pool's page-number space to numPages (no-op if not
// larger). Capacity is unchanged. The update path calls this when node
// splits allocate pages past the tree's original extent.
func (p *Pool) Grow(numPages int) {
	if numPages <= len(p.frames) {
		return
	}
	extra := numPages - len(p.frames)
	p.frames = append(p.frames, make([][]byte, extra)...)
	p.dirty = append(p.dirty, make([]bool, extra)...)
	p.dirtyVer = append(p.dirtyVer, make([]uint32, extra)...)
	p.policy.Grow(numPages)
}

// Get returns the contents of page, reading it from the source on a miss.
// The returned slice aliases the buffer frame: it is valid until the page
// is evicted and must not be modified.
func (p *Pool) Get(page int) ([]byte, error) {
	data, _, err := p.GetTracked(page)
	return data, err
}

// GetTracked is Get plus per-access attribution: whether the page was
// resident and how many dirty victims the miss had to write back.
func (p *Pool) GetTracked(page int) ([]byte, AccessInfo, error) {
	if page < 0 || page >= len(p.frames) {
		return nil, AccessInfo{}, fmt.Errorf("buffer: page %d outside [0,%d)", page, len(p.frames))
	}
	if p.policy.Contains(page) && p.frames[page] != nil {
		p.policy.Access(page)
		return p.frames[page], AccessInfo{Hit: true}, nil
	}
	wrote, err := p.writeBackVictimTracked()
	info := AccessInfo{}
	if wrote {
		info.WriteBacks = 1
	}
	if err != nil {
		return nil, info, err
	}
	p.policy.Access(page)
	frame := p.takeFrame()
	if err := p.src.ReadPage(page, frame); err != nil {
		// Back out the fault so a failed read never leaves a garbage
		// frame resident. The source error stays in the chain so the
		// storage layer's fault classification (transient vs permanent)
		// survives the trip through the pool.
		p.noteReadFailure()
		p.policy.Remove(page)
		p.free = append(p.free, frame)
		return nil, info, fmt.Errorf("buffer: reading page %d: %w", page, err)
	}
	p.frames[page] = frame
	return frame, info, nil
}

// View runs fn on page's frame in place, faulting the page in on a
// miss, and reports the access's attribution as GetTracked does. fn must
// not modify or retain the slice; fn's error is returned as is.
func (p *Pool) View(page int, fn func([]byte) error) (AccessInfo, error) {
	frame, info, err := p.GetTracked(page)
	if err != nil {
		return info, err
	}
	return info, fn(frame)
}

func (p *Pool) takeFrame() []byte {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f
	}
	//lint:allow hotalloc frame allocation is the one-time cost of growing the buffer
	return make([]byte, p.src.PageSize())
}

// The methods below split Get's fault path into phases so a locked
// wrapper (SyncPool) can interleave its own synchronization: probe the
// cache (TryGet), read the source with no pool state touched (readPage),
// then commit the fault (install) or back it out (failedFault) — without
// ever holding a state lock across the source read.

// TryGet returns the frame if page is resident, counting a hit; on a miss
// it performs no accounting, leaving the fault to the caller. Pages being
// concurrently faulted (resident but frameless) report as missing so
// callers route through the fault path.
func (p *Pool) TryGet(page int) ([]byte, bool, error) {
	if page < 0 || page >= len(p.frames) {
		return nil, false, fmt.Errorf("buffer: page %d outside [0,%d)", page, len(p.frames))
	}
	if !p.policy.Contains(page) || p.frames[page] == nil {
		return nil, false, nil
	}
	p.policy.Access(page) // resident: counts the hit and touches recency
	return p.frames[page], true, nil
}

// readPage fills dst from the source. It touches no pool state, so a
// wrapper may call it without holding the lock guarding the pool.
func (p *Pool) readPage(page int, dst []byte) error {
	return p.src.ReadPage(page, dst)
}

// faultVersion returns page's dirty version. A wrapper about to fault
// page in with no lock held captures it (under the state lock, page not
// resident) and hands it back to install, which uses it to tell a
// harmless duplicate fault from a stale read racing a concurrent Put.
func (p *Pool) faultVersion(page int) uint32 { return p.dirtyVer[page] }

// install commits a successful fault: counts the miss (evicting if
// needed) and copies data into a frame. ver is the page's dirty version
// as captured by faultVersion when the fault began. If the fault lost a
// race — the page became resident while the source read was in flight —
// the frame is refreshed in place only when no Put or MarkDirty landed
// meanwhile (version unchanged: the resident bytes came from an
// equivalent source read, so the refresh is a no-op in contents). A
// frame that is dirty, or clean because the newer contents were already
// flushed, is ahead of the stale source bytes and keeps them.
func (p *Pool) install(page int, data []byte, ver uint32) {
	if p.policy.Access(page) {
		if !p.dirty[page] && p.dirtyVer[page] == ver {
			copy(p.frames[page], data) // lost a duplicate-fault race: refresh in place
		}
		return
	}
	frame := p.takeFrame()
	copy(frame, data)
	p.frames[page] = frame
}

// failedFault accounts for a fault whose source read failed: the miss
// still counts (a physical read was issued) but nothing becomes
// resident. It deliberately avoids Policy.Access — a fault here could
// evict a victim no one wrote back (the caller only cleans victims on
// the success path). The returned error matches Get's wrapping.
func (p *Pool) failedFault(page int, err error) error {
	p.policy.NoteMiss(page)
	p.noteReadFailure()
	return fmt.Errorf("buffer: reading page %d: %w", page, err)
}

// preparePin pins the page slot and reports whether the caller must read
// its contents (it was not resident), plus the page's dirty version for
// installPinned's race guard. See Pin for single-step use.
func (p *Pool) preparePin(page int) (needRead bool, ver uint32, err error) {
	if page < 0 || page >= len(p.frames) {
		return false, 0, fmt.Errorf("buffer: page %d outside [0,%d)", page, len(p.frames))
	}
	if p.policy.Pinned(page) {
		return false, 0, nil
	}
	resident := p.policy.Contains(page)
	if err := p.policy.Pin(page); err != nil {
		return false, 0, err
	}
	return !resident, p.dirtyVer[page], nil
}

// installPinned stores the contents of a freshly pinned page. ver is
// the dirty version preparePin reported. A concurrent Put landing while
// the pin's source read was in flight already gave the page a frame
// whose contents are ahead of the source — that frame is kept (never
// replaced or dropped); only a frame still at the pinned version is
// refreshed, and a missing frame is filled.
func (p *Pool) installPinned(page int, data []byte, ver uint32) {
	if p.frames[page] != nil {
		if !p.dirty[page] && p.dirtyVer[page] == ver {
			copy(p.frames[page], data)
		}
		return
	}
	frame := p.takeFrame()
	copy(frame, data)
	p.frames[page] = frame
}

// failedPin backs out preparePin after a failed source read, matching
// Pin's error wrapping.
func (p *Pool) failedPin(page int, err error) error {
	p.noteReadFailure()
	p.policy.Unpin(page)
	p.policy.Remove(page)
	return fmt.Errorf("buffer: pinning page %d: %w", page, err)
}

// Pin makes page permanently resident (reading it if absent).
func (p *Pool) Pin(page int) error {
	if p.policy.Pinned(page) {
		return nil
	}
	resident := p.policy.Contains(page)
	if !resident {
		if err := p.writeBackVictim(); err != nil {
			return err
		}
	}
	if err := p.policy.Pin(page); err != nil {
		return err
	}
	if !resident {
		frame := p.takeFrame()
		if err := p.src.ReadPage(page, frame); err != nil {
			p.noteReadFailure()
			p.policy.Unpin(page)
			p.policy.Remove(page)
			p.free = append(p.free, frame)
			return fmt.Errorf("buffer: pinning page %d: %w", page, err)
		}
		p.frames[page] = frame
	}
	return nil
}

// FailedReads returns how many source reads errored. These reads count
// as misses but deliver no page.
func (p *Pool) FailedReads() uint64 { return p.readFailures }

// FailedWrites returns how many sink write-backs errored. The pages
// stayed resident and dirty, so nothing was lost — but the storage
// underneath is sick and the operations that needed the write-backs
// failed.
func (p *Pool) FailedWrites() uint64 { return p.failedWrites }

// DirtyPages returns how many resident pages are ahead of the source.
func (p *Pool) DirtyPages() int { return p.nDirty }

// Put installs data as the contents of page, resident and dirty — the
// update path's entry point after its batch is WAL-committed. The page
// becomes most recently used; no read miss is counted (no physical read
// happens). Installing into a full pool may evict, writing a dirty
// victim back first.
func (p *Pool) Put(page int, data []byte) error {
	if page < 0 || page >= len(p.frames) {
		return fmt.Errorf("buffer: page %d outside [0,%d)", page, len(p.frames))
	}
	if len(data) != p.src.PageSize() {
		return fmt.Errorf("buffer: put of %d bytes != page size %d", len(data), p.src.PageSize())
	}
	if !p.policy.Contains(page) {
		if err := p.writeBackVictim(); err != nil {
			return err
		}
	}
	p.policy.Install(page)
	if p.frames[page] == nil {
		p.frames[page] = p.takeFrame()
	}
	copy(p.frames[page], data)
	p.setDirty(page)
	return nil
}

// MarkDirty flags a resident page whose frame the caller mutated in
// place. The pool will write it back on FlushDirty or before evicting it.
func (p *Pool) MarkDirty(page int) error {
	if page < 0 || page >= len(p.frames) {
		return fmt.Errorf("buffer: page %d outside [0,%d)", page, len(p.frames))
	}
	if !p.policy.Contains(page) || p.frames[page] == nil {
		return fmt.Errorf("buffer: MarkDirty of non-resident page %d", page)
	}
	p.setDirty(page)
	return nil
}

// FlushDirty writes every dirty page back to the sink in ascending page
// order (deterministic for a given dirty set) and clears the dirty
// flags. On a write failure it stops: the failed page and everything
// after it stay dirty and resident, and the error surfaces. Callers
// ordering a WAL commit call this after logging, so a partial flush is
// always redo-covered.
func (p *Pool) FlushDirty() error {
	if p.nDirty == 0 {
		p.dirtyList = p.dirtyList[:0]
		return nil
	}
	slices.Sort(p.dirtyList)
	for i, page := range p.dirtyList {
		if !p.dirty[page] {
			continue // cleaned earlier (write-back on eviction) or a duplicate entry
		}
		if err := p.flushPage(page); err != nil {
			rest := p.dirtyList[i:]
			n := copy(p.dirtyList, rest)
			p.dirtyList = p.dirtyList[:n]
			return err
		}
	}
	p.dirtyList = p.dirtyList[:0]
	return nil
}

func (p *Pool) setDirty(page int) {
	p.dirtyVer[page]++
	if p.dirty[page] {
		return
	}
	p.dirty[page] = true
	p.nDirty++
	p.dirtyList = append(p.dirtyList, page)
	p.metrics.onDirty()
}

func (p *Pool) clearDirty(page int) {
	if !p.dirty[page] {
		return
	}
	p.dirty[page] = false
	p.nDirty--
}

// flushPage writes one dirty page to the sink and clears its flag.
func (p *Pool) flushPage(page int) error {
	return p.wroteBack(page, p.sinkWrite(page, p.frames[page]))
}

// sinkWrite performs the physical write-back. It touches no pool state,
// so a locked wrapper may call it without holding the state lock.
func (p *Pool) sinkWrite(page int, data []byte) error {
	return sinkWriteTo(p.sink, page, data)
}

// sinkSnapshot returns the attached sink (possibly nil). A wrapper that
// writes with no lock held snapshots the sink under its lock first, so a
// concurrent SetSink cannot race the field read.
func (p *Pool) sinkSnapshot() PageSink { return p.sink }

// sinkWriteTo writes data to sink, sharing the no-sink error with every
// write-back path.
func sinkWriteTo(sink PageSink, page int, data []byte) error {
	if sink == nil {
		return fmt.Errorf("buffer: no write-back sink attached")
	}
	return sink.WritePage(page, data)
}

// wroteBack commits the outcome of a sink write: success clears the
// dirty flag and counts a write-back, failure counts a failed write and
// leaves the page dirty.
func (p *Pool) wroteBack(page int, err error) error {
	if err != nil {
		p.noteFailedWrite()
		return fmt.Errorf("buffer: writing back page %d: %w", page, err)
	}
	p.clearDirty(page)
	p.metrics.onWriteBack()
	return nil
}

// writeBackVictim cleans the page the next capacity eviction would drop,
// so the eviction (inside LRU.Access/Install/Pin) never loses a dirty
// page. Single-threaded pools call it immediately before any operation
// that may evict.
func (p *Pool) writeBackVictim() error {
	_, err := p.writeBackVictimTracked()
	return err
}

// writeBackVictimTracked is writeBackVictim plus whether a dirty victim
// was actually written back (false when the pool isn't full or the
// victim is clean).
func (p *Pool) writeBackVictimTracked() (wrote bool, err error) {
	if !p.policy.Full() {
		return false, nil
	}
	v, ok := p.policy.Victim()
	if !ok || !p.dirty[v] {
		return false, nil
	}
	if err := p.flushPage(v); err != nil {
		return false, err
	}
	return true, nil
}

// hasDirtyVictim reports whether the next capacity eviction would drop
// a dirty page — the cheap probe half of dirtyVictim, for a wrapper
// deciding whether it must enter its write-back path at all.
func (p *Pool) hasDirtyVictim() bool {
	if !p.policy.Full() {
		return false
	}
	v, ok := p.policy.Victim()
	return ok && p.dirty[v]
}

// dirtyVictim is writeBackVictim's probe half for a locked wrapper:
// when the next eviction victim is dirty it copies the victim's frame
// into dst and returns its page number; otherwise it returns -1 and the
// caller may evict freely (until it releases its write serialization).
func (p *Pool) dirtyVictim(dst []byte) int {
	if !p.policy.Full() {
		return -1
	}
	v, ok := p.policy.Victim()
	if !ok || !p.dirty[v] {
		return -1
	}
	copy(dst, p.frames[v])
	return v
}

// dirtyVictimVer is dirtyVictim plus the victim's dirty version, for a
// wrapper that releases its lock between the copy and the commit.
func (p *Pool) dirtyVictimVer(dst []byte) (page int, ver uint32) {
	v := p.dirtyVictim(dst)
	if v < 0 {
		return -1, 0
	}
	return v, p.dirtyVer[v]
}

// copyDirtyVer is copyDirty plus the page's dirty version.
func (p *Pool) copyDirtyVer(page int, dst []byte) (ver uint32, ok bool) {
	if !p.copyDirty(page, dst) {
		return 0, false
	}
	return p.dirtyVer[page], true
}

// wroteBackVer commits the outcome of an unlocked sink write that was
// fed from a versioned copy. If the page was re-dirtied since the copy
// (version moved), a successful write still counts as a write-back but
// must not clear the flag — the fresher contents remain to be written.
// The stale on-disk state is safe: callers WAL-log before dirtying, so
// it is redo-covered.
func (p *Pool) wroteBackVer(page int, ver uint32, err error) error {
	if err != nil {
		p.noteFailedWrite()
		return fmt.Errorf("buffer: writing back page %d: %w", page, err)
	}
	p.metrics.onWriteBack()
	if p.dirtyVer[page] == ver {
		p.clearDirty(page)
	}
	return nil
}

// dirtySnapshot returns the dirty pages in ascending order, for a locked
// wrapper that flushes them one at a time.
func (p *Pool) dirtySnapshot() []int {
	out := make([]int, 0, p.nDirty)
	for _, page := range p.dirtyList {
		if p.dirty[page] {
			out = append(out, page)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// copyDirty copies page's frame into dst if it is still dirty, reporting
// whether it was.
func (p *Pool) copyDirty(page int, dst []byte) bool {
	if page >= len(p.frames) || !p.dirty[page] || p.frames[page] == nil {
		return false
	}
	copy(dst, p.frames[page])
	return true
}

// Unpin returns a pinned page to replacement management.
func (p *Pool) Unpin(page int) { p.policy.Unpin(page) }

// Stats returns cumulative hits, misses, and evictions. Misses equal the
// number of source reads issued.
func (p *Pool) Stats() (hits, misses, evictions uint64) { return p.policy.Stats() }

// ResetStats zeroes the counters without disturbing contents.
func (p *Pool) ResetStats() {
	p.policy.ResetStats()
	p.readFailures = 0
	p.failedWrites = 0
}

// HitRatio returns the cumulative hit ratio.
func (p *Pool) HitRatio() float64 { return p.policy.HitRatio() }

// Capacity returns the pool capacity in pages.
func (p *Pool) Capacity() int { return p.policy.Capacity() }

// Resident returns the number of pages currently buffered.
func (p *Pool) Resident() int { return p.policy.Len() }
