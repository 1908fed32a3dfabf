package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/obs"
	"rtreebuf/internal/rtree"
	"rtreebuf/internal/storage"
)

// maxLevels is how many tree levels (root = 0) the per-level miss
// counts report. The packed trees have three; update-mixed's splits
// grow a fourth during warm-up.
const maxLevels = 4

// snap is every exact counter the count pass attributes to operations.
type snap struct {
	hits, misses, evictions uint64
	disk, wal               ioCount
	diskFsyncs, walFsyncs   uint64
	diskBytes, walBytes     uint64 // storage.NewMetrics bytes written to each device
	writeBacks              uint64
	levelMisses             [maxLevels]uint64
}

func (e *env) snap() snap {
	var s snap
	if e.pt == nil {
		return s
	}
	s.hits, s.misses, s.evictions = e.pt.Pool().Stats()
	s.disk, s.wal = e.disk.count(), e.walDisk.count()
	s.diskFsyncs = e.pageReg.Counter("storage_fsyncs_total").Value()
	s.walFsyncs = e.walReg.Counter("storage_fsyncs_total").Value()
	s.diskBytes = e.pageReg.Counter("storage_write_bytes_total").Value()
	s.walBytes = e.walReg.Counter("storage_write_bytes_total").Value()
	if e.bufReg != nil {
		p := obs.L("policy", "lru")
		s.writeBacks = e.bufReg.Counter("buffer_write_backs_total", p).Value()
		for l := range s.levelMisses {
			s.levelMisses[l] = e.bufReg.Counter("buffer_level_misses_total", p, obs.L("level", strconv.Itoa(l))).Value()
		}
	}
	return s
}

func (s snap) sub(o snap) snap {
	d := snap{
		hits: s.hits - o.hits, misses: s.misses - o.misses, evictions: s.evictions - o.evictions,
		disk:       ioCount{s.disk.reads - o.disk.reads, s.disk.writes - o.disk.writes, s.disk.writeBytes - o.disk.writeBytes},
		wal:        ioCount{s.wal.reads - o.wal.reads, s.wal.writes - o.wal.writes, s.wal.writeBytes - o.wal.writeBytes},
		diskFsyncs: s.diskFsyncs - o.diskFsyncs, walFsyncs: s.walFsyncs - o.walFsyncs,
		diskBytes: s.diskBytes - o.diskBytes, walBytes: s.walBytes - o.walBytes,
		writeBacks: s.writeBacks - o.writeBacks,
	}
	for l := range d.levelMisses {
		d.levelMisses[l] = s.levelMisses[l] - o.levelMisses[l]
	}
	return d
}

func (s *snap) add(o snap) {
	s.hits += o.hits
	s.misses += o.misses
	s.evictions += o.evictions
	s.disk.reads += o.disk.reads
	s.disk.writes += o.disk.writes
	s.disk.writeBytes += o.disk.writeBytes
	s.wal.reads += o.wal.reads
	s.wal.writes += o.wal.writes
	s.wal.writeBytes += o.wal.writeBytes
	s.diskFsyncs += o.diskFsyncs
	s.walFsyncs += o.walFsyncs
	s.diskBytes += o.diskBytes
	s.walBytes += o.walBytes
	s.writeBacks += o.writeBacks
	for l := range s.levelMisses {
		s.levelMisses[l] += o.levelMisses[l]
	}
}

// counts is the count pass: exact counter deltas summed per operation
// kind over a fixed single-client prefix of the workload's stream.
type counts struct {
	ops [numKinds]int
	by  [numKinds]snap
}

// updates folds the kinds the per-update metrics divide by.
func (c counts) updates() (int, snap) {
	var s snap
	s.add(c.by[opInsert])
	s.add(c.by[opDelete])
	return c.ops[opInsert] + c.ops[opDelete], s
}

// countPass runs n operations on the main stream, attributing every
// counter's change to the operation that caused it.
func (e *env) countPass(n int) counts {
	var cs counts
	before := e.snap()
	for i := 0; i < n; i++ {
		kind, err := e.step(e.main)
		e.after(e.main, kind, err)
		now := e.snap()
		cs.ops[kind]++
		cs.by[kind].add(now.sub(before))
		before = now
	}
	return cs
}

// attachBufferMetrics mirrors the pool into a registry with a
// page-to-level map, for the per-level miss counts of traced runs. The
// map comes from walking the stored tree, since updates break the
// level-order page numbering; pages a later split allocates are outside
// it and go unattributed.
func (e *env) attachBufferMetrics() error {
	if e.pt == nil {
		return nil
	}
	dm := e.disk.DiskManager
	levelOf := make([]int, dm.NumPages())
	for i := range levelOf {
		levelOf[i] = -1
	}
	buf := make([]byte, dm.PageSize())
	var walk func(page, level int) error
	walk = func(page, level int) error {
		if page < 0 || page >= len(levelOf) {
			return fmt.Errorf("child page %d outside the file", page)
		}
		levelOf[page] = level
		if err := dm.ReadPage(page, buf); err != nil {
			return err
		}
		nd, err := storage.DecodeNode(buf, page)
		if err != nil {
			return err
		}
		for _, child := range nd.Children {
			if err := walk(child, level+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0, 0); err != nil {
		return fmt.Errorf("mapping pages to levels: %w", err)
	}
	e.bufReg = obs.NewRegistry()
	e.pt.Pool().SetMetrics(buffer.NewMetrics(e.bufReg, "lru").WithLevels(levelOf, maxLevels))
	return nil
}

func (e *env) detachBufferMetrics() {
	if e.pt != nil {
		e.pt.Pool().SetMetrics(nil)
	}
	e.bufReg = nil
}

// opRecord is one timed operation.
type opRecord struct {
	start, dur int64 // ns; start is relative to the phase start
	kind       opKind
}

// procStats reads the process-wide counters a phase is charged with.
type procStats struct {
	cpu      float64 // user+sys seconds
	allocs   float64 // heap bytes allocated
	gcCycles float64
	gcCPU    float64 // seconds
	heapLive float64 // bytes, at the last GC
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

// add sums the deltas of two phases; heapLive is the later phase's.
func (s *procStats) add(o procStats) {
	s.cpu += o.cpu
	s.allocs += o.allocs
	s.gcCycles += o.gcCycles
	s.gcCPU += o.gcCPU
	s.heapLive = o.heapLive
}

func readProc() procStats {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	v := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage(RUSAGE_SELF) cannot fail: " + err.Error())
	}
	cpu := float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	return procStats{cpu: cpu, allocs: v[0], gcCycles: v[1], gcCPU: v[2], heapLive: v[3]}
}

// phase is one timed closed-loop phase.
type phase struct {
	wall    float64            // seconds
	recs    []*arena[opRecord] // one per client
	proc    procStats          // deltas, except heapLive
	spans   spanTotals
	tracers []*tracer // the clients' span recorders, when traced
	// ticks are the slice boundaries: seconds since the phase start and
	// the process CPU seconds read there, first and last included.
	ticks []tick
}

type tick struct{ at, cpu float64 }

// timed runs every client closed-loop until the deadline. With traced
// set, each client records spans; device spans go to the single client
// only.
func (e *env) timed(clients []*client, d time.Duration, traced bool) phase {
	runtime.GC()
	var ph phase
	p0 := readProc()
	epoch := time.Now()
	deadline := epoch.Add(d)
	for _, c := range clients {
		c.rec = &arena[opRecord]{}
		c.tr = nil
		if traced {
			c.tr = newTracer(epoch)
		}
	}
	if traced && len(clients) == 1 && e.disk != nil {
		e.disk.tr = clients[0].tr
		if e.walDisk != nil {
			e.walDisk.tr = clients[0].tr
		}
	}
	// A sampler reads the process CPU at each slice boundary.
	ph.ticks = []tick{{0, p0.cpu}}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tk := time.NewTicker(d / phaseSlices)
		defer tk.Stop()
		for {
			select {
			case now := <-tk.C:
				ph.ticks = append(ph.ticks, tick{now.Sub(epoch).Seconds(), readProc().cpu})
			case <-stop:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				start := time.Now()
				if !start.Before(deadline) {
					return
				}
				c.tr.beginOp(start)
				kind, err := e.step(c)
				end := time.Now()
				c.tr.endOp(kind, end)
				c.rec.push(opRecord{start: start.Sub(epoch).Nanoseconds(), dur: end.Sub(start).Nanoseconds(), kind: kind})
				e.after(c, kind, err)
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-sampled
	ph.wall = time.Since(epoch).Seconds()
	p1 := readProc()
	ph.ticks = append(ph.ticks, tick{ph.wall, p1.cpu})
	if e.disk != nil {
		e.disk.tr = nil
	}
	if e.walDisk != nil {
		e.walDisk.tr = nil
	}
	ph.proc = procStats{
		cpu: p1.cpu - p0.cpu, allocs: p1.allocs - p0.allocs,
		gcCycles: p1.gcCycles - p0.gcCycles, gcCPU: p1.gcCPU - p0.gcCPU, heapLive: p1.heapLive,
	}
	for _, c := range clients {
		ph.recs = append(ph.recs, c.rec)
		if c.tr != nil {
			ph.spans.add(&c.tr.spans)
			ph.tracers = append(ph.tracers, c.tr)
		}
	}
	return ph
}

// phaseSlices is how many equal slices a timed phase is cut into. The
// bounded metrics are medians over the slices, so a burst of
// interference from other tenants of a shared host that covers less than
// half the run does not move them.
const phaseSlices = 20

// sliced returns, for every slice at least half a slice long that did
// some work, its throughput, CPU seconds per operation and the median
// latency in microseconds of the operations match selects that ended in
// it. An operation counts towards each slice in proportion to the part
// of it the slice covers, so slow operations do not quantise throughput.
func (ph phase) sliced(match func(opKind) bool) (opsPerSec, cpuPerOp, p50 []float64) {
	for i := 1; i < len(ph.ticks); i++ {
		lo, hi := ph.ticks[i-1], ph.ticks[i]
		if hi.at-lo.at < ph.wall/phaseSlices/2 {
			continue
		}
		n := 0.0
		var lat []float64
		for _, part := range ph.records() {
			for _, r := range part {
				start, end := float64(r.start)/1e9, float64(r.start+r.dur)/1e9
				if end <= lo.at || start >= hi.at {
					continue
				}
				if r.dur > 0 {
					n += (math.Min(end, hi.at) - math.Max(start, lo.at)) / (end - start)
				}
				if end < hi.at && match(r.kind) {
					lat = append(lat, float64(r.dur)/1e3)
				}
			}
		}
		if n == 0 {
			continue
		}
		opsPerSec = append(opsPerSec, n/(hi.at-lo.at))
		cpuPerOp = append(cpuPerOp, (hi.cpu-lo.cpu)/n)
		if len(lat) > 0 {
			sort.Float64s(lat)
			p50 = append(p50, quantile(lat, 0.5))
		}
	}
	return opsPerSec, cpuPerOp, p50
}

// records returns every client's operation records, in parts.
func (ph phase) records() [][]opRecord {
	var out [][]opRecord
	for _, a := range ph.recs {
		out = append(out, a.parts()...)
	}
	return out
}

// ops is how many operations the phase ran.
func (ph phase) ops() int {
	n := 0
	for _, a := range ph.recs {
		n += a.len()
	}
	return n
}

// free releases the phase's records and spans.
func (ph phase) free() {
	for _, a := range ph.recs {
		a.free()
	}
	for _, t := range ph.tracers {
		t.spans.free()
	}
}

// opsPerSec is the median slice's throughput.
func (ph phase) opsPerSec() float64 {
	ops, _, _ := ph.sliced(func(opKind) bool { return false })
	return median(ops)
}

// latencies returns the sorted durations, in microseconds, of the
// operations whose kind matches.
func (ph phase) latencies(match func(opKind) bool) []float64 {
	var out []float64
	for _, part := range ph.records() {
		for _, r := range part {
			if match(r.kind) {
				out = append(out, float64(r.dur)/1e3)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// codecTimes are per-page costs of the public codec calls on the
// workload's own pages.
type codecTimes struct{ verify, decode, encode float64 } // microseconds

// codecPages bounds how many of the tree's pages the codec timing reads.
const codecPages = 1024

func (e *env) timeCodec() (codecTimes, error) {
	var ct codecTimes
	if e.disk == nil {
		return ct, nil
	}
	dm := e.disk.DiskManager
	n := min(codecPages, dm.NumPages())
	pages := make([][]byte, n)
	stride := max(1, dm.NumPages()/n)
	for i := range pages {
		pages[i] = make([]byte, dm.PageSize())
		if err := dm.ReadPage(i*stride, pages[i]); err != nil {
			return ct, err
		}
	}
	// Each pass is repeated until it has run long enough to time.
	repeat := func(f func() error) (float64, error) {
		start := time.Now()
		rounds := 0
		for rounds == 0 || time.Since(start) < 50*time.Millisecond {
			if err := f(); err != nil {
				return 0, err
			}
			rounds++
		}
		return time.Since(start).Seconds() * 1e6 / float64(rounds*n), nil
	}
	var err error
	if ct.verify, err = repeat(func() error {
		for _, p := range pages {
			if err := storage.VerifyPage(p); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return ct, err
	}
	if ct.decode, err = repeat(func() error {
		for i, p := range pages {
			if _, err := storage.DecodeNode(p, i*stride); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return ct, err
	}
	nodes := make([]rtree.NodeData, n)
	for i, p := range pages {
		if nodes[i], err = storage.DecodeNode(p, i*stride); err != nil {
			return ct, err
		}
	}
	ct.encode, err = repeat(func() error {
		for _, nd := range nodes {
			if _, err := storage.EncodeNode(nd, dm.PageSize()); err != nil {
				return err
			}
		}
		return nil
	})
	return ct, err
}
