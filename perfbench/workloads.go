package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"rtreebuf/internal/core"
	"rtreebuf/internal/datagen"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/obs"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
	"rtreebuf/internal/sim"
	"rtreebuf/internal/storage"
)

// opKind is one operation type of a workload's mix.
type opKind uint8

const (
	opWindow opKind = iota
	opKNN
	opInsert
	opDelete
	numKinds
)

func (k opKind) String() string {
	return [...]string{"window", "knn", "insert", "delete"}[k]
}

func (k opKind) update() bool { return k == opInsert || k == opDelete }

// mix gives the shares of a tree workload's operations; deletes take
// whatever the other three leave.
type mix struct {
	window, knn, insert float64
	// dataDriven draws window centres and kNN points from the data
	// (the paper's data-driven model); otherwise they are uniform.
	dataDriven bool
}

// spec is one workload. The sizes are the full benchmark's; the tests
// shrink them.
type spec struct {
	name        string
	rects       int
	file        bool    // page file (and WAL) on FileManagers; otherwise MemoryManagers
	wal         bool    // opened writable with OpenPagedTreeWAL
	bufferShare float64 // buffer pages as a share of the tree's pages
	shards      int     // > 1 selects the lock-striped ShardedPool
	perCPU      bool    // one client per CPU; otherwise one client
	mix         mix
	// preInsert is the share of the data inserted one by one after the
	// rest is packed. A freshly packed tree is full, so its first insert
	// into each leaf splits it and update cost falls for as long as a run
	// lasts; inserting part of the data first leaves the nodes an updated
	// tree has, and update cost steady within a run.
	preInsert float64
	warmOps   int    // workload operations run in setup to fill the buffer
	countOps  int    // single-client operations whose counts are reported exactly
	primary   opKind // the operation op_p50_us times
}

const (
	nodeCap    = 100
	windowSide = 0.01
	knnK       = 10
	// insertIDBase keeps inserted IDs clear of the generated data's.
	insertIDBase = int64(1) << 40
)

var specs = []spec{
	{
		name: "read-hot", rects: 1_000_000, bufferShare: 1, shards: 8, perCPU: true,
		mix:      mix{window: 0.9, knn: 0.1, dataDriven: true},
		countOps: 10000, primary: opWindow,
	},
	{
		name: "read-cold", rects: 1_000_000, file: true, bufferShare: 0.02, shards: 1,
		mix:     mix{window: 1},
		warmOps: 2000, countOps: 20000, primary: opWindow,
	},
	{
		name: "update-mixed", rects: 1_000_000, wal: true, bufferShare: 0.10, shards: 1,
		mix:       mix{window: 0.5, insert: 0.3},
		preInsert: 0.05, warmOps: 500, countOps: 2000, primary: opInsert,
	},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// elapsed returns the seconds since start.
func elapsed(start time.Time) float64 { return time.Since(start).Seconds() }

// setupTimes are the setup phases in seconds.
type setupTimes struct {
	gen, pack, save, open, model, sim float64
	build, sweep                      float64 // core calls made by the model check
}

// env is one set-up workload: its data, the in-memory oracle and the
// paged tree under test.
type env struct {
	spec spec
	seed uint64
	// centers are the data's centres, kept only by workloads that draw
	// query points or new items from them. The generated data itself is
	// not kept: the checks regenerate it from the seed after timing, so
	// no oracle heap raises the garbage collector's pacing while the
	// program is timed.
	centers     []geom.Point
	pages       int
	levelCounts []int // nodes per level of the packed tree, root first

	dir           string
	disk, walDisk *timedDisk
	pt            *storage.PagedTree
	bufferPages   int
	// pageReg and walReg hold the storage.NewMetrics counters of the
	// page-file and WAL devices.
	pageReg, walReg *obs.Registry
	bufReg          *obs.Registry // buffer.NewMetrics with levels; traced runs only

	main *client // the single-client stream: warm-up, then the count pass

	ins        []insertRec // every item the run inserted
	live       []int       // indexes into ins of the items not yet deleted
	nextID     int64
	inserted   int
	deleted    int
	startItems int

	// The cost model's prediction for the read workloads' queries at
	// this buffer: disk accesses and nodes visited per query.
	modelReads, modelNodes float64

	checks   int // end-of-run and setup checks attempted
	failures []string
	times    setupTimes
}

func (e *env) fail(format string, args ...any) {
	e.failures = append(e.failures, fmt.Sprintf(format, args...))
}

// newClient returns a client whose operation stream is fixed by the
// seed and the stream number.
func (e *env) newClient(stream uint64) *client {
	return &client{rng: rand.New(rand.NewPCG(e.seed, stream))}
}

const mainStream = 0x6d61696e

func clientStream(id int) uint64 { return 1000 + uint64(id) }

// setup builds the workload in dir: generate, pack, save, open, warm,
// and the model or simulator check.
func setup(sp spec, seed uint64, dir string) (*env, error) {
	e := &env{spec: sp, seed: seed, dir: dir, nextID: insertIDBase}
	e.main = e.newClient(mainStream)

	t := time.Now()
	rects := datagen.TIGERLike(sp.rects, seed)
	items := datagen.Items(rects)
	if sp.mix.dataDriven || sp.mix.insert > 0 {
		e.centers = geom.Centers(rects)
	}
	e.times.gen = elapsed(t)

	t = time.Now()
	packed := len(items) - int(sp.preInsert*float64(len(items)))
	tree, err := pack.Load(pack.HilbertSort, rtree.Params{MaxEntries: nodeCap}, items[:packed])
	if err != nil {
		return nil, err
	}
	for _, it := range items[packed:] {
		tree.Insert(it)
	}
	e.startItems = tree.Len()
	e.pages = tree.NodeCount()
	e.levelCounts = tree.NodesPerLevel()
	e.times.pack = elapsed(t)

	if err := e.setupTree(tree); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) setupTree(tree *rtree.Tree) error {
	sp := e.spec
	e.bufferPages = max(1, int(sp.bufferShare*float64(e.pages)+0.5))
	e.pageReg, e.walReg = obs.NewRegistry(), obs.NewRegistry()

	t := time.Now()
	var inner storage.DiskManager
	path := filepath.Join(e.dir, "tree.pages")
	if sp.file {
		if err := storage.SaveTreeAtomic(path, storage.DefaultPageSize, tree); err != nil {
			return err
		}
	} else {
		mm, err := storage.NewMemoryManager(storage.DefaultPageSize)
		if err != nil {
			return err
		}
		if err := storage.SaveTree(mm, tree); err != nil {
			return err
		}
		inner = mm
	}
	e.times.save = elapsed(t)

	t = time.Now()
	if sp.file {
		fm, err := storage.OpenFile(path)
		if err != nil {
			return err
		}
		inner = fm
	}
	storage.SetManagerMetrics(inner, storage.NewMetrics(e.pageReg))
	e.disk = newTimedDisk(inner, devPage)
	var err error
	switch {
	case sp.wal:
		var walInner storage.DiskManager
		walPageSize := storage.DefaultPageSize + storage.WALFrameOverhead
		if sp.file {
			walInner, err = storage.CreateFile(storage.WALPath(path), walPageSize)
		} else {
			walInner, err = storage.NewMemoryManager(walPageSize)
		}
		if err != nil {
			return err
		}
		walMetrics := storage.NewMetrics(e.walReg)
		storage.SetManagerMetrics(walInner, walMetrics)
		e.walDisk = newTimedDisk(walInner, devWAL)
		var rep storage.RecoveryReport
		e.pt, rep, err = storage.OpenPagedTreeWAL(e.disk, e.walDisk, e.bufferPages)
		if err != nil {
			return err
		}
		if rep.NeededRecovery() {
			return fmt.Errorf("fresh tree needed recovery: %s", rep)
		}
		e.pt.WAL().SetMetrics(walMetrics)
		// The default policy, stated: checkpoint after every batch.
		e.pt.SetCheckpointPolicy(storage.CheckpointPolicy{})
	case sp.shards > 1:
		e.pt, err = storage.OpenPagedTreeWith(e.disk, e.bufferPages, "lru", sp.shards)
	default:
		e.pt, err = storage.OpenPagedTree(e.disk, e.bufferPages)
	}
	if err != nil {
		return err
	}
	if got := e.pt.Meta().NumPages(); got != e.pages {
		return fmt.Errorf("stored tree has %d pages, packed tree %d nodes", got, e.pages)
	}
	e.times.open = elapsed(t)

	if sp.bufferShare >= 1 {
		// The whole tree fits: load every page once.
		for page := 0; page < e.pages; page++ {
			if _, err := e.pt.Pool().Get(page); err != nil {
				return err
			}
		}
	}
	for i := 0; i < sp.warmOps; i++ {
		kind, err := e.step(e.main)
		e.after(e.main, kind, err)
	}

	if sp.wal {
		return nil
	}
	return e.modelCheck(tree.Levels())
}

// simTolerance bounds the relative gap between the simulator and the
// model in the setup check. The paper's Table 1 reports agreement within
// 2% at a million queries per batch; the check runs far fewer queries,
// so the simulator's own 90% confidence half-width is added.
const simTolerance = 0.02

// modelCheck prices the read workloads' queries with the paper's cost
// model: core.NewPredictor under the workload's query model (the
// data-driven one builds its grid over the data centres), then a sweep
// around the buffer size, which fails the check if a larger buffer is
// predicted to cost more. On the uniform workload it also runs the
// simulator at the same buffer and fails the check when the two
// disagree by more than Table 1's tolerance.
func (e *env) modelCheck(levels [][]geom.Rect) error {
	t := time.Now()
	var qm core.QueryModel = core.UniformQueries{QX: windowSide, QY: windowSide}
	if e.spec.mix.dataDriven {
		d, err := core.NewDataDrivenQueries(windowSide, windowSide, e.centers, 0)
		if err != nil {
			return err
		}
		qm = d
	}
	pred := core.NewPredictor(levels, qm)
	e.times.build = elapsed(t)
	t = time.Now()
	b := e.bufferPages
	sizes := []int{b / 4, b / 2, b, 2 * b, 4 * b}
	sweep := pred.DiskAccessesSweep(sizes)
	e.times.sweep = elapsed(t)
	e.modelReads, e.modelNodes = sweep[2], pred.NodesVisited()
	e.times.model = e.times.build + e.times.sweep
	e.checks++
	for i := 1; i < len(sweep); i++ {
		if sweep[i] > sweep[i-1] {
			e.fail("model check: %.6f disk accesses per query at buffer %d, more than %.6f at %d",
				sweep[i], sizes[i], sweep[i-1], sizes[i-1])
			break
		}
	}
	if e.spec.mix.dataDriven {
		return nil
	}

	t = time.Now()
	w, err := sim.NewUniformRegions(windowSide, windowSide)
	if err != nil {
		return err
	}
	res, err := sim.Run(levels, w, sim.Config{BufferSize: b, Batches: 10, BatchSize: 5000, Seed: e.seed})
	if err != nil {
		return err
	}
	e.times.sim = elapsed(t)
	e.checks++
	got := res.DiskPerQuery
	if gap := math.Abs(got.Mean - e.modelReads); gap > simTolerance*e.modelReads+got.HalfWidth {
		e.fail("sim check: simulator %.4f±%.4f vs model %.4f disk accesses per query at buffer %d", got.Mean, got.HalfWidth, e.modelReads, b)
	}
	return nil
}

// close releases the workload's files.
func (e *env) close() {
	if e == nil {
		return
	}
	if e.disk != nil {
		_ = e.disk.Close() // read-side teardown; durability is checked in verifyReopen
	}
	if e.walDisk != nil {
		_ = e.walDisk.Close() // as above
	}
	e.disk, e.walDisk, e.pt = nil, nil, nil
	_ = os.RemoveAll(e.dir) // scratch files only
}

// lastOp is what the oracle needs about the operation just run.
type lastOp struct {
	q     geom.Rect
	p     geom.Point
	items []rtree.Item
	nbrs  []rtree.Neighbor
	item  rtree.Item
	ins   int // the deleted item's index in env.ins
	found bool
}

func (e *env) window(rng *rand.Rand) geom.Rect {
	if e.spec.mix.dataDriven {
		return geom.RectAround(e.centers[rng.IntN(len(e.centers))], windowSide, windowSide)
	}
	// Top-right corner uniform over [side,1]^2, as core.UniformQueries models.
	x, y := rng.Float64()*(1-windowSide), rng.Float64()*(1-windowSide)
	return geom.Rect{MinX: x, MinY: y, MaxX: x + windowSide, MaxY: y + windowSide}
}

func (e *env) point(rng *rand.Rand) geom.Point {
	if e.spec.mix.dataDriven {
		return e.centers[rng.IntN(len(e.centers))]
	}
	return geom.Point{X: rng.Float64(), Y: rng.Float64()}
}

// newItem is a thin street-like segment near existing data.
func (e *env) newItem(rng *rand.Rand) rtree.Item {
	c := e.centers[rng.IntN(len(e.centers))]
	long, thin := 0.0005+0.002*rng.Float64(), 0.00005
	if rng.IntN(2) == 0 {
		long, thin = thin, long
	}
	e.nextID++
	return rtree.Item{Rect: geom.RectAround(c, long, thin), ID: e.nextID}
}

// step draws the client's next operation and runs it against the
// program; the oracle work is left to after, outside the timed region.
func (e *env) step(c *client) (opKind, error) {
	m := e.spec.mix
	r := c.rng.Float64()
	var err error
	switch {
	case r < m.window:
		c.last.q = e.window(c.rng)
		c.last.items, err = e.pt.SearchWindow(c.last.q)
		return opWindow, err
	case r < m.window+m.knn:
		c.last.p = e.point(c.rng)
		c.last.nbrs, err = e.pt.Nearest(c.last.p, knnK)
		return opKNN, err
	case r < m.window+m.knn+m.insert || len(e.live) == 0:
		c.last.item = e.newItem(c.rng)
		return opInsert, e.pt.Insert(c.last.item)
	default:
		i := c.rng.IntN(len(e.live))
		c.last.ins = e.live[i]
		c.last.item = e.ins[c.last.ins].item
		e.live[i] = e.live[len(e.live)-1]
		e.live = e.live[:len(e.live)-1]
		c.last.found, err = e.pt.Delete(c.last.item)
		return opDelete, err
	}
}
